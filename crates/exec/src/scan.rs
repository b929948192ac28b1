//! SE-side scans: full sequential scan and clustered range scan.
//!
//! Scans are where the paper's machinery concentrates: predicates are
//! evaluated *inside* the scan (Example 2's dotted box), pages arrive
//! grouped (Fig 2, left), and the attached
//! [`crate::monitor::ScanMonitorSet`] implements
//! exact counting for prefix expressions plus `DPSample` for the rest.

use crate::context::ExecContext;
use crate::expr::{Conjunction, PageKernel};
use crate::monitor::ScanMonitorHandle;
use crate::op::Operator;
use pf_common::{Datum, PageId, Result, Row, Schema, SlotId, TableId};
use pf_feedback::{bitmap, BitVectorFilter};
use pf_storage::{AccessPattern, Page, RowLayout, RowView, TableStorage};
use std::collections::VecDeque;
use std::sync::Arc;

/// A sequential scan over a contiguous page range of one table, with the
/// query predicate pushed into the storage engine.
pub struct SeqScan {
    storage: Arc<TableStorage>,
    table_id: TableId,
    predicate: Conjunction,
    monitors: Option<ScanMonitorHandle>,
    /// `[first, last)` pages to scan.
    page_range: (u32, u32),
    /// Whether the first page access is a random I/O (a clustered seek
    /// positions the disk arm once, then reads sequentially).
    first_random: bool,
    next_page: u32,
    started: bool,
    finished: bool,
    /// Materialized qualifying rows of the current page.
    buffer: VecDeque<Row>,
    /// Per-conjunct truth of the current row on fully-evaluated pages
    /// (row loop only).
    atom_buf: Vec<bool>,
    /// Reusable per-page bitmap of qualifying slots: predicates are
    /// evaluated over the page in one batched pass, and only the slots
    /// marked here are materialized into `buffer` (rows the parent will
    /// actually receive).
    qualifying: Vec<u64>,
    /// Reusable per-atom truth stripes for the kernel path: atom `i`'s
    /// per-slot results occupy words `i*words..(i+1)*words`.
    atom_bits: Vec<u64>,
    /// Reusable all-slots mask of the current page (first `n_rows` bits).
    page_mask: Vec<u64>,
    /// Reusable slot-directory offsets of the current page.
    slot_offs: Vec<u32>,
    /// Compiled page-at-a-time kernel; `None` when any predicate column
    /// is outside the fixed-width prefix, in which case every page takes
    /// the row loop.
    kernel: Option<PageKernel>,
    /// Semi-join pre-filter pushed down from a hash join: once the
    /// build side completes, its merged [`BitVectorFilter`] is evaluated
    /// in the page pass (after monitors observe the full page) and rows
    /// with no possible build match are culled before materialization.
    /// Charging rule: one hash op per qualifying row *tested* — exactly
    /// the per-probe-row hash the join itself would have charged — so
    /// I/O statistics are byte-identical to the unfiltered plan.
    prefilter: Option<(BitVectorFilter, usize)>,
}

impl SeqScan {
    /// Shared constructor: `page_range` is already clamped by callers.
    fn build(
        storage: Arc<TableStorage>,
        table_id: TableId,
        predicate: Conjunction,
        monitors: Option<ScanMonitorHandle>,
        page_range: (u32, u32),
        first_random: bool,
    ) -> Self {
        let kernel = predicate.compile_page_kernel(storage.layout());
        SeqScan {
            next_page: page_range.0,
            storage,
            table_id,
            predicate,
            monitors,
            page_range,
            first_random,
            started: false,
            finished: false,
            buffer: VecDeque::new(),
            atom_buf: Vec::new(),
            qualifying: Vec::new(),
            atom_bits: Vec::new(),
            page_mask: Vec::new(),
            slot_offs: Vec::new(),
            kernel,
            prefilter: None,
        }
    }

    /// A full-table scan.
    pub fn full(
        storage: Arc<TableStorage>,
        table_id: TableId,
        predicate: Conjunction,
        monitors: Option<ScanMonitorHandle>,
    ) -> Self {
        let pages = storage.page_count();
        Self::build(storage, table_id, predicate, monitors, (0, pages), false)
    }

    /// A scan restricted to the page sub-range `[first, last)` — one
    /// morsel of a partitioned scan. `first_random` declares whether the
    /// morsel's first page access pays a random (positioning) I/O; only
    /// the morsel that inherits a clustered seek's initial placement
    /// should pass `true`, so the summed per-morsel I/O counters equal a
    /// serial scan of the whole range exactly.
    pub fn with_page_range(
        storage: Arc<TableStorage>,
        table_id: TableId,
        predicate: Conjunction,
        monitors: Option<ScanMonitorHandle>,
        page_range: (u32, u32),
        first_random: bool,
    ) -> Self {
        let last = page_range.1.min(storage.page_count());
        let first = page_range.0.min(last);
        Self::build(
            storage,
            table_id,
            predicate,
            monitors,
            (first, last),
            first_random,
        )
    }

    /// A clustered range scan: pages bracketing clustering-key values in
    /// `[lo, hi]` (either bound optional), positioned with one random
    /// I/O then read sequentially.
    pub fn clustered_range(
        storage: Arc<TableStorage>,
        table_id: TableId,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
        predicate: Conjunction,
        monitors: Option<ScanMonitorHandle>,
    ) -> Result<Self> {
        let (first, last) = storage.locate_range(lo, hi)?;
        Ok(Self::build(
            storage,
            table_id,
            predicate,
            monitors,
            (first, last),
            true,
        ))
    }

    /// Installs a semi-join pre-filter over `key_col` (see the field
    /// docs for the charging contract). Only meaningful before the
    /// first delivery.
    pub fn set_semi_join_prefilter(&mut self, filter: BitVectorFilter, key_col: usize) {
        self.prefilter = Some((filter, key_col));
    }

    /// Materializing page load: evaluates the next page and buffers its
    /// qualifying rows for row-at-a-time delivery.
    fn load_next_page(&mut self, ctx: &mut ExecContext) -> Result<bool> {
        match self.eval_next_page(ctx)? {
            PageEval::Exhausted => Ok(false),
            PageEval::Skipped => Ok(true),
            PageEval::Ready { pid } => {
                // Pass 2: materialize only the qualifying rows — the
                // ones the parent operator will actually receive. The
                // page passed verification in the eval pass, so this
                // re-lookup (no re-verify, no new I/O: residency was
                // charged there) sees the same bytes.
                let storage = Arc::clone(&self.storage);
                let page = storage.checked_page(PageId(pid), ctx.fault_attempt, false)?;
                let layout = storage.layout();
                for (word, &bits) in self.qualifying.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let slot = word * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let row = page.view(layout, SlotId(slot as u16))?.materialize();
                        self.buffer.push_back(row);
                    }
                }
                Ok(true)
            }
        }
    }

    /// Evaluates the next page of the range into the `qualifying`
    /// bitmap — checksum verification, monitor observation, predicate
    /// kernels, prefilter culling, and every I/O charge happen here,
    /// identically for the materializing and the page-batched
    /// consumers. No row is decoded into owned values.
    fn eval_next_page(&mut self, ctx: &mut ExecContext) -> Result<PageEval> {
        if self.next_page >= self.page_range.1 {
            return Ok(PageEval::Exhausted);
        }
        // Page-boundary cancellation/deadline checkpoint: one per page
        // actually visited, so `CancelToken::cancel_after(k)` aborts
        // exactly before the (k+1)-th page is read.
        ctx.check_interrupt()?;
        let pid = PageId(self.next_page);
        self.next_page += 1;
        let pattern = if self.first_random && !self.started {
            AccessPattern::Random
        } else {
            AccessPattern::Sequential
        };
        self.started = true;
        let hit = ctx.pool.access(self.table_id, pid, pattern);
        // A miss means the bytes "came from disk": verify the checksum
        // (and let the fault plan interpose). A corrupt page is skipped
        // and recorded rather than failing the query; monitors are told
        // so every harvested estimate is marked degraded.
        let page = match self.storage.checked_page(pid, ctx.fault_attempt, !hit) {
            Ok(p) => p,
            Err(pf_common::Error::ChecksumMismatch { .. }) => {
                ctx.pool.skip_corrupt(self.table_id, pid);
                if let Some(m) = &self.monitors {
                    let mut m = m.borrow_mut();
                    // Announce the page first so page/sample accounting
                    // matches a fault-free run.
                    m.start_page(pid.0);
                    m.note_skipped_page();
                }
                return Ok(PageEval::Skipped);
            }
            Err(e) => return Err(e),
        };
        let layout = self.storage.layout();
        ctx.pool.charge_rows(u64::from(page.slot_count()));

        // Monitoring setup for this page (Fig 4, steps 3–4).
        let full_eval = match &self.monitors {
            Some(m) => {
                let mut m = m.borrow_mut();
                let sampled = m.start_page(pid.0);
                sampled && m.needs_full_eval()
            }
            None => false,
        };

        // Pass 1: evaluate the whole page into the qualifying bitmap —
        // no row is decoded into owned values here.
        //
        // Preferred (kernel) path: comparison atoms read their operands
        // straight out of the page buffer's fixed-prefix region, one
        // truth stripe per atom, with no `RowView` construction (and no
        // per-row validation walk) for rows that are only observed,
        // never delivered. Monitors then receive one batched per-page
        // observation instead of N per-row calls. Falls back to the row
        // loop when the predicate has non-fixed-prefix columns or a slot
        // directory fails the kernel's bounds pre-check. Both paths are
        // bit-identical in counts, I/O charges, and sketch contents.
        let natoms = self.predicate.len();
        let n_rows = usize::from(page.slot_count());
        let words = n_rows.div_ceil(64);
        self.qualifying.clear();
        self.qualifying.resize(words, 0);

        let mut used_kernel = false;
        if let Some(kernel) = &self.kernel {
            if page.slot_offsets(kernel.span(), &mut self.slot_offs) {
                used_kernel = true;
                self.page_mask.clear();
                self.page_mask.resize(words, 0);
                bitmap::fill_ones(&mut self.page_mask, n_rows);
                self.qualifying.copy_from_slice(&self.page_mask);
                self.atom_bits.clear();
                self.atom_bits.resize(natoms * words, 0);
                let bytes = page.bytes();

                // Cascade: entering atom `i`, `qualifying` is the
                // short-circuit prefix (rows passing atoms 0..i), so the
                // per-atom popcount sums to exactly the evaluations the
                // row-at-a-time path charges. On fully-evaluated pages
                // every atom is evaluated on every slot instead, and the
                // surplus is charged as monitoring overhead — the same
                // `natoms·n_rows − short_circuit_evals` a per-row
                // `eval_all` accumulates.
                let mut sc_evals = 0u64;
                for i in 0..natoms {
                    sc_evals += bitmap::popcount(&self.qualifying);
                    let stripe = i * words..(i + 1) * words;
                    let active = if full_eval {
                        &self.page_mask
                    } else {
                        &self.qualifying
                    };
                    kernel.eval_atom(
                        i,
                        bytes,
                        &self.slot_offs,
                        active,
                        &mut self.atom_bits[stripe.clone()],
                    );
                    bitmap::and_into(&mut self.qualifying, &self.atom_bits[stripe]);
                }
                ctx.pool.charge_pred_evals(sc_evals);
                if full_eval {
                    ctx.pool
                        .charge_extra_pred_evals((natoms as u64) * (n_rows as u64) - sc_evals);
                }

                if let Some(m) = &self.monitors {
                    let mut m = m.borrow_mut();
                    m.observe_page_atoms(&self.atom_bits, words, n_rows as u64);
                    ctx.pool.charge_monitor_ops(n_rows as u64);
                    // Semi-join expressions hash per-row keys, which
                    // bitmaps cannot carry: the batched observation walks
                    // views only on sampled pages with live semi-join
                    // monitors, stopping as soon as all are satisfied.
                    m.observe_semi_join_page(page.cursor(layout))?;
                }
            }
        }

        if !used_kernel {
            for (slot, view) in page.cursor(layout).enumerate() {
                let view = view?;
                let pass = if full_eval {
                    // Short-circuiting OFF for this sampled page:
                    // evaluate every conjunct, charging the surplus as
                    // monitoring overhead.
                    let pass = self.predicate.eval_all(&view, &mut self.atom_buf);
                    let sc_evals = match self.atom_buf.iter().position(|r| !*r) {
                        Some(i) => i + 1,
                        None => natoms,
                    };
                    ctx.pool.charge_pred_evals(sc_evals as u64);
                    ctx.pool.charge_extra_pred_evals((natoms - sc_evals) as u64);
                    if let Some(m) = &self.monitors {
                        m.borrow_mut().observe_full_row(&self.atom_buf, &view);
                        ctx.pool.charge_monitor_ops(1);
                    }
                    pass
                } else {
                    let (pass, evaluated) = self.predicate.eval_short_circuit(&view);
                    ctx.pool.charge_pred_evals(evaluated as u64);
                    if let Some(m) = &self.monitors {
                        // Truths known from short-circuit evaluation:
                        // conjuncts before the stopping point are true,
                        // the stopping conjunct is true iff the row
                        // passed, later conjuncts were never evaluated.
                        m.borrow_mut().observe_prefix_row(evaluated, pass, &view);
                        ctx.pool.charge_monitor_ops(1);
                    }
                    pass
                };
                if pass {
                    self.qualifying[slot / 64] |= 1 << (slot % 64);
                }
            }
        }

        // Prefilter pass: cull qualifying rows whose join key cannot be
        // on the build side. Runs strictly after monitor observation
        // (sketches must see the full page) and charges one hash per
        // row tested — the hash the consuming join charges per probe
        // row on the unfiltered path, keeping I/O statistics
        // byte-identical.
        if let Some((filter, key_col)) = &self.prefilter {
            for word in 0..self.qualifying.len() {
                let mut bits = self.qualifying[word];
                while bits != 0 {
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    ctx.pool.charge_hashes(1);
                    let key = page.view(layout, SlotId(slot as u16))?.get(*key_col);
                    if !filter.may_contain_ref(key) {
                        self.qualifying[word] &= !(1u64 << (slot % 64));
                    }
                }
            }
        }

        if let Some(m) = &self.monitors {
            let hashes = m.borrow_mut().take_hash_ops();
            ctx.pool.charge_hashes(hashes);
        }
        Ok(PageEval::Ready { pid: pid.0 })
    }
}

/// Outcome of one page-evaluation step.
enum PageEval {
    /// The page range is exhausted.
    Exhausted,
    /// The page failed verification and was skipped (recorded as
    /// degraded); the scan continues with the next page.
    Skipped,
    /// `qualifying` holds the page's surviving slots.
    Ready { pid: u32 },
}

/// Borrowed access to the qualifying rows of one evaluated page —
/// what a page-batched consumer receives in place of materialized
/// rows. Every charge for the page has already been applied.
pub struct PageRows<'a> {
    page: &'a Page,
    layout: &'a RowLayout,
    qualifying: &'a [u64],
}

impl<'a> PageRows<'a> {
    /// Visits each qualifying row as a borrowed view, in slot order.
    pub fn for_each(&self, mut f: impl FnMut(RowView<'a>) -> Result<()>) -> Result<()> {
        for (word, &bits) in self.qualifying.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let slot = (word * 64 + bits.trailing_zeros() as usize) as u16;
                bits &= bits - 1;
                f(self.page.view(self.layout, SlotId(slot))?)?;
            }
        }
        Ok(())
    }
}

impl SeqScan {
    /// Page-batched pull: evaluates the next page (skipping corrupt
    /// ones) and hands its qualifying rows to `visit` as borrowed
    /// views. Returns `false` once the range is exhausted (monitors
    /// are finished at that point). Must not be interleaved with
    /// buffered `next()` deliveries.
    pub fn next_page_rows(
        &mut self,
        ctx: &mut ExecContext,
        visit: &mut dyn FnMut(&PageRows<'_>, &mut ExecContext) -> Result<()>,
    ) -> Result<bool> {
        debug_assert!(self.buffer.is_empty(), "mixed page-batched and row pulls");
        loop {
            if self.finished {
                return Ok(false);
            }
            match self.eval_next_page(ctx)? {
                PageEval::Exhausted => {
                    self.finished = true;
                    if let Some(m) = &self.monitors {
                        m.borrow_mut().finish();
                    }
                    return Ok(false);
                }
                PageEval::Skipped => continue,
                PageEval::Ready { pid } => {
                    let storage = Arc::clone(&self.storage);
                    let page = storage.checked_page(PageId(pid), ctx.fault_attempt, false)?;
                    let rows = PageRows {
                        page,
                        layout: storage.layout(),
                        qualifying: &self.qualifying,
                    };
                    visit(&rows, ctx)?;
                    return Ok(true);
                }
            }
        }
    }
}

impl Operator for SeqScan {
    fn schema(&self) -> &Schema {
        self.storage.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.buffer.pop_front() {
                return Ok(Some(row));
            }
            if self.finished {
                return Ok(None);
            }
            if !self.load_next_page(ctx)? {
                self.finished = true;
                if let Some(m) = &self.monitors {
                    m.borrow_mut().finish();
                }
            }
        }
    }

    fn next_count(&mut self, ctx: &mut ExecContext) -> Result<Option<u64>> {
        if !self.buffer.is_empty() {
            let n = self.buffer.len() as u64;
            self.buffer.clear();
            return Ok(Some(n));
        }
        loop {
            if self.finished {
                return Ok(None);
            }
            match self.eval_next_page(ctx)? {
                PageEval::Exhausted => {
                    self.finished = true;
                    if let Some(m) = &self.monitors {
                        m.borrow_mut().finish();
                    }
                    return Ok(None);
                }
                PageEval::Skipped => continue,
                PageEval::Ready { .. } => {
                    let n = bitmap::popcount(&self.qualifying);
                    if n > 0 {
                        return Ok(Some(n));
                    }
                }
            }
        }
    }

    fn as_seq_scan(&mut self) -> Option<&mut SeqScan> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AtomicPredicate, CompareOp};
    use crate::monitor::{ScanExprMonitor, ScanMonitorSet};
    use crate::op::{drain, run_count};
    use pf_common::{Column, DataType};
    use pf_feedback::FeedbackReport;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn make_table(n: i64) -> Arc<TableStorage> {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("val", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n), // scrambled
                    Datum::Str("x".repeat(40)),
                ])
            })
            .collect();
        Arc::new(TableStorage::bulk_load(schema, &rows, Some(0), 1024, 1.0).unwrap())
    }

    fn lt(storage: &TableStorage, col: &str, v: i64) -> AtomicPredicate {
        AtomicPredicate::new(storage.schema(), col, CompareOp::Lt, Datum::Int(v)).unwrap()
    }

    #[test]
    fn full_scan_returns_matching_rows() {
        let t = make_table(500);
        let pred = Conjunction::new(vec![lt(&t, "id", 100)]);
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred, None);
        let mut ctx = ExecContext::new(1024);
        let rows = drain(&mut scan, &mut ctx).unwrap();
        assert_eq!(rows.len(), 100);
        // All pages read sequentially exactly once.
        let s = ctx.stats();
        assert_eq!(s.seq_physical_reads, u64::from(t.page_count()));
        assert_eq!(s.rand_physical_reads, 0);
        assert_eq!(s.rows_processed, 500);
        assert_eq!(s.pred_evals, 500);
    }

    #[test]
    fn clustered_range_scan_reads_fewer_pages() {
        let t = make_table(1_000);
        let pred = Conjunction::new(vec![lt(&t, "id", 50)]);
        let mut scan = SeqScan::clustered_range(
            Arc::clone(&t),
            TableId(0),
            None,
            Some(&Datum::Int(49)),
            pred,
            None,
        )
        .unwrap();
        let mut ctx = ExecContext::new(1024);
        assert_eq!(run_count(&mut scan, &mut ctx).unwrap(), 50);
        let s = ctx.stats();
        assert!(s.physical_reads() < u64::from(t.page_count()));
        assert_eq!(s.rand_physical_reads, 1, "seek positions once");
    }

    #[test]
    fn exact_monitoring_matches_brute_force() {
        let t = make_table(800);
        let pred = Conjunction::new(vec![lt(&t, "val", 200)]);
        let monitors = Rc::new(RefCell::new(ScanMonitorSet::new(
            vec![ScanExprMonitor::atoms(&pred, vec![0], None)],
            1.0,
            3,
        )));
        let mut scan = SeqScan::full(
            Arc::clone(&t),
            TableId(0),
            pred.clone(),
            Some(Rc::clone(&monitors)),
        );
        let mut ctx = ExecContext::new(4096);
        let got = run_count(&mut scan, &mut ctx).unwrap();
        assert_eq!(got, 200);

        // Brute force DPC.
        let mut truth = 0u64;
        for p in 0..t.page_count() {
            let any = t
                .rows_on_page(PageId(p))
                .unwrap()
                .iter()
                .any(|r| r.get(1).as_int().unwrap() < 200);
            truth += u64::from(any);
        }
        let mut rep = FeedbackReport::new();
        monitors.borrow_mut().harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, truth as f64);
    }

    /// A query deadline aborts a monitored scan at the first page
    /// checkpoint past it — the same page on every run — and never sheds
    /// a monitor; a deadline that never fires changes nothing.
    #[test]
    fn deadline_aborts_a_monitored_scan_at_a_page_boundary() {
        let t = make_table(800);
        let pred = Conjunction::new(vec![lt(&t, "val", 200)]);
        let run = |deadline_ms| {
            let monitors = Rc::new(RefCell::new(ScanMonitorSet::new(
                vec![ScanExprMonitor::atoms(&pred, vec![0], None)],
                1.0,
                3,
            )));
            let mut scan = SeqScan::full(
                Arc::clone(&t),
                TableId(0),
                pred.clone(),
                Some(Rc::clone(&monitors)),
            );
            let mut ctx = ExecContext::new(4096);
            ctx.deadline_ms = deadline_ms;
            let count = run_count(&mut scan, &mut ctx);
            let shed = monitors.borrow().shed_count();
            (count, ctx.stats(), shed)
        };
        let (aborted, stats, shed) = run(Some(0));
        assert_eq!(
            aborted,
            Err(pf_common::Error::DeadlineExceeded { deadline_ms: 0 })
        );
        assert_eq!(shed, 0, "a deadline aborts the query, never a monitor");
        assert_eq!(stats.physical_reads(), 1, "aborts at the second page");
        assert_eq!(run(Some(0)), (aborted, stats, 0), "same abort page");
        assert_eq!(run(Some(u64::MAX / 2)), run(None));
    }

    #[test]
    fn non_prefix_monitoring_charges_extra_evals() {
        let t = make_table(400);
        let pred = Conjunction::new(vec![lt(&t, "id", 10), lt(&t, "val", 200)]);
        // Monitor the non-prefix atom `val<200` at full sampling.
        let monitors = Rc::new(RefCell::new(ScanMonitorSet::new(
            vec![ScanExprMonitor::atoms(&pred, vec![1], None)],
            1.0,
            3,
        )));
        let mut scan = SeqScan::full(
            Arc::clone(&t),
            TableId(0),
            pred.clone(),
            Some(Rc::clone(&monitors)),
        );
        let mut ctx = ExecContext::new(4096);
        run_count(&mut scan, &mut ctx).unwrap();
        let s = ctx.stats();
        // Most rows fail id<10 immediately; monitoring forced val<200.
        assert!(
            s.extra_pred_evals > 300,
            "extra evals {}",
            s.extra_pred_evals
        );

        // And the count is exact.
        let mut truth = 0u64;
        for p in 0..t.page_count() {
            let any = t
                .rows_on_page(PageId(p))
                .unwrap()
                .iter()
                .any(|r| r.get(1).as_int().unwrap() < 200);
            truth += u64::from(any);
        }
        let mut rep = FeedbackReport::new();
        monitors.borrow_mut().harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, truth as f64);
    }

    #[test]
    fn no_monitor_means_no_extra_evals() {
        let t = make_table(400);
        let pred = Conjunction::new(vec![lt(&t, "id", 10), lt(&t, "val", 200)]);
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred, None);
        let mut ctx = ExecContext::new(4096);
        run_count(&mut scan, &mut ctx).unwrap();
        assert_eq!(ctx.stats().extra_pred_evals, 0);
    }

    #[test]
    fn sampled_monitoring_is_cheaper_and_close() {
        let t = make_table(2_000);
        let pred = Conjunction::new(vec![lt(&t, "id", 50), lt(&t, "val", 1_000)]);
        let run = |fraction: f64| {
            let monitors = Rc::new(RefCell::new(ScanMonitorSet::new(
                vec![ScanExprMonitor::atoms(&pred, vec![1], None)],
                fraction,
                7,
            )));
            let mut scan = SeqScan::full(
                Arc::clone(&t),
                TableId(0),
                pred.clone(),
                Some(Rc::clone(&monitors)),
            );
            let mut ctx = ExecContext::new(8192);
            run_count(&mut scan, &mut ctx).unwrap();
            let mut rep = FeedbackReport::new();
            monitors.borrow_mut().harvest("t", &mut rep);
            (rep.measurements[0].actual, ctx.stats().extra_pred_evals)
        };
        let (exact, full_cost) = run(1.0);
        let (sampled, sampled_cost) = run(0.2);
        assert!(
            sampled_cost < full_cost / 2,
            "{sampled_cost} !< {full_cost}/2"
        );
        let err = (sampled - exact).abs() / exact.max(1.0);
        assert!(err < 0.25, "exact {exact} sampled {sampled}");
    }

    /// `id`, `a` (scrambled Int), `f` (Float with NaN and ±0.0), `d`
    /// (Date) in the fixed-width prefix, then a Str pad.
    fn typed_table(n: i64) -> Arc<TableStorage> {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("d", DataType::Date),
            Column::new("pad", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let f = match i % 31 {
                    0 => f64::NAN,
                    7 => -0.0,
                    13 => 0.0,
                    _ => ((i * 37) % 200) as f64 * 0.5 - 50.0,
                };
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Float(f),
                    Datum::Date(((i * 13) % 365) as i32),
                    Datum::Str("x".repeat(24)),
                ])
            })
            .collect();
        Arc::new(TableStorage::bulk_load(schema, &rows, Some(0), 1024, 1.0).unwrap())
    }

    /// Runs `pred` over `t` with the compiled kernel (`kernel = true`) or
    /// with the kernel cleared so every page takes the row loop. Each
    /// entry of `monitored` is one watched atom subset; an empty list
    /// runs unmonitored. Returns count, I/O counters and the report.
    fn run_scan(
        t: &Arc<TableStorage>,
        pred: &Conjunction,
        monitored: &[Vec<usize>],
        fraction: f64,
        kernel: bool,
    ) -> (u64, pf_storage::IoStats, FeedbackReport) {
        let monitors = (!monitored.is_empty()).then(|| {
            let exprs = monitored
                .iter()
                .map(|idx| ScanExprMonitor::atoms(pred, idx.clone(), None))
                .collect();
            Rc::new(RefCell::new(ScanMonitorSet::new(exprs, fraction, 11)))
        });
        let mut scan = SeqScan::full(Arc::clone(t), TableId(0), pred.clone(), monitors.clone());
        assert!(scan.kernel.is_some(), "{pred}: kernel must compile");
        if !kernel {
            scan.kernel = None;
        }
        let mut ctx = ExecContext::new(4096);
        let count = run_count(&mut scan, &mut ctx).unwrap();
        let mut rep = FeedbackReport::new();
        if let Some(m) = &monitors {
            m.borrow_mut().harvest("t", &mut rep);
        }
        (count, ctx.stats(), rep)
    }

    #[test]
    fn kernel_matches_row_loop() {
        let t = typed_table(3_000);
        let atom = |col: &str, op: CompareOp, v: Datum| {
            AtomicPredicate::new(t.schema(), col, op, v).unwrap()
        };
        let conjunctions = [
            vec![atom("a", CompareOp::Lt, Datum::Int(1_200))],
            vec![atom("f", CompareOp::Le, Datum::Float(0.0))],
            vec![atom("f", CompareOp::Eq, Datum::Float(-0.0))],
            vec![atom("d", CompareOp::Ge, Datum::Date(200))],
            vec![
                atom("a", CompareOp::Lt, Datum::Int(2_000)),
                atom("f", CompareOp::Gt, Datum::Float(-20.0)),
            ],
            vec![
                atom("d", CompareOp::Lt, Datum::Date(300)),
                atom("id", CompareOp::Ne, Datum::Int(17)),
                atom("f", CompareOp::Ge, Datum::Float(f64::NAN)),
            ],
            vec![
                atom("a", CompareOp::Ge, Datum::Int(100)),
                atom("d", CompareOp::Gt, Datum::Date(50)),
                atom("f", CompareOp::Lt, Datum::Float(10.5)),
            ],
        ];
        for atoms in conjunctions {
            let pred = Conjunction::new(atoms);
            let n = pred.len();
            // Unmonitored; prefix-only (short-circuit observation); and
            // with a non-prefix subset, which forces full evaluation on
            // sampled pages.
            let mut monitor_sets = vec![Vec::new(), vec![vec![0], (0..n).collect()]];
            if n > 1 {
                monitor_sets.push(vec![vec![0], vec![n - 1], (0..n).collect()]);
            }
            for monitored in &monitor_sets {
                for fraction in [1.0, 0.5] {
                    let fast = run_scan(&t, &pred, monitored, fraction, true);
                    let slow = run_scan(&t, &pred, monitored, fraction, false);
                    let what = format!("{pred}, monitors {monitored:?}, fraction {fraction}");
                    assert_eq!(fast.0, slow.0, "{what}: count");
                    assert_eq!(fast.1, slow.1, "{what}: stats");
                    assert_eq!(fast.2, slow.2, "{what}: report");
                }
            }
        }
    }

    #[test]
    fn empty_predicate_scans_everything() {
        let t = make_table(100);
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), Conjunction::always_true(), None);
        let mut ctx = ExecContext::new(1024);
        assert_eq!(run_count(&mut scan, &mut ctx).unwrap(), 100);
        assert_eq!(ctx.stats().pred_evals, 0);
    }
}
