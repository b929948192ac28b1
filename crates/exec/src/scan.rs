//! SE-side scans: full sequential scan and clustered range scan.
//!
//! Scans are where the paper's machinery concentrates: predicates are
//! evaluated *inside* the scan (Example 2's dotted box), pages arrive
//! grouped (Fig 2, left), and the attached
//! [`crate::monitor::ScanMonitorSet`] implements
//! exact counting for prefix expressions plus `DPSample` for the rest.

use crate::context::ExecContext;
use crate::expr::{AtomicPredicate, Conjunction};
use crate::monitor::{MonitorMut, ScanMonitorSet};
use crate::op::Operator;
use pf_common::{Datum, PageId, Result, SlotId, TableId};
use pf_feedback::{bitmap, BitVectorFilter};
use pf_storage::{AccessPattern, RowView, TableStorage};
use std::sync::Arc;

/// A sequential scan over a contiguous page range of one table, with the
/// query predicate pushed into the storage engine.
pub struct SeqScan {
    storage: Arc<TableStorage>,
    table_id: TableId,
    predicate: Conjunction,
    monitors: Option<ScanMonitorSet>,
    /// `[first, last)` pages to scan.
    page_range: (u32, u32),
    /// Whether the first page access is a random I/O (a clustered seek
    /// positions the disk arm once, then reads sequentially).
    first_random: bool,
    next_page: u32,
    /// Reusable per-page bitmap of qualifying slots: predicates are
    /// evaluated over the page in one batched pass, and the slots
    /// marked here are the rows the scan delivers.
    qualifying: Vec<u64>,
    /// Reusable per-atom truth stripes: atom `i`'s per-slot results
    /// occupy words `i*words..(i+1)*words`.
    atom_bits: Vec<u64>,
    /// Reusable all-slots mask of the current page (first `n_rows` bits).
    page_mask: Vec<u64>,
    /// Semi-join pre-filter pushed down from a hash join: once the
    /// build side completes, its merged [`BitVectorFilter`] is evaluated
    /// in the page pass (after monitors observe the full page) and rows
    /// with no possible build match are culled before the join sees them.
    /// Charging rule: one hash op per qualifying row *tested* — exactly
    /// the per-probe-row hash the join itself would have charged — so
    /// I/O statistics are byte-identical to the unfiltered plan. The
    /// filter is shared with the semi-join monitor and the join's build
    /// side, never copied.
    prefilter: Option<(Arc<BitVectorFilter>, usize)>,
}

impl SeqScan {
    /// Shared constructor: `page_range` is already clamped by callers.
    fn build(
        storage: Arc<TableStorage>,
        table_id: TableId,
        predicate: Conjunction,
        monitors: Option<ScanMonitorSet>,
        page_range: (u32, u32),
        first_random: bool,
    ) -> Self {
        SeqScan {
            next_page: page_range.0,
            storage,
            table_id,
            predicate,
            monitors,
            page_range,
            first_random,
            qualifying: Vec::new(),
            atom_bits: Vec::new(),
            page_mask: Vec::new(),
            prefilter: None,
        }
    }

    /// A full-table scan.
    pub fn full(
        storage: Arc<TableStorage>,
        table_id: TableId,
        predicate: Conjunction,
        monitors: Option<ScanMonitorSet>,
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
        monitors: Option<ScanMonitorSet>,
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
        monitors: Option<ScanMonitorSet>,
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

    /// Installs a hash join's completed build-side `filter` over probe
    /// key column `key_col`: the scan's semi-join monitor (if any) tests
    /// it, and with `pushdown` the page pass also culls rows it rejects
    /// (see the `prefilter` field for the charging contract); both hold
    /// the same shared filter. Only meaningful before the scan runs.
    pub fn install_semi_join_filter(
        &mut self,
        filter: Arc<BitVectorFilter>,
        key_col: usize,
        pushdown: bool,
    ) {
        if pushdown {
            self.prefilter = Some((Arc::clone(&filter), key_col));
        }
        if let Some(m) = &mut self.monitors {
            m.install_semi_join_filter(filter);
        }
    }

    /// Evaluates the next page of the range into the `qualifying`
    /// bitmap — checksum verification, monitor observation, predicate
    /// kernels, prefilter culling, and every I/O charge happen here,
    /// identically for counting and for a join reading the rows. No row
    /// is decoded into owned values.
    fn eval_next_page(&mut self, ctx: &mut ExecContext) -> Result<PageEval> {
        if self.next_page >= self.page_range.1 {
            return Ok(PageEval::Exhausted);
        }
        // Page-boundary deadline checkpoint: one per page actually
        // visited, so a deadline aborts before the first page read past
        // it.
        ctx.check_interrupt()?;
        let pid = PageId(self.next_page);
        self.next_page += 1;
        let pattern = if self.first_random && pid.0 == self.page_range.0 {
            AccessPattern::Random
        } else {
            AccessPattern::Sequential
        };
        let hit = ctx.pool.access(self.table_id, pid, pattern);
        // A miss means the bytes "came from disk": verify the checksum
        // (and let the fault plan interpose). A corrupt page is skipped
        // and recorded rather than failing the query; monitors are told
        // so every harvested estimate is marked degraded.
        let (page, keys) = match self.storage.checked_page_keys(pid, ctx.fault_attempt, !hit) {
            Ok(p) => p,
            Err(pf_common::Error::ChecksumMismatch { .. }) => {
                ctx.pool.skip_corrupt(self.table_id, pid);
                if let Some(m) = &mut self.monitors {
                    m.skip_page(pid.0);
                }
                return Ok(PageEval::Skipped);
            }
            Err(e) => return Err(e),
        };
        let layout = self.storage.layout();
        let n_rows = usize::from(page.slot_count());
        ctx.pool.charge_rows(n_rows as u64);

        // Short-circuiting goes off on sampled pages when a monitored
        // expression is not a prefix (Fig 4, steps 3–4).
        let full_eval = self
            .monitors
            .as_ref()
            .is_some_and(|m| m.samples(pid.0) && m.needs_full_eval());

        // Evaluate the whole page into one truth stripe per atom — no row
        // is decoded into owned values here. An atom the page's zone
        // settles (every row passes, or none does) writes its stripe
        // without reading a key; an Int, Float or Date atom compares the
        // page's slice of the table's key array; a Str atom reads the
        // views of the slots it is asked about. A damaged image has no
        // keys: every atom reads its views.
        let natoms = self.predicate.len();
        let words = n_rows.div_ceil(64);
        self.page_mask.clear();
        self.page_mask.resize(words, 0);
        bitmap::fill_ones(&mut self.page_mask, n_rows);
        self.qualifying.clone_from(&self.page_mask);
        self.atom_bits.clear();
        self.atom_bits.resize(natoms * words, 0);

        // Cascade: entering atom `i`, `qualifying` is the short-circuit
        // prefix (rows passing atoms 0..i), so the per-atom popcount sums
        // to exactly the evaluations short-circuiting makes row by row.
        // On fully-evaluated pages every atom is evaluated on every slot
        // instead, and the surplus `natoms·n_rows − short_circuit_evals`
        // is charged as monitoring overhead.
        let mut sc_evals = 0u64;
        for i in 0..natoms {
            sc_evals += bitmap::popcount(&self.qualifying);
            let stripe = i * words..(i + 1) * words;
            let active = if full_eval {
                &self.page_mask
            } else {
                &self.qualifying
            };
            let out = &mut self.atom_bits[stripe.clone()];
            let atom = &self.predicate.atoms[i];
            let zone = keys.as_ref().and_then(|k| k.zone(atom.column));
            match zone.and_then(|z| atom.decide(z)) {
                Some(pass) => AtomicPredicate::eval_settled(pass, &self.page_mask, active, out),
                None => atom.eval_page(page, layout, keys.as_ref(), active, out)?,
            }
            bitmap::and_into(&mut self.qualifying, &self.atom_bits[stripe]);
        }
        ctx.pool.charge_pred_evals(sc_evals);
        if full_eval {
            ctx.pool
                .charge_extra_pred_evals((natoms as u64) * (n_rows as u64) - sc_evals);
        }

        // Monitors observe the full page, before the prefilter culls it.
        if let Some(m) = &mut self.monitors {
            ctx.pool.charge_monitor_ops(n_rows as u64);
            let hashes = m.observe_page(
                pid.0,
                &self.atom_bits,
                words,
                n_rows as u64,
                page.cursor(layout),
            )?;
            ctx.pool.charge_hashes(hashes);
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

impl SeqScan {
    /// Evaluates the next page that passes verification (skipping
    /// corrupt ones) and returns its id, with `qualifying` holding its
    /// surviving slots. `None` once the range is exhausted, at which
    /// point the monitors are finished.
    fn next_ready_page(&mut self, ctx: &mut ExecContext) -> Result<Option<PageId>> {
        loop {
            match self.eval_next_page(ctx)? {
                PageEval::Exhausted => {
                    if let Some(m) = &mut self.monitors {
                        m.finish();
                    }
                    return Ok(None);
                }
                PageEval::Skipped => {}
                PageEval::Ready { pid } => return Ok(Some(PageId(pid))),
            }
        }
    }

    /// Runs the scan to completion, handing each qualifying row to `f`
    /// as a borrowed view, page by page in slot order — how a join reads
    /// its scan inputs. Every charge for a page is applied before its
    /// first row reaches `f`.
    pub fn for_each_row(
        &mut self,
        ctx: &mut ExecContext,
        mut f: impl FnMut(RowView<'_>, &mut ExecContext) -> Result<()>,
    ) -> Result<()> {
        let storage = Arc::clone(&self.storage);
        while let Some(pid) = self.next_ready_page(ctx)? {
            // The page passed verification in the eval pass, so this
            // re-lookup (no re-verify, no new I/O: residency was charged
            // there) sees the same bytes.
            let page = storage.checked_page(pid, ctx.fault_attempt, false)?;
            for (word, &bits) in self.qualifying.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let slot = (word * 64 + bits.trailing_zeros() as usize) as u16;
                    bits &= bits - 1;
                    f(page.view(storage.layout(), SlotId(slot))?, ctx)?;
                }
            }
        }
        Ok(())
    }
}

impl Operator for SeqScan {
    fn count(&mut self, ctx: &mut ExecContext) -> Result<u64> {
        let mut n = 0;
        while self.next_ready_page(ctx)?.is_some() {
            n += bitmap::popcount(&self.qualifying);
        }
        Ok(n)
    }

    fn visit_monitors(&mut self, visit: &mut dyn FnMut(MonitorMut<'_>)) {
        if let Some(m) = &mut self.monitors {
            visit(MonitorMut::Scan(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AtomicPredicate, CompareOp};
    use crate::monitor::{harvest, ScanExprMonitor};
    use pf_common::{Column, DataType, Row, Schema};
    use pf_feedback::FeedbackReport;

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
        assert_eq!(scan.count(&mut ctx).unwrap(), 100);
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
        assert_eq!(scan.count(&mut ctx).unwrap(), 50);
        let s = ctx.stats();
        assert!(s.physical_reads() < u64::from(t.page_count()));
        assert_eq!(s.rand_physical_reads, 1, "seek positions once");
    }

    #[test]
    fn exact_monitoring_matches_brute_force() {
        let t = make_table(800);
        let pred = Conjunction::new(vec![lt(&t, "val", 200)]);
        let monitors = ScanMonitorSet::new(
            "t",
            vec![ScanExprMonitor::atoms(&pred, vec![0], None)],
            1.0,
            3,
        );
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred.clone(), Some(monitors));
        let mut ctx = ExecContext::new(4096);
        let got = scan.count(&mut ctx).unwrap();
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
        let rep = harvest(&mut scan);
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
            let monitors = ScanMonitorSet::new(
                "t",
                vec![ScanExprMonitor::atoms(&pred, vec![0], None)],
                1.0,
                3,
            );
            let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred.clone(), Some(monitors));
            let mut ctx = ExecContext::new(4096);
            ctx.deadline_ms = deadline_ms;
            let count = scan.count(&mut ctx);
            let shed = harvest(&mut scan).is_budget_shed();
            (count, ctx.stats(), shed)
        };
        let (aborted, stats, shed) = run(Some(0));
        assert_eq!(
            aborted,
            Err(pf_common::Error::DeadlineExceeded { deadline_ms: 0 })
        );
        assert!(!shed, "a deadline aborts the query, never a monitor");
        assert_eq!(stats.physical_reads(), 1, "aborts at the second page");
        assert_eq!(run(Some(0)), (aborted, stats, false), "same abort page");
        assert_eq!(run(Some(u64::MAX / 2)), run(None));
    }

    #[test]
    fn non_prefix_monitoring_charges_extra_evals() {
        let t = make_table(400);
        let pred = Conjunction::new(vec![lt(&t, "id", 10), lt(&t, "val", 200)]);
        // Monitor the non-prefix atom `val<200` at full sampling.
        let monitors = ScanMonitorSet::new(
            "t",
            vec![ScanExprMonitor::atoms(&pred, vec![1], None)],
            1.0,
            3,
        );
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred.clone(), Some(monitors));
        let mut ctx = ExecContext::new(4096);
        scan.count(&mut ctx).unwrap();
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
        let rep = harvest(&mut scan);
        assert_eq!(rep.measurements[0].actual, truth as f64);
    }

    #[test]
    fn no_monitor_means_no_extra_evals() {
        let t = make_table(400);
        let pred = Conjunction::new(vec![lt(&t, "id", 10), lt(&t, "val", 200)]);
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred, None);
        let mut ctx = ExecContext::new(4096);
        scan.count(&mut ctx).unwrap();
        assert_eq!(ctx.stats().extra_pred_evals, 0);
    }

    #[test]
    fn sampled_monitoring_is_cheaper_and_close() {
        let t = make_table(2_000);
        let pred = Conjunction::new(vec![lt(&t, "id", 50), lt(&t, "val", 1_000)]);
        let run = |fraction: f64| {
            let monitors = ScanMonitorSet::new(
                "t",
                vec![ScanExprMonitor::atoms(&pred, vec![1], None)],
                fraction,
                7,
            );
            let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), pred.clone(), Some(monitors));
            let mut ctx = ExecContext::new(8192);
            scan.count(&mut ctx).unwrap();
            let rep = harvest(&mut scan);
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

    /// `id` (the clustering key), `a` (scrambled Int), `f` (Float with
    /// NaN and ±0.0), `d` (Date), then `cf` and `cd`, a Float and a Date
    /// that follow `id` — runs of one value, so page zones settle most
    /// atoms on them — all in the fixed-width prefix, then a Str pad.
    /// `cf` runs through −NaN, −∞, −0.0, 0.0, +∞ and NaN.
    fn typed_table(n: i64) -> Arc<TableStorage> {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("d", DataType::Date),
            Column::new("cf", DataType::Float),
            Column::new("cd", DataType::Date),
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
                // Twenty runs of equal length.
                let cf = match i * 20 / n {
                    0 => -f64::NAN,
                    1 => f64::NEG_INFINITY,
                    6 | 7 => -0.0,
                    8 => 0.0,
                    18 => f64::INFINITY,
                    19 => f64::NAN,
                    run => (run as f64 - 8.0) * 2.5,
                };
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Float(f),
                    Datum::Date(((i * 13) % 365) as i32),
                    Datum::Float(cf),
                    Datum::Date((i / 40) as i32 - 30),
                    Datum::Str("x".repeat(24)),
                ])
            })
            .collect();
        Arc::new(TableStorage::bulk_load(schema, &rows, Some(0), 1024, 1.0).unwrap())
    }

    /// The monitors watching each atom subset of `monitored` at
    /// `fraction`; none for an empty list.
    fn monitor_set(
        pred: &Conjunction,
        monitored: &[Vec<usize>],
        fraction: f64,
    ) -> Option<ScanMonitorSet> {
        (!monitored.is_empty()).then(|| {
            let exprs = monitored
                .iter()
                .map(|idx| ScanExprMonitor::atoms(pred, idx.clone(), None))
                .collect();
            ScanMonitorSet::new("t", exprs, fraction, 11)
        })
    }

    /// Runs `pred` over `t` with [`monitor_set`]'s monitors. Returns
    /// count, I/O counters and the report.
    fn run_scan(
        t: &Arc<TableStorage>,
        pred: &Conjunction,
        monitored: &[Vec<usize>],
        fraction: f64,
    ) -> (u64, pf_storage::IoStats, FeedbackReport) {
        let monitors = monitor_set(pred, monitored, fraction);
        let mut scan = SeqScan::full(Arc::clone(t), TableId(0), pred.clone(), monitors);
        let mut ctx = ExecContext::new(4096);
        let count = scan.count(&mut ctx).unwrap();
        (count, ctx.stats(), harvest(&mut scan))
    }

    /// The row-at-a-time evaluator the page kernel replaced, as the
    /// kernel's oracle: each row left to right with short-circuiting,
    /// or every atom on sampled pages that need full evaluation; every
    /// evaluation charged as the scan charges it; monitors fed each
    /// page's stripes.
    fn reference_scan(
        t: &TableStorage,
        pred: &Conjunction,
        monitored: &[Vec<usize>],
        fraction: f64,
    ) -> (u64, pf_storage::IoStats, FeedbackReport) {
        let mut monitors = monitor_set(pred, monitored, fraction);
        let mut ctx = ExecContext::new(4096);
        let (layout, natoms) = (t.layout(), pred.len());
        let mut count = 0;
        for p in 0..t.page_count() {
            let hit = ctx
                .pool
                .access(TableId(0), PageId(p), AccessPattern::Sequential);
            let page = t.checked_page(PageId(p), ctx.fault_attempt, !hit).unwrap();
            let n = usize::from(page.slot_count());
            ctx.pool.charge_rows(n as u64);
            let full = monitors
                .as_ref()
                .is_some_and(|m| m.samples(p) && m.needs_full_eval());
            let words = n.div_ceil(64);
            let mut stripes = vec![0u64; natoms * words];
            for (slot, view) in page.cursor(layout).enumerate() {
                let view = view.unwrap();
                // The evaluations short-circuiting makes: up to the
                // first atom that fails.
                let mut sc_evals = None;
                for (i, atom) in pred.atoms.iter().enumerate() {
                    if sc_evals.is_some() && !full {
                        break;
                    }
                    let pass = atom.eval(&view);
                    stripes[i * words + slot / 64] |= u64::from(pass) << (slot % 64);
                    if !pass {
                        sc_evals.get_or_insert(i + 1);
                    }
                }
                count += u64::from(sc_evals.is_none());
                let sc_evals = sc_evals.unwrap_or(natoms);
                ctx.pool.charge_pred_evals(sc_evals as u64);
                if full {
                    ctx.pool.charge_extra_pred_evals((natoms - sc_evals) as u64);
                }
            }
            if let Some(m) = &mut monitors {
                ctx.pool.charge_monitor_ops(n as u64);
                let cursor = page.cursor(layout);
                let hashes = m.observe_page(p, &stripes, words, n as u64, cursor);
                ctx.pool.charge_hashes(hashes.unwrap());
            }
        }
        let mut report = FeedbackReport::new();
        if let Some(m) = &mut monitors {
            m.harvest(&mut report);
        }
        (count, ctx.stats(), report)
    }

    /// Runs each conjunction over `t` with the page kernel and with the
    /// reference: unmonitored; prefix-only (short-circuit observation);
    /// and with a non-prefix subset, which forces full evaluation on
    /// sampled pages — at fractions 1 and 0.5. Count, every `IoStats`
    /// field and the report must agree. Returns how many pages (summed
    /// over the conjunctions) the zone settles no atom, some atoms, and
    /// every atom of.
    fn assert_kernel_matches_reference(
        t: &Arc<TableStorage>,
        conjunctions: Vec<Vec<AtomicPredicate>>,
    ) -> [u32; 3] {
        let mut settled = [0u32; 3];
        for atoms in conjunctions {
            let pred = Conjunction::new(atoms);
            let n = pred.len();
            for p in 0..t.page_count() {
                let keys = t.page_keys(PageId(p)).unwrap();
                let settles = |a: &AtomicPredicate| keys.zone(a.column).and_then(|z| a.decide(z));
                let k = pred.atoms.iter().filter(|a| settles(a).is_some()).count();
                settled[usize::from(k > 0) + usize::from(k == n)] += 1;
            }
            let mut monitor_sets = vec![Vec::new(), vec![vec![0], (0..n).collect()]];
            if n > 1 {
                monitor_sets.push(vec![vec![0], vec![n - 1], (0..n).collect()]);
            }
            for monitored in &monitor_sets {
                for fraction in [1.0, 0.5] {
                    let kernel = run_scan(t, &pred, monitored, fraction);
                    let reference = reference_scan(t, &pred, monitored, fraction);
                    let what = format!("{pred}, monitors {monitored:?}, fraction {fraction}");
                    assert_eq!(kernel.0, reference.0, "{what}: count");
                    assert_eq!(kernel.1, reference.1, "{what}: stats");
                    assert_eq!(kernel.2, reference.2, "{what}: report");
                }
            }
        }
        settled
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
            // Atoms page zones settle on all but a page or two: on the
            // clustering key, on the clustered Float through its NaN and
            // ±0.0 runs, and on the clustered Date — alone, and before
            // and after atoms that read rows.
            vec![atom("id", CompareOp::Lt, Datum::Int(1_500))],
            vec![
                atom("id", CompareOp::Ge, Datum::Int(700)),
                atom("a", CompareOp::Lt, Datum::Int(1_200)),
            ],
            vec![
                atom("a", CompareOp::Lt, Datum::Int(2_000)),
                atom("id", CompareOp::Le, Datum::Int(400)),
            ],
            vec![atom("cf", CompareOp::Le, Datum::Float(0.0))],
            vec![atom("cf", CompareOp::Eq, Datum::Float(-0.0))],
            vec![
                atom("cf", CompareOp::Gt, Datum::Float(f64::NEG_INFINITY)),
                atom("f", CompareOp::Ge, Datum::Float(-10.0)),
                atom("cf", CompareOp::Ne, Datum::Float(f64::NAN)),
            ],
            vec![
                atom("f", CompareOp::Ne, Datum::Float(0.0)),
                atom("cf", CompareOp::Lt, Datum::Float(-f64::NAN)),
            ],
            vec![
                atom("cd", CompareOp::Ge, Datum::Date(0)),
                atom("d", CompareOp::Lt, Datum::Date(200)),
            ],
            vec![
                atom("d", CompareOp::Ge, Datum::Date(100)),
                atom("cd", CompareOp::Ne, Datum::Date(-5)),
                atom("id", CompareOp::Gt, Datum::Int(2_990)),
            ],
        ];
        let settled = assert_kernel_matches_reference(&t, conjunctions.to_vec());
        let [none, some, all] = settled;
        assert!(all > 100 && none + some > 100, "pages {settled:?}");
    }

    /// `id` (the clustering key) and `a` (scrambled Int) in the
    /// fixed-width prefix, then `s` (a Str of repeated values, among
    /// them the empty string and a multi-byte one), `b` (an Int after
    /// the first Str column, so outside the prefix) and a Str pad whose
    /// length varies row to row.
    fn str_table(n: i64) -> Arc<TableStorage> {
        const WORDS: [&str; 6] = ["", "CA", "NY", "WA", "\u{fc}ber", "zz"];
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("b", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str(WORDS[(i * 13 % 6) as usize].into()),
                    Datum::Int((i * 31) % n),
                    Datum::Str("x".repeat(8 + (i % 9) as usize)),
                ])
            })
            .collect();
        Arc::new(TableStorage::bulk_load(schema, &rows, Some(0), 1024, 1.0).unwrap())
    }

    /// Atoms the row layout's fixed-width prefix does not hold — Str
    /// equality and ranges, an Int column after a Str column — alone,
    /// before and after fixed-prefix atoms, and next to atoms zones
    /// settle.
    #[test]
    fn kernel_matches_row_loop_with_str_atoms() {
        let t = str_table(3_000);
        let atom = |col: &str, op: CompareOp, v: Datum| {
            AtomicPredicate::new(t.schema(), col, op, v).unwrap()
        };
        let s = |v: &str| Datum::Str(v.into());
        let conjunctions = [
            vec![atom("s", CompareOp::Eq, s("CA"))],
            vec![atom("s", CompareOp::Lt, s("NY"))],
            vec![atom("s", CompareOp::Ge, s("WA"))],
            vec![atom("s", CompareOp::Ne, s(""))],
            vec![atom("pad", CompareOp::Le, s("xxxxxxxxxxx"))],
            vec![atom("b", CompareOp::Lt, Datum::Int(900))],
            vec![
                atom("a", CompareOp::Lt, Datum::Int(1_200)),
                atom("s", CompareOp::Eq, s("NY")),
            ],
            vec![
                atom("s", CompareOp::Lt, s("WA")),
                atom("a", CompareOp::Lt, Datum::Int(1_500)),
            ],
            vec![
                atom("b", CompareOp::Ge, Datum::Int(100)),
                atom("s", CompareOp::Gt, s("CA")),
                atom("a", CompareOp::Lt, Datum::Int(2_000)),
            ],
            vec![
                atom("id", CompareOp::Lt, Datum::Int(1_500)),
                atom("s", CompareOp::Eq, s("WA")),
            ],
            vec![
                atom("s", CompareOp::Le, s("NY")),
                atom("id", CompareOp::Ge, Datum::Int(700)),
            ],
            vec![
                atom("id", CompareOp::Gt, Datum::Int(2_990)),
                atom("b", CompareOp::Ne, Datum::Int(17)),
                atom("pad", CompareOp::Gt, s("xxxxxxxxx")),
            ],
        ];
        let settled = assert_kernel_matches_reference(&t, conjunctions.to_vec());
        let [none, some, _] = settled;
        assert!(none > 100 && some > 100, "pages {settled:?}");
    }

    /// With pushdown, the page-pass prefilter and the semi-join monitor
    /// hold the one filter they were handed.
    #[test]
    fn prefilter_and_monitor_share_one_filter() {
        let t = make_table(100);
        let monitors = ScanMonitorSet::new(
            "t",
            vec![ScanExprMonitor::semi_join("sj", 1, 32, None)],
            1.0,
            3,
        );
        let mut scan = SeqScan::full(
            Arc::clone(&t),
            TableId(0),
            Conjunction::always_true(),
            Some(monitors),
        );
        let filter = Arc::new(BitVectorFilter::new(256, 7));
        scan.install_semi_join_filter(Arc::clone(&filter), 1, true);
        let (prefilter, _) = scan.prefilter.as_ref().expect("pushed down");
        let monitored = scan
            .monitors
            .as_ref()
            .and_then(ScanMonitorSet::semi_join_filter)
            .expect("monitor installed");
        assert!(Arc::ptr_eq(prefilter, &filter) && Arc::ptr_eq(monitored, &filter));
    }

    #[test]
    fn empty_predicate_scans_everything() {
        let t = make_table(100);
        let mut scan = SeqScan::full(Arc::clone(&t), TableId(0), Conjunction::always_true(), None);
        let mut ctx = ExecContext::new(1024);
        assert_eq!(scan.count(&mut ctx).unwrap(), 100);
        assert_eq!(ctx.stats().pred_evals, 0);
    }
}
