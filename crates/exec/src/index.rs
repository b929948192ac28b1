//! SE-side index plans: Index Seek, RID intersection, and Fetch.
//!
//! An index plan is `IndexSeek -> Fetch` (or
//! `IndexSeek ×2 -> Intersect -> Fetch`). The seek walks the
//! nonclustered B+-tree and yields RIDs in *key order* — the
//! page-interleaved access of Fig 2 (right) — so the Fetch operator
//! monitors its distinct page count with probabilistic counting (Fig 3),
//! one PID hash per fetched row.

use crate::context::ExecContext;
use crate::expr::{CompareOp, Conjunction};
use crate::monitor::{FetchMonitorHandle, FetchObserveWhen};
use crate::op::{Operator, RidSource};
use pf_common::{Datum, Result, Rid, Row, Schema, TableId};
use pf_storage::btree::BPlusTree;
use pf_storage::{AccessPattern, TableStorage};
use std::ops::Bound;
use std::sync::Arc;

/// Key bounds of an index seek, derived from one or two atoms on the
/// index key column.
#[derive(Debug, Clone)]
pub struct SeekRange {
    /// Lower key bound.
    pub lo: Bound<Datum>,
    /// Upper key bound.
    pub hi: Bound<Datum>,
}

impl SeekRange {
    /// An exact-match seek.
    pub fn eq(value: Datum) -> Self {
        SeekRange {
            lo: Bound::Included(value.clone()),
            hi: Bound::Included(value),
        }
    }

    /// Intersects two ranges (tightest bounds win).
    pub fn intersect(self, other: SeekRange) -> SeekRange {
        fn tighter_lo(a: Bound<Datum>, b: Bound<Datum>) -> Bound<Datum> {
            use std::cmp::Ordering::*;
            match (&a, &b) {
                (Bound::Unbounded, _) => b,
                (_, Bound::Unbounded) => a,
                (
                    Bound::Included(x) | Bound::Excluded(x),
                    Bound::Included(y) | Bound::Excluded(y),
                ) => match x.cmp_same_type(y).expect("seek bounds same-typed") {
                    Greater => a,
                    Less => b,
                    // Equal values: Excluded is tighter for a lower bound.
                    Equal => {
                        if matches!(a, Bound::Excluded(_)) {
                            a
                        } else {
                            b
                        }
                    }
                },
            }
        }
        fn tighter_hi(a: Bound<Datum>, b: Bound<Datum>) -> Bound<Datum> {
            use std::cmp::Ordering::*;
            match (&a, &b) {
                (Bound::Unbounded, _) => b,
                (_, Bound::Unbounded) => a,
                (
                    Bound::Included(x) | Bound::Excluded(x),
                    Bound::Included(y) | Bound::Excluded(y),
                ) => match x.cmp_same_type(y).expect("seek bounds same-typed") {
                    Less => a,
                    Greater => b,
                    Equal => {
                        if matches!(a, Bound::Excluded(_)) {
                            a
                        } else {
                            b
                        }
                    }
                },
            }
        }
        SeekRange {
            lo: tighter_lo(self.lo, other.lo),
            hi: tighter_hi(self.hi, other.hi),
        }
    }

    /// Derives the combined seek range of several atoms on one column.
    /// Returns `None` if any atom cannot seek (`Ne`) or the list is empty.
    pub fn from_atoms(atoms: &[(CompareOp, Datum)]) -> Option<Self> {
        let mut iter = atoms.iter();
        let (op, v) = iter.next()?;
        let mut range = Self::from_atom(*op, v.clone())?;
        for (op, v) in iter {
            range = range.intersect(Self::from_atom(*op, v.clone())?);
        }
        Some(range)
    }

    /// Derives the seek range for `column <op> value`. `Ne` cannot seek.
    pub fn from_atom(op: CompareOp, value: Datum) -> Option<Self> {
        let r = match op {
            CompareOp::Eq => Self::eq(value),
            CompareOp::Lt => SeekRange {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(value),
            },
            CompareOp::Le => SeekRange {
                lo: Bound::Unbounded,
                hi: Bound::Included(value),
            },
            CompareOp::Gt => SeekRange {
                lo: Bound::Excluded(value),
                hi: Bound::Unbounded,
            },
            CompareOp::Ge => SeekRange {
                lo: Bound::Included(value),
                hi: Bound::Unbounded,
            },
            CompareOp::Ne => return None,
        };
        Some(r)
    }
}

/// An index seek: yields the RIDs whose key falls in the range, in key
/// order.
pub struct IndexSeek {
    tree: Arc<BPlusTree>,
    range: SeekRange,
    height: u32,
    /// Materialized on first pull (a snapshot of the leaf walk).
    rids: Option<Vec<Rid>>,
    pos: usize,
}

impl IndexSeek {
    /// A seek over `tree` (of the given height, for I/O charging).
    pub fn new(tree: Arc<BPlusTree>, height: u32, range: SeekRange) -> Self {
        IndexSeek {
            tree,
            range,
            height,
            rids: None,
            pos: 0,
        }
    }

    fn materialize(&mut self, ctx: &mut ExecContext) {
        let lo = match &self.range.lo {
            Bound::Included(d) => Bound::Included(d),
            Bound::Excluded(d) => Bound::Excluded(d),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match &self.range.hi {
            Bound::Included(d) => Bound::Included(d),
            Bound::Excluded(d) => Bound::Excluded(d),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut rids = Vec::new();
        for (_, posting) in self.tree.range(lo, hi) {
            rids.extend_from_slice(posting);
        }
        // Charge the root-to-leaf descent plus the leaf walk (~64
        // entries per leaf node).
        ctx.pool
            .charge_index_nodes(u64::from(self.height) + (rids.len() as u64).div_ceil(64));
        self.rids = Some(rids);
        self.pos = 0;
    }
}

impl IndexSeek {
    /// Re-aims the seek at `range` and hands out all its RIDs in key
    /// order, charging the walk exactly as pulling them one by one
    /// would. Lets an index-nested-loops join reuse one seek for every
    /// outer row.
    pub(crate) fn rids_in(&mut self, range: SeekRange, ctx: &mut ExecContext) -> Vec<Rid> {
        self.range = range;
        self.materialize(ctx);
        self.rids.take().unwrap_or_default()
    }
}

impl RidSource for IndexSeek {
    fn next_rid(&mut self, ctx: &mut ExecContext) -> Result<Option<Rid>> {
        if self.rids.is_none() {
            self.materialize(ctx);
        }
        let rids = self.rids.as_ref().expect("materialized above");
        if self.pos < rids.len() {
            let r = rids[self.pos];
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }
}

/// Index Intersection: RIDs present in *both* inputs, yielded in
/// `(page, slot)` order (engines sort the intersected RID set so the
/// subsequent Fetch sweeps forward).
pub struct IndexIntersection {
    left: Box<dyn RidSource>,
    right: Box<dyn RidSource>,
    merged: Option<Vec<Rid>>,
    pos: usize,
}

impl IndexIntersection {
    /// Intersects two RID sources.
    pub fn new(left: Box<dyn RidSource>, right: Box<dyn RidSource>) -> Self {
        IndexIntersection {
            left,
            right,
            merged: None,
            pos: 0,
        }
    }

    fn materialize(&mut self, ctx: &mut ExecContext) -> Result<()> {
        let mut a = Vec::new();
        while let Some(r) = self.left.next_rid(ctx)? {
            a.push(r);
        }
        let mut b = Vec::new();
        while let Some(r) = self.right.next_rid(ctx)? {
            b.push(r);
        }
        // Hash-free sort-merge intersection; charge the comparisons as
        // generic cheap CPU ops.
        ctx.pool.charge_hashes((a.len() + b.len()) as u64);
        a.sort_unstable();
        b.sort_unstable();
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.merged = Some(out);
        Ok(())
    }
}

impl RidSource for IndexIntersection {
    fn next_rid(&mut self, ctx: &mut ExecContext) -> Result<Option<Rid>> {
        if self.merged.is_none() {
            self.materialize(ctx)?;
        }
        let rids = self.merged.as_ref().expect("materialized above");
        if self.pos < rids.len() {
            let r = rids[self.pos];
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }
}

/// A pre-materialized RID run that charges nothing: whoever drew the
/// RIDs from an index already paid for them — a parallel fetch's
/// coordinator, which hands each RID-run morsel its slice of the
/// stream, or an index-nested-loops join's per-row seek.
pub struct RidList {
    rids: Vec<Rid>,
    pos: usize,
}

impl RidList {
    /// Wraps an already-charged RID run.
    pub fn new(rids: Vec<Rid>) -> Self {
        RidList { rids, pos: 0 }
    }
}

impl RidSource for RidList {
    fn next_rid(&mut self, _ctx: &mut ExecContext) -> Result<Option<Rid>> {
        if self.pos < self.rids.len() {
            let r = self.rids[self.pos];
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }
}

/// A covering index-only scan: walks the index leaf level for a key
/// range and emits `(key)` rows — one per index entry — without ever
/// touching the base table.
///
/// Fidelity note (Section II-B): because base-table PIDs never
/// materialize in this operator, **no distinct page count can be
/// monitored from it** — the same limitation the paper notes for plans
/// that never expose the pages an alternative plan would touch.
pub struct IndexOnlyScan {
    tree: Arc<BPlusTree>,
    height: u32,
    range: SeekRange,
    schema: Schema,
    rows: Option<Vec<Row>>,
    pos: usize,
}

impl IndexOnlyScan {
    /// Builds an index-only scan; `key_column_name` names the single
    /// output column.
    pub fn new(
        tree: Arc<BPlusTree>,
        height: u32,
        range: SeekRange,
        key_column_name: &str,
        key_type: pf_common::DataType,
    ) -> Self {
        IndexOnlyScan {
            tree,
            height,
            range,
            schema: Schema::new(vec![pf_common::Column::new(key_column_name, key_type)]),
            rows: None,
            pos: 0,
        }
    }

    fn materialize(&mut self, ctx: &mut ExecContext) {
        let lo = match &self.range.lo {
            Bound::Included(d) => Bound::Included(d),
            Bound::Excluded(d) => Bound::Excluded(d),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match &self.range.hi {
            Bound::Included(d) => Bound::Included(d),
            Bound::Excluded(d) => Bound::Excluded(d),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut rows = Vec::new();
        for (key, posting) in self.tree.range(lo, hi) {
            for _ in 0..posting.len() {
                rows.push(Row::new(vec![key.clone()]));
            }
        }
        ctx.pool
            .charge_index_nodes(u64::from(self.height) + (rows.len() as u64).div_ceil(64));
        ctx.pool.charge_rows(rows.len() as u64);
        self.rows = Some(rows);
    }
}

impl Operator for IndexOnlyScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if self.rows.is_none() {
            self.materialize(ctx);
        }
        let rows = self.rows.as_ref().expect("materialized above");
        if self.pos < rows.len() {
            let r = rows[self.pos].clone();
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }
}

/// The Fetch operator: turns RIDs into base-table rows with one random
/// page access each (deduped by the buffer pool), evaluates the residual
/// predicate, and drives the attached [`crate::monitor::FetchMonitor`]s.
pub struct Fetch {
    source: Box<dyn RidSource>,
    storage: Arc<TableStorage>,
    table_id: TableId,
    /// Conjuncts not implied by the seek, evaluated after the fetch.
    residual: Conjunction,
    monitors: Option<FetchMonitorHandle>,
    /// Pages discovered corrupt during this fetch stream: later RIDs on
    /// the same page are skipped without re-verifying (or re-counting).
    corrupt_pages: std::collections::HashSet<u32>,
    /// Pending same-page run of `AllFetched` observations: `(page,
    /// rows)`, flushed when the stream moves to another page or ends.
    /// Fetch streams are clustered (index order groups RIDs by page), so
    /// one [`pf_feedback::LinearCounter::observe_page`] call replaces a
    /// run of per-row observes bit-identically.
    pending_obs: Option<(u32, u64)>,
}

impl Fetch {
    /// Builds a Fetch.
    pub fn new(
        source: Box<dyn RidSource>,
        storage: Arc<TableStorage>,
        table_id: TableId,
        residual: Conjunction,
        monitors: Option<FetchMonitorHandle>,
    ) -> Self {
        Fetch {
            source,
            storage,
            table_id,
            residual,
            monitors,
            corrupt_pages: std::collections::HashSet::new(),
            pending_obs: None,
        }
    }

    /// Starts a new RID stream from `source`, keeping the table, the
    /// residual and the monitors: the stream state (corrupt pages seen,
    /// pending observation run) resets as in a fresh Fetch.
    pub(crate) fn restart(&mut self, source: Box<dyn RidSource>) {
        self.source = source;
        self.corrupt_pages.clear();
        self.pending_obs = None;
    }

    /// Flushes a pending `(page, rows)` run into every live `AllFetched`
    /// monitor, charging the hash ops the per-row path would have.
    fn flush_pending(ms: &FetchMonitorHandle, ctx: &mut ExecContext, page: u32, rows: u64) {
        for m in ms.borrow_mut().iter_mut() {
            if !m.shed && m.when == FetchObserveWhen::AllFetched {
                m.counter.observe_page(page, rows);
                ctx.pool.charge_hashes(rows);
            }
        }
    }

    /// Fetches RIDs until one passes the residual and returns it, with
    /// every I/O, hash and monitor charge applied; no row is decoded
    /// into owned values. `None` at the end of the RID stream.
    fn next_passing(&mut self, ctx: &mut ExecContext) -> Result<Option<Rid>> {
        while let Some(rid) = self.source.next_rid(ctx)? {
            // Cancellation/deadline checkpoint before each fetched RID:
            // an aborted fetch never touches the page or its monitors.
            ctx.check_interrupt()?;
            if self.corrupt_pages.contains(&rid.page.0) {
                continue;
            }
            let hit = ctx
                .pool
                .access(self.table_id, rid.page, AccessPattern::Random);
            // Zero-copy: seek straight to the slot and evaluate the
            // residual on the borrowed view; rows rejected here are
            // never decoded into owned values. A miss verifies the
            // page checksum; a corrupt page is skipped and recorded
            // (its rows are lost to this query), never surfaced.
            let view = match self.storage.checked_row_view(rid, ctx.fault_attempt, !hit) {
                Ok(v) => v,
                Err(pf_common::Error::ChecksumMismatch { .. }) => {
                    ctx.pool.skip_corrupt(self.table_id, rid.page);
                    self.corrupt_pages.insert(rid.page.0);
                    if let Some(ms) = &self.monitors {
                        for m in ms.borrow_mut().iter_mut() {
                            m.note_skipped_page();
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            ctx.pool.charge_rows(1);

            if let Some(ms) = &self.monitors {
                // Same-page runs coalesce into one bulk observation per
                // page, flushed on page change.
                match &mut self.pending_obs {
                    Some((p, n)) if *p == rid.page.0 => *n += 1,
                    pending => {
                        if let Some((page, rows)) = pending.replace((rid.page.0, 1)) {
                            Self::flush_pending(ms, ctx, page, rows);
                        }
                    }
                }
            }

            let (pass, evaluated) = self.residual.eval_short_circuit(&view);
            ctx.pool.charge_pred_evals(evaluated as u64);
            if pass {
                if let Some(ms) = &self.monitors {
                    for m in ms.borrow_mut().iter_mut() {
                        if !m.shed && m.when == FetchObserveWhen::PassedResidual {
                            m.counter.observe(rid.page.0);
                            ctx.pool.charge_hashes(1);
                        }
                    }
                }
                return Ok(Some(rid));
            }
        }
        // End of the RID stream: flush the trailing page run (taking it
        // keeps repeated end-of-stream calls idempotent).
        if let Some((page, rows)) = self.pending_obs.take() {
            if let Some(ms) = &self.monitors {
                Self::flush_pending(ms, ctx, page, rows);
            }
        }
        Ok(None)
    }
}

impl Operator for Fetch {
    fn schema(&self) -> &Schema {
        self.storage.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        let Some(rid) = self.next_passing(ctx)? else {
            return Ok(None);
        };
        // The page passed verification in `next_passing`, so this
        // re-lookup (no re-verify, no new I/O: residency was charged
        // there) sees the same bytes.
        let view = self
            .storage
            .checked_row_view(rid, ctx.fault_attempt, false)?;
        Ok(Some(view.materialize()))
    }

    fn next_count(&mut self, ctx: &mut ExecContext) -> Result<Option<u64>> {
        Ok(self.next_passing(ctx)?.map(|_| 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AtomicPredicate;
    use crate::monitor::FetchMonitor;
    use crate::op::{drain, run_count};
    use pf_common::{Column, DataType, PageId};
    use pf_feedback::FeedbackReport;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Table of n rows clustered on id, with `perm` a scrambled copy.
    fn setup(n: i64) -> (Arc<TableStorage>, Arc<BPlusTree>, u32) {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("perm", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str("x".repeat(40)),
                ])
            })
            .collect();
        let storage = Arc::new(
            TableStorage::bulk_load(schema, &rows, Some(0), 1024, 1.0)
                .expect("bulk load test table"),
        );
        let mut tree = BPlusTree::new();
        for rid in storage.all_rids() {
            let row = storage.read_row(rid).expect("rid points at a loaded row");
            tree.insert(row.get(1).clone(), rid);
        }
        let h = tree.height();
        (storage, Arc::new(tree), h)
    }

    #[test]
    fn seek_fetch_returns_exact_matches() {
        let (storage, tree, h) = setup(500);
        let seek = IndexSeek::new(
            Arc::clone(&tree),
            h,
            SeekRange::from_atom(CompareOp::Lt, Datum::Int(50)).expect("seekable comparison"),
        );
        let mut fetch = Fetch::new(
            Box::new(seek),
            Arc::clone(&storage),
            TableId(0),
            Conjunction::always_true(),
            None,
        );
        let mut ctx = ExecContext::new(4096);
        let rows = drain(&mut fetch, &mut ctx).expect("plan drains without error");
        assert_eq!(rows.len(), 50);
        assert!(rows
            .iter()
            .all(|r| r.get(1).as_int().expect("int column") < 50));
        assert!(ctx.stats().index_node_reads > 0);
        assert!(ctx.stats().rand_physical_reads > 0);
    }

    #[test]
    fn fetch_physical_io_equals_distinct_pages() {
        let (storage, tree, h) = setup(500);
        let seek = IndexSeek::new(
            Arc::clone(&tree),
            h,
            SeekRange::from_atom(CompareOp::Lt, Datum::Int(100)).expect("seekable comparison"),
        );
        let mut fetch = Fetch::new(
            Box::new(seek),
            Arc::clone(&storage),
            TableId(0),
            Conjunction::always_true(),
            None,
        );
        let mut ctx = ExecContext::new(8192);
        run_count(&mut fetch, &mut ctx).expect("plan drains without error");

        // Ground truth DPC.
        let mut touched = std::collections::HashSet::new();
        for p in 0..storage.page_count() {
            for r in storage
                .rows_on_page(PageId(p))
                .expect("page id within table")
            {
                if r.get(1).as_int().expect("int column") < 100 {
                    touched.insert(p);
                }
            }
        }
        assert_eq!(ctx.stats().rand_physical_reads, touched.len() as u64);
    }

    /// A query deadline aborts a monitored fetch at the RID checkpoint
    /// past it — the same RID on every run — and never sheds the monitor;
    /// a deadline that never fires changes nothing.
    #[test]
    fn deadline_aborts_a_monitored_fetch_at_a_rid_checkpoint() {
        let (storage, tree, h) = setup(2_000);
        let run = |deadline_ms| {
            let seek = IndexSeek::new(
                Arc::clone(&tree),
                h,
                SeekRange::from_atom(CompareOp::Lt, Datum::Int(400)).expect("seekable comparison"),
            );
            let monitors = Rc::new(RefCell::new(vec![FetchMonitor::new(
                "perm<400",
                FetchObserveWhen::AllFetched,
                storage.page_count(),
                None,
                9,
            )]));
            let mut fetch = Fetch::new(
                Box::new(seek),
                Arc::clone(&storage),
                TableId(0),
                Conjunction::always_true(),
                Some(Rc::clone(&monitors)),
            );
            let mut ctx = ExecContext::new(16_384);
            ctx.deadline_ms = deadline_ms;
            let count = run_count(&mut fetch, &mut ctx);
            let shed = monitors.borrow()[0].shed;
            (count, ctx.stats(), shed)
        };
        let (full, full_stats, _) = run(None);
        assert_eq!(full, Ok(400));
        let half = (pf_storage::DiskModel::default().elapsed_ms(&full_stats) / 2.0) as u64;
        let (aborted, stats, shed) = run(Some(half));
        assert_eq!(
            aborted,
            Err(pf_common::Error::DeadlineExceeded { deadline_ms: half })
        );
        assert!(!shed, "a deadline aborts the query, never a monitor");
        assert!(stats.rand_physical_reads < full_stats.rand_physical_reads);
        assert_eq!(run(Some(half)), (aborted, stats, false), "same abort RID");
        assert_eq!(run(Some(u64::MAX / 2)), (full, full_stats, false));
    }

    #[test]
    fn fetch_monitor_estimates_dpc() {
        let (storage, tree, h) = setup(2_000);
        let seek = IndexSeek::new(
            Arc::clone(&tree),
            h,
            SeekRange::from_atom(CompareOp::Lt, Datum::Int(400)).expect("seekable comparison"),
        );
        let monitors = Rc::new(RefCell::new(vec![FetchMonitor::new(
            "perm<400",
            FetchObserveWhen::AllFetched,
            storage.page_count(),
            None,
            9,
        )]));
        let mut fetch = Fetch::new(
            Box::new(seek),
            Arc::clone(&storage),
            TableId(0),
            Conjunction::always_true(),
            Some(Rc::clone(&monitors)),
        );
        let mut ctx = ExecContext::new(16_384);
        run_count(&mut fetch, &mut ctx).expect("plan drains without error");
        let truth = ctx.stats().rand_physical_reads as f64;
        let mut rep = FeedbackReport::new();
        monitors.borrow()[0].harvest("t", &mut rep);
        let est = rep.measurements[0].actual;
        let err = (est - truth).abs() / truth;
        assert!(err < 0.10, "estimate {est}, truth {truth}");
    }

    /// The residual filters and the two observation points measure
    /// different DPCs. Counting the plan decodes no row yet yields the
    /// same count, I/O charges and feedback report as materializing it.
    #[test]
    fn residual_predicate_filters_and_both_monitors_differ() {
        let (storage, tree, h) = setup(1_000);
        let run = |count: bool| {
            let seek = IndexSeek::new(
                Arc::clone(&tree),
                h,
                SeekRange::from_atom(CompareOp::Lt, Datum::Int(500)).expect("seekable comparison"),
            );
            let residual = Conjunction::new(vec![AtomicPredicate::new(
                storage.schema(),
                "id",
                CompareOp::Lt,
                Datum::Int(100),
            )
            .expect("test value is well-formed")]);
            let monitors = Rc::new(RefCell::new(vec![
                FetchMonitor::new(
                    "perm<500",
                    FetchObserveWhen::AllFetched,
                    storage.page_count(),
                    None,
                    1,
                ),
                FetchMonitor::new(
                    "perm<500 AND id<100",
                    FetchObserveWhen::PassedResidual,
                    storage.page_count(),
                    None,
                    2,
                ),
            ]));
            let mut fetch = Fetch::new(
                Box::new(seek),
                Arc::clone(&storage),
                TableId(0),
                residual,
                Some(Rc::clone(&monitors)),
            );
            let mut ctx = ExecContext::new(16_384);
            let n = if count {
                run_count(&mut fetch, &mut ctx)
            } else {
                drain(&mut fetch, &mut ctx).map(|rows| rows.len() as u64)
            }
            .expect("plan drains without error");
            let ms = monitors.borrow();
            assert!(ms[0].counter.estimate() > ms[1].counter.estimate());
            let mut report = FeedbackReport::new();
            for m in ms.iter() {
                m.harvest("t", &mut report);
            }
            (n, ctx.stats(), report)
        };
        let counted = run(true);
        assert!(counted.0 < 500, "residual filtered ({})", counted.0);
        assert_eq!(run(false), counted);
    }

    #[test]
    fn intersection_matches_set_intersection() {
        let (storage, tree, h) = setup(500);
        // perm < 100 ∩ perm >= 50  (same index both sides — contrived but
        // exercises the merge).
        let a = IndexSeek::new(
            Arc::clone(&tree),
            h,
            SeekRange::from_atom(CompareOp::Lt, Datum::Int(100)).expect("seekable comparison"),
        );
        let b = IndexSeek::new(
            Arc::clone(&tree),
            h,
            SeekRange::from_atom(CompareOp::Ge, Datum::Int(50)).expect("seekable comparison"),
        );
        let inter = IndexIntersection::new(Box::new(a), Box::new(b));
        let mut fetch = Fetch::new(
            Box::new(inter),
            Arc::clone(&storage),
            TableId(0),
            Conjunction::always_true(),
            None,
        );
        let mut ctx = ExecContext::new(8192);
        let rows = drain(&mut fetch, &mut ctx).expect("plan drains without error");
        assert_eq!(rows.len(), 50);
        assert!(rows
            .iter()
            .all(|r| (50..100).contains(&r.get(1).as_int().expect("int column"))));
    }

    #[test]
    fn seek_range_derivation() {
        assert!(SeekRange::from_atom(CompareOp::Ne, Datum::Int(1)).is_none());
        let r = SeekRange::eq(Datum::Int(7));
        assert!(matches!(r.lo, Bound::Included(Datum::Int(7))));
        assert!(matches!(r.hi, Bound::Included(Datum::Int(7))));
    }

    #[test]
    fn empty_seek_range_yields_nothing() {
        let (storage, tree, h) = setup(100);
        let seek = IndexSeek::new(
            Arc::clone(&tree),
            h,
            SeekRange::from_atom(CompareOp::Lt, Datum::Int(0)).expect("seekable comparison"),
        );
        let mut fetch = Fetch::new(
            Box::new(seek),
            Arc::clone(&storage),
            TableId(0),
            Conjunction::always_true(),
            None,
        );
        let mut ctx = ExecContext::new(1024);
        assert_eq!(
            run_count(&mut fetch, &mut ctx).expect("plan drains without error"),
            0
        );
        assert_eq!(ctx.stats().rand_physical_reads, 0);
    }
}
