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
use crate::monitor::{FetchMonitor, FetchObserveWhen, MonitorMut};
use crate::op::{Operator, RidSource};
use pf_common::{Datum, Result, Rid, TableId};
use pf_storage::btree::BPlusTree;
use pf_storage::{AccessPattern, RowView, TableStorage};
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

    /// The bounds as borrowed keys, the form a B+-tree range walk takes.
    fn bounds(&self) -> (Bound<&Datum>, Bound<&Datum>) {
        (self.lo.as_ref(), self.hi.as_ref())
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
        let (lo, hi) = self.range.bounds();
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
/// range and counts its entries without ever touching the base table.
///
/// Fidelity note (Section II-B): because base-table PIDs never
/// materialize in this operator, **no distinct page count can be
/// monitored from it** — the same limitation the paper notes for plans
/// that never expose the pages an alternative plan would touch.
pub struct IndexOnlyScan {
    tree: Arc<BPlusTree>,
    height: u32,
    range: SeekRange,
}

impl IndexOnlyScan {
    /// Builds an index-only scan over `tree` (of the given height, for
    /// I/O charging).
    pub fn new(tree: Arc<BPlusTree>, height: u32, range: SeekRange) -> Self {
        IndexOnlyScan {
            tree,
            height,
            range,
        }
    }
}

impl Operator for IndexOnlyScan {
    /// One output row per index entry: the postings in range, summed.
    /// Charges the descent and leaf walk, and one row per entry.
    fn count(&mut self, ctx: &mut ExecContext) -> Result<u64> {
        let (lo, hi) = self.range.bounds();
        let n: u64 = self
            .tree
            .range(lo, hi)
            .map(|(_, posting)| posting.len() as u64)
            .sum();
        ctx.pool
            .charge_index_nodes(u64::from(self.height) + n.div_ceil(64));
        ctx.pool.charge_rows(n);
        Ok(n)
    }
}

/// The Fetch operator: turns RIDs into base-table rows with one random
/// page access each (deduped by the buffer pool), evaluates the residual
/// predicate, and drives the [`FetchMonitor`]s it owns. It counts the
/// rows that pass, or, as a join's outer side, hands them over as
/// borrowed views ([`crate::JoinOuter`]).
pub struct Fetch {
    source: Box<dyn RidSource>,
    storage: Arc<TableStorage>,
    table_id: TableId,
    /// Conjuncts not implied by the seek, evaluated after the fetch.
    residual: Conjunction,
    /// The monitors this fetch drives (empty when unmonitored).
    monitors: Vec<FetchMonitor>,
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
        monitors: Vec<FetchMonitor>,
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
    fn flush_pending(ms: &mut [FetchMonitor], ctx: &mut ExecContext, page: u32, rows: u64) {
        for m in ms {
            if !m.shed && m.when == FetchObserveWhen::AllFetched {
                m.counter.observe_page(page, rows);
                ctx.pool.charge_hashes(rows);
            }
        }
    }

    /// Runs the RID stream to completion, handing each row that passes
    /// the residual to `f` as a borrowed view once every I/O, hash and
    /// monitor charge for it is applied; no row is decoded into owned
    /// values.
    pub(crate) fn for_each_passing(
        &mut self,
        ctx: &mut ExecContext,
        mut f: impl FnMut(RowView<'_>, &mut ExecContext) -> Result<()>,
    ) -> Result<()> {
        while let Some(rid) = self.source.next_rid(ctx)? {
            // Deadline checkpoint before each fetched RID: an aborted
            // fetch never touches the page or its monitors.
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
                    for m in &mut self.monitors {
                        m.note_skipped_page();
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            ctx.pool.charge_rows(1);

            if !self.monitors.is_empty() {
                // Same-page runs coalesce into one bulk observation per
                // page, flushed on page change.
                match &mut self.pending_obs {
                    Some((p, n)) if *p == rid.page.0 => *n += 1,
                    pending => {
                        if let Some((page, rows)) = pending.replace((rid.page.0, 1)) {
                            Self::flush_pending(&mut self.monitors, ctx, page, rows);
                        }
                    }
                }
            }

            let (pass, evaluated) = self.residual.eval_short_circuit(&view);
            ctx.pool.charge_pred_evals(evaluated as u64);
            if pass {
                for m in &mut self.monitors {
                    if !m.shed && m.when == FetchObserveWhen::PassedResidual {
                        m.counter.observe(rid.page.0);
                        ctx.pool.charge_hashes(1);
                    }
                }
                f(view, ctx)?;
            }
        }
        // End of the RID stream: flush the trailing page run (taking it
        // keeps repeated end-of-stream calls idempotent).
        if let Some((page, rows)) = self.pending_obs.take() {
            Self::flush_pending(&mut self.monitors, ctx, page, rows);
        }
        Ok(())
    }
}

impl Operator for Fetch {
    fn count(&mut self, ctx: &mut ExecContext) -> Result<u64> {
        let mut n = 0;
        self.for_each_passing(ctx, |_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    fn visit_monitors(&mut self, visit: &mut dyn FnMut(MonitorMut<'_>)) {
        for m in &mut self.monitors {
            visit(MonitorMut::Fetch(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AtomicPredicate;
    use crate::monitor::harvest;
    use pf_common::{Column, DataType, PageId, Row, Schema};

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

    /// Column `col` of every row `fetch` hands over, in fetch order.
    fn fetched_ints(fetch: &mut Fetch, ctx: &mut ExecContext, col: usize) -> Vec<i64> {
        let mut out = Vec::new();
        fetch
            .for_each_passing(ctx, |view, _| {
                out.push(view.get(col).to_datum().as_int()?);
                Ok(())
            })
            .expect("fetch runs");
        out
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
            Vec::new(),
        );
        let mut ctx = ExecContext::new(4096);
        let perms = fetched_ints(&mut fetch, &mut ctx, 1);
        assert_eq!(perms.len(), 50);
        assert!(perms.iter().all(|&p| p < 50));
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
            Vec::new(),
        );
        let mut ctx = ExecContext::new(8192);
        fetch.count(&mut ctx).expect("fetch counts");

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
            let monitors = vec![FetchMonitor::new(
                "t",
                "perm<400",
                FetchObserveWhen::AllFetched,
                storage.page_count(),
                None,
                9,
            )];
            let mut fetch = Fetch::new(
                Box::new(seek),
                Arc::clone(&storage),
                TableId(0),
                Conjunction::always_true(),
                monitors,
            );
            let mut ctx = ExecContext::new(16_384);
            ctx.deadline_ms = deadline_ms;
            let count = fetch.count(&mut ctx);
            let shed = harvest(&mut fetch).is_budget_shed();
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
        let monitors = vec![FetchMonitor::new(
            "t",
            "perm<400",
            FetchObserveWhen::AllFetched,
            storage.page_count(),
            None,
            9,
        )];
        let mut fetch = Fetch::new(
            Box::new(seek),
            Arc::clone(&storage),
            TableId(0),
            Conjunction::always_true(),
            monitors,
        );
        let mut ctx = ExecContext::new(16_384);
        fetch.count(&mut ctx).expect("fetch counts");
        let truth = ctx.stats().rand_physical_reads as f64;
        let est = harvest(&mut fetch).measurements[0].actual;
        let err = (est - truth).abs() / truth;
        assert!(err < 0.10, "estimate {est}, truth {truth}");
    }

    /// The residual filters and the two observation points measure
    /// different DPCs. Counting the fetch yields the same count, I/O
    /// charges and feedback report as handing its rows to a join.
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
            let monitors = vec![
                FetchMonitor::new(
                    "t",
                    "perm<500",
                    FetchObserveWhen::AllFetched,
                    storage.page_count(),
                    None,
                    1,
                ),
                FetchMonitor::new(
                    "t",
                    "perm<500 AND id<100",
                    FetchObserveWhen::PassedResidual,
                    storage.page_count(),
                    None,
                    2,
                ),
            ];
            let mut fetch = Fetch::new(
                Box::new(seek),
                Arc::clone(&storage),
                TableId(0),
                residual,
                monitors,
            );
            let mut ctx = ExecContext::new(16_384);
            let n = if count {
                fetch.count(&mut ctx).expect("fetch counts")
            } else {
                fetched_ints(&mut fetch, &mut ctx, 0).len() as u64
            };
            let report = harvest(&mut fetch);
            assert!(report.measurements[0].actual > report.measurements[1].actual);
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
            Vec::new(),
        );
        let mut ctx = ExecContext::new(8192);
        let perms = fetched_ints(&mut fetch, &mut ctx, 1);
        assert_eq!(perms.len(), 50);
        assert!(perms.iter().all(|p| (50..100).contains(p)));
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
            Vec::new(),
        );
        let mut ctx = ExecContext::new(1024);
        assert_eq!(fetch.count(&mut ctx).expect("fetch counts"), 0);
        assert_eq!(ctx.stats().rand_physical_reads, 0);
    }
}
