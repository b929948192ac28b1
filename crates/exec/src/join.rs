//! RE-side joins: Hash and Index-Nested-Loops — Section IV.
//!
//! The join operators run in the relational engine, where PIDs are not
//! visible. Monitoring the DPC an *INL join* would incur therefore works
//! differently per current plan:
//!
//! * [`InlJoin`] — the inner fetches go through the storage engine, so a
//!   linear counter on the inner Fetch observes the DPC directly;
//! * [`HashJoin`] — builds a bit-vector over outer join keys during the
//!   build phase and hands it to the probe-side scan
//!   ([`crate::SeqScan::install_semi_join_filter`], the SE→RE callback of
//!   Section V-A), where the scan's monitor counts pages with ≥1 filter
//!   hit (Fig 5) and, when the planner pushes it down, the page pass
//!   culls rows the filter rejects.
//!
//! Both joins count their output. They read the outer side through
//! [`JoinOuter`] and a hash join's probe side straight from its
//! [`SeqScan`], as borrowed rows: no join input row is materialized.

use crate::context::ExecContext;
use crate::expr::Conjunction;
use crate::index::{Fetch, IndexSeek, RidList, SeekRange};
use crate::join_table::{join_partitions, RadixTable};
use crate::monitor::{FetchMonitor, MonitorMut};
use crate::op::Operator;
use crate::scan::SeqScan;
use pf_common::{Datum, Error, Result, TableId};
use pf_feedback::BitVectorFilter;
use pf_storage::btree::BPlusTree;
use pf_storage::{RowView, TableStorage};
use std::sync::Arc;

/// Seed for the radix build table's key hashing (internal layout only —
/// never observable in results or charges).
const BUILD_TABLE_SEED: u64 = 0x5EED_B01D_FACE_D0E5;

/// A join's outer side — the rows a hash join builds from and an INL
/// join probes with: the outer table's access path, a scan or an index
/// fetch. Both variants are boxed, keeping the enum two words for
/// either access path (a scan is twice a fetch's size).
pub enum JoinOuter {
    /// A sequential or clustered-range scan.
    Scan(Box<SeqScan>),
    /// An index seek (or intersection) and its fetch.
    Fetch(Box<Fetch>),
}

impl JoinOuter {
    /// Runs the outer side to completion, handing each qualifying row
    /// to `f` as a borrowed view: a scan's page by page, a fetch's one
    /// passing RID at a time. A scan checkpoints the deadline at its
    /// page boundaries; a fetch also checkpoints between each fetched
    /// row and `f`'s work on it.
    pub fn for_each_row(
        &mut self,
        ctx: &mut ExecContext,
        mut f: impl FnMut(RowView<'_>, &mut ExecContext) -> Result<()>,
    ) -> Result<()> {
        match self {
            JoinOuter::Scan(scan) => scan.for_each_row(ctx, f),
            JoinOuter::Fetch(fetch) => fetch.for_each_passing(ctx, |view, ctx| {
                ctx.check_interrupt()?;
                f(view, ctx)
            }),
        }
    }

    fn visit_monitors(&mut self, visit: &mut dyn FnMut(MonitorMut<'_>)) {
        match self {
            JoinOuter::Scan(scan) => scan.visit_monitors(visit),
            JoinOuter::Fetch(fetch) => fetch.visit_monitors(visit),
        }
    }
}

impl From<SeqScan> for JoinOuter {
    fn from(scan: SeqScan) -> Self {
        JoinOuter::Scan(Box::new(scan))
    }
}

impl From<Fetch> for JoinOuter {
    fn from(fetch: Fetch) -> Self {
        JoinOuter::Fetch(Box::new(fetch))
    }
}

/// Configuration for the bit-vector filter a join builds for monitoring.
#[derive(Debug, Clone)]
pub struct BitVectorConfig {
    /// Filter size in bits.
    pub numbits: usize,
    /// Hash seed.
    pub seed: u64,
    /// Planner decision: push the completed filter into the probe-side
    /// scan as a pre-filter.
    pub pushdown: bool,
}

/// A hash join's completed build side: the radix table of build keys
/// and the semi-join bit-vector filter built beside it (when the join
/// monitors). Plain `Send + Sync` data, so the build sides of a join's
/// build morsels can [`BuildSide::merge`] into the one a serial build
/// produces, and the probe morsels share it. The filter is read-only
/// once built: every probe morsel's scan prefilter and semi-join
/// monitor share this one copy.
#[derive(Debug)]
pub struct BuildSide {
    table: RadixTable,
    filter: Option<Arc<BitVectorFilter>>,
}

impl BuildSide {
    /// Folds the build side of a later build morsel into this one: key
    /// multiplicities add and the filters OR, exactly as one build over
    /// both morsels' rows would have filled them.
    pub fn merge(&mut self, other: BuildSide) -> Result<()> {
        self.table.merge(other.table);
        match (&mut self.filter, other.filter) {
            // Build morsels' filters are not shared before they merge,
            // so `make_mut` never copies here.
            (Some(a), Some(b)) => Arc::make_mut(a).merge(&b),
            (None, None) => Ok(()),
            _ => Err(Error::Internal(
                "build morsels disagree on the semi-join filter".into(),
            )),
        }
    }
}

/// In-memory hash join (equijoin on one column per side), counting the
/// `build_row ++ probe_row` pairs whose keys match.
pub struct HashJoin {
    build: JoinOuter,
    probe: SeqScan,
    build_key: usize,
    probe_key: usize,
    bitvector: Option<BitVectorConfig>,
    /// Radix-partition count of the build table.
    partitions: usize,
    /// The completed build side, its filter already handed to the probe
    /// scan: built by the first count, or installed up front for a
    /// probe morsel.
    built: Option<Arc<BuildSide>>,
    /// The probe scan carries the pushed-down prefilter, which charges
    /// one hash per row it tests — so the join must not charge its own
    /// per-probe-row hash on top.
    prefiltered: bool,
}

impl HashJoin {
    /// Builds a hash join; `bitvector` enables DPC monitoring (Fig 5).
    pub fn new(
        build: impl Into<JoinOuter>,
        probe: SeqScan,
        build_key: usize,
        probe_key: usize,
        bitvector: Option<BitVectorConfig>,
    ) -> Self {
        HashJoin {
            build: build.into(),
            probe,
            build_key,
            probe_key,
            bitvector,
            partitions: join_partitions(0.0),
            built: None,
            prefiltered: false,
        }
    }

    /// Sets the radix-partition count (the planner derives it from the
    /// estimated build cardinality; the default is the unpartitioned
    /// layout). Purely internal layout — results are identical for any
    /// count.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Starts the join from an already-completed build side — the merged
    /// build of a parallel join's build morsels — so only the probe side
    /// runs (one probe morsel).
    pub fn with_build_side(mut self, side: Arc<BuildSide>) -> Self {
        let filter = side.filter.as_ref().map(Arc::clone);
        self.install(side, filter);
        self
    }

    /// Runs only the build phase and hands out the completed build side
    /// instead of probing — one build morsel of a parallel join, or the
    /// first step of [`Operator::count`]. Page-at-a-time over a build
    /// scan (a fetch: one passing RID at a time) into the
    /// radix-partitioned table, each build row charging one hash, plus
    /// one per filter insert.
    pub fn build_side(&mut self, ctx: &mut ExecContext) -> Result<BuildSide> {
        let mut filter = self
            .bitvector
            .as_ref()
            .map(|c| BitVectorFilter::new(c.numbits, c.seed));
        let mut table = RadixTable::new(self.partitions, BUILD_TABLE_SEED);
        let build_key = self.build_key;
        self.build.for_each_row(ctx, |view, ctx| {
            let key = view.get(build_key);
            ctx.pool.charge_hashes(1);
            if let Some(f) = filter.as_mut() {
                f.insert_ref(key);
                ctx.pool.charge_hashes(1);
            }
            table.insert(key);
            Ok(())
        })?;
        Ok(BuildSide {
            table,
            filter: filter.map(Arc::new),
        })
    }

    /// Hands the completed build-side `filter` to the probe scan — its
    /// semi-join monitor and, when the planner pushes it down, its page
    /// pass — and keeps `side` for probing.
    fn install(&mut self, side: Arc<BuildSide>, filter: Option<Arc<BitVectorFilter>>) {
        if let (Some(f), Some(c)) = (filter, &self.bitvector) {
            self.probe
                .install_semi_join_filter(f, self.probe_key, c.pushdown);
            // A pushed-down filter culls probe rows inside the scan's
            // page pass, and the scan charges the per-row probe hash
            // from here on.
            self.prefiltered = c.pushdown;
        }
        self.built = Some(side);
    }
}

impl Operator for HashJoin {
    fn count(&mut self, ctx: &mut ExecContext) -> Result<u64> {
        if self.built.is_none() {
            let BuildSide { table, filter } = self.build_side(ctx)?;
            self.install(
                Arc::new(BuildSide {
                    table,
                    filter: None,
                }),
                filter,
            );
        }
        let table = &self.built.as_deref().expect("built above").table;
        let (probe_key, prefiltered) = (self.probe_key, self.prefiltered);
        // Page-batched probe: read each page's join keys from borrowed
        // views and count their matches — no probe row is materialized.
        let mut total = 0;
        self.probe.for_each_row(ctx, |view, ctx| {
            if !prefiltered {
                ctx.pool.charge_hashes(1);
            }
            total += table.matches(view.get(probe_key));
            Ok(())
        })?;
        Ok(total)
    }

    fn visit_monitors(&mut self, visit: &mut dyn FnMut(MonitorMut<'_>)) {
        self.build.visit_monitors(visit);
        self.probe.visit_monitors(visit);
    }

    fn as_hash_join(&mut self) -> Option<&mut HashJoin> {
        Some(self)
    }
}

/// Index Nested Loops join: for each outer row, seek the inner table's
/// nonclustered index on the join column and fetch matching rows,
/// counting the `outer_row ++ inner_row` pairs.
///
/// The inner fetch's monitors (observing `AllFetched`) measure
/// `DPC(inner, join-pred)` directly with linear counting — the
/// Section IV INL case.
pub struct InlJoin {
    outer: JoinOuter,
    outer_key: usize,
    /// The inner index seek, re-aimed at each outer row's key.
    seek: IndexSeek,
    /// The inner fetch, restarted over each outer row's RIDs. Reusing
    /// one seek and one fetch keeps the per-row work free of shared
    /// reference-count traffic, so morsels of one join scale.
    fetch: Fetch,
}

impl InlJoin {
    /// Builds an INL join probing `inner_tree` (an index on the inner
    /// join column).
    pub fn new(
        outer: impl Into<JoinOuter>,
        outer_key: usize,
        inner_tree: Arc<BPlusTree>,
        inner_height: u32,
        inner_storage: Arc<TableStorage>,
        inner_table_id: TableId,
        inner_monitors: Vec<FetchMonitor>,
    ) -> Self {
        let everything = SeekRange {
            lo: std::ops::Bound::Unbounded,
            hi: std::ops::Bound::Unbounded,
        };
        InlJoin {
            outer: outer.into(),
            outer_key,
            seek: IndexSeek::new(inner_tree, inner_height, everything),
            fetch: Fetch::new(
                Box::new(RidList::new(Vec::new())),
                inner_storage,
                inner_table_id,
                Conjunction::always_true(),
                inner_monitors,
            ),
        }
    }
}

/// One index lookup per outer row: seeks `key` (charging the index
/// reads) and restarts `fetch` over the matching RIDs — the seek-then-
/// fetch order of an `IndexSeek → Fetch` plan.
fn probe_inner(seek: &mut IndexSeek, fetch: &mut Fetch, key: Datum, ctx: &mut ExecContext) {
    let rids = seek.rids_in(SeekRange::eq(key), ctx);
    fetch.restart(Box::new(RidList::new(rids)));
}

impl Operator for InlJoin {
    fn count(&mut self, ctx: &mut ExecContext) -> Result<u64> {
        let (seek, fetch, outer_key) = (&mut self.seek, &mut self.fetch, self.outer_key);
        let mut total = 0;
        self.outer.for_each_row(ctx, |view, ctx| {
            // One checkpoint per outer row: each drives a fresh index
            // seek + fetch, so this is the INL page-ish granularity.
            ctx.check_interrupt()?;
            probe_inner(seek, fetch, view.get(outer_key).to_datum(), ctx);
            total += fetch.count(ctx)?;
            Ok(())
        })?;
        Ok(total)
    }

    fn visit_monitors(&mut self, visit: &mut dyn FnMut(MonitorMut<'_>)) {
        self.outer.visit_monitors(visit);
        self.fetch.visit_monitors(visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AtomicPredicate, CompareOp};
    use crate::monitor::{harvest, FetchObserveWhen, ScanExprMonitor, ScanMonitorSet};
    use pf_common::{Column, DataType, PageId, Row, Schema};

    /// Two tables: `outer(k, tag)` clustered on k with keys 0..n,
    /// `inner(id, k, pad)` clustered on id with k scrambled.
    fn setup(n: i64) -> (Arc<TableStorage>, Arc<TableStorage>, Arc<BPlusTree>, u32) {
        let outer_schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("tag", DataType::Str),
        ]);
        let outer_rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Datum::Int(i), Datum::Str("o".into())]))
            .collect();
        let outer = Arc::new(
            TableStorage::bulk_load(outer_schema, &outer_rows, Some(0), 1024, 1.0)
                .expect("bulk load test table"),
        );

        let inner_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let inner_rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str("x".repeat(30)),
                ])
            })
            .collect();
        let inner = Arc::new(
            TableStorage::bulk_load(inner_schema, &inner_rows, Some(0), 1024, 1.0)
                .expect("bulk load test table"),
        );
        let mut tree = BPlusTree::new();
        for rid in inner.all_rids() {
            let row = inner.read_row(rid).expect("rid points at a loaded row");
            tree.insert(row.get(1).clone(), rid);
        }
        let h = tree.height();
        (outer, inner, Arc::new(tree), h)
    }

    fn outer_scan(outer: &Arc<TableStorage>, hi: i64) -> SeqScan {
        let pred = Conjunction::new(vec![AtomicPredicate::new(
            outer.schema(),
            "k",
            CompareOp::Lt,
            Datum::Int(hi),
        )
        .expect("test value is well-formed")]);
        SeqScan::full(Arc::clone(outer), TableId(0), pred, None)
    }

    /// Column `col` of every row of `t`.
    fn column(t: &TableStorage, col: usize) -> Vec<Datum> {
        (0..t.page_count())
            .flat_map(|p| t.rows_on_page(PageId(p)).expect("page id within table"))
            .map(|r| r.get(col).clone())
            .collect()
    }

    #[test]
    fn hash_join_matches_nested_loop_semantics() {
        let (outer, inner, _, _) = setup(300);
        let build = outer_scan(&outer, 50);
        let probe = SeqScan::full(
            Arc::clone(&inner),
            TableId(1),
            Conjunction::always_true(),
            None,
        );
        let mut hj = HashJoin::new(build, probe, 0, 1, None);
        let mut ctx = ExecContext::new(8192);
        let n = hj.count(&mut ctx).expect("plan counts without error");
        // Nested loop over the build keys (k < 50) and the probe keys.
        let inner_keys = column(&inner, 1);
        let expected = column(&outer, 0)
            .iter()
            .filter(|k| k.as_int().expect("int column") < 50)
            .map(|k| inner_keys.iter().filter(|p| *p == k).count() as u64)
            .sum::<u64>();
        // Each outer key 0..50 matches exactly one inner row.
        assert_eq!(expected, 50);
        assert_eq!(n, expected);
    }

    #[test]
    fn inl_join_same_result_as_hash_join() {
        let (outer, inner, tree, h) = setup(300);
        let mut ctx = ExecContext::new(8192);

        let build = outer_scan(&outer, 80);
        let probe = SeqScan::full(
            Arc::clone(&inner),
            TableId(1),
            Conjunction::always_true(),
            None,
        );
        let mut hj = HashJoin::new(build, probe, 0, 1, None);
        let hash = hj.count(&mut ctx).expect("hash join counts");

        ctx.cold_start();
        let mut inl = InlJoin::new(
            outer_scan(&outer, 80),
            0,
            tree,
            h,
            Arc::clone(&inner),
            TableId(1),
            Vec::new(),
        );
        let inl = inl.count(&mut ctx).expect("INL join counts");
        assert_eq!(hash, 80);
        assert_eq!(inl, hash);
    }

    #[test]
    fn inl_monitor_measures_join_dpc() {
        let (outer, inner, tree, h) = setup(2_000);
        let monitors = vec![FetchMonitor::new(
            "inner",
            "outer.k=inner.k",
            FetchObserveWhen::AllFetched,
            inner.page_count(),
            None,
            4,
        )];
        let mut inl = InlJoin::new(
            outer_scan(&outer, 300),
            0,
            tree,
            h,
            Arc::clone(&inner),
            TableId(1),
            monitors,
        );
        let mut ctx = ExecContext::new(32_768);
        inl.count(&mut ctx).expect("plan counts without error");
        // Ground truth: distinct inner pages holding k < 300.
        let mut truth = std::collections::HashSet::new();
        for p in 0..inner.page_count() {
            for r in inner
                .rows_on_page(pf_common::PageId(p))
                .expect("page id within table")
            {
                if r.get(1).as_int().expect("int column") < 300 {
                    truth.insert(p);
                }
            }
        }
        let est = harvest(&mut inl).measurements[0].actual;
        // The counter is sized at ~1 bit/page (paper's sizing); at the
        // high load factor of this dense join, expect ≲20 % error.
        let err = (est - truth.len() as f64).abs() / truth.len() as f64;
        assert!(err < 0.20, "estimate {est}, truth {}", truth.len());
    }

    #[test]
    fn hash_join_bitvector_measures_inl_dpc() {
        let (outer, inner, _, _) = setup(2_000);
        // The probe-side key column is `k` (#1).
        let scan_monitors = ScanMonitorSet::new(
            "inner",
            vec![ScanExprMonitor::semi_join(
                "outer.k=inner.k",
                1,
                4096 / 8,
                None,
            )],
            1.0,
            5,
        );
        let build = outer_scan(&outer, 300);
        let probe = SeqScan::full(
            Arc::clone(&inner),
            TableId(1),
            Conjunction::always_true(),
            Some(scan_monitors),
        );
        let mut hj = HashJoin::new(
            build,
            probe,
            0,
            1,
            Some(BitVectorConfig {
                numbits: 4096,
                seed: 11,
                pushdown: false,
            }),
        );
        let mut ctx = ExecContext::new(32_768);
        let n = hj.count(&mut ctx).expect("plan counts without error");
        assert_eq!(n, 300);

        let mut truth = std::collections::HashSet::new();
        for p in 0..inner.page_count() {
            for r in inner
                .rows_on_page(pf_common::PageId(p))
                .expect("page id within table")
            {
                if r.get(1).as_int().expect("int column") < 300 {
                    truth.insert(p);
                }
            }
        }
        let est = harvest(&mut hj).measurements[0].actual;
        // The collision-corrected estimate is unbiased, not one-sided;
        // this dense join (15 % of keys on the build side) at 4 096 bits
        // is the correction's noisiest regime, so allow ±25 %.
        let t = truth.len() as f64;
        assert!(
            (t * 0.75..=t * 1.25).contains(&est),
            "est {est} vs truth {t}"
        );
    }

    /// A probe morsel started from a merged build side shares its one
    /// filter: the probe scan's prefilter and its semi-join monitor
    /// each hold the build side's allocation, and no morsel copies the
    /// bit array.
    #[test]
    fn probe_morsels_share_the_build_filter() {
        let (outer, inner, _, _) = setup(600);
        let bitvector = Some(BitVectorConfig {
            numbits: 4096,
            seed: 11,
            pushdown: true,
        });
        let morsel = || {
            let monitors = ScanMonitorSet::new(
                "inner",
                vec![ScanExprMonitor::semi_join(
                    "outer.k=inner.k",
                    1,
                    4096 / 8,
                    None,
                )],
                1.0,
                5,
            );
            let probe = SeqScan::full(
                Arc::clone(&inner),
                TableId(1),
                Conjunction::always_true(),
                Some(monitors),
            );
            HashJoin::new(outer_scan(&outer, 100), probe, 0, 1, bitvector.clone())
        };
        let mut ctx = ExecContext::new(32_768);
        let side = Arc::new(morsel().build_side(&mut ctx).expect("build runs"));
        let filter = side
            .filter
            .as_ref()
            .expect("monitored join builds a filter");
        let mut probes: Vec<HashJoin> = (0..2)
            .map(|_| morsel().with_build_side(Arc::clone(&side)))
            .collect();
        // The build side's own reference, plus prefilter and monitor per
        // morsel.
        assert_eq!(Arc::strong_count(filter), 1 + 2 * 2);
        for hj in &mut probes {
            let mut shared = false;
            hj.visit_monitors(&mut |m| {
                if let MonitorMut::Scan(set) = m {
                    shared |= set
                        .semi_join_filter()
                        .is_some_and(|f| Arc::ptr_eq(f, filter));
                }
            });
            assert!(shared, "the monitor tests the build side's filter");
            assert_eq!(hj.count(&mut ctx).expect("probe runs"), 100);
        }
    }

    #[test]
    fn hash_join_duplicate_keys_cross_product() {
        // Build side has duplicate keys: each probe match fans out.
        let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Datum::Int(1)]),
            Row::new(vec![Datum::Int(1)]),
            Row::new(vec![Datum::Int(2)]),
        ];
        let t = Arc::new(
            TableStorage::bulk_load(schema, &rows, Some(0), 512, 1.0)
                .expect("bulk load test table"),
        );
        let build = SeqScan::full(Arc::clone(&t), TableId(0), Conjunction::always_true(), None);
        let probe = SeqScan::full(Arc::clone(&t), TableId(0), Conjunction::always_true(), None);
        let mut hj = HashJoin::new(build, probe, 0, 0, None);
        let mut ctx = ExecContext::new(1024);
        // 1⋈1: 2×2 = 4, 2⋈2: 1 ⇒ 5 rows.
        assert_eq!(hj.count(&mut ctx).expect("plan counts without error"), 5);
    }
}
