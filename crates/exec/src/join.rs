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

use crate::context::ExecContext;
use crate::expr::Conjunction;
use crate::index::{Fetch, IndexSeek, RidList, SeekRange};
use crate::join_table::{join_partitions, RadixTable};
use crate::monitor::{FetchMonitor, MonitorMut};
use crate::op::Operator;
use pf_common::{Datum, DatumRef, Error, Result, Row, Schema, TableId};
use pf_feedback::BitVectorFilter;
use pf_storage::btree::BPlusTree;
use pf_storage::TableStorage;
use std::collections::VecDeque;
use std::sync::Arc;

/// Seed for the radix build table's key hashing (internal layout only —
/// never observable in results or charges).
const BUILD_TABLE_SEED: u64 = 0x5EED_B01D_FACE_D0E5;

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
/// produces, and the probe morsels share it.
#[derive(Debug)]
pub struct BuildSide {
    table: RadixTable,
    filter: Option<BitVectorFilter>,
}

impl BuildSide {
    /// Folds the build side of a later build morsel into this one: key
    /// multiplicities add and the filters OR, exactly as one build over
    /// both morsels' rows would have filled them.
    pub fn merge(&mut self, other: BuildSide) -> Result<()> {
        self.table.merge(other.table);
        match (&mut self.filter, other.filter) {
            (Some(a), Some(b)) => a.merge(&b),
            (None, None) => Ok(()),
            _ => Err(Error::Internal(
                "build morsels disagree on the semi-join filter".into(),
            )),
        }
    }
}

/// In-memory hash join (equijoin on one column per side).
///
/// Output rows are `build_row ++ probe_row`.
pub struct HashJoin {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key: usize,
    probe_key: usize,
    bitvector: Option<BitVectorConfig>,
    schema: Schema,
    /// Radix-partition count of the build table.
    partitions: usize,
    /// The completed build side (its filter already handed to the probe
    /// side); stores chained rows only when the join is driven
    /// row-at-a-time (counting drivers keep multiplicities only).
    built: Option<Arc<BuildSide>>,
    /// Rows were not stored at build time (counting-driver mode); a
    /// subsequent row pull is a driver bug, not an empty join.
    count_mode: bool,
    /// The probe scan carries the pushed-down prefilter, which charges
    /// one hash per row it tests — so the join must not charge its own
    /// per-probe-row hash on top.
    prefiltered: bool,
    pending: VecDeque<Row>,
}

impl HashJoin {
    /// Builds a hash join; `bitvector` enables DPC monitoring (Fig 5).
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key: usize,
        probe_key: usize,
        bitvector: Option<BitVectorConfig>,
    ) -> Self {
        let schema = build.schema().join(probe.schema());
        HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            bitvector,
            schema,
            partitions: join_partitions(0.0),
            built: None,
            count_mode: false,
            prefiltered: false,
            pending: VecDeque::new(),
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
    /// runs, counting (one probe morsel).
    pub fn with_build_side(mut self, side: Arc<BuildSide>) -> Self {
        let filter = side.filter.clone();
        self.count_mode = true;
        self.install(side, filter);
        self
    }

    /// Runs only the build phase, in counting mode, and hands out the
    /// completed build side instead of probing — one build morsel of a
    /// parallel join. Charges exactly what the serial build charges for
    /// the same rows.
    pub fn build_side(&mut self, ctx: &mut ExecContext) -> Result<BuildSide> {
        self.build_phase(ctx, false)
    }

    /// Build: page-at-a-time over the build scan into the
    /// radix-partitioned table, with per-page bulk filter inserts. Each
    /// build row charges one hash, plus one per filter insert.
    fn build_phase(&mut self, ctx: &mut ExecContext, store_rows: bool) -> Result<BuildSide> {
        let mut filter = self
            .bitvector
            .as_ref()
            .map(|c| BitVectorFilter::new(c.numbits, c.seed));
        let mut table = RadixTable::new(self.partitions, BUILD_TABLE_SEED);
        let build_key = self.build_key;
        match self.build.as_seq_scan() {
            Some(scan) => {
                let (table, filter) = (&mut table, &mut filter);
                while scan.next_page_rows(ctx, &mut |rows, ctx| {
                    rows.for_each(|view| {
                        let key = view.get(build_key);
                        ctx.pool.charge_hashes(1);
                        if let Some(f) = filter.as_mut() {
                            f.insert_ref(key);
                            ctx.pool.charge_hashes(1);
                        }
                        table.insert(key, store_rows.then(|| view.materialize()));
                        Ok(())
                    })
                })? {}
            }
            None => {
                // Non-scan build input (an index fetch, another join):
                // keep the row pull but build the radix table.
                while let Some(row) = self.build.next(ctx)? {
                    ctx.check_interrupt()?;
                    ctx.pool.charge_hashes(1);
                    if let Some(f) = filter.as_mut() {
                        f.insert(row.get(build_key));
                        ctx.pool.charge_hashes(1);
                    }
                    if store_rows {
                        let key = row.get(build_key).clone();
                        table.insert(DatumRef::from(&key), Some(row));
                    } else {
                        table.insert(DatumRef::from(row.get(build_key)), None);
                    }
                }
            }
        }
        Ok(BuildSide { table, filter })
    }

    /// Builds (when no build side was installed yet) in the given mode.
    fn ensure_built(&mut self, ctx: &mut ExecContext, store_rows: bool) -> Result<()> {
        if self.built.is_none() {
            let BuildSide { table, filter } = self.build_phase(ctx, store_rows)?;
            self.count_mode = !store_rows;
            self.install(
                Arc::new(BuildSide {
                    table,
                    filter: None,
                }),
                filter,
            );
        }
        Ok(())
    }

    /// Hands the completed build-side `filter` to the probe scan — its
    /// semi-join monitor and, when the planner pushes it down, its page
    /// pass — and keeps `side` for probing.
    fn install(&mut self, side: Arc<BuildSide>, filter: Option<BitVectorFilter>) {
        if let (Some(f), Some(c)) = (filter, &self.bitvector) {
            if let Some(scan) = self.probe.as_seq_scan() {
                scan.install_semi_join_filter(f, self.probe_key, c.pushdown);
                // A pushed-down filter culls probe rows inside the scan's
                // page pass, and the scan charges the per-row probe hash
                // from here on.
                self.prefiltered = c.pushdown;
            }
        }
        self.built = Some(side);
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        self.ensure_built(ctx, true)?;
        if self.count_mode {
            return Err(Error::Internal(
                "hash join built for counting cannot deliver rows".into(),
            ));
        }
        let table = &self.built.as_deref().expect("built above").table;
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            let Some(probe_row) = self.probe.next(ctx)? else {
                return Ok(None);
            };
            ctx.check_interrupt()?;
            if !self.prefiltered {
                ctx.pool.charge_hashes(1);
            }
            for b in table.rows_for(DatumRef::from(probe_row.get(self.probe_key))) {
                self.pending.push_back(b.join(&probe_row));
            }
        }
    }

    fn next_count(&mut self, ctx: &mut ExecContext) -> Result<Option<u64>> {
        self.ensure_built(ctx, false)?;
        let table = &self.built.as_deref().expect("built above").table;
        let probe_key = self.probe_key;
        let prefiltered = self.prefiltered;
        match self.probe.as_seq_scan() {
            Some(scan) => {
                // Page-batched probe: gather the page's join keys from
                // borrowed views and count matches in a tight loop —
                // no probe row is ever materialized.
                let mut total = 0u64;
                let more = scan.next_page_rows(ctx, &mut |rows, ctx| {
                    rows.for_each(|view| {
                        if !prefiltered {
                            ctx.pool.charge_hashes(1);
                        }
                        total += table.matches(view.get(probe_key));
                        Ok(())
                    })
                })?;
                if more {
                    Ok(Some(total))
                } else {
                    Ok(None)
                }
            }
            None => {
                let Some(probe_row) = self.probe.next(ctx)? else {
                    return Ok(None);
                };
                ctx.check_interrupt()?;
                if !prefiltered {
                    ctx.pool.charge_hashes(1);
                }
                Ok(Some(
                    table.matches(DatumRef::from(probe_row.get(probe_key))),
                ))
            }
        }
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
/// nonclustered index on the join column and fetch matching rows.
///
/// Output rows are `outer_row ++ inner_row`. The inner fetch's monitors
/// (observing `AllFetched`) measure `DPC(inner, join-pred)` directly
/// with linear counting — the Section IV INL case.
pub struct InlJoin {
    outer: Box<dyn Operator>,
    outer_key: usize,
    /// The inner index seek, re-aimed at each outer row's key.
    seek: IndexSeek,
    /// The inner fetch, restarted over each outer row's RIDs. Reusing
    /// one seek and one fetch keeps the per-row work free of shared
    /// reference-count traffic, so morsels of one join scale.
    fetch: Fetch,
    /// Residual predicate on the joined (outer ++ inner) row.
    residual: Conjunction,
    schema: Schema,
    pending: VecDeque<Row>,
}

impl InlJoin {
    /// Builds an INL join probing `inner_tree` (an index on the inner
    /// join column).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        outer: Box<dyn Operator>,
        outer_key: usize,
        inner_tree: Arc<BPlusTree>,
        inner_height: u32,
        inner_storage: Arc<TableStorage>,
        inner_table_id: TableId,
        residual: Conjunction,
        inner_monitors: Vec<FetchMonitor>,
    ) -> Self {
        let schema = outer.schema().join(inner_storage.schema());
        let everything = SeekRange {
            lo: std::ops::Bound::Unbounded,
            hi: std::ops::Bound::Unbounded,
        };
        InlJoin {
            outer,
            outer_key,
            seek: IndexSeek::new(inner_tree, inner_height, everything),
            fetch: Fetch::new(
                Box::new(RidList::new(Vec::new())),
                inner_storage,
                inner_table_id,
                Conjunction::always_true(),
                inner_monitors,
            ),
            residual,
            schema,
            pending: VecDeque::new(),
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
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            let Some(outer_row) = self.outer.next(ctx)? else {
                return Ok(None);
            };
            // One checkpoint per outer row: each drives a fresh index
            // seek + fetch, so this is the INL page-ish granularity.
            ctx.check_interrupt()?;
            let key = outer_row.get(self.outer_key).clone();
            probe_inner(&mut self.seek, &mut self.fetch, key, ctx);
            while let Some(inner_row) = self.fetch.next(ctx)? {
                let joined = outer_row.join(&inner_row);
                let (pass, evaluated) = self.residual.eval_short_circuit(&joined);
                ctx.pool.charge_pred_evals(evaluated as u64);
                if pass {
                    self.pending.push_back(joined);
                }
            }
        }
    }

    fn next_count(&mut self, ctx: &mut ExecContext) -> Result<Option<u64>> {
        let outer = match self.outer.as_seq_scan() {
            Some(scan) if self.residual.is_empty() => scan,
            _ => return Ok(self.next(ctx)?.map(|_| 1)),
        };
        // Page-batched outer: the page access, then per outer row (in
        // slot order) the checkpoint, seek and fetch of the row pull —
        // the same access stream and charges — without materializing
        // outer, inner or joined rows. With no residual, every fetched
        // row joins.
        let (seek, fetch, outer_key) = (&mut self.seek, &mut self.fetch, self.outer_key);
        let mut total = 0u64;
        let more = outer.next_page_rows(ctx, &mut |rows, ctx| {
            rows.for_each(|view| {
                ctx.check_interrupt()?;
                probe_inner(seek, fetch, view.get(outer_key).to_datum(), ctx);
                while let Some(n) = fetch.next_count(ctx)? {
                    total += n;
                }
                Ok(())
            })
        })?;
        Ok(more.then_some(total))
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
    use crate::op::{drain, run_count};
    use crate::scan::SeqScan;
    use pf_common::{Column, DataType};

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
        let mut hj = HashJoin::new(Box::new(build), Box::new(probe), 0, 1, None);
        let mut ctx = ExecContext::new(8192);
        let rows = drain(&mut hj, &mut ctx).expect("plan drains without error");
        // Each outer key 0..50 matches exactly one inner row.
        assert_eq!(rows.len(), 50);
        for r in &rows {
            assert_eq!(r.get(0), r.get(3), "join keys equal");
        }
    }

    /// The INL join's counting pull replays the row pull's access
    /// stream and charges exactly, monitors included.
    #[test]
    fn inl_join_count_driver_matches_row_driver() {
        let (outer, inner, tree, h) = setup(300);
        let run = |count: bool| {
            let monitors = vec![FetchMonitor::new(
                "inner",
                "j",
                FetchObserveWhen::AllFetched,
                inner.page_count(),
                None,
                5,
            )];
            let mut inl = InlJoin::new(
                Box::new(outer_scan(&outer, 120)),
                0,
                Arc::clone(&tree),
                h,
                Arc::clone(&inner),
                TableId(1),
                Conjunction::always_true(),
                monitors,
            );
            let mut ctx = ExecContext::new(8192);
            let n = if count {
                run_count(&mut inl, &mut ctx).expect("join counts")
            } else {
                drain(&mut inl, &mut ctx).expect("join drains").len() as u64
            };
            (n, ctx.stats(), format!("{:?}", harvest(&mut inl)))
        };
        let counted = run(true);
        assert_eq!(counted.0, 120);
        assert_eq!(counted, run(false));
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
        let mut hj = HashJoin::new(Box::new(build), Box::new(probe), 0, 1, None);
        let mut hash_keys: Vec<i64> = drain(&mut hj, &mut ctx)
            .expect("test value is well-formed")
            .iter()
            .map(|r| r.get(0).as_int().expect("int column"))
            .collect();
        hash_keys.sort_unstable();

        ctx.cold_start();
        let outer_op = outer_scan(&outer, 80);
        let mut inl = InlJoin::new(
            Box::new(outer_op),
            0,
            tree,
            h,
            Arc::clone(&inner),
            TableId(1),
            Conjunction::always_true(),
            Vec::new(),
        );
        let mut inl_keys: Vec<i64> = drain(&mut inl, &mut ctx)
            .expect("test value is well-formed")
            .iter()
            .map(|r| r.get(0).as_int().expect("int column"))
            .collect();
        inl_keys.sort_unstable();
        assert_eq!(hash_keys, inl_keys);
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
        let outer_op = outer_scan(&outer, 300);
        let mut inl = InlJoin::new(
            Box::new(outer_op),
            0,
            tree,
            h,
            Arc::clone(&inner),
            TableId(1),
            Conjunction::always_true(),
            monitors,
        );
        let mut ctx = ExecContext::new(32_768);
        run_count(&mut inl, &mut ctx).expect("plan drains without error");
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
            Box::new(build),
            Box::new(probe),
            0,
            1,
            Some(BitVectorConfig {
                numbits: 4096,
                seed: 11,
                pushdown: false,
            }),
        );
        let mut ctx = ExecContext::new(32_768);
        let n = run_count(&mut hj, &mut ctx).expect("plan drains without error");
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
        let mut hj = HashJoin::new(Box::new(build), Box::new(probe), 0, 0, None);
        let mut ctx = ExecContext::new(1024);
        // 1⋈1: 2×2 = 4, 2⋈2: 1 ⇒ 5 rows.
        assert_eq!(
            run_count(&mut hj, &mut ctx).expect("plan drains without error"),
            5
        );
    }
}
