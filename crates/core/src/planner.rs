//! Lowering: optimizer plans → executor trees with monitors attached.
//!
//! This is where the paper's "set of expressions for which distinct page
//! counts are needed" (Section V-A) is chosen and wired up:
//!
//! * **scan plans** get a [`ScanMonitorSet`] watching every expression an
//!   alternative index plan would be costed with — one per indexed atom,
//!   one per indexed pair (Index Intersection), and the full conjunction
//!   (a free prefix);
//! * **index plans** get [`FetchMonitor`]s — linear counters over the
//!   fetched PIDs for the seek expression and the full expression;
//! * **hash joins** get a semi-join expression on the probe scan, which
//!   tests the bit-vector filter the join hands over after its build
//!   phase;
//! * **INL joins** get a linear counter on the inner fetch.
//!
//! Each monitor moves into the operator that drives it. The lowered
//! plan reads them back by walking its operator tree
//! ([`LoweredPlan::harvest`], [`LoweredPlan::monitor_bytes`]), and the
//! config's memory budget sheds monitors through the same walk.

use crate::query::{CountArg, Query};
use pf_common::{Datum, Error, Result, Rid};
use pf_exec::index::{Fetch, IndexIntersection, IndexOnlyScan, IndexSeek, RidList, SeekRange};
use pf_exec::join::{BitVectorConfig, BuildSide, HashJoin, InlJoin};
use pf_exec::monitor::{self, MonitorPartial};
use pf_exec::scan::SeqScan;
use pf_exec::{
    CompareOp, Conjunction, FetchMonitor, FetchObserveWhen, JoinOuter, Operator, RidSource,
    ScanExprMonitor, ScanMonitorSet,
};
use pf_feedback::FeedbackReport;
use pf_optimizer::dpc_model::cardenas;
use pf_optimizer::plan::DpcSource;
use pf_optimizer::{
    join_dpc_key, AccessPath, CardinalityEstimator, CostModel, DbStats, HintSet, JoinPlan,
    JoinSpec, Optimizer, SingleTablePlan,
};
use pf_storage::{Catalog, TableMeta};
use std::sync::Arc;

/// What to monitor, and how.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Master switch; `false` lowers a plan with zero monitoring.
    pub enabled: bool,
    /// `DPSample` page-sampling fraction for non-prefix scan expressions
    /// (1.0 = exact).
    pub sampling_fraction: f64,
    /// Bit-vector filter size in bits; `None` sizes automatically from
    /// the estimated number of distinct build keys.
    pub bitvector_bits: Option<usize>,
    /// Also watch indexed atom *pairs* (Index Intersection costing).
    pub monitor_pairs: bool,
    /// Seed for sampling and hashing (vary across runs for independence).
    pub seed: u64,
    /// Monitor memory budget in bytes; monitors that do not fit (charged
    /// in descending [`pf_exec::ShedClass`] priority) are shed at
    /// lowering.
    pub memory_budget: Option<usize>,
    /// Query deadline in simulated milliseconds: past it, the query
    /// aborts with [`Error::DeadlineExceeded`] at its next page, RID or
    /// probe checkpoint. A deadline run never fills the plan cache, so an
    /// aborted run leaves the database as it found it.
    pub deadline_ms: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            enabled: true,
            sampling_fraction: 1.0,
            bitvector_bits: None,
            monitor_pairs: true,
            seed: 0xFEED,
            memory_budget: None,
            deadline_ms: None,
        }
    }
}

impl MonitorConfig {
    /// A configuration with monitoring fully off.
    pub fn off() -> Self {
        MonitorConfig {
            enabled: false,
            ..Default::default()
        }
    }

    /// Monitoring with the given `DPSample` fraction.
    pub fn sampled(fraction: f64) -> Self {
        MonitorConfig {
            sampling_fraction: fraction,
            ..Default::default()
        }
    }
}

/// The optimizer's resolved decision for a query, before lowering.
///
/// This is the unit the plan cache stores: names are resolved, the plan
/// space enumerated and costed, but no monitors exist yet. Re-lowering a
/// cached value per execution rebuilds monitors from that run's own seed
/// (so per-query-index seeding stays intact) while skipping resolution
/// and optimization entirely.
#[derive(Debug, Clone)]
pub enum OptimizedQuery {
    /// A single-table count: the chosen plan plus the resolved predicate.
    Single {
        /// The winning access path.
        plan: SingleTablePlan,
        /// The resolved conjunction the plan filters with.
        pred: Conjunction,
    },
    /// A two-table join count.
    Join {
        /// The winning join plan.
        plan: JoinPlan,
        /// The resolved join specification.
        spec: JoinSpec,
    },
}

/// The optimizer's decision that was lowered.
#[derive(Debug, Clone)]
pub enum PlanChoice {
    /// A single-table plan.
    Single(SingleTablePlan),
    /// A join plan.
    Join(JoinPlan),
}

impl PlanChoice {
    /// Short name of the operator at the decision point.
    pub fn name(&self) -> &'static str {
        match self {
            PlanChoice::Single(p) => p.path.name(),
            PlanChoice::Join(p) => p.method.name(),
        }
    }

    /// The plan's estimated cost in simulated ms.
    pub fn cost_ms(&self) -> f64 {
        match self {
            PlanChoice::Single(p) => p.cost_ms,
            PlanChoice::Join(p) => p.cost_ms,
        }
    }
}

/// An index plan's RID source, and the predicate atoms it covers.
pub(crate) type CoveringSource = (Box<dyn RidSource>, Vec<usize>);

/// The part of a plan that one lowering executes. Morsels of one query
/// each lower the whole cached plan — so every morsel makes the same
/// shed decisions and seeds the same monitors — restricted to a slice.
pub(crate) enum PlanSlice {
    /// The whole plan.
    Whole,
    /// `[first, last)` pages of the plan's driving scan: a single-table
    /// scan, or a join's outer scan (a hash join then runs only its
    /// build phase). `first_random` marks the slice whose first access
    /// pays the clustered seek's random I/O.
    Pages {
        /// The page range.
        range: (u32, u32),
        /// Whether the first page access is a random read.
        first_random: bool,
    },
    /// A run of a fetch plan's RIDs, already drawn from its index source.
    Rids(Vec<Rid>),
    /// Pages `[first, last)` of a hash join's probe scan, probed against
    /// a completed build side.
    Probe {
        /// The probe page range.
        range: (u32, u32),
        /// The merged build side of every build morsel.
        built: Arc<BuildSide>,
    },
}

/// A fully lowered, executable plan.
pub struct LoweredPlan {
    /// The root operator (counts the query's result rows); its tree
    /// owns the plan's monitors.
    pub op: Box<dyn Operator>,
    /// The optimizer decision this lowers.
    pub choice: PlanChoice,
    /// Human-readable plan description.
    pub description: String,
    /// Multi-line `EXPLAIN`-style tree with estimates and provenance.
    pub explain: String,
    /// The lowering config's query deadline, which execution enforces.
    pub(crate) deadline_ms: Option<u64>,
}

impl LoweredPlan {
    /// Collects every monitor's measurement into one feedback report:
    /// each scan's expressions in plan order, then each fetch monitor in
    /// plan order. Call after the plan has counted.
    pub fn harvest(&mut self) -> FeedbackReport {
        monitor::harvest(self.op.as_mut())
    }

    /// Bytes held by every still-observing monitor: the per-expression
    /// cost model the memory budget charges, summed over the monitors
    /// it did not shed. Right after lowering this is the
    /// plan-shape-derived *reservation estimate* a query admits against
    /// the global [`crate::MemoryBudget`]; at completion it is the
    /// *actual* held figure the reservation is reconciled with.
    pub fn monitor_bytes(&mut self) -> usize {
        monitor::monitor_bytes(self.op.as_mut())
    }

    /// Finishes every monitor and moves its mergeable state out, in plan
    /// order — one morsel's monitors as plain `Send` data for the
    /// coordinator's [`LoweredPlan::absorb`].
    pub(crate) fn take_partials(&mut self) -> Vec<MonitorPartial> {
        monitor::take_partials(self.op.as_mut())
    }

    /// Merges a morsel's partials into these monitors, which must come
    /// from a lowering of the same plan under the same config (so
    /// shapes, seeds and shed flags agree). Call in morsel order.
    pub(crate) fn absorb(&mut self, partials: Vec<MonitorPartial>) -> Result<()> {
        monitor::absorb(self.op.as_mut(), partials)
    }
}

/// A lowered single-table access path: a plan root, or — a scan or a
/// fetch, which deliver base-table rows — a join's outer side.
enum Access {
    /// A scan or an index fetch.
    Rows(JoinOuter),
    /// A covering index-only scan, which only counts index entries.
    IndexOnly(IndexOnlyScan),
}

/// Lowers optimizer output to operator trees.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    stats: &'a DbStats,
    hints: &'a HintSet,
    cost: CostModel,
    zone_estimates: bool,
}

impl<'a> Planner<'a> {
    /// Builds a planner.
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a DbStats,
        hints: &'a HintSet,
        cost: CostModel,
    ) -> Self {
        Planner {
            catalog,
            stats,
            hints,
            cost,
            zone_estimates: false,
        }
    }

    /// Whether the optimizer estimates DPCs from page zones (see
    /// [`Optimizer::with_zone_estimates`]).
    pub fn with_zone_estimates(mut self, on: bool) -> Self {
        self.zone_estimates = on;
        self
    }

    fn optimizer(&self) -> Optimizer<'a> {
        Optimizer::new(self.catalog, self.stats, self.cost, self.hints)
            .with_zone_estimates(self.zone_estimates)
    }

    /// Resolves names and runs the optimizer, without lowering — the
    /// expensive, monitor-free decision the plan cache memoizes and
    /// every run lowers with [`Planner::lower_optimized`].
    pub fn optimize_query(&self, query: &Query) -> Result<OptimizedQuery> {
        match query {
            Query::Count {
                table,
                predicate,
                count_arg,
            } => {
                let meta = self.catalog.table_by_name(table)?;
                let pred = Query::resolve_predicates(predicate, meta.schema())?;
                // The COUNT argument decides whether a covering
                // index-only scan may answer the query.
                let needed: Option<Vec<usize>> = match count_arg {
                    CountArg::BaseRow => None,
                    CountArg::Star => Some(Vec::new()),
                    CountArg::Column(name) => Some(vec![meta.schema().index_of(name)?]),
                };
                let plan =
                    self.optimizer()
                        .optimize_with_projection(meta.id, &pred, needed.as_deref())?;
                Ok(OptimizedQuery::Single { plan, pred })
            }
            Query::JoinCount {
                outer,
                inner,
                outer_pred,
                outer_col,
                inner_col,
            } => {
                let spec = self.resolve_join(outer, inner, outer_pred, outer_col, inner_col)?;
                let plan = self.optimizer().optimize_join(&spec)?;
                Ok(OptimizedQuery::Join { plan, spec })
            }
        }
    }

    /// Lowers an already-optimized query and applies the config's
    /// monitor resource limits across the whole plan's monitors at once
    /// — budgets are per query, not per operator. Monitors are built
    /// fresh from `cfg` on every call, so lowering the same
    /// [`OptimizedQuery`] under different seeds yields independent
    /// sampling streams.
    pub fn lower_optimized(
        &self,
        optimized: &OptimizedQuery,
        cfg: &MonitorConfig,
    ) -> Result<LoweredPlan> {
        self.lower_slice(optimized, cfg, &PlanSlice::Whole)
    }

    /// [`Planner::lower_optimized`] restricted to `slice` — one morsel's
    /// share of the plan. The whole plan is lowered and governed, so
    /// the monitors match the serial lowering's shape, seeds and shed
    /// decisions; only the driving scan's page range, the fetch's RID
    /// source, or the hash join's build and probe ranges change.
    pub(crate) fn lower_slice(
        &self,
        optimized: &OptimizedQuery,
        cfg: &MonitorConfig,
        slice: &PlanSlice,
    ) -> Result<LoweredPlan> {
        let mut lowered = match optimized {
            OptimizedQuery::Single { plan, pred } => self.single(plan, pred, cfg, slice)?,
            OptimizedQuery::Join { plan, spec } => self.join(plan, spec, cfg, slice)?,
        };
        if let Some(budget) = cfg.memory_budget {
            let op = lowered.op.as_mut();
            let shed = crate::governor::shed_over_budget(budget, &monitor::costs(op));
            monitor::shed(op, &shed);
        }
        Ok(lowered)
    }

    /// Resolves a join query's names into a [`JoinSpec`].
    pub fn resolve_join(
        &self,
        outer: &str,
        inner: &str,
        outer_pred: &[crate::query::PredSpec],
        outer_col: &str,
        inner_col: &str,
    ) -> Result<JoinSpec> {
        let outer_meta = self.catalog.table_by_name(outer)?;
        let inner_meta = self.catalog.table_by_name(inner)?;
        Ok(JoinSpec {
            outer: outer_meta.id,
            inner: inner_meta.id,
            outer_pred: Query::resolve_predicates(outer_pred, outer_meta.schema())?,
            outer_join_col: outer_meta.schema().index_of(outer_col)?,
            inner_join_col: inner_meta.schema().index_of(inner_col)?,
        })
    }

    /// Lowers a given single-table plan (not necessarily the optimal one
    /// — used by ablations to force plans).
    pub fn lower_single(
        &self,
        plan: &SingleTablePlan,
        pred: &Conjunction,
        cfg: &MonitorConfig,
    ) -> Result<LoweredPlan> {
        self.single(plan, pred, cfg, &PlanSlice::Whole)
    }

    /// The RID source an index-driven plan fetches from — a seek, or the
    /// intersection of two — plus the predicate atoms it covers; an
    /// error for access paths that are not fetch plans. Shared by the
    /// lowering and by a parallel fetch's coordinator, which drains it
    /// once before its RID-run morsels fetch.
    pub(crate) fn rid_source(
        &self,
        plan: &SingleTablePlan,
        pred: &Conjunction,
    ) -> Result<CoveringSource> {
        let seek = |index, atoms: &[usize]| -> Result<IndexSeek> {
            let ix = self.catalog.index(index)?;
            let pairs: Vec<(CompareOp, Datum)> = atoms
                .iter()
                .map(|&i| (pred.atoms[i].op, pred.atoms[i].value.clone()))
                .collect();
            let range = SeekRange::from_atoms(&pairs)
                .ok_or_else(|| Error::NoPlanFound("seek atoms are not seekable".into()))?;
            Ok(IndexSeek::new(Arc::clone(&ix.tree), ix.height, range))
        };
        match &plan.path {
            AccessPath::IndexSeek { index, atoms } => {
                Ok((Box::new(seek(*index, atoms)?), atoms.clone()))
            }
            AccessPath::IndexIntersection { a, b } => {
                let inter =
                    IndexIntersection::new(Box::new(seek(a.0, &a.1)?), Box::new(seek(b.0, &b.1)?));
                let mut both: Vec<usize> = a.1.iter().chain(b.1.iter()).copied().collect();
                both.sort_unstable();
                Ok((Box::new(inter), both))
            }
            _ => Err(Error::Internal("fetch path without a RID source".into())),
        }
    }

    fn single(
        &self,
        plan: &SingleTablePlan,
        pred: &Conjunction,
        cfg: &MonitorConfig,
        slice: &PlanSlice,
    ) -> Result<LoweredPlan> {
        let op: Box<dyn Operator> = match self.access(plan, pred, cfg, slice)? {
            Access::Rows(JoinOuter::Scan(scan)) => scan,
            Access::Rows(JoinOuter::Fetch(fetch)) => fetch,
            Access::IndexOnly(scan) => Box::new(scan),
        };
        let name = &self.catalog.table(plan.table)?.name;
        Ok(LoweredPlan {
            op,
            choice: PlanChoice::Single(plan.clone()),
            description: describe_single(name, plan, self.catalog),
            explain: explain_single(name, plan, pred, self.catalog),
            deadline_ms: cfg.deadline_ms,
        })
    }

    /// Lowers a single-table access path, monitors attached.
    fn access(
        &self,
        plan: &SingleTablePlan,
        pred: &Conjunction,
        cfg: &MonitorConfig,
        slice: &PlanSlice,
    ) -> Result<Access> {
        let meta = self.catalog.table(plan.table)?;
        let pages = f64::from(meta.stats.pages);
        let est = CardinalityEstimator::new(
            self.stats,
            self.hints,
            plan.table,
            &meta.name,
            meta.stats.rows,
        );

        Ok(match &plan.path {
            AccessPath::FullScan | AccessPath::ClusteredRange { .. } => {
                let range_atoms = match &plan.path {
                    AccessPath::ClusteredRange { atoms } => atoms.as_slice(),
                    _ => &[],
                };
                let monitors = self.scan_monitors(meta, pred, cfg, &est, range_atoms);
                let storage = Arc::clone(&meta.storage);
                let scan = match (slice, &plan.path) {
                    (
                        PlanSlice::Pages {
                            range,
                            first_random,
                        },
                        _,
                    ) => SeqScan::with_page_range(
                        storage,
                        plan.table,
                        pred.clone(),
                        monitors,
                        *range,
                        *first_random,
                    ),
                    (_, AccessPath::ClusteredRange { atoms }) => {
                        let (lo, hi) = combined_bounds(pred, atoms);
                        SeqScan::clustered_range(
                            storage,
                            plan.table,
                            lo.as_ref(),
                            hi.as_ref(),
                            pred.clone(),
                            monitors,
                        )?
                    }
                    _ => SeqScan::full(storage, plan.table, pred.clone(), monitors),
                };
                Access::Rows(scan.into())
            }
            AccessPath::IndexSeek { .. } | AccessPath::IndexIntersection { .. } => {
                let (source, covered) = self.rid_source(plan, pred)?;
                let source = match slice {
                    PlanSlice::Rids(run) => Box::new(RidList::new(run.clone())),
                    _ => source,
                };
                let residual = Conjunction::new(
                    (0..pred.len())
                        .filter(|i| !covered.contains(i))
                        .map(|i| pred.atoms[i].clone())
                        .collect(),
                );
                let mut monitors = Vec::new();
                if cfg.enabled {
                    monitors.push(FetchMonitor::new(
                        meta.name.clone(),
                        pred.key_of(&covered),
                        FetchObserveWhen::AllFetched,
                        meta.stats.pages,
                        Some(cardenas(est.rows_of(pred, &covered), pages)),
                        cfg.seed,
                    ));
                    if !residual.is_empty() {
                        let all: Vec<usize> = (0..pred.len()).collect();
                        monitors.push(FetchMonitor::new(
                            meta.name.clone(),
                            pred.key(),
                            FetchObserveWhen::PassedResidual,
                            meta.stats.pages,
                            Some(cardenas(est.rows_of(pred, &all), pages)),
                            cfg.seed ^ 1,
                        ));
                    }
                }
                Access::Rows(
                    Fetch::new(
                        source,
                        Arc::clone(&meta.storage),
                        plan.table,
                        residual,
                        monitors,
                    )
                    .into(),
                )
            }
            AccessPath::IndexOnlyScan { index, atoms } => {
                let ix = self.catalog.index(*index)?;
                let pairs: Vec<(pf_exec::CompareOp, pf_common::Datum)> = atoms
                    .iter()
                    .map(|&i| (pred.atoms[i].op, pred.atoms[i].value.clone()))
                    .collect();
                let range = SeekRange::from_atoms(&pairs).ok_or_else(|| {
                    Error::NoPlanFound("index-only atoms are not seekable".into())
                })?;
                // Base-table PIDs never materialize here, so no DPC
                // monitor can attach (Section II-B).
                Access::IndexOnly(IndexOnlyScan::new(Arc::clone(&ix.tree), ix.height, range))
            }
        })
    }

    fn join(
        &self,
        plan: &JoinPlan,
        spec: &JoinSpec,
        cfg: &MonitorConfig,
        slice: &PlanSlice,
    ) -> Result<LoweredPlan> {
        let outer_meta = self.catalog.table(spec.outer)?;
        let inner_meta = self.catalog.table(spec.inner)?;
        let inner_pages = f64::from(inner_meta.stats.pages);

        // Lower the outer side (with its own access-method monitors); a
        // page slice restricts the outer scan.
        let outer_slice = match slice {
            PlanSlice::Pages { .. } => slice,
            _ => &PlanSlice::Whole,
        };
        let outer = match self.access(&plan.outer_plan, &spec.outer_pred, cfg, outer_slice)? {
            Access::Rows(outer) => outer,
            Access::IndexOnly(_) => {
                return Err(Error::NoPlanFound(
                    "a join's outer side needs base-table rows, not an index-only scan".into(),
                ))
            }
        };
        let outer_description = describe_single(&outer_meta.name, &plan.outer_plan, self.catalog);
        let outer_explain = explain_single(
            &outer_meta.name,
            &plan.outer_plan,
            &spec.outer_pred,
            self.catalog,
        );

        let jkey = join_dpc_key(
            &outer_meta.name,
            &outer_meta.schema().column(spec.outer_join_col).name,
            &inner_meta.name,
            &inner_meta.schema().column(spec.inner_join_col).name,
            spec.outer_pred.key(),
        );
        let inner_index = self
            .catalog
            .index_on_column(spec.inner, spec.inner_join_col);
        let est_matched = plan.est_rows;
        let analytic_join_dpc = cardenas(est_matched, inner_pages);

        let filter_cfg = self.join_filter_config(plan, spec, cfg)?;
        let pushdown = filter_cfg.is_some() && self.join_pushdown(plan, spec)?;
        let partitions = pf_exec::join_partitions(plan.outer_plan.est_rows);

        let op: Box<dyn Operator> = match plan.method {
            pf_optimizer::JoinMethod::Hash => {
                // Semi-join monitoring only when an index on the inner
                // join column makes the INL DPC relevant (Section IV).
                let (probe_monitors, bv_config) = if let Some((bits, filter_seed)) = filter_cfg {
                    let set = ScanMonitorSet::new(
                        inner_meta.name.clone(),
                        vec![ScanExprMonitor::semi_join(
                            jkey.clone(),
                            spec.inner_join_col,
                            bits / 8,
                            Some(analytic_join_dpc),
                        )],
                        cfg.sampling_fraction,
                        cfg.seed ^ 0xB17,
                    );
                    (
                        Some(set),
                        Some(BitVectorConfig {
                            numbits: bits,
                            seed: filter_seed,
                            pushdown,
                        }),
                    )
                } else {
                    (None, None)
                };
                let probe = match slice {
                    PlanSlice::Probe { range, .. } => SeqScan::with_page_range(
                        Arc::clone(&inner_meta.storage),
                        spec.inner,
                        Conjunction::always_true(),
                        probe_monitors,
                        *range,
                        false,
                    ),
                    _ => SeqScan::full(
                        Arc::clone(&inner_meta.storage),
                        spec.inner,
                        Conjunction::always_true(),
                        probe_monitors,
                    ),
                };
                let join = HashJoin::new(
                    outer,
                    probe,
                    spec.outer_join_col,
                    spec.inner_join_col,
                    bv_config,
                )
                .with_partitions(partitions);
                Box::new(match slice {
                    PlanSlice::Probe { built, .. } => join.with_build_side(Arc::clone(built)),
                    _ => join,
                })
            }
            pf_optimizer::JoinMethod::IndexNestedLoops => {
                let ix = inner_index.ok_or_else(|| {
                    Error::NoPlanFound("INL join chosen without an inner index".into())
                })?;
                let monitors = if cfg.enabled {
                    vec![FetchMonitor::new(
                        inner_meta.name.clone(),
                        jkey.clone(),
                        FetchObserveWhen::AllFetched,
                        inner_meta.stats.pages,
                        Some(analytic_join_dpc),
                        cfg.seed ^ 0x1111,
                    )]
                } else {
                    Vec::new()
                };
                Box::new(InlJoin::new(
                    outer,
                    spec.outer_join_col,
                    Arc::clone(&ix.tree),
                    ix.height,
                    Arc::clone(&inner_meta.storage),
                    spec.inner,
                    monitors,
                ))
            }
        };

        let description = format!(
            "{}({} ⋈ {}) [outer: {}]",
            plan.method.name(),
            outer_meta.name,
            inner_meta.name,
            outer_description
        );
        let explain = {
            let mut s = format!(
                "{}  est_cost={:.1}ms est_rows={:.0}{}\n",
                plan.method.name(),
                plan.cost_ms,
                plan.est_rows,
                dpc_note(plan.est_dpc, plan.dpc_source)
            );
            if plan.method == pf_optimizer::JoinMethod::Hash {
                // The chosen join strategy: radix partition count and
                // whether the build filter pushes into the probe scan.
                s.push_str(&format!(
                    "│  strategy: parts={} pushdown={}\n",
                    partitions,
                    if pushdown { "yes" } else { "no" },
                ));
            }
            // The outer subtree hangs off `├─`; its own children continue
            // under `│`.
            for (i, line) in outer_explain.lines().enumerate() {
                s.push_str(if i == 0 { "├─ " } else { "│  " });
                s.push_str(line);
                s.push('\n');
            }
            // The inner side: a hash join's probe scan, or the index seek
            // and fetch an INL join repeats per outer row.
            let inner = &inner_meta.name;
            match (plan.method, inner_index) {
                (pf_optimizer::JoinMethod::IndexNestedLoops, Some(ix)) => s.push_str(&format!(
                    "└─ IndexSeek({inner}.{}) → Fetch({inner})  [inner, per outer row]",
                    ix.name
                )),
                _ => s.push_str(&format!("└─ SeqScan({inner})  [probe]")),
            }
            s
        };
        Ok(LoweredPlan {
            op,
            choice: PlanChoice::Join(plan.clone()),
            description,
            explain,
            deadline_ms: cfg.deadline_ms,
        })
    }

    /// The page range a scan lowering of `plan` would cover, plus
    /// whether its first access pays a random (positioning) I/O.
    /// `None` for non-scan access paths.
    pub(crate) fn scan_page_range(
        &self,
        plan: &SingleTablePlan,
        pred: &Conjunction,
    ) -> Result<Option<((u32, u32), bool)>> {
        let meta = self.catalog.table(plan.table)?;
        match &plan.path {
            AccessPath::FullScan => Ok(Some(((0, meta.storage.page_count()), false))),
            AccessPath::ClusteredRange { atoms } => {
                let (lo, hi) = combined_bounds(pred, atoms);
                let range = meta.storage.locate_range(lo.as_ref(), hi.as_ref())?;
                Ok(Some((range, true)))
            }
            _ => Ok(None),
        }
    }

    /// The bit-vector filter parameters `(numbits, seed)` a hash-join
    /// lowering of `plan` would build, or `None` when the join carries
    /// no semi-join monitoring (monitoring off, or no index on the
    /// inner join column makes the INL DPC relevant — Section IV).
    ///
    /// Sizing: page-level counting amplifies the filter's
    /// false-positive rate by rows-per-page (every row of a page probes
    /// it), so target fill ≈ 1/(32·rpp): per-page FP ≈ 3 %, which the
    /// collision correction in the monitor then removes with little
    /// variance.
    fn join_filter_config(
        &self,
        plan: &JoinPlan,
        spec: &JoinSpec,
        cfg: &MonitorConfig,
    ) -> Result<Option<(usize, u64)>> {
        if !cfg.enabled
            || self
                .catalog
                .index_on_column(spec.inner, spec.inner_join_col)
                .is_none()
        {
            return Ok(None);
        }
        let inner_meta = self.catalog.table(spec.inner)?;
        let rpp = inner_meta.stats.rows_per_page.max(1.0);
        let est_build = plan.outer_plan.est_rows.max(1.0);
        let bits = cfg
            .bitvector_bits
            .unwrap_or_else(|| ((est_build * rpp * 32.0) as usize).clamp(4_096, 1 << 23));
        Ok(Some((bits, cfg.seed ^ 0xF117)))
    }

    /// Planner decision: push the completed build-side filter into the
    /// probe scan as a page-pass pre-filter. Hash joins only — an INL
    /// join has no probe scan. The selectivity threshold skips pushdown
    /// when most probe rows match anyway; the decision is a pure function of
    /// the plan (never of runtime knobs), so explain output is stable.
    fn join_pushdown(&self, plan: &JoinPlan, spec: &JoinSpec) -> Result<bool> {
        if plan.method != pf_optimizer::JoinMethod::Hash {
            return Ok(false);
        }
        let inner_rows = self.catalog.table(spec.inner)?.stats.rows as f64;
        Ok(plan.est_rows < 0.5 * inner_rows)
    }

    /// Builds the scan-plan monitor set over `meta`'s table — one
    /// expression per indexed seekable atom group, optional indexed
    /// group pairs, and the full conjunction, the same expression keys
    /// the optimizer costs with — or `None` when monitoring is off or
    /// nothing is watched.
    ///
    /// A clustered range scan reads only the pages bracketing its
    /// `range_atoms`, so it watches only subsets containing all of them:
    /// any other subset may qualify pages outside the range, and counting
    /// the range alone would under-report that subset's DPC.
    fn scan_monitors(
        &self,
        meta: &TableMeta,
        pred: &Conjunction,
        cfg: &MonitorConfig,
        est: &CardinalityEstimator<'_>,
        range_atoms: &[usize],
    ) -> Option<ScanMonitorSet> {
        if !cfg.enabled {
            return None;
        }
        let pages = f64::from(meta.stats.pages);
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, a) in pred.atoms.iter().enumerate() {
            if matches!(a.op, CompareOp::Ne)
                || self.catalog.index_on_column(meta.id, a.column).is_none()
            {
                continue;
            }
            match groups.iter_mut().find(|(c, _)| *c == a.column) {
                Some((_, idx)) => idx.push(i),
                None => groups.push((a.column, vec![i])),
            }
        }
        if groups.is_empty() {
            return None;
        }
        let mut exprs = Vec::new();
        let mut seen: Vec<Vec<usize>> = Vec::new();
        let mut add = |idx: Vec<usize>, exprs: &mut Vec<ScanExprMonitor>| {
            if seen.contains(&idx) || !range_atoms.iter().all(|a| idx.contains(a)) {
                return;
            }
            exprs.push(ScanExprMonitor::atoms(
                pred,
                idx.clone(),
                Some(cardenas(est.rows_of(pred, &idx), pages)),
            ));
            seen.push(idx);
        };
        for (_, idx) in &groups {
            add(idx.clone(), &mut exprs);
        }
        if cfg.monitor_pairs {
            for (x, (_, ia)) in groups.iter().enumerate() {
                for (_, ib) in groups.iter().skip(x + 1) {
                    let mut both: Vec<usize> = ia.iter().chain(ib.iter()).copied().collect();
                    both.sort_unstable();
                    add(both, &mut exprs);
                }
            }
        }
        if pred.len() > 1 {
            add((0..pred.len()).collect(), &mut exprs);
        }
        if exprs.is_empty() {
            return None;
        }
        Some(ScanMonitorSet::new(
            meta.name.clone(),
            exprs,
            cfg.sampling_fraction,
            cfg.seed,
        ))
    }
}

/// Inclusive clustering-key bounds implied by a group of atoms on the
/// clustering column (exclusive bounds are relaxed to inclusive — page
/// bracketing is conservative, the predicate still filters rows).
fn combined_bounds(pred: &Conjunction, atoms: &[usize]) -> (Option<Datum>, Option<Datum>) {
    let mut lo: Option<Datum> = None;
    let mut hi: Option<Datum> = None;
    let tighten = |cur: &mut Option<Datum>, v: &Datum, want_greater: bool| {
        let replace = match cur {
            None => true,
            Some(c) => {
                let ord = v.cmp_same_type(c).expect("bounds same-typed");
                if want_greater {
                    ord == std::cmp::Ordering::Greater
                } else {
                    ord == std::cmp::Ordering::Less
                }
            }
        };
        if replace {
            *cur = Some(v.clone());
        }
    };
    for &i in atoms {
        let a = &pred.atoms[i];
        match a.op {
            CompareOp::Eq => {
                tighten(&mut lo, &a.value, true);
                tighten(&mut hi, &a.value, false);
            }
            CompareOp::Lt | CompareOp::Le => tighten(&mut hi, &a.value, false),
            CompareOp::Gt | CompareOp::Ge => tighten(&mut lo, &a.value, true),
            CompareOp::Ne => {}
        }
    }
    (lo, hi)
}

/// ` est_dpc=… [source]` for an EXPLAIN header, or nothing for a plan
/// whose cost involves no DPC.
fn dpc_note(est_dpc: Option<f64>, source: DpcSource) -> String {
    let Some(d) = est_dpc else {
        return String::new();
    };
    let label = match source {
        DpcSource::Injected => "injected",
        DpcSource::Zones => "zones",
        DpcSource::Analytical | DpcSource::NotApplicable => "analytical",
    };
    format!(" est_dpc={d:.0} [{label}]")
}

/// Multi-line EXPLAIN tree for a single-table plan.
fn explain_single(
    table: &str,
    plan: &SingleTablePlan,
    pred: &Conjunction,
    catalog: &Catalog,
) -> String {
    let header = format!(
        "{}  est_cost={:.1}ms est_rows={:.0}{}",
        describe_single(table, plan, catalog),
        plan.cost_ms,
        plan.est_rows,
        dpc_note(plan.est_dpc, plan.dpc_source)
    );
    let detail = match &plan.path {
        AccessPath::FullScan => format!("predicate: {}", pred.key()),
        AccessPath::ClusteredRange { atoms }
        | AccessPath::IndexSeek { atoms, .. }
        | AccessPath::IndexOnlyScan { atoms, .. } => {
            let residual: Vec<usize> = (0..pred.len()).filter(|i| !atoms.contains(i)).collect();
            let mut d = format!("seek: {}", pred.key_of(atoms));
            if !residual.is_empty() {
                d.push_str(&format!("; residual: {}", pred.key_of(&residual)));
            }
            d
        }
        AccessPath::IndexIntersection { a, b } => {
            format!("intersect: {} ∩ {}", pred.key_of(&a.1), pred.key_of(&b.1))
        }
    };
    format!("{header}\n└─ {detail}")
}

fn describe_single(table: &str, plan: &SingleTablePlan, catalog: &Catalog) -> String {
    match &plan.path {
        AccessPath::FullScan => format!("TableScan({table})"),
        AccessPath::ClusteredRange { .. } => format!("ClusteredRangeScan({table})"),
        AccessPath::IndexOnlyScan { index, .. } => {
            let name = catalog
                .index(*index)
                .map(|i| i.name.clone())
                .unwrap_or_default();
            format!("IndexOnlyScan({table}.{name})")
        }
        AccessPath::IndexSeek { index, .. } => {
            let name = catalog
                .index(*index)
                .map(|i| i.name.clone())
                .unwrap_or_else(|_| format!("{index:?}"));
            format!("IndexSeek({table}.{name})")
        }
        AccessPath::IndexIntersection { a, b } => {
            let an = catalog
                .index(a.0)
                .map(|i| i.name.clone())
                .unwrap_or_default();
            let bn = catalog
                .index(b.0)
                .map(|i| i.name.clone())
                .unwrap_or_default();
            format!("IndexIntersection({table}.{an} ∩ {table}.{bn})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::query::PredSpec;
    use pf_common::{Column, DataType, Datum, Row, Schema};

    /// 6 000 rows clustered on id with two indexed columns.
    fn demo_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let n = 6_000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7) % n),
                    Datum::Int((i * 13) % n),
                    Datum::Str("x".repeat(40)),
                ])
            })
            .collect();
        db.create_table("t", schema, rows, Some("id")).unwrap();
        db.create_index("ix_a", "t", "a").unwrap();
        db.create_index("ix_b", "t", "b").unwrap();
        db.analyze().unwrap();
        db
    }

    fn pred(db: &Database, specs: &[PredSpec]) -> Conjunction {
        let schema = db.catalog().table_by_name("t").unwrap().schema().clone();
        Query::resolve_predicates(specs, &schema).unwrap()
    }

    /// Forcing each access path through `lower_single` must produce the
    /// same answer and a matching description.
    #[test]
    fn every_forced_access_path_agrees() {
        let db = demo_db();
        let meta = db.catalog().table_by_name("t").unwrap();
        let ix_a = db.catalog().index_by_name("ix_a").unwrap().id;
        let ix_b = db.catalog().index_by_name("ix_b").unwrap().id;
        let specs = [
            PredSpec::new("a", pf_exec::CompareOp::Lt, Datum::Int(700)),
            PredSpec::new("b", pf_exec::CompareOp::Lt, Datum::Int(3_000)),
        ];
        let p = pred(&db, &specs);
        let truth = db.true_cardinality("t", &p).unwrap();

        let paths = vec![
            (AccessPath::FullScan, "TableScan(t)"),
            (
                AccessPath::IndexSeek {
                    index: ix_a,
                    atoms: vec![0],
                },
                "IndexSeek(t.ix_a)",
            ),
            (
                AccessPath::IndexSeek {
                    index: ix_b,
                    atoms: vec![1],
                },
                "IndexSeek(t.ix_b)",
            ),
            (
                AccessPath::IndexIntersection {
                    a: (ix_a, vec![0]),
                    b: (ix_b, vec![1]),
                },
                "IndexIntersection(t.ix_a ∩ t.ix_b)",
            ),
        ];
        for (path, expect_desc) in paths {
            let plan = SingleTablePlan {
                table: meta.id,
                path,
                cost_ms: 0.0,
                est_rows: truth as f64,
                est_dpc: None,
                dpc_source: DpcSource::NotApplicable,
            };
            let planner = db.planner().unwrap();
            let lowered = planner
                .lower_single(&plan, &p, &MonitorConfig::default())
                .unwrap();
            assert_eq!(lowered.description, expect_desc);
            let mut ctx = pf_exec::ExecContext::with_model(db.pool_pages, db.disk);
            let mut op = lowered.op;
            assert_eq!(op.count(&mut ctx).unwrap(), truth, "path {expect_desc}");
        }
    }

    /// ClusteredRange lowering honours combined bounds.
    #[test]
    fn clustered_range_lowering_two_sided() {
        let db = demo_db();
        let meta = db.catalog().table_by_name("t").unwrap();
        let specs = [
            PredSpec::new("id", pf_exec::CompareOp::Ge, Datum::Int(1_000)),
            PredSpec::new("id", pf_exec::CompareOp::Lt, Datum::Int(1_250)),
        ];
        let p = pred(&db, &specs);
        let plan = SingleTablePlan {
            table: meta.id,
            path: AccessPath::ClusteredRange { atoms: vec![0, 1] },
            cost_ms: 0.0,
            est_rows: 250.0,
            est_dpc: None,
            dpc_source: DpcSource::NotApplicable,
        };
        let planner = db.planner().unwrap();
        let lowered = planner
            .lower_single(&plan, &p, &MonitorConfig::off())
            .unwrap();
        let mut ctx = pf_exec::ExecContext::with_model(db.pool_pages, db.disk);
        let mut op = lowered.op;
        assert_eq!(op.count(&mut ctx).unwrap(), 250);
        // Only a fraction of the table's pages were read.
        let stats = ctx.stats();
        assert!(stats.physical_reads() < u64::from(meta.stats.pages) / 2);
    }

    /// A clustered range scan sees only its range's pages, so it must
    /// not report a DPC for an atom subset that can qualify pages
    /// outside the range: only subsets holding every range atom are
    /// watched, and each measures exactly its brute-force DPC.
    #[test]
    fn clustered_range_monitors_only_subsets_with_range_atoms() {
        let db = demo_db();
        let meta = db.catalog().table_by_name("t").unwrap();
        let specs = [
            PredSpec::new("id", pf_exec::CompareOp::Ge, Datum::Int(1_000)),
            PredSpec::new("id", pf_exec::CompareOp::Lt, Datum::Int(1_250)),
            PredSpec::new("a", pf_exec::CompareOp::Lt, Datum::Int(700)),
        ];
        let p = pred(&db, &specs);
        let plan = SingleTablePlan {
            table: meta.id,
            path: AccessPath::ClusteredRange { atoms: vec![0, 1] },
            cost_ms: 0.0,
            est_rows: 30.0,
            est_dpc: None,
            dpc_source: DpcSource::NotApplicable,
        };
        let planner = db.planner().unwrap();
        let mut lowered = planner
            .lower_single(&plan, &p, &MonitorConfig::default())
            .unwrap();
        let mut ctx = pf_exec::ExecContext::with_model(db.pool_pages, db.disk);
        lowered.op.count(&mut ctx).unwrap();
        let report = lowered.harvest();
        let exprs: Vec<&str> = report
            .measurements
            .iter()
            .map(|m| m.expression.as_str())
            .collect();
        assert_eq!(exprs, [p.key()], "range-only subsets must not be watched");
        let truth = db.true_dpc("t", &p).unwrap();
        assert_eq!(report.measurements[0].actual, truth as f64);
    }

    /// Monitoring off attaches nothing; monitoring on attaches the
    /// expression set (atoms + pair + full conjunction).
    #[test]
    fn monitor_wiring_matches_config() {
        let db = demo_db();
        let specs = [
            PredSpec::new("a", pf_exec::CompareOp::Lt, Datum::Int(700)),
            PredSpec::new("b", pf_exec::CompareOp::Lt, Datum::Int(3_000)),
        ];
        let q = Query::count("t", specs.to_vec());
        let mut off = db.lower(&q, &MonitorConfig::off()).unwrap();
        assert_eq!(off.monitor_bytes(), 0);
        let mut on = db.lower(&q, &MonitorConfig::default()).unwrap();
        assert!(on.monitor_bytes() > 0);
        let out = db.execute(on).unwrap();
        // a, b, and (a AND b) — the pair and the full conjunction are
        // the same expression here and must be deduplicated.
        assert_eq!(out.report.measurements.len(), 3);
        let labels: std::collections::HashSet<&str> = out
            .report
            .measurements
            .iter()
            .map(|m| m.expression.as_str())
            .collect();
        assert_eq!(labels.len(), 3, "duplicate monitored expressions");
        assert!(labels.contains("a<700 AND b<3000"), "{labels:?}");
    }

    /// PlanChoice helpers surface name and cost.
    #[test]
    fn plan_choice_accessors() {
        let db = demo_db();
        let q = Query::count(
            "t",
            vec![PredSpec::new("a", pf_exec::CompareOp::Lt, Datum::Int(700))],
        );
        let lowered = db.lower(&q, &MonitorConfig::off()).unwrap();
        assert!(!lowered.choice.name().is_empty());
        assert!(lowered.choice.cost_ms() > 0.0);
    }
}
