//! The [`Database`] facade.

use crate::breaker::CircuitBreaker;
use crate::feedback_store::FeedbackStore;
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::planner::{
    HarnessPartial, LoweredPlan, MonitorConfig, OptimizedQuery, PlanChoice, PlanSlice, Planner,
};
use crate::query::Query;
use pf_common::{Error, IndexId, PageId, Result, Row, Schema, TableId};
use pf_exec::join::BuildSide;
use pf_exec::{run_count, CancelToken, Conjunction, ExecContext};
use pf_feedback::FeedbackReport;
use pf_optimizer::{
    AccessPath, CostModel, DbStats, EpochStamp, HintSet, JoinMethod, Optimizer, StalenessPolicy,
    TableEpochState,
};
use pf_storage::{Catalog, DiskModel, FaultPlan, IoStats, PageMiss, TableBuilder};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// How many times a transient fault (an injected read stall) is retried
/// before the error surfaces. Stall budgets are at most 2 attempts per
/// site, so this always clears an injected stall.
pub const MAX_TRANSIENT_RETRIES: u32 = 3;

/// Everything one run of a query produced.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The aggregate result (`COUNT`).
    pub count: u64,
    /// Raw executor counters.
    pub stats: IoStats,
    /// Simulated elapsed time (cold cache).
    pub elapsed_ms: f64,
    /// Harvested DPC measurements (empty when monitoring was off).
    pub report: FeedbackReport,
    /// Human-readable plan description.
    pub description: String,
    /// The optimizer decision that ran.
    pub choice: PlanChoice,
    /// How many transient-fault retries this outcome absorbed (0 in a
    /// fault-free run).
    pub fault_retries: u32,
    /// Bytes the run's still-observing monitors held at harvest time
    /// (see [`MonitorHarness::approx_monitor_bytes`]) — what a memory
    /// reservation is reconciled against at completion. 0 when
    /// monitoring was off.
    pub monitor_bytes: usize,
}

impl QueryOutcome {
    /// Whether execution skipped corrupt pages: the count and every DPC
    /// measurement are then lower bounds over the readable fraction.
    pub fn degraded(&self) -> bool {
        self.stats.pages_skipped > 0 || self.report.is_degraded()
    }
}

/// What every morsel of a query lowers: the cached optimizer decision,
/// plus the page span of the plan's driving scan (the single-table scan,
/// or a join's outer scan; empty for fetch plans, whose RID source
/// drives them). Shared by reference with every worker.
#[derive(Debug, Clone)]
pub struct Morsels {
    /// The optimizer decision each morsel lowers.
    pub(crate) optimized: Arc<OptimizedQuery>,
    /// `[first, last)` pages of the driving scan.
    pub(crate) pages: (u32, u32),
    /// Whether the driving scan's first page access pays a random
    /// (positioning) I/O — true for clustered range scans; the first
    /// morsel inherits it.
    pub(crate) first_random: bool,
}

/// Every query shape the parallel driver can execute as morsels, each a
/// sequence of phases over one per-morsel runner
/// (`Database::run_morsel`). Shapes not represented here (index-only
/// scans, scans and hash-join probes under two pages, DPC-cache
/// overlays, query deadlines) fall back to a serial run.
#[derive(Debug, Clone)]
pub enum MorselPlan {
    /// Page morsels over a sequential scan.
    Scan(Morsels),
    /// The coordinator drains the index RID source, then RID-run
    /// morsels fetch.
    Fetch(Morsels),
    /// Page morsels over the outer side each build a hash table; the
    /// merged build side is then probed by page morsels over the inner.
    HashJoin(Morsels),
    /// Page morsels over the outer side, each running the whole
    /// index-nested-loops join.
    InlJoin(Morsels),
}

/// What one morsel returns to the coordinator: all plain `Send` data,
/// merged in phase-then-morsel order.
pub(crate) struct MorselOutput {
    /// Rows the morsel counted (0 for a hash join's build morsels).
    pub(crate) count: u64,
    /// The morsel's I/O counters against its own cold pool.
    pub(crate) stats: IoStats,
    /// The pages the morsel missed, in access order (see
    /// [`pf_storage::merge_morsel_stats`]).
    pub(crate) misses: Vec<PageMiss>,
    /// The morsel's finished monitors.
    pub(crate) monitors: HarnessPartial,
    /// A hash join build morsel's completed build side.
    pub(crate) built: Option<BuildSide>,
    /// The attempt that succeeded (0 unless a transient fault retried).
    pub(crate) attempt: u32,
}

/// An embedded analytical database with page-count execution feedback.
///
/// Owns the catalog, per-column statistics, the persistent hint set (the
/// "feedback cache" of Section II-C), and the execution configuration.
pub struct Database {
    catalog: Catalog,
    /// Per-column statistics; each table's set is stamped with the epoch
    /// it was analyzed at.
    stats: DbStats,
    /// Whether `stats` describes the tables as they are: cleared by table
    /// creation and DML, set again by [`Database::analyze`].
    stats_current: bool,
    hints: HintSet,
    /// Self-tuning DPC-histogram cache (None = disabled).
    pub(crate) dpc_cache: Option<crate::histogram_cache::DpcHistogramCache>,
    /// Durable feedback persistence (None = in-memory hints only).
    feedback_store: Option<FeedbackStore>,
    /// Circuit breaker guarding the durable feedback path (None = store
    /// errors propagate to the caller, the pre-breaker behaviour).
    breaker: Option<CircuitBreaker>,
    /// Memoized optimizer decisions, invalidated on anything that can
    /// change a plan.
    plan_cache: PlanCache,
    /// How stamped hints are aged as DML drifts their tables.
    pub staleness: StalenessPolicy,
    /// Disk-model constants used for costing *and* execution accounting.
    pub disk: DiskModel,
    /// Buffer-pool capacity in pages for each execution.
    pub pool_pages: usize,
}

impl Database {
    /// A database with the default disk model and a 64 Ki-page pool
    /// (512 MB at 8 KB/page — large enough that within-query re-fetches
    /// never occur at our scales, matching the paper's setup).
    pub fn new() -> Self {
        Database {
            catalog: Catalog::new(),
            stats: DbStats::default(),
            stats_current: false,
            hints: HintSet::new(),
            dpc_cache: None,
            feedback_store: None,
            breaker: None,
            plan_cache: PlanCache::new(true),
            staleness: StalenessPolicy::default(),
            disk: DiskModel::default(),
            pool_pages: 65_536,
        }
    }

    /// A database with custom disk-model constants.
    pub fn with_disk(disk: DiskModel) -> Self {
        Database {
            disk,
            ..Self::new()
        }
    }

    /// Creates (bulk-loads) a table; `clustered_on` names the clustering
    /// column (rows are sorted by it), `None` loads a heap in row order.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        clustered_on: Option<&str>,
    ) -> Result<TableId> {
        let mut b = TableBuilder::new(name, schema).rows(rows);
        if let Some(c) = clustered_on {
            b = b.clustered_on(c);
        }
        let id = b.register(&mut self.catalog)?;
        self.stats_current = false; // the new table has no statistics yet
        self.plan_cache.invalidate();
        Ok(id)
    }

    /// Creates a table from a pre-configured builder (custom page size /
    /// fill factor).
    pub fn create_table_with(&mut self, builder: TableBuilder) -> Result<TableId> {
        let id = builder.register(&mut self.catalog)?;
        self.stats_current = false;
        self.plan_cache.invalidate();
        Ok(id)
    }

    /// Builds a nonclustered index on `column` of `table`.
    pub fn create_index(&mut self, name: &str, table: &str, column: &str) -> Result<IndexId> {
        let id = self.catalog.table_by_name(table)?.id;
        self.plan_cache.invalidate();
        self.catalog.create_index(name, id, column)
    }

    /// Brings per-column statistics up to date: tables that are new, or
    /// whose modification epoch moved since they were last analyzed, get
    /// statistics built from the column values the catalog keeps current
    /// (no page is read and nothing is sorted); the others keep theirs.
    pub fn analyze(&mut self) -> Result<()> {
        self.stats.refresh(&self.catalog);
        self.stats_current = true;
        self.plan_cache.invalidate();
        Ok(())
    }

    /// Sets the fault-injection plan: existing tables have their
    /// deterministic share of page damage (re)materialized and tables
    /// created later inherit the plan at load. Damage is a pure function
    /// of `(seed, table, page)` over the pristine bytes, so setting the
    /// plan after loading is byte-identical to setting it before.
    /// `None` heals all injected damage. Fails if a query currently
    /// holds table storage.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<()> {
        self.catalog.install_fault_plan(plan)
    }

    /// The active fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.catalog.fault_plan()
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Per-column statistics ([`Database::analyze`] must have run).
    pub fn stats(&self) -> Result<&DbStats> {
        if self.stats_current {
            Ok(&self.stats)
        } else {
            Err(Error::InvalidArgument(
                "call analyze() before optimizing".into(),
            ))
        }
    }

    /// The persistent hint set (injected cardinalities / page counts).
    ///
    /// Handing out mutable access conservatively invalidates the plan
    /// cache: any hint edit can flip an optimizer decision.
    pub fn hints_mut(&mut self) -> &mut HintSet {
        self.plan_cache.invalidate();
        &mut self.hints
    }

    /// Read view of the hints.
    pub fn hints(&self) -> &HintSet {
        &self.hints
    }

    // ------------------------------------------------------------------
    // Durable feedback and DML epochs.
    // ------------------------------------------------------------------

    /// Attaches (opening or creating) a durable [`FeedbackStore`] at
    /// `dir`. Every recovered report is replayed into the hint set with
    /// its harvest-time epoch stamps, then aged against the tables'
    /// *current* modification state — measurements taken before heavy
    /// DML come back discounted or not at all. Returns the number of
    /// recovered reports.
    pub fn attach_feedback_store(&mut self, dir: impl AsRef<Path>) -> Result<usize> {
        let store = FeedbackStore::open(dir)?;
        let recovered = store.len();
        store.replay_into(&mut self.hints);
        let states = self.table_epoch_states();
        self.hints.apply_staleness(self.staleness, &states);
        self.feedback_store = Some(store);
        self.plan_cache.invalidate();
        Ok(recovered)
    }

    /// The attached feedback store, if any.
    pub fn feedback_store(&self) -> Option<&FeedbackStore> {
        self.feedback_store.as_ref()
    }

    /// Mutable access to the attached feedback store (compaction,
    /// eviction, stats).
    pub fn feedback_store_mut(&mut self) -> Option<&mut FeedbackStore> {
        self.feedback_store.as_mut()
    }

    /// Detaches and returns the feedback store; hints stay as absorbed.
    pub fn detach_feedback_store(&mut self) -> Option<FeedbackStore> {
        self.feedback_store.take()
    }

    /// Absorbs a harvested report into the hint set, stamping every
    /// measurement with its table's current modification epoch. When a
    /// feedback store is attached the report is made durable *first*
    /// (WAL before use): a crash after this call returns cannot lose
    /// the measurement.
    pub fn absorb_feedback(&mut self, report: &FeedbackReport) -> Result<()> {
        let stamps = self.epoch_stamps();
        if let Some(store) = &mut self.feedback_store {
            store.append(report, &stamps)?;
        }
        self.hints.absorb_report_stamped(report, &stamps);
        self.plan_cache.invalidate();
        Ok(())
    }

    /// Attaches (or with `None`, detaches) a [`CircuitBreaker`] around
    /// the durable feedback path. With a breaker attached,
    /// [`Database::absorb_feedback_at`] contains typed storage failures
    /// instead of propagating them: queries keep running without
    /// durability while the breaker is open.
    pub fn set_breaker(&mut self, breaker: Option<CircuitBreaker>) {
        self.breaker = breaker;
    }

    /// The attached feedback circuit breaker, if any.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Mutable access to the attached breaker (CLI `.breaker trip` /
    /// `.breaker reset`).
    pub fn breaker_mut(&mut self) -> Option<&mut CircuitBreaker> {
        self.breaker.as_mut()
    }

    /// [`Database::absorb_feedback`] at a simulated-clock instant, with
    /// the durable append routed through the attached [`CircuitBreaker`].
    ///
    /// The in-memory absorption (hints, plan-cache invalidation) always
    /// happens — feedback is never lost to the running process. The
    /// durable append is attempted only when the breaker allows it at
    /// `now_ms`; any append failure (a typed [`Error::StorageFull`],
    /// or the torn-store refusal that follows one) is *recorded* on
    /// the breaker and contained rather than returned, so a dying WAL
    /// degrades durability instead of failing queries. Without a
    /// breaker this behaves exactly like [`Database::absorb_feedback`].
    ///
    /// Returns whether the report was made durable.
    pub fn absorb_feedback_at(&mut self, report: &FeedbackReport, now_ms: u64) -> Result<bool> {
        let stamps = self.epoch_stamps();
        let mut durable = false;
        if let Some(store) = &mut self.feedback_store {
            match &mut self.breaker {
                None => {
                    store.append(report, &stamps)?;
                    durable = true;
                }
                Some(breaker) => {
                    if breaker.allow(now_ms) {
                        match store.append(report, &stamps) {
                            Ok(_) => {
                                breaker.record(now_ms, true);
                                durable = true;
                            }
                            Err(_) => breaker.record(now_ms, false),
                        }
                    }
                }
            }
        }
        self.hints.absorb_report_stamped(report, &stamps);
        self.plan_cache.invalidate();
        Ok(durable)
    }

    /// Compacts the feedback store through the breaker: skipped while
    /// the breaker refuses at `now_ms`, and a typed storage failure is
    /// recorded on the breaker and contained. Returns whether a
    /// compaction ran to completion. No-op without a store.
    pub fn compact_feedback_at(&mut self, now_ms: u64) -> Result<bool> {
        let Some(store) = &mut self.feedback_store else {
            return Ok(false);
        };
        match &mut self.breaker {
            None => {
                store.compact()?;
                Ok(true)
            }
            Some(breaker) => {
                if !breaker.allow(now_ms) {
                    return Ok(false);
                }
                match store.compact() {
                    Ok(()) => {
                        breaker.record(now_ms, true);
                        Ok(true)
                    }
                    Err(_) => {
                        breaker.record(now_ms, false);
                        Ok(false)
                    }
                }
            }
        }
    }

    /// Current modification state of every table, keyed by name — the
    /// input to staleness decisions.
    pub fn table_epoch_states(&self) -> HashMap<String, TableEpochState> {
        self.catalog
            .tables()
            .iter()
            .map(|t| {
                let s = t.storage.epoch_state();
                (
                    t.name.clone(),
                    TableEpochState {
                        epoch: s.epoch,
                        dirty_pages: s.dirty_pages,
                        pages: s.pages,
                    },
                )
            })
            .collect()
    }

    /// Harvest-time epoch stamps for every table (the state a
    /// measurement taken *now* should carry).
    pub fn epoch_stamps(&self) -> HashMap<String, EpochStamp> {
        self.catalog
            .tables()
            .iter()
            .map(|t| {
                let s = t.storage.epoch_state();
                (
                    t.name.clone(),
                    EpochStamp {
                        epoch: s.epoch,
                        dirty_pages: s.dirty_pages,
                    },
                )
            })
            .collect()
    }

    /// Inserts a row into `table`, advancing its modification epoch.
    /// The table's indexes and column values follow the rows it moved in
    /// place; statistics go stale until the next [`Database::analyze`]
    /// (which rebuilds only the changed tables' statistics, from those
    /// values), and stamped DPC hints are aged against the new state:
    /// drifted measurements are discounted toward the analytical
    /// estimate, dead ones are evicted.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<()> {
        let id = self.catalog.table_by_name(table)?.id;
        self.catalog.insert_row(id, row)?;
        self.after_dml()
    }

    /// Deletes every row of `table` matching `pred`, advancing its
    /// modification epoch; returns the number of rows deleted. Same
    /// statistics/hint aging as [`Database::insert_row`].
    pub fn delete_where<F>(&mut self, table: &str, pred: F) -> Result<u64>
    where
        F: FnMut(&Row) -> bool,
    {
        let id = self.catalog.table_by_name(table)?.id;
        let n = self.catalog.delete_where(id, pred)?;
        self.after_dml()?;
        Ok(n)
    }

    fn after_dml(&mut self) -> Result<()> {
        self.stats_current = false; // the changed table's statistics are stale
        let states = self.table_epoch_states();
        self.hints.apply_staleness(self.staleness, &states);
        self.plan_cache.invalidate();
        Ok(())
    }

    /// An optimizer over the current catalog, statistics, and hints.
    pub fn optimizer(&self) -> Result<Optimizer<'_>> {
        Ok(Optimizer::new(
            &self.catalog,
            self.stats()?,
            CostModel::with_disk(self.disk),
            &self.hints,
        ))
    }

    /// A planner over the current state.
    pub fn planner(&self) -> Result<Planner<'_>> {
        Ok(Planner::new(
            &self.catalog,
            self.stats()?,
            &self.hints,
            CostModel::with_disk(self.disk),
        ))
    }

    /// Optimizes and lowers a query without running it. Consults the
    /// DPC-histogram cache (if enabled) for expressions lacking exact
    /// feedback, and otherwise serves repeated query shapes from the
    /// plan cache (optimizer decision memoized; monitors still built
    /// fresh per call from `cfg.seed`). The plan carries
    /// `cfg.deadline_ms` into [`Database::execute`]; a deadline run may
    /// abort, so it reads the plan cache but never fills it.
    pub fn lower(&self, query: &Query, cfg: &MonitorConfig) -> Result<LoweredPlan> {
        self.lower_cached(query, cfg, cfg.deadline_ms.is_none())
    }

    /// [`Database::lower`], filling the plan cache on a miss only when
    /// `fill_cache` is set.
    fn lower_cached(
        &self,
        query: &Query,
        cfg: &MonitorConfig,
        fill_cache: bool,
    ) -> Result<LoweredPlan> {
        if self.dpc_cache.is_some() {
            // Histogram-cache overlays are per-query hint sets; their
            // decisions are not cacheable under a single key.
            let hints = self.effective_hints(query)?;
            return self.lower_with(query, cfg, &hints);
        }
        let planner = self.planner()?;
        let optimized = self.optimized(query, cfg, &planner, fill_cache)?;
        planner.lower_optimized(&optimized, cfg)
    }

    /// The optimizer decision for `query`, served from the plan cache
    /// when possible; a miss is stored only when `fill_cache` is set.
    fn optimized(
        &self,
        query: &Query,
        cfg: &MonitorConfig,
        planner: &Planner<'_>,
        fill_cache: bool,
    ) -> Result<Arc<OptimizedQuery>> {
        if !self.plan_cache.is_enabled() {
            return Ok(Arc::new(planner.optimize_query(query)?));
        }
        let key = PlanCache::key_for(query, cfg);
        if let Some(cached) = self.plan_cache.get(&key) {
            return Ok(cached);
        }
        let fresh = Arc::new(planner.optimize_query(query)?);
        if fill_cache {
            self.plan_cache.insert(key, Arc::clone(&fresh));
        }
        Ok(fresh)
    }

    /// Plan-cache effectiveness counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Replaces the plan cache with one that is explicitly on or off
    /// (on by default). Tests use the cache-off path as their reference.
    pub fn set_plan_cache_enabled(&mut self, enabled: bool) {
        self.plan_cache = PlanCache::new(enabled);
    }

    /// Optimizes and lowers a query against an explicit hint set instead
    /// of the database's own — the entry point for hermetic feedback
    /// cells, whose hint overlays must not touch shared state.
    pub fn lower_with(
        &self,
        query: &Query,
        cfg: &MonitorConfig,
        hints: &HintSet,
    ) -> Result<LoweredPlan> {
        Planner::new(
            &self.catalog,
            self.stats()?,
            hints,
            CostModel::with_disk(self.disk),
        )
        .lower_query(query, cfg)
    }

    /// Executes a lowered plan cold-cache, under the query deadline of
    /// the config it was lowered with, and harvests its monitors.
    ///
    /// Single-attempt: under an active fault plan an injected read stall
    /// surfaces as a transient [`Error::ReadStalled`]. Prefer
    /// [`Database::execute_with_retry`] (or [`Database::run`], which uses
    /// it) when a fault plan may be active.
    pub fn execute(&self, plan: LoweredPlan) -> Result<QueryOutcome> {
        let mut ctx = self.make_context();
        self.execute_attempt(plan, 0, &mut ctx)
    }

    /// A fresh execution context sized and costed for this database.
    pub fn make_context(&self) -> ExecContext {
        ExecContext::with_model(self.pool_pages, self.disk)
    }

    fn execute_attempt(
        &self,
        plan: LoweredPlan,
        attempt: u32,
        ctx: &mut ExecContext,
    ) -> Result<QueryOutcome> {
        let LoweredPlan {
            mut op,
            harness,
            choice,
            description,
            explain: _,
            deadline_ms,
        } = plan;
        ctx.cold_start();
        ctx.fault_attempt = attempt;
        ctx.deadline_ms = deadline_ms;
        // Counting driver: operators that can count page-at-a-time
        // (vectorized joins, scans) skip row materialization entirely.
        // Materialization was never charged, so I/O statistics are
        // byte-identical to the old drain-then-count.
        let count = run_count(op.as_mut(), ctx)?;
        let monitor_bytes = harness.approx_monitor_bytes();
        Ok(QueryOutcome {
            count,
            stats: ctx.stats(),
            elapsed_ms: ctx.elapsed_ms(),
            report: harness.harvest(),
            description,
            choice,
            fault_retries: attempt,
            monitor_bytes,
        })
    }

    /// Lowers (via `lower`) and executes, retrying the whole query —
    /// fresh plan, cold cache — when execution hits a transient fault,
    /// up to [`MAX_TRANSIENT_RETRIES`] retries. Each retry re-lowers so
    /// monitors are rebuilt from the same seeds: a run that needed
    /// retries produces byte-identical sketches to one that needed none.
    pub fn execute_with_retry(
        &self,
        lower: impl Fn() -> Result<LoweredPlan>,
    ) -> Result<QueryOutcome> {
        let mut ctx = self.make_context();
        self.execute_with_retry_in(lower, &mut ctx)
    }

    /// [`Database::execute_with_retry`] against a caller-provided
    /// context: `ctx` is cold-started per attempt, so results are
    /// byte-identical to a fresh context while its buffer-pool and
    /// residency-map allocations are reused across queries.
    pub fn execute_with_retry_in(
        &self,
        lower: impl Fn() -> Result<LoweredPlan>,
        ctx: &mut ExecContext,
    ) -> Result<QueryOutcome> {
        let mut attempt = 0;
        loop {
            match self.execute_attempt(lower()?, attempt, ctx) {
                Err(e) if e.is_transient() && attempt < MAX_TRANSIENT_RETRIES => attempt += 1,
                other => return other,
            }
        }
    }

    /// Optimizes, lowers, and executes a query in one call, absorbing
    /// transient faults via [`Database::execute_with_retry`].
    pub fn run(&self, query: &Query, cfg: &MonitorConfig) -> Result<QueryOutcome> {
        self.execute_with_retry(|| self.lower(query, cfg))
    }

    /// [`Database::run`] with a reusable context (see
    /// [`Database::execute_with_retry_in`]) — the parallel driver's
    /// per-worker hot path.
    pub fn run_in(
        &self,
        query: &Query,
        cfg: &MonitorConfig,
        ctx: &mut ExecContext,
    ) -> Result<QueryOutcome> {
        self.execute_with_retry_in(|| self.lower(query, cfg), ctx)
    }

    /// Runs `query` under a caller-held [`CancelToken`]: operators poll
    /// the token at page granularity and an armed or tripped token
    /// aborts the query with [`Error::Cancelled`]. An aborted run is
    /// hygienic — it returns no [`QueryOutcome`], so no feedback can be
    /// absorbed, and the plan cache is only *read*, never populated, so
    /// database state is byte-identical to the query never having run.
    /// Cancellation is non-transient, so the retry loop (which only
    /// absorbs injected read stalls) surfaces it immediately.
    pub fn run_query_cancellable(
        &self,
        query: &Query,
        cfg: &MonitorConfig,
        cancel: CancelToken,
    ) -> Result<QueryOutcome> {
        let mut ctx = self.make_context();
        ctx.cancel = cancel;
        self.execute_with_retry_in(|| self.lower_cached(query, cfg, false), &mut ctx)
    }

    /// Plan-shape-derived monitor memory estimate for running `query`
    /// under `cfg`: the byte total the lowered plan's monitors would
    /// hold ([`crate::MonitorHarness::approx_monitor_bytes`]). This is what a
    /// query reserves against the global [`crate::MemoryBudget`] at
    /// admission; the reservation is reconciled against the outcome's
    /// `monitor_bytes` at completion. Lowering here is hygienic (no
    /// plan-cache writes), so estimating a query that is later shed
    /// leaves the database byte-identical to never having seen it.
    pub fn estimate_monitor_bytes(&self, query: &Query, cfg: &MonitorConfig) -> Result<usize> {
        if !cfg.enabled {
            return Ok(0);
        }
        let lowered = self.lower_cached(query, cfg, false)?;
        Ok(lowered.harness.approx_monitor_bytes())
    }

    // ------------------------------------------------------------------
    // Intra-query morsel parallelism.
    // ------------------------------------------------------------------

    /// Classifies `query` under `cfg` into a morsel-executable shape, or
    /// `None` when only the serial path preserves bit-identity.
    ///
    /// Global gates: a DPC-histogram overlay (per-query hint sets are
    /// neither cacheable nor splittable) or a query deadline (its abort
    /// point reads one whole-query simulated clock) force a serial run.
    /// Sampled and budgeted monitors are fine: page sampling is a pure
    /// function of `(seed, page)` and budget shedding is decided once at
    /// lowering, which every morsel repeats.
    /// Sequential scans parallelize even under a fault plan (stalls
    /// retry morsel-locally; corruption is a pure function of the page);
    /// index-fetch and join shapes additionally require a fault-free
    /// catalog and a buffer pool that cannot evict (`pages ≤
    /// pool_pages`), since their morsels may touch the same pages and
    /// [`pf_storage::merge_morsel_stats`] reconciles residency only for a
    /// serial pool that never evicts.
    pub fn morsel_plan(&self, query: &Query, cfg: &MonitorConfig) -> Result<Option<MorselPlan>> {
        if self.dpc_cache.is_some() || cfg.deadline_ms.is_some() {
            return Ok(None);
        }
        let planner = self.planner()?;
        let optimized = self.optimized(query, cfg, &planner, true)?;
        let morsels = |(pages, first_random)| Morsels {
            optimized: Arc::clone(&optimized),
            pages,
            first_random,
        };
        match &*optimized {
            OptimizedQuery::Single { plan, pred } => {
                if let Some((pages, first_random)) = planner.scan_page_range(plan, pred)? {
                    if pages.1.saturating_sub(pages.0) < 2 {
                        return Ok(None);
                    }
                    return Ok(Some(MorselPlan::Scan(morsels((pages, first_random)))));
                }
                if self.fault_plan().is_some() {
                    return Ok(None);
                }
                match plan.path {
                    AccessPath::IndexSeek { .. } | AccessPath::IndexIntersection { .. } => {}
                    _ => return Ok(None),
                }
                if self.catalog.table(plan.table)?.stats.pages as usize > self.pool_pages {
                    return Ok(None);
                }
                Ok(Some(MorselPlan::Fetch(morsels(((0, 0), false)))))
            }
            OptimizedQuery::Join { plan, spec } => {
                if self.fault_plan().is_some() {
                    return Ok(None);
                }
                let Some(outer) = planner.scan_page_range(&plan.outer_plan, &spec.outer_pred)?
                else {
                    return Ok(None);
                };
                let outer_pages = self.catalog.table(spec.outer)?.stats.pages as usize;
                let inner_pages = self.catalog.table(spec.inner)?.stats.pages as usize;
                if outer_pages + inner_pages > self.pool_pages {
                    return Ok(None);
                }
                match plan.method {
                    JoinMethod::Hash if inner_pages >= 2 => {
                        Ok(Some(MorselPlan::HashJoin(morsels(outer))))
                    }
                    JoinMethod::IndexNestedLoops => Ok(Some(MorselPlan::InlJoin(morsels(outer)))),
                    JoinMethod::Hash => Ok(None),
                }
            }
        }
    }

    /// Runs one morsel: lowers the cached `optimized` plan restricted to
    /// `slice` and counts it against `ctx`'s cold pool — or, for a hash
    /// join's page slice, runs only the join's build phase. Transient
    /// injected stalls retry morsel-locally (a cold restart of just this
    /// slice, re-lowered so monitors start fresh); the coordinator's
    /// `fault_retries` is the max over morsels, which equals the serial
    /// whole-query retry count (a stall site's budget is a pure function
    /// of the site).
    pub(crate) fn run_morsel(
        &self,
        optimized: &OptimizedQuery,
        cfg: &MonitorConfig,
        slice: &PlanSlice,
        ctx: &mut ExecContext,
    ) -> Result<MorselOutput> {
        let planner = self.planner()?;
        let mut attempt = 0;
        loop {
            let LoweredPlan {
                mut op, harness, ..
            } = planner.lower_slice(optimized, cfg, slice)?;
            ctx.cold_start();
            ctx.fault_attempt = attempt;
            let run = match (slice, op.as_hash_join()) {
                (PlanSlice::Pages { .. }, Some(join)) => join.build_side(ctx).map(|b| (0, Some(b))),
                _ => run_count(op.as_mut(), ctx).map(|n| (n, None)),
            };
            match run {
                Ok((count, built)) => {
                    return Ok(MorselOutput {
                        count,
                        stats: ctx.stats(),
                        misses: ctx.pool.misses().to_vec(),
                        monitors: harness.into_partial(),
                        built,
                        attempt,
                    });
                }
                Err(e) if e.is_transient() && attempt < MAX_TRANSIENT_RETRIES => attempt += 1,
                Err(e) => return Err(e),
            }
        }
    }

    // ------------------------------------------------------------------
    // Ground truth (used by the evaluation methodology and tests).
    // ------------------------------------------------------------------

    /// Exact number of rows of `table` satisfying `pred` (brute force).
    pub fn true_cardinality(&self, table: &str, pred: &Conjunction) -> Result<u64> {
        let meta = self.catalog.table_by_name(table)?;
        let mut n = 0;
        for p in 0..meta.stats.pages {
            for row in meta.storage.rows_on_page(PageId(p))? {
                if pred.eval_short_circuit(&row).0 {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Exact `DPC(table, pred)` (brute force).
    pub fn true_dpc(&self, table: &str, pred: &Conjunction) -> Result<u64> {
        let meta = self.catalog.table_by_name(table)?;
        let mut n = 0;
        for p in 0..meta.stats.pages {
            let any = meta
                .storage
                .rows_on_page(PageId(p))?
                .iter()
                .any(|row| pred.eval_short_circuit(row).0);
            n += u64::from(any);
        }
        Ok(n)
    }

    /// Exact `DPC(inner, join-pred)` for an equijoin whose outer side is
    /// filtered by `outer_pred`: the distinct inner pages holding at
    /// least one row whose join key appears in the filtered outer.
    pub fn true_join_dpc(
        &self,
        outer: &str,
        inner: &str,
        outer_pred: &Conjunction,
        outer_col: &str,
        inner_col: &str,
    ) -> Result<u64> {
        let outer_meta = self.catalog.table_by_name(outer)?;
        let inner_meta = self.catalog.table_by_name(inner)?;
        let oc = outer_meta.schema().index_of(outer_col)?;
        let ic = inner_meta.schema().index_of(inner_col)?;
        // Join keys are compared by 64-bit datum hash — no per-row
        // string rendering. Both sides of an equijoin are same-typed, so
        // hash equality is value equality up to 2^-64 collisions, far
        // below any tolerance the evaluation uses.
        const KEY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut keys = std::collections::HashSet::new();
        for p in 0..outer_meta.stats.pages {
            for row in outer_meta.storage.rows_on_page(PageId(p))? {
                if outer_pred.eval_short_circuit(&row).0 {
                    keys.insert(pf_common::hash::hash_datum(row.get(oc), KEY_SEED));
                }
            }
        }
        let mut n = 0;
        for p in 0..inner_meta.stats.pages {
            let any = inner_meta
                .storage
                .rows_on_page(PageId(p))?
                .iter()
                .any(|row| keys.contains(&pf_common::hash::hash_datum(row.get(ic), KEY_SEED)));
            n += u64::from(any);
        }
        Ok(n)
    }

    /// Injects exact cardinalities for every sub-expression the
    /// optimizer consults when planning `query` — the paper's
    /// methodology ("we ensured that the plan P was generated after
    /// injecting accurate cardinality values"), which isolates the
    /// page-count effect.
    pub fn inject_accurate_cardinalities(&mut self, query: &Query) -> Result<()> {
        let mut hints = std::mem::take(&mut self.hints);
        let injected = self.inject_cardinalities_into(query, &mut hints);
        self.hints = hints;
        self.plan_cache.invalidate();
        injected
    }

    /// The same injection, but into a caller-provided hint set — used by
    /// hermetic feedback cells whose overlays must not mutate `self`.
    pub fn inject_cardinalities_into(&self, query: &Query, hints: &mut HintSet) -> Result<()> {
        match query {
            Query::Count {
                table, predicate, ..
            } => {
                let schema = self.catalog.table_by_name(table)?.schema().clone();
                let pred = Query::resolve_predicates(predicate, &schema)?;
                self.inject_pred_cardinalities(table, &pred, hints)
            }
            Query::JoinCount {
                outer, outer_pred, ..
            } => {
                let schema = self.catalog.table_by_name(outer)?.schema().clone();
                let pred = Query::resolve_predicates(outer_pred, &schema)?;
                self.inject_pred_cardinalities(outer, &pred, hints)
            }
        }
    }

    fn inject_pred_cardinalities(
        &self,
        table: &str,
        pred: &Conjunction,
        hints: &mut HintSet,
    ) -> Result<()> {
        // Atoms, indexed pairs, and the full conjunction — everything the
        // access-path enumeration consults.
        let mut subsets: Vec<Vec<usize>> = (0..pred.len()).map(|i| vec![i]).collect();
        for i in 0..pred.len() {
            for j in i + 1..pred.len() {
                subsets.push(vec![i, j]);
            }
        }
        if pred.len() > 2 {
            subsets.push((0..pred.len()).collect());
        }
        for idx in subsets {
            let sub = Conjunction::new(idx.iter().map(|&i| pred.atoms[i].clone()).collect());
            let n = self.true_cardinality(table, &sub)?;
            hints.inject_cardinality(table, pred.key_of(&idx), n as f64);
        }
        Ok(())
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PredSpec;
    use pf_common::{Column, DataType, Datum};
    use pf_exec::CompareOp;

    /// 20 000 rows clustered on `id`; `corr` == id (fully correlated),
    /// `scat` a scrambled permutation.
    fn demo_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("corr", DataType::Int),
            Column::new("scat", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let n = 20_000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str("x".repeat(60)),
                ])
            })
            .collect();
        db.create_table("t", schema, rows, Some("id")).unwrap();
        db.create_index("ix_corr", "t", "corr").unwrap();
        db.create_index("ix_scat", "t", "scat").unwrap();
        db.analyze().unwrap();
        db
    }

    fn q(col: &str, v: i64) -> Query {
        Query::count("t", vec![PredSpec::new(col, CompareOp::Lt, Datum::Int(v))])
    }

    #[test]
    fn run_returns_correct_count() {
        let db = demo_db();
        let out = db.run(&q("corr", 400), &MonitorConfig::off()).unwrap();
        assert_eq!(out.count, 400);
        assert!(out.elapsed_ms > 0.0);
        assert!(out.report.measurements.is_empty());
    }

    #[test]
    fn monitored_run_reports_dpc() {
        let db = demo_db();
        let out = db.run(&q("corr", 400), &MonitorConfig::default()).unwrap();
        assert_eq!(out.count, 400);
        assert!(!out.report.measurements.is_empty());
        // The measured DPC must match brute force.
        let schema = db.catalog().table_by_name("t").unwrap().schema().clone();
        let pred = Query::resolve_predicates(
            &[PredSpec::new("corr", CompareOp::Lt, Datum::Int(400))],
            &schema,
        )
        .unwrap();
        let truth = db.true_dpc("t", &pred).unwrap() as f64;
        let measured = out.report.actual_for("t", "corr<400").unwrap();
        // Scan plans count exactly... unless the chosen plan was an index
        // plan (linear counting); allow a small tolerance.
        assert!(
            (measured - truth).abs() / truth.max(1.0) < 0.1,
            "measured {measured}, truth {truth}"
        );
    }

    #[test]
    fn analytical_overestimates_correlated_dpc() {
        let db = demo_db();
        let out = db.run(&q("corr", 400), &MonitorConfig::default()).unwrap();
        let m = out
            .report
            .measurements
            .iter()
            .find(|m| m.expression == "corr<400")
            .unwrap();
        let est = m.estimated.unwrap();
        assert!(
            est > m.actual * 10.0,
            "analytical {est} should dwarf actual {}",
            m.actual
        );
    }

    #[test]
    fn injection_changes_plan() {
        let mut db = demo_db();
        let query = q("corr", 400);
        let before = db.run(&query, &MonitorConfig::default()).unwrap();
        assert_eq!(before.choice.name(), "TableScan");
        db.hints_mut().absorb_report(&before.report);
        let after = db.run(&query, &MonitorConfig::off()).unwrap();
        assert_eq!(after.choice.name(), "IndexSeek");
        assert_eq!(after.count, before.count, "plans agree on the answer");
        assert!(after.elapsed_ms < before.elapsed_ms / 2.0);
    }

    /// Only a query deadline keeps a splittable scan serial:
    /// sampling and memory budgets — and the sheds a budget forces — are
    /// decided per lowering, which every morsel repeats.
    #[test]
    fn morsel_plan_refuses_only_deadlines() {
        let db = demo_db();
        let wide = q("corr", 15_000);
        let splits = |cfg: MonitorConfig| {
            matches!(
                db.morsel_plan(&wide, &cfg).unwrap(),
                Some(MorselPlan::Scan(_))
            )
        };
        assert!(splits(MonitorConfig::default()));
        assert!(splits(MonitorConfig::sampled(0.25)));
        assert!(splits(MonitorConfig {
            memory_budget: Some(64),
            ..MonitorConfig::default()
        }));
        assert!(!splits(MonitorConfig {
            deadline_ms: Some(5),
            ..MonitorConfig::default()
        }));
    }

    #[test]
    fn true_cardinality_and_dpc() {
        let db = demo_db();
        let schema = db.catalog().table_by_name("t").unwrap().schema().clone();
        let pred = Query::resolve_predicates(
            &[PredSpec::new("id", CompareOp::Lt, Datum::Int(123))],
            &schema,
        )
        .unwrap();
        assert_eq!(db.true_cardinality("t", &pred).unwrap(), 123);
        let dpc = db.true_dpc("t", &pred).unwrap();
        let rpp = db.catalog().table_by_name("t").unwrap().stats.rows_per_page;
        assert_eq!(dpc, (123.0 / rpp).ceil() as u64);
    }

    #[test]
    fn stats_required_before_optimizing() {
        let mut db = Database::new();
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        db.create_table("t", schema, vec![Row::new(vec![Datum::Int(1)])], None)
            .unwrap();
        assert!(db.run(&q("a", 1), &MonitorConfig::off()).is_err());
    }

    #[test]
    fn cancelled_query_leaves_no_trace() {
        let db = demo_db();
        let query = q("corr", 400);
        let cfg = MonitorConfig::default();
        let before = db.plan_cache_stats();
        assert_eq!(before.entries, 0);
        let err = db
            .run_query_cancellable(&query, &cfg, CancelToken::cancel_after(0))
            .unwrap_err();
        assert_eq!(err, Error::Cancelled);
        let after = db.plan_cache_stats();
        assert_eq!(
            after.entries, 0,
            "an aborted run must not populate the plan cache"
        );
        // An unarmed token lets the identical call complete normally.
        let ok = db
            .run_query_cancellable(&query, &cfg, CancelToken::new())
            .unwrap();
        assert_eq!(ok.count, 400);
        assert!(!ok.report.measurements.is_empty());
    }

    #[test]
    fn externally_tripped_token_aborts_mid_run() {
        let db = demo_db();
        let token = CancelToken::new();
        token.cancel();
        let err = db
            .run_query_cancellable(&q("corr", 400), &MonitorConfig::off(), token)
            .unwrap_err();
        assert_eq!(err, Error::Cancelled);
    }

    #[test]
    fn deadline_aborts_on_the_simulated_clock_and_is_deterministic() {
        let db = demo_db();
        let query = q("id", 19_999); // near-full scan: plenty of pages
        let cfg = MonitorConfig::off();
        let deadline = |deadline_ms| MonitorConfig {
            deadline_ms: Some(deadline_ms),
            ..cfg.clone()
        };
        let err = db.run(&query, &deadline(0)).unwrap_err();
        assert_eq!(err, Error::DeadlineExceeded { deadline_ms: 0 });
        let again = db.run(&query, &deadline(0)).unwrap_err();
        assert_eq!(
            err, again,
            "the abort point is a pure function of the query"
        );
        // A generous deadline completes bit-identically to a plain run.
        let plain = db.run(&query, &cfg).unwrap();
        let under = db.run(&query, &deadline(1_000_000)).unwrap();
        assert_eq!(under.count, plain.count);
        assert_eq!(under.stats, plain.stats);
        assert_eq!(under.elapsed_ms, plain.elapsed_ms);
    }

    /// An index-only plan holds the index tree but not the table, so a
    /// row replacement beside it succeeds: the held plan keeps its
    /// snapshot of the tree and a fresh plan sees the change. A plan
    /// that holds the table makes DML fail, and the refused statement
    /// changes no index entry and no stats epoch.
    #[test]
    fn dml_beside_an_outstanding_plan() {
        let mut db = demo_db();
        let t = db.catalog().table_by_name("t").unwrap().id;
        let star = Query::count_star(
            "t",
            vec![PredSpec::new("scat", CompareOp::Lt, Datum::Int(5_000))],
        );
        let held = db.lower(&star, &MonitorConfig::off()).unwrap();
        assert!(
            held.description.contains("IndexOnlyScan"),
            "{}",
            held.description
        );

        let row = |k: i64| {
            Row::new(vec![
                Datum::Int(k),
                Datum::Int(k),
                Datum::Int(k),
                Datum::Str("x".repeat(60)),
            ])
        };
        assert_eq!(
            db.delete_where("t", |r| r.get(2) == &Datum::Int(7))
                .unwrap(),
            1
        );
        db.insert_row("t", row(20_000)).unwrap();
        assert!(db.stats().is_err(), "DML leaves stats stale until analyze");
        assert_eq!(db.execute(held).unwrap().count, 5_000, "held snapshot");
        db.analyze().unwrap();
        assert_eq!(db.stats().unwrap().epoch(t), Some(2));
        assert_eq!(db.run(&star, &MonitorConfig::off()).unwrap().count, 4_999);

        let entries = |db: &Database| -> Vec<Vec<(Datum, Vec<pf_common::Rid>)>> {
            db.catalog()
                .indexes_on(t)
                .map(|ix| {
                    ix.tree
                        .iter()
                        .map(|(k, r)| (k.clone(), r.to_vec()))
                        .collect()
                })
                .collect()
        };
        let before = entries(&db);
        let base = db.lower(&q("scat", 5_000), &MonitorConfig::off()).unwrap();
        assert!(db.insert_row("t", row(20_001)).is_err());
        assert!(db.delete_where("t", |_| true).is_err());
        assert_eq!(entries(&db), before, "a refused DML changes no index entry");
        assert_eq!(db.catalog().epoch_state(t).unwrap().epoch, 2);
        assert_eq!(db.stats().unwrap().epoch(t), Some(2));
        assert_eq!(db.execute(base).unwrap().count, 4_999);
    }

    #[test]
    fn inject_accurate_cardinalities_covers_atoms_and_pairs() {
        let mut db = demo_db();
        let query = Query::count(
            "t",
            vec![
                PredSpec::new("corr", CompareOp::Lt, Datum::Int(100)),
                PredSpec::new("scat", CompareOp::Lt, Datum::Int(10_000)),
            ],
        );
        db.inject_accurate_cardinalities(&query).unwrap();
        assert_eq!(db.hints().cardinality("t", "corr<100"), Some(100.0));
        assert!(db
            .hints()
            .cardinality("t", "corr<100 AND scat<10000")
            .is_some());
    }
}
