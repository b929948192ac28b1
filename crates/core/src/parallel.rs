//! Multi-threaded workload driver over the shared read-only storage
//! snapshot.
//!
//! The paper's premise is that DPC feedback is cheap enough to leave on
//! while *serving a workload* — which presumes the engine can execute
//! independent queries concurrently at all. Everything a query reads
//! (catalog, table pages, B+-trees, statistics, hints) is immutable
//! during execution and shared by `Arc`/reference; everything a query
//! writes (buffer pool, [`pf_storage::IoStats`], monitors) lives in its
//! own [`pf_exec::ExecContext`] and operator tree, so workers never
//! contend on the hot path: each plan is lowered, executed, and
//! harvested on one thread, and its monitors are plain data the
//! operators own.
//!
//! Two mechanisms keep the steady state cheap:
//!
//! * a **persistent worker pool** (`WorkerPool`) owned by the runner
//!   and shared by its clones — threads are spawned once (lazily) and
//!   parked on a condvar between runs, so `run_queries`/`run_feedback`
//!   pay a wakeup, not `jobs − 1` thread spawns, per call. The calling
//!   thread always participates as worker 0, so `jobs = 1` never blocks
//!   on another thread at all;
//! * **per-worker scratch** ([`WorkerScratch`]) holding a reusable
//!   [`pf_exec::ExecContext`]: the buffer pool's residency map and
//!   stats survive across queries (cold-started per attempt, which is
//!   byte-identical to a fresh context), so steady-state execution
//!   allocates almost nothing per query.
//!
//! Determinism: per-query monitor seeds are derived from the query
//! *index* (not the worker), results are returned in query order, and
//! feedback absorption happens serially after the parallel phase —
//! running with `jobs = 8` is bit-identical to `jobs = 1`. The same
//! holds for intra-query morsel parallelism
//! ([`ParallelRunner::run_query`]), which covers monitored (sampled,
//! budgeted) sequential scans, index-fetch plans, and hash / INL joins:
//! every morsel lowers the planner's own operator tree over its page
//! range or RID run, and the coordinator merges the morsels' counters,
//! page misses and monitor partials ([`pf_feedback::GroupedPageCounter`]s,
//! [`pf_feedback::LinearCounter`]s, hash-join build sides) in morsel
//! order, reproducing the serial outcome bit for bit.
//!
//! Every `run_*` call records a contention profile ([`RunStats`]:
//! per-worker wall/busy/queue-wait) retrievable via
//! [`ParallelRunner::last_run_stats`] — scaling regressions are
//! measured, not guessed.

use crate::db::{Database, MorselOutput, MorselPlan, Morsels, QueryOutcome};
use crate::feedback_loop::FeedbackOutcome;
use crate::planner::{MonitorConfig, OptimizedQuery, PlanSlice};
use crate::query::Query;
use pf_common::hash::mix64;
use pf_common::{Error, Result};
use pf_exec::ExecContext;
use pf_feedback::FeedbackReport;
use pf_storage::{merge_morsel_stats, IoStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

// Compile-time proof that the read path is shareable across workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Query>();
    assert_send_sync::<MonitorConfig>();
};

/// Per-worker reusable execution state. The context (buffer pool,
/// residency map, stats) is recreated only when the database's pool
/// shape changes; otherwise [`pf_exec::ExecContext::cold_start`]
/// between queries reuses every allocation the pool has grown.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    ctx: Option<ExecContext>,
}

impl WorkerScratch {
    /// The reusable context for `db`, rebuilt if the pool capacity no
    /// longer matches (a different `Database` with a different shape).
    /// The disk model is refreshed unconditionally — it is `Copy` and
    /// may differ between databases of identical pool size.
    pub fn ctx_for(&mut self, db: &Database) -> &mut ExecContext {
        let stale = match &self.ctx {
            Some(c) => c.pool.capacity() != db.pool_pages,
            None => true,
        };
        if stale {
            self.ctx = Some(db.make_context());
        }
        let ctx = self.ctx.as_mut().expect("scratch context just ensured");
        ctx.model = db.disk;
        // A recycled context must never carry a previous query's
        // deadline into the next one.
        ctx.deadline_ms = None;
        ctx
    }
}

/// Execution profile of one worker within one runner invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerRunStats {
    /// Worker index (0 = the calling thread).
    pub worker: usize,
    /// Tasks (queries or morsels) this worker executed.
    pub tasks: u64,
    /// Cursor batches this worker claimed.
    pub batches: u64,
    /// Nanoseconds spent inside task bodies.
    pub busy_ns: u64,
    /// Nanoseconds of the worker's participation spent *not* executing
    /// tasks: wakeup latency, cursor claiming, result publication, and
    /// tail idling while other workers finish their last batch.
    pub queue_wait_ns: u64,
}

/// Contention profile of one `run_*` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock duration of the whole invocation in nanoseconds.
    pub wall_ns: u64,
    /// Per-worker profiles, sorted by worker index.
    pub workers: Vec<WorkerRunStats>,
}

impl RunStats {
    /// Total nanoseconds all workers spent executing tasks.
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Total nanoseconds all workers spent waiting (see
    /// [`WorkerRunStats::queue_wait_ns`]).
    pub fn queue_wait_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.queue_wait_ns).sum()
    }

    /// Total tasks executed.
    pub fn tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Fraction of summed worker participation spent in task bodies
    /// (1.0 = perfectly busy; low values indicate contention or
    /// imbalance). 0.0 when nothing ran.
    pub fn utilization(&self) -> f64 {
        let busy = self.busy_ns() as f64;
        let total = busy + self.queue_wait_ns() as f64;
        if total == 0.0 {
            0.0
        } else {
            busy / total
        }
    }
}

/// A type-erased unit of pool work: every participating worker calls
/// `run` once and drains the job's shared cursor inside it.
trait PoolJob: Sync {
    fn run(&self, worker: usize, scratch: &mut WorkerScratch);
}

/// `&'static` view of a stack-held job.
///
/// The coordinator publishes this to the workers, then blocks until
/// every worker has finished the generation before the referent leaves
/// scope (see [`WorkerPool::run_job`]), so the erased lifetime never
/// dangles.
#[derive(Clone, Copy)]
struct JobRef(&'static (dyn PoolJob + 'static));

impl std::fmt::Debug for JobRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobRef(..)")
    }
}

#[derive(Debug, Default)]
struct PoolState {
    /// The currently published job, if a generation is in flight.
    job: Option<JobRef>,
    /// Bumped per published job; workers run each generation once.
    generation: u64,
    /// Background workers still inside the current generation.
    active: usize,
    /// Set once, at pool drop: workers exit their loop.
    shutdown: bool,
}

#[derive(Debug)]
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers: new generation published, or shutdown.
    work_cv: Condvar,
    /// Signals the coordinator: `active` reached zero.
    done_cv: Condvar,
}

/// The persistent thread pool behind a [`ParallelRunner`] and all its
/// clones. Threads are spawned lazily on first parallel use, parked on
/// a condvar between runs, and joined on drop.
#[derive(Debug)]
struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The calling thread participates as worker 0 with this scratch.
    main_scratch: Mutex<WorkerScratch>,
    /// Serializes whole runs: one generation in flight per pool.
    run_lock: Mutex<()>,
    /// Contention profile of the most recent invocation.
    last_run: Mutex<Option<RunStats>>,
}

fn worker_loop(shared: Arc<PoolShared>, worker: usize) {
    let mut scratch = WorkerScratch::default();
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    if let Some(job) = st.job {
                        seen_generation = st.generation;
                        break job;
                    }
                    // A generation completed before this (late-spawned)
                    // worker saw it; don't run it retroactively.
                    seen_generation = st.generation;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Individual tasks are unwind-guarded inside the job; this outer
        // guard only protects the pool's accounting from unguarded
        // panics (e.g. a bug in result publication), so a damaged
        // generation still completes and reports uncovered indices
        // instead of deadlocking the coordinator.
        let _ = catch_unwind(AssertUnwindSafe(|| job.0.run(worker, &mut scratch)));
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState::default()),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            threads: Mutex::new(Vec::new()),
            main_scratch: Mutex::new(WorkerScratch::default()),
            run_lock: Mutex::new(()),
            last_run: Mutex::new(None),
        }
    }

    /// Grows the pool to at least `want` background threads.
    fn ensure_workers(&self, want: usize) {
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        while threads.len() < want {
            let shared = Arc::clone(&self.shared);
            let id = threads.len() + 1; // worker 0 is the caller
            let handle = std::thread::Builder::new()
                .name(format!("pf-worker-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("spawn pool worker thread");
            threads.push(handle);
        }
    }

    /// Publishes `job` to `background` pool threads, participates as
    /// worker 0, and returns once every participant is done: workers
    /// hold the erased job reference until then.
    fn run_job(&self, job: &dyn PoolJob, background: usize) {
        let _serial = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.ensure_workers(background);
        // `notify_all` wakes every spawned worker and each one runs the
        // generation exactly once (extras find the cursor drained and
        // finish immediately), so the drain count must be the spawned
        // total: counting only this run's request would let stragglers
        // underflow `active` and wedge the coordinator forever.
        let participants = self.threads.lock().unwrap_or_else(|e| e.into_inner()).len();
        // SAFETY: workers dereference the erased reference only between
        // the publication below and the `active == 0` wait at the end of
        // this function; this stack frame outlives both, so the referent
        // cannot dangle.
        let erased = unsafe {
            std::mem::transmute::<&(dyn PoolJob + '_), &'static (dyn PoolJob + 'static)>(job)
        };
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.job = Some(JobRef(erased));
            st.generation = st.generation.wrapping_add(1);
            st.active = participants;
        }
        self.shared.work_cv.notify_all();
        {
            let mut scratch = self.main_scratch.lock().unwrap_or_else(|e| e.into_inner());
            let _ = catch_unwind(AssertUnwindSafe(|| job.run(0, &mut scratch)));
        }
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.active > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let threads = std::mem::take(self.threads.get_mut().unwrap_or_else(|e| e.into_inner()));
        for handle in threads {
            let _ = handle.join();
        }
    }
}

/// One indexed fan-out over the pool: tasks claim small index batches
/// from a shared cursor, run unwind-guarded, and publish `(index,
/// result)` pairs plus their worker profile exactly once each.
struct IndexedJob<'t, T: Send, F: Fn(usize, &mut WorkerScratch) -> Result<T> + Sync> {
    task: &'t F,
    n: usize,
    batch: usize,
    cursor: AtomicUsize,
    results: Mutex<Vec<(usize, Result<T>)>>,
    worker_stats: Mutex<Vec<WorkerRunStats>>,
}

impl<T: Send, F: Fn(usize, &mut WorkerScratch) -> Result<T> + Sync> PoolJob
    for IndexedJob<'_, T, F>
{
    fn run(&self, worker: usize, scratch: &mut WorkerScratch) {
        let participation = Instant::now();
        let mut local = Vec::new();
        let mut stats = WorkerRunStats {
            worker,
            ..Default::default()
        };
        loop {
            let start = self.cursor.fetch_add(self.batch, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            stats.batches += 1;
            for i in start..(start + self.batch).min(self.n) {
                let t0 = Instant::now();
                local.push((i, run_guarded(self.task, i, scratch)));
                stats.busy_ns += t0.elapsed().as_nanos() as u64;
                stats.tasks += 1;
            }
        }
        if !local.is_empty() {
            self.results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut local);
        }
        stats.queue_wait_ns =
            (participation.elapsed().as_nanos() as u64).saturating_sub(stats.busy_ns);
        self.worker_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stats);
    }
}

/// One guarded evaluation of `task(i)`: a panic becomes
/// [`Error::WorkerPanicked`] (the query is quarantined, the worker
/// thread survives). Transient faults are the task's own business: the
/// database retries them inside every run.
fn run_guarded<T>(
    task: &(impl Fn(usize, &mut WorkerScratch) -> Result<T> + Sync),
    i: usize,
    scratch: &mut WorkerScratch,
) -> Result<T> {
    catch_unwind(AssertUnwindSafe(|| task(i, scratch)))
        .unwrap_or(Err(Error::WorkerPanicked { query_index: i }))
}

/// Executes batches of queries across a persistent pool of worker
/// threads pulling from a work-stealing index queue. Clones share the
/// pool (and its scratch); runs on a shared pool are serialized.
#[derive(Debug)]
pub struct ParallelRunner {
    jobs: usize,
    pool: Arc<WorkerPool>,
}

impl Clone for ParallelRunner {
    fn clone(&self) -> Self {
        ParallelRunner {
            jobs: self.jobs,
            pool: Arc::clone(&self.pool),
        }
    }
}

impl ParallelRunner {
    /// A runner with `jobs` worker threads (clamped to ≥ 1). Threads
    /// are not spawned until first parallel use.
    pub fn new(jobs: usize) -> Self {
        ParallelRunner {
            jobs: jobs.max(1),
            pool: Arc::new(WorkerPool::new()),
        }
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Contention profile of the most recent `run_*` invocation on this
    /// runner (or any clone sharing its pool). `None` before first use.
    pub fn last_run_stats(&self) -> Option<RunStats> {
        self.pool
            .last_run
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The monitor config for query `index`: the seed is derived from the
    /// query's position in the workload, so sampling and hashing are
    /// reproducible no matter which worker executes it (or how many
    /// workers exist).
    pub fn cfg_for(cfg: &MonitorConfig, index: usize) -> MonitorConfig {
        MonitorConfig {
            seed: cfg.seed ^ mix64(index as u64 + 1),
            ..cfg.clone()
        }
    }

    /// Runs `queries` across the pool; element `i` of the result is
    /// always query `i`'s outcome.
    pub fn run_queries(
        &self,
        db: &Database,
        queries: &[Query],
        cfg: &MonitorConfig,
    ) -> Result<Vec<QueryOutcome>> {
        self.run_indexed(queries.len(), |i, scratch| {
            db.run_in(&queries[i], &Self::cfg_for(cfg, i), scratch.ctx_for(db))
        })
    }

    /// Like [`ParallelRunner::run_queries`], but a failing query is
    /// *quarantined* instead of aborting the batch: element `i` is its
    /// own `Result`, so one corrupt or panicking query cannot take down
    /// a workload run. Panics inside a query are caught and surfaced as
    /// [`Error::WorkerPanicked`] with that query's index; fault errors
    /// ([`Error::ChecksumMismatch`], [`Error::ReadStalled`]) carry their
    /// `(table, page)` site.
    pub fn run_queries_quarantined(
        &self,
        db: &Database,
        queries: &[Query],
        cfg: &MonitorConfig,
    ) -> Vec<Result<QueryOutcome>> {
        self.run_indexed_quarantined_scratch(queries.len(), |i, scratch| {
            db.run_in(&queries[i], &Self::cfg_for(cfg, i), scratch.ctx_for(db))
        })
    }

    /// The parallel feedback methodology: every query's
    /// [`Database::feedback_cell`] runs hermetically against a snapshot
    /// of the hint set, then the harvested reports are absorbed and the
    /// DPC histograms trained **serially in query order** — the final
    /// database state and per-query outcomes are identical for any
    /// worker count.
    pub fn run_feedback(
        &self,
        db: &mut Database,
        queries: &[Query],
        cfg: &MonitorConfig,
    ) -> Result<Vec<FeedbackOutcome>> {
        let outcomes = {
            let db = &*db;
            self.run_indexed(queries.len(), |i, _scratch| {
                db.feedback_cell(&queries[i], &Self::cfg_for(cfg, i))
            })?
        };
        for (query, outcome) in queries.iter().zip(&outcomes) {
            db.absorb_feedback(&outcome.report)?;
            db.train_dpc_histograms(query, &outcome.report)?;
        }
        Ok(outcomes)
    }

    /// Executes one query, splitting eligible shapes into morsels across
    /// the pool (see [`Database::morsel_plan`]). Every shape is a
    /// sequence of phases over one per-morsel runner
    /// (`Database::run_morsel`), each morsel lowering the planner's own
    /// operator tree over its slice: page morsels for scans and for an
    /// INL join's outer side, RID-run morsels after the coordinator
    /// drains a fetch plan's RID source, and a hash join's build page
    /// morsels (their build sides merged in morsel order) followed by
    /// its probe page morsels. Counters merge by
    /// [`merge_morsel_stats`] in phase-then-morsel order and monitor
    /// partials are absorbed in the same order, so the outcome — count,
    /// stats, simulated time, sketches, plan description — is
    /// byte-identical to [`Database::run`] for any job count. Falls back
    /// to a serial run when the query is ineligible or the runner has
    /// one job.
    pub fn run_query(
        &self,
        db: &Database,
        query: &Query,
        cfg: &MonitorConfig,
    ) -> Result<QueryOutcome> {
        if self.jobs <= 1 {
            return db.run(query, cfg);
        }
        let Some(plan) = db.morsel_plan(query, cfg)? else {
            return db.run(query, cfg);
        };
        let (MorselPlan::Scan(m)
        | MorselPlan::Fetch(m)
        | MorselPlan::HashJoin(m)
        | MorselPlan::InlJoin(m)) = &plan;
        let page_slices = |pages| {
            self.page_chunks(pages)
                .into_iter()
                .enumerate()
                .map(|(i, range)| PlanSlice::Pages {
                    range,
                    first_random: i == 0 && m.first_random,
                })
                .collect::<Vec<_>>()
        };
        // `coordinator` is the coordinator's own share of the I/O: a
        // fetch plan's drained RID source.
        let (coordinator, outputs) = match &plan {
            MorselPlan::Scan(_) | MorselPlan::InlJoin(_) => (
                IoStats::default(),
                self.run_phase(db, m, cfg, &page_slices(m.pages))?,
            ),
            MorselPlan::Fetch(_) => {
                let OptimizedQuery::Single { plan, pred } = &*m.optimized else {
                    return Err(Error::Internal("fetch morsels of a join plan".into()));
                };
                let Some((mut source, _)) = db.planner()?.rid_source(plan, pred)? else {
                    return Err(Error::Internal("fetch morsels without a RID source".into()));
                };
                let mut ctx = db.make_context();
                let mut rids = Vec::new();
                while let Some(rid) = source.next_rid(&mut ctx)? {
                    rids.push(rid);
                }
                if rids.len() < 2 {
                    return db.run(query, cfg);
                }
                let slices: Vec<PlanSlice> = self
                    .index_runs(rids.len())
                    .into_iter()
                    .map(|(lo, hi)| PlanSlice::Rids(rids[lo..hi].to_vec()))
                    .collect();
                (ctx.stats(), self.run_phase(db, m, cfg, &slices)?)
            }
            MorselPlan::HashJoin(_) => {
                let OptimizedQuery::Join { spec, .. } = &*m.optimized else {
                    return Err(Error::Internal(
                        "hash join morsels of a single-table plan".into(),
                    ));
                };
                let mut builds = self.run_phase(db, m, cfg, &page_slices(m.pages))?;
                let mut sides = builds.iter_mut().filter_map(|o| o.built.take());
                let mut built = sides
                    .next()
                    .ok_or_else(|| Error::Internal("hash join without build morsels".into()))?;
                for side in sides {
                    built.merge(side)?;
                }
                let built = Arc::new(built);
                let inner_pages = db.catalog().table(spec.inner)?.storage.page_count();
                let probes: Vec<PlanSlice> = self
                    .page_chunks((0, inner_pages))
                    .into_iter()
                    .map(|range| PlanSlice::Probe {
                        range,
                        built: Arc::clone(&built),
                    })
                    .collect();
                builds.extend(self.run_phase(db, m, cfg, &probes)?);
                (IoStats::default(), builds)
            }
        };
        // The reference lowering supplies the outcome's metadata and the
        // monitors every morsel's partial merges into.
        let mut lowered = db.planner()?.lower_optimized(&m.optimized, cfg)?;
        let stats = merge_morsel_stats(
            std::iter::once((&coordinator, &[][..]))
                .chain(outputs.iter().map(|o| (&o.stats, o.misses.as_slice()))),
        );
        let mut count = 0;
        let mut fault_retries = 0;
        for o in outputs {
            count += o.count;
            fault_retries = fault_retries.max(o.attempt);
            lowered.absorb(o.monitors)?;
        }
        Ok(QueryOutcome {
            count,
            elapsed_ms: db.disk.elapsed_ms(&stats),
            stats,
            report: lowered.harvest(),
            monitor_bytes: lowered.monitor_bytes(),
            description: lowered.description,
            choice: lowered.choice,
            fault_retries,
        })
    }

    /// Runs one phase: a morsel per slice across the pool, outputs in
    /// slice order.
    fn run_phase(
        &self,
        db: &Database,
        m: &Morsels,
        cfg: &MonitorConfig,
        slices: &[PlanSlice],
    ) -> Result<Vec<MorselOutput>> {
        self.run_indexed(slices.len(), |i, scratch| {
            db.run_morsel(&m.optimized, cfg, &slices[i], scratch.ctx_for(db))
        })
    }

    /// Splits `[first, last)` into at most `jobs` contiguous non-empty
    /// page chunks.
    fn page_chunks(&self, (first, last): (u32, u32)) -> Vec<(u32, u32)> {
        let pages = last.saturating_sub(first) as usize;
        let morsels = self.jobs.min(pages.max(1));
        let chunk = pages.div_ceil(morsels).max(1);
        (0..morsels)
            .map(|i| {
                let lo = last.min(first.saturating_add((i * chunk) as u32));
                let hi = last.min(first.saturating_add(((i + 1) * chunk) as u32));
                (lo, hi)
            })
            .filter(|(lo, hi)| lo < hi)
            .collect()
    }

    /// Splits `0..n` into at most `jobs` contiguous non-empty index runs.
    fn index_runs(&self, n: usize) -> Vec<(usize, usize)> {
        let runs = self.jobs.min(n.max(1));
        let chunk = n.div_ceil(runs).max(1);
        (0..runs)
            .map(|i| ((i * chunk).min(n), ((i + 1) * chunk).min(n)))
            .filter(|(lo, hi)| lo < hi)
            .collect()
    }

    /// Evaluates `task(i, scratch)` for `i ∈ 0..n` across the worker
    /// pool and returns results in index order; an error is reported for
    /// the lowest failing index, independent of scheduling.
    fn run_indexed<T, F>(&self, n: usize, task: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &mut WorkerScratch) -> Result<T> + Sync,
    {
        let mut out = Vec::with_capacity(n);
        let mut first_err = None;
        for (i, r) in self
            .run_indexed_quarantined_scratch(n, task)
            .into_iter()
            .enumerate()
        {
            match r {
                Ok(t) => out.push(t),
                Err(e) => {
                    first_err.get_or_insert((i, e));
                }
            }
        }
        match first_err {
            None => Ok(out),
            Some((_, e)) => Err(e),
        }
    }

    /// Evaluates `task(i, scratch)` for `i ∈ 0..n` across the worker
    /// pool and returns *per-index* results in index order — no index
    /// can abort another. Workers claim small index batches from a
    /// shared atomic cursor (work stealing by competition); each task
    /// runs guarded ([`run_guarded`]), so a panicking query yields
    /// `Err(WorkerPanicked)` in its own slot while the rest of the
    /// batch completes normally. Also records the invocation's
    /// [`RunStats`].
    fn run_indexed_quarantined_scratch<T, F>(&self, n: usize, task: F) -> Vec<Result<T>>
    where
        T: Send,
        F: Fn(usize, &mut WorkerScratch) -> Result<T> + Sync,
    {
        let invocation = Instant::now();
        if self.jobs == 1 || n <= 1 {
            // Inline on the calling thread, still reusing its scratch.
            let mut scratch = self
                .pool
                .main_scratch
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let mut stats = WorkerRunStats::default();
            let out: Vec<Result<T>> = (0..n)
                .map(|i| {
                    let t0 = Instant::now();
                    let r = run_guarded(&task, i, &mut scratch);
                    stats.busy_ns += t0.elapsed().as_nanos() as u64;
                    stats.tasks += 1;
                    r
                })
                .collect();
            stats.batches = u64::from(n > 0);
            drop(scratch);
            self.store_run_stats(invocation, vec![stats]);
            return out;
        }
        // Batches amortize queue contention; small enough to keep the
        // tail balanced across workers.
        let batch = (n / (self.jobs * 8)).clamp(1, 64);
        let background = (self.jobs - 1).min(n);
        let job = IndexedJob {
            task: &task,
            n,
            batch,
            cursor: AtomicUsize::new(0),
            results: Mutex::new(Vec::with_capacity(n)),
            worker_stats: Mutex::new(Vec::with_capacity(background + 1)),
        };
        self.pool.run_job(&job, background);
        let per_worker = job.results.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut workers = job
            .worker_stats
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        workers.sort_by_key(|w| w.worker);
        let mut slots: Vec<Option<Result<T>>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in per_worker.into_iter() {
            slots[i] = Some(r);
        }
        let out: Vec<Result<T>> = slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    // Tasks are unwind-guarded, so a worker can only die
                    // of something unrecoverable (e.g. stack overflow
                    // aborting past catch_unwind); its claimed indices
                    // surface here as uncovered, not panicked-through.
                    Err(Error::Internal(format!(
                        "worker thread died before reporting query {i}"
                    )))
                })
            })
            .collect();
        self.store_run_stats(invocation, workers);
        out
    }

    fn store_run_stats(&self, invocation: Instant, workers: Vec<WorkerRunStats>) {
        let stats = RunStats {
            wall_ns: invocation.elapsed().as_nanos() as u64,
            workers,
        };
        *self.pool.last_run.lock().unwrap_or_else(|e| e.into_inner()) = Some(stats);
    }
}

impl Default for ParallelRunner {
    /// A runner with one worker per available core.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Workload-level reduction of per-query outcomes: summed I/O counters,
/// summed simulated time, and the concatenated feedback report.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSummary {
    /// Number of queries reduced.
    pub queries: usize,
    /// Component-wise sum of every query's executor counters.
    pub total_stats: IoStats,
    /// Sum of simulated elapsed times.
    pub total_elapsed_ms: f64,
    /// All DPC measurements, in query order.
    pub report: FeedbackReport,
    /// Contention profile of the run that produced these outcomes
    /// (attach with [`WorkloadSummary::with_contention`]; `None` for
    /// summaries built without a runner).
    pub contention: Option<RunStats>,
}

impl WorkloadSummary {
    /// Reduces per-query outcomes into workload totals, borrowing (and
    /// cloning) every measurement.
    pub fn from_outcomes(outcomes: &[QueryOutcome]) -> Self {
        let mut summary = WorkloadSummary::default();
        for outcome in outcomes {
            summary.queries += 1;
            summary.total_stats.add(&outcome.stats);
            summary.total_elapsed_ms += outcome.elapsed_ms;
            summary
                .report
                .measurements
                .extend(outcome.report.measurements.iter().cloned());
        }
        summary
    }

    /// Owning reduction: measurements are *moved* out of the outcomes,
    /// so summarizing a workload allocates nothing per measurement —
    /// the bench driver's reduction path.
    pub fn from_owned(outcomes: Vec<QueryOutcome>) -> Self {
        let mut summary = WorkloadSummary::default();
        for outcome in outcomes {
            summary.queries += 1;
            summary.total_stats.add(&outcome.stats);
            summary.total_elapsed_ms += outcome.elapsed_ms;
            let mut measurements = outcome.report.measurements;
            summary.report.measurements.append(&mut measurements);
        }
        summary
    }

    /// Attaches a runner's contention profile (builder-style).
    pub fn with_contention(mut self, contention: Option<RunStats>) -> Self {
        self.contention = contention;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PredSpec;
    use pf_common::{Column, DataType, Datum, Row, Schema};
    use pf_exec::CompareOp;
    use std::time::Duration;

    /// Scratch-free [`ParallelRunner::run_indexed_quarantined_scratch`]
    /// for tasks that manage their own state.
    fn run_indexed_quarantined<T: Send>(
        runner: &ParallelRunner,
        n: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Vec<Result<T>> {
        runner.run_indexed_quarantined_scratch(n, |i, _scratch| task(i))
    }

    /// Runs `f` with the panic hook silenced (injected panics are the
    /// point, not noise). The hook is process-global, so callers are
    /// serialized.
    fn with_silent_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// Outcome of one seeded [`scheduler_fuzz`] sweep.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct FuzzReport {
        /// Fan-out rounds executed.
        rounds: u64,
        /// Total task slots verified across all rounds.
        tasks: u64,
        /// Tasks that panicked and were quarantined with their own index.
        panics: u64,
        /// Tasks that stalled (slept) before completing.
        stalls: u64,
        /// Fold of every slot's outcome in index order: equal digests
        /// mean bit-identical results, across runs and worker counts.
        digest: u64,
    }

    /// Deterministic scheduler fuzz over the worker pool.
    ///
    /// Drives a seeded sweep of fan-out rounds whose sizes are chosen to
    /// cover the pool's whole batch-size range `{1..64}` — including a
    /// maximum-batch round followed by a *shrinking* round with fewer
    /// tasks than workers, the interleaving class behind the historical
    /// `active`-underflow wedge — with a seeded mix of well-behaved,
    /// panicking, and stalling (sleeping) tasks. Every slot's outcome is
    /// verified against the pure function of `(seed, round, index)` that
    /// produced it: no lost job, no slot panicked-through, no wedge (the
    /// sweep returning at all proves the coordinator never deadlocked).
    /// The returned digest folds every outcome in index order, so two
    /// sweeps with the same seed — at *any* worker count — must return
    /// bit-identical reports.
    fn scheduler_fuzz(runner: &ParallelRunner, seed: u64) -> Result<FuzzReport> {
        // Round sizes are a function of the seed ONLY — never of the
        // worker count — so a sweep's report is jobs-invariant. The
        // pool picks batch = (n / (jobs·8)).clamp(1, 64); with `unit` =
        // 64, an 8-job runner sees batch = n/64 exactly, so sweeping
        // seeds at 8 jobs covers the full batch range {1..64}, while
        // other job counts exercise proportionally clamped batches of
        // the same task stream.
        let unit = 64;
        let mut sizes: Vec<usize> = (0..3u64)
            .map(|r| unit * (1 + (mix64(seed ^ r) % 64) as usize))
            .collect();
        sizes.push(unit * 64); // the largest batch the pool ever uses
        sizes.push(2); // shrink hard: stale workers now outnumber work
        let mut report = FuzzReport {
            rounds: 0,
            tasks: 0,
            panics: 0,
            stalls: 0,
            digest: mix64(seed),
        };
        for (round, &n) in sizes.iter().enumerate() {
            let round_seed = mix64(seed ^ ((round as u64) << 32));
            let results = with_silent_panics(|| {
                run_indexed_quarantined(runner, n, |i| {
                    let h = mix64(round_seed ^ (i as u64 + 1));
                    match h % 19 {
                        0 => panic!("chaos-injected panic"),
                        1 => {
                            // An injected stall: long enough to perturb
                            // batch completion order, short enough that
                            // the sweep stays fast.
                            std::thread::sleep(Duration::from_millis((h >> 8) & 1));
                            Ok(h)
                        }
                        _ => Ok(h),
                    }
                })
            });
            if results.len() != n {
                return Err(Error::Internal(format!(
                    "chaos round {round}: {} of {n} slots reported",
                    results.len()
                )));
            }
            report.rounds += 1;
            for (i, r) in results.into_iter().enumerate() {
                report.tasks += 1;
                let h = mix64(round_seed ^ (i as u64 + 1));
                let tag = match (h % 19, r) {
                    (0, Err(Error::WorkerPanicked { query_index })) if query_index == i => {
                        report.panics += 1;
                        mix64(h ^ 0x9A51C)
                    }
                    (k, Ok(v)) if k != 0 && v == h => {
                        if k == 1 {
                            report.stalls += 1;
                        }
                        v
                    }
                    (_, outcome) => {
                        return Err(Error::Internal(format!(
                            "chaos round {round} slot {i}: unexpected outcome {outcome:?}"
                        )));
                    }
                };
                report.digest = mix64(report.digest ^ tag);
            }
        }
        Ok(report)
    }

    fn demo_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("corr", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let n = 10_000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int(i),
                    Datum::Str("x".repeat(60)),
                ])
            })
            .collect();
        db.create_table("t", schema, rows, Some("id")).unwrap();
        db.create_index("ix_corr", "t", "corr").unwrap();
        db.analyze().unwrap();
        db
    }

    fn workload() -> Vec<Query> {
        (0..12)
            .map(|i| {
                Query::count(
                    "t",
                    vec![PredSpec::new(
                        "corr",
                        CompareOp::Lt,
                        Datum::Int(200 + 300 * i),
                    )],
                )
            })
            .collect()
    }

    #[test]
    fn parallel_run_matches_serial_in_order() {
        let db = demo_db();
        let queries = workload();
        let cfg = MonitorConfig::default();
        let serial = ParallelRunner::new(1)
            .run_queries(&db, &queries, &cfg)
            .unwrap();
        let parallel = ParallelRunner::new(4)
            .run_queries(&db, &queries, &cfg)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.count, p.count);
            assert_eq!(s.stats, p.stats);
            assert_eq!(s.description, p.description);
            assert_eq!(s.report, p.report);
        }
    }

    #[test]
    fn summary_sums_io_stats() {
        let db = demo_db();
        let queries = workload();
        let cfg = MonitorConfig::off();
        let outcomes = ParallelRunner::new(2)
            .run_queries(&db, &queries, &cfg)
            .unwrap();
        let summary = WorkloadSummary::from_outcomes(&outcomes);
        assert_eq!(summary.queries, queries.len());
        let logical: u64 = outcomes.iter().map(|o| o.stats.logical_reads).sum();
        assert_eq!(summary.total_stats.logical_reads, logical);
        assert!(summary.total_elapsed_ms > 0.0);
        assert!(summary.contention.is_none());
        // The owning reduction is identical.
        let owned = WorkloadSummary::from_owned(outcomes);
        assert_eq!(owned.queries, summary.queries);
        assert_eq!(owned.total_stats, summary.total_stats);
        assert_eq!(owned.report, summary.report);
    }

    #[test]
    fn error_is_deterministic_and_in_query_order() {
        let db = demo_db();
        let mut queries = workload();
        queries[5] = Query::count("missing", vec![]);
        queries[9] = Query::count("also_missing", vec![]);
        let cfg = MonitorConfig::off();
        let err = ParallelRunner::new(4)
            .run_queries(&db, &queries, &cfg)
            .unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn quarantine_isolates_failing_queries() {
        let db = demo_db();
        let mut queries = workload();
        queries[5] = Query::count("missing", vec![]);
        let cfg = MonitorConfig::off();
        let results = ParallelRunner::new(4).run_queries_quarantined(&db, &queries, &cfg);
        assert_eq!(results.len(), queries.len());
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                assert!(r.is_err(), "query 5 must be quarantined");
            } else {
                assert!(r.is_ok(), "query {i} must survive query 5's failure");
            }
        }
    }

    #[test]
    fn panicking_task_is_quarantined_with_its_index() {
        let results = with_silent_panics(|| {
            run_indexed_quarantined(&ParallelRunner::new(4), 8, |i| {
                if i == 3 {
                    panic!("boom")
                } else {
                    Ok(i)
                }
            })
        });
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(v, i),
                Err(Error::WorkerPanicked { query_index }) => assert_eq!(query_index, 3),
                Err(e) => panic!("unexpected error for {i}: {e}"),
            }
        }
    }

    #[test]
    fn pool_is_reused_across_runs_and_clones() {
        let db = demo_db();
        let queries = workload();
        let cfg = MonitorConfig::off();
        let runner = ParallelRunner::new(3);
        let first = runner.run_queries(&db, &queries, &cfg).unwrap();
        // Second run (via a clone, as the CLI does) reuses the pool and
        // its scratch and must be bit-identical.
        let again = runner.clone().run_queries(&db, &queries, &cfg).unwrap();
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.count, b.count);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.elapsed_ms, b.elapsed_ms);
        }
        let stats = runner.last_run_stats().expect("run recorded stats");
        assert_eq!(stats.tasks() as usize, queries.len());
        assert!(stats.wall_ns > 0);
        assert!(stats.busy_ns() > 0);
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
    }

    #[test]
    fn scheduler_fuzz_is_seed_deterministic_and_jobs_invariant() {
        let a = scheduler_fuzz(&ParallelRunner::new(4), 7).unwrap();
        let b = scheduler_fuzz(&ParallelRunner::new(4), 7).unwrap();
        assert_eq!(a, b, "same seed, same jobs: bit-identical report");
        let serial = scheduler_fuzz(&ParallelRunner::new(1), 7).unwrap();
        assert_eq!(a, serial, "the report is a function of the seed only");
        assert!(a.tasks > 0 && a.rounds >= 5);
        assert!(a.panics > 0, "the panic lane must actually fire: {a:?}");
        let other = scheduler_fuzz(&ParallelRunner::new(4), 8).unwrap();
        assert_ne!(
            a.digest, other.digest,
            "different seeds explore differently"
        );
    }

    /// Ten seeds of the scheduler fuzzer (shrinking/growing batches,
    /// panicking jobs, injected stalls) run without a panic escaping, a
    /// wedge, or a lost job — and each seed's report is bit-identical on
    /// a repeat run over the same (aged) pool. This sweeps the
    /// `active`-underflow wedge class (stale workers from a drained
    /// generation racing fresh wakeups) adversarially instead of by a
    /// single hand-picked schedule.
    #[test]
    fn scheduler_fuzz_ten_seeds_no_wedge_no_loss() {
        let runner = ParallelRunner::new(4);
        for seed in 1..=10 {
            let a = scheduler_fuzz(&runner, seed).unwrap();
            let b = scheduler_fuzz(&runner, seed).unwrap();
            assert_eq!(a, b, "seed {seed}: same seed, same pool → same report");
            assert!(a.tasks > 0 && a.rounds >= 5, "seed {seed}: {a:?}");
            assert!(a.panics > 0, "seed {seed}: the panic lane must fire");
            assert!(a.stalls > 0, "seed {seed}: the stall lane must fire");
        }
    }

    /// The fuzz report is a pure function of the seed — round sizes and
    /// per-task behavior never depend on the worker count — so runs at
    /// 1, 2, and 8 jobs must agree bit for bit. (At 8 jobs the batch
    /// size is exactly `n/64`, so the seed sweep covers the batch range
    /// {1..64}.)
    #[test]
    fn scheduler_fuzz_digest_is_jobs_invariant() {
        for seed in [1u64, 2] {
            let r1 = scheduler_fuzz(&ParallelRunner::new(1), seed).unwrap();
            let r2 = scheduler_fuzz(&ParallelRunner::new(2), seed).unwrap();
            let r8 = scheduler_fuzz(&ParallelRunner::new(8), seed).unwrap();
            assert_eq!(r1, r2, "seed {seed}");
            assert_eq!(r1, r8, "seed {seed}");
        }
    }

    #[test]
    fn new_clamps_jobs_to_at_least_one() {
        assert_eq!(ParallelRunner::new(0).jobs(), 1);
        assert!(ParallelRunner::default().jobs() >= 1);
    }
}
