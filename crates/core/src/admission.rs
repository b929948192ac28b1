//! System-wide overload protection: admission control, per-query
//! memory reservations, and the admitted-workload driver.
//!
//! A per-query monitor memory budget ([`MonitorConfig::memory_budget`])
//! bounds one query's instrumentation and a query deadline
//! ([`MonitorConfig::deadline_ms`]) bounds one query's lifetime, but
//! neither protects the *system*: an arrival storm can
//! queue without bound and exhaust monitor memory across queries. This
//! module adds the missing layer:
//!
//! * [`AdmissionController`] — a deterministic token bucket plus
//!   concurrency gate with two priority classes (interactive ahead of
//!   batch) and a bounded admission queue. Arrivals that find the
//!   queue full are shed with [`Error::Overloaded`], carrying a
//!   simulated-clock `retry_after_ms` hint.
//! * [`MemoryBudget`] — a global byte budget queries reserve against
//!   at admission, using the plan-shape-derived estimate from
//!   [`Database::estimate_monitor_bytes`]. Over-budget queries degrade
//!   in the fixed [`DegradeStep`] ladder: full monitoring, then
//!   budgeted monitors (reusing the per-query shed recipes), then an
//!   unmonitored plan, then shedding.
//! * [`run_admitted_workload`] — a discrete-event driver on the
//!   simulated clock: arrivals, admissions, completions, deadlines,
//!   cancellations, and breaker probes all happen at simulated
//!   instants, and each admitted query's duration is its own
//!   deterministic simulated `elapsed_ms`. Every decision is therefore
//!   a pure function of `(workload, configuration, database)` — the
//!   admit/shed/breaker traces are byte-identical across repeat runs
//!   and across worker counts (intra-query morsel parallelism changes
//!   wall-clock time, never simulated time).

use crate::db::{Database, QueryOutcome};
use crate::parallel::ParallelRunner;
use crate::planner::MonitorConfig;
use crate::query::Query;
use pf_common::{Error, Result};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Baseline bytes every running query reserves for executor scratch
/// (contexts, cursors, partial aggregates), independent of monitoring.
pub const BASE_QUERY_BYTES: usize = 64 << 10;

/// Smallest monitor budget worth degrading to: below this, budgeted
/// monitoring would shed everything anyway, so the ladder skips
/// straight to an unmonitored plan.
pub const MIN_MONITOR_BYTES: usize = 64;

/// Admission priority class of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive; queued ahead of batch work.
    Interactive = 0,
    /// Throughput work; yields queue position to interactive arrivals.
    Batch = 1,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        })
    }
}

/// Token-bucket and gate parameters.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queries allowed to execute at once.
    pub max_concurrent: usize,
    /// Queued queries beyond which arrivals are shed.
    pub queue_capacity: usize,
    /// Token refill rate, queries per simulated second.
    /// `f64::INFINITY` disables rate limiting (the bucket stays full).
    pub tokens_per_sec: f64,
    /// Bucket capacity: the largest arrival burst admitted at once.
    pub burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: 4,
            queue_capacity: 8,
            tokens_per_sec: 1000.0,
            burst: 8.0,
        }
    }
}

impl AdmissionConfig {
    fn sanitized(mut self) -> Self {
        self.max_concurrent = self.max_concurrent.max(1);
        if self.tokens_per_sec.is_nan() || self.tokens_per_sec <= 0.0 {
            self.tokens_per_sec = 1e-6;
        }
        if self.burst.is_nan() || self.burst < 1.0 {
            self.burst = 1.0;
        }
        self
    }
}

/// The controller's verdict on one arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admitted immediately: a slot and a token were available.
    Admit,
    /// Parked in the bounded admission queue at this depth (1-based).
    Queued {
        /// Queue depth after insertion.
        depth: usize,
    },
    /// Shed: the queue is full. Retry after the hinted simulated delay.
    Shed {
        /// Simulated milliseconds after which a retry could be admitted.
        retry_after_ms: u64,
    },
}

/// A queue entry: who is waiting, and since when.
#[derive(Debug, Clone)]
struct QueuedQuery {
    id: u64,
    class: Priority,
    enqueued_ms: f64,
}

/// An admission granted from the queue by [`AdmissionController::drain`].
#[derive(Debug, Clone)]
pub struct DrainedAdmission {
    /// The queued query's id (its workload index, for the driver).
    pub id: u64,
    /// Its priority class.
    pub class: Priority,
    /// Simulated milliseconds it waited in the queue.
    pub waited_ms: f64,
}

/// Counters the controller accumulates; all deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionStats {
    /// Arrivals seen.
    pub submitted: u64,
    /// Queries admitted (immediately or from the queue).
    pub admitted: u64,
    /// Arrivals that had to queue first.
    pub queued: u64,
    /// Arrivals shed at the gate (queue full).
    pub shed_admission: u64,
    /// Admitted queries shed by the memory ladder (driver-recorded).
    pub shed_memory: u64,
    /// Deepest the queue ever got.
    pub max_queue_depth: usize,
    /// Most queries ever running at once.
    pub max_running: usize,
    /// Simulated queue wait of every admitted-from-queue query, in
    /// admission order (immediate admissions contribute 0).
    pub queue_wait_ms: Vec<f64>,
}

impl AdmissionStats {
    /// Total shed queries (gate + memory ladder).
    pub fn shed(&self) -> u64 {
        self.shed_admission + self.shed_memory
    }

    /// The p99 simulated queue wait in ms (0 when nothing waited).
    pub fn p99_queue_wait_ms(&self) -> f64 {
        if self.queue_wait_ms.is_empty() {
            return 0.0;
        }
        let mut waits = self.queue_wait_ms.clone();
        waits.sort_by(|a, b| a.total_cmp(b));
        let rank = ((waits.len() as f64) * 0.99).ceil() as usize;
        waits[rank.saturating_sub(1).min(waits.len() - 1)]
    }
}

/// Deterministic token-bucket + concurrency admission gate.
///
/// All times are simulated milliseconds supplied by the caller; the
/// controller holds no real clock, so identical call sequences produce
/// identical decisions everywhere.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    tokens: f64,
    last_refill_ms: f64,
    running: usize,
    queue: VecDeque<QueuedQuery>,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller with a full bucket at simulated time 0.
    pub fn new(cfg: AdmissionConfig) -> Self {
        let cfg = cfg.sanitized();
        AdmissionController {
            tokens: cfg.burst,
            last_refill_ms: 0.0,
            running: 0,
            queue: VecDeque::new(),
            stats: AdmissionStats::default(),
            cfg,
        }
    }

    fn refill(&mut self, now_ms: f64) {
        if now_ms > self.last_refill_ms {
            let gained = (now_ms - self.last_refill_ms) / 1000.0 * self.cfg.tokens_per_sec;
            self.tokens = (self.tokens + gained).min(self.cfg.burst);
            self.last_refill_ms = now_ms;
        }
    }

    fn refilled_tokens(&self, now_ms: f64) -> f64 {
        if now_ms <= self.last_refill_ms {
            return self.tokens;
        }
        let gained = (now_ms - self.last_refill_ms) / 1000.0 * self.cfg.tokens_per_sec;
        (self.tokens + gained).min(self.cfg.burst)
    }

    fn can_admit(&self) -> bool {
        self.running < self.cfg.max_concurrent && self.tokens >= 1.0
    }

    fn take_slot(&mut self) {
        self.tokens -= 1.0;
        self.running += 1;
        self.stats.admitted += 1;
        self.stats.max_running = self.stats.max_running.max(self.running);
    }

    /// Submits query `id` of `class` at `now_ms` and decides its fate.
    /// Admission requires an execution slot *and* a token *and* an
    /// empty queue (queued work is never overtaken by a same-or-lower
    /// priority arrival; interactive arrivals overtake queued batch
    /// work by queue position, not by jumping the gate).
    pub fn request(&mut self, id: u64, class: Priority, now_ms: f64) -> AdmitDecision {
        self.refill(now_ms);
        self.stats.submitted += 1;
        let blocked_by_queue = self.queue.iter().any(|q| q.class <= class);
        if !blocked_by_queue && self.can_admit() {
            self.take_slot();
            self.stats.queue_wait_ms.push(0.0);
            return AdmitDecision::Admit;
        }
        if self.queue.len() < self.cfg.queue_capacity {
            // Interactive arrivals park ahead of every queued batch
            // query but behind earlier interactive ones (FIFO within a
            // class).
            let pos = self
                .queue
                .iter()
                .position(|q| q.class > class)
                .unwrap_or(self.queue.len());
            self.queue.insert(
                pos,
                QueuedQuery {
                    id,
                    class,
                    enqueued_ms: now_ms,
                },
            );
            self.stats.queued += 1;
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
            return AdmitDecision::Queued {
                depth: self.queue.len(),
            };
        }
        self.stats.shed_admission += 1;
        AdmitDecision::Shed {
            retry_after_ms: self.retry_after_ms(),
        }
    }

    /// Deterministic retry hint: simulated ms until enough tokens exist
    /// to drain the current queue plus one more query. At least 1.
    fn retry_after_ms(&self) -> u64 {
        let deficit = (self.queue.len() as f64 + 1.0 - self.tokens).max(0.0);
        let ms = deficit / self.cfg.tokens_per_sec * 1000.0;
        (ms.ceil() as u64).max(1)
    }

    /// Releases an execution slot at `now_ms` (a query completed, was
    /// aborted, or was shed by the memory ladder after admission).
    pub fn on_complete(&mut self, now_ms: f64) {
        self.refill(now_ms);
        self.running = self.running.saturating_sub(1);
    }

    /// Admits queued queries while slots and tokens allow, returning
    /// them in admission order with their simulated waits.
    pub fn drain(&mut self, now_ms: f64) -> Vec<DrainedAdmission> {
        self.refill(now_ms);
        let mut admitted = Vec::new();
        while self.can_admit() {
            let Some(front) = self.queue.pop_front() else {
                break;
            };
            self.take_slot();
            let waited_ms = (now_ms - front.enqueued_ms).max(0.0);
            self.stats.queue_wait_ms.push(waited_ms);
            admitted.push(DrainedAdmission {
                id: front.id,
                class: front.class,
                waited_ms,
            });
        }
        admitted
    }

    /// The earliest simulated instant at which a queued query could be
    /// admitted by token refill alone — the driver's wakeup hint: a
    /// [`AdmissionController::drain`] at that instant finds a whole
    /// token. `None` when nothing is queued or no execution slot is free
    /// (a completion, not time, unblocks those cases).
    pub fn next_admit_opportunity_ms(&self, now_ms: f64) -> Option<f64> {
        if self.queue.is_empty() || self.running >= self.cfg.max_concurrent {
            return None;
        }
        let tokens = self.refilled_tokens(now_ms);
        if tokens >= 1.0 {
            return Some(now_ms);
        }
        let from = now_ms.max(self.last_refill_ms);
        let mut at = from + (1.0 - tokens) / self.cfg.tokens_per_sec * 1000.0;
        // Rounding can leave the refill at `at` a hair under one token;
        // step to the first representable instant at which it is whole.
        while self.refilled_tokens(at) < 1.0 {
            at = at.next_up();
        }
        Some(at)
    }

    /// Queries currently executing.
    pub fn running(&self) -> usize {
        self.running
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// Records a memory-ladder shed (driver bookkeeping).
    pub fn note_memory_shed(&mut self) {
        self.stats.shed_memory += 1;
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Clears every counter (the CLI's `.faults off` / `.admit reset`
    /// path) without touching the bucket, queue, or running set.
    pub fn reset_stats(&mut self) {
        self.stats = AdmissionStats::default();
    }
}

// ---------------------------------------------------------------------
// Memory reservations and the degradation ladder.
// ---------------------------------------------------------------------

/// A global byte budget queries reserve monitor + scratch memory
/// against at admission. Purely arithmetic — no allocation happens
/// here — so reservation decisions are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBudget {
    capacity: usize,
    reserved: usize,
    peak_reserved: usize,
    /// Bytes estimates exceeded actuals by, summed over reconciliations.
    over_estimated: u64,
    /// Bytes actuals exceeded estimates by, summed over reconciliations.
    under_estimated: u64,
}

impl MemoryBudget {
    /// A budget of `capacity` bytes, nothing reserved.
    pub fn new(capacity: usize) -> Self {
        MemoryBudget {
            capacity,
            reserved: 0,
            peak_reserved: 0,
            over_estimated: 0,
            under_estimated: 0,
        }
    }

    /// Reserves `bytes` if they fit; records the new peak.
    pub fn try_reserve(&mut self, bytes: usize) -> bool {
        if bytes > self.free() {
            return false;
        }
        self.reserved += bytes;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        true
    }

    /// Releases `bytes` of reservation.
    pub fn release(&mut self, bytes: usize) {
        self.reserved = self.reserved.saturating_sub(bytes);
    }

    /// Releases a completed query's reservation, recording how far the
    /// admission estimate missed what the run actually held.
    pub fn reconcile(&mut self, reserved: usize, actual: usize) {
        self.release(reserved);
        if reserved >= actual {
            self.over_estimated += (reserved - actual) as u64;
        } else {
            self.under_estimated += (actual - reserved) as u64;
        }
    }

    /// Unreserved bytes.
    pub fn free(&self) -> usize {
        self.capacity - self.reserved
    }

    /// Currently reserved bytes.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// The high-water reservation mark.
    pub fn peak_reserved(&self) -> usize {
        self.peak_reserved
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total bytes by which estimates exceeded actuals.
    pub fn over_estimated(&self) -> u64 {
        self.over_estimated
    }

    /// Total bytes by which actuals exceeded estimates.
    pub fn under_estimated(&self) -> u64 {
        self.under_estimated
    }
}

/// The fixed degradation ladder, least degraded first. A query only
/// ever moves *down* this ladder as free memory shrinks — never down
/// then back up within one decision — so the degraded plans of any
/// workload are always a prefix-ordered walk of these rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeStep {
    /// Full monitoring as configured.
    Full = 0,
    /// Monitors under a per-query byte budget
    /// ([`MonitorConfig::memory_budget`]: the shed order of
    /// [`pf_exec::ShedClass`] decides at lowering which survive).
    BudgetedMonitors = 1,
    /// An unmonitored plan: same answer, no feedback harvested.
    Unmonitored = 2,
    /// Shed with [`Error::Overloaded`]; the query never runs.
    Shed = 3,
}

impl fmt::Display for DegradeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeStep::Full => "full",
            DegradeStep::BudgetedMonitors => "budgeted",
            DegradeStep::Unmonitored => "unmonitored",
            DegradeStep::Shed => "shed",
        })
    }
}

/// Decides how a query whose full-monitoring estimate is `estimate`
/// bytes runs when `free` bytes remain: returns the ladder rung and
/// the bytes to reserve for it. Pure, so exhaustively testable: for a
/// fixed estimate the rung is monotone in `free`, and walking `free`
/// downward visits the rungs in declaration order.
pub fn degrade_step(free: usize, estimate: usize) -> (DegradeStep, usize) {
    let full = BASE_QUERY_BYTES.saturating_add(estimate);
    if estimate > 0 && free >= full {
        return (DegradeStep::Full, full);
    }
    if estimate == 0 {
        // Monitoring is off in the config: "full" is just the scratch
        // baseline and the monitor rungs collapse.
        return if free >= BASE_QUERY_BYTES {
            (DegradeStep::Full, BASE_QUERY_BYTES)
        } else {
            (DegradeStep::Shed, 0)
        };
    }
    if free >= BASE_QUERY_BYTES + MIN_MONITOR_BYTES {
        // Reserve everything that fits (capped by the full estimate);
        // lowering sheds whatever exceeds the monitor share.
        return (DegradeStep::BudgetedMonitors, free.min(full));
    }
    if free >= BASE_QUERY_BYTES {
        return (DegradeStep::Unmonitored, BASE_QUERY_BYTES);
    }
    (DegradeStep::Shed, 0)
}

// ---------------------------------------------------------------------
// The admitted-workload driver.
// ---------------------------------------------------------------------

/// One query of an admitted workload.
#[derive(Debug, Clone)]
pub struct AdmittedJob {
    /// The query to run.
    pub query: Query,
    /// Its priority class.
    pub class: Priority,
    /// Simulated arrival instant, in ms.
    pub arrival_ms: f64,
    /// Optional deadline relative to *admission*, in simulated ms.
    pub deadline_ms: Option<u64>,
    /// Optional absolute simulated instant at which the query is
    /// cancelled if still queued or running.
    pub cancel_at_ms: Option<f64>,
}

impl AdmittedJob {
    /// A plain batch job arriving at `arrival_ms` with no constraints.
    pub fn batch(query: Query, arrival_ms: f64) -> Self {
        AdmittedJob {
            query,
            class: Priority::Batch,
            arrival_ms,
            deadline_ms: None,
            cancel_at_ms: None,
        }
    }

    /// An interactive job arriving at `arrival_ms`.
    pub fn interactive(query: Query, arrival_ms: f64) -> Self {
        AdmittedJob {
            class: Priority::Interactive,
            ..Self::batch(query, arrival_ms)
        }
    }
}

/// What happened to one admitted-workload job.
#[derive(Debug)]
pub struct JobRecord {
    /// The query's outcome, or why it did not complete.
    pub result: Result<QueryOutcome>,
    /// The ladder rung it ran at (`None` when never admitted).
    pub step: Option<DegradeStep>,
    /// Simulated instant it was admitted (`None` when shed at the gate).
    pub admitted_ms: Option<f64>,
    /// Simulated instant its slot was released (shed: decision time).
    pub completed_ms: f64,
    /// Simulated ms spent in the admission queue.
    pub queue_wait_ms: f64,
}

/// Everything one [`run_admitted_workload`] invocation produced.
#[derive(Debug)]
pub struct AdmittedRunReport {
    /// Per-job records, index-aligned with the submitted workload.
    pub records: Vec<JobRecord>,
    /// The admit/queue/shed/start/finish trace, one line per event, in
    /// simulated-time order — byte-identical across repeat runs and
    /// worker counts.
    pub trace: Vec<String>,
    /// The controller's counters.
    pub stats: AdmissionStats,
    /// The final memory-budget state (peak, reconciliation totals).
    pub budget: MemoryBudget,
    /// Reports absorbed into the in-memory hint set.
    pub absorbed_reports: u64,
    /// Reports also made durable in the feedback store.
    pub durable_reports: u64,
    /// Reports lost entirely (store failed with no breaker attached).
    pub lost_reports: u64,
    /// Feedback circuit-breaker trips during the run (0 without a
    /// breaker).
    pub breaker_trips: u64,
    /// The breaker's transition trace (empty without a breaker).
    pub breaker_trace: Vec<String>,
}

impl AdmittedRunReport {
    /// Fraction of submitted queries shed (gate + memory ladder).
    pub fn shed_rate(&self) -> f64 {
        if self.stats.submitted == 0 {
            return 0.0;
        }
        self.stats.shed() as f64 / self.stats.submitted as f64
    }
}

/// Simulated time in integer microseconds — the driver's event-queue
/// key. Integer keys make event ordering total and platform-exact.
type SimUs = u64;

fn to_us(ms: f64) -> SimUs {
    (ms * 1000.0).round().max(0.0) as SimUs
}

fn us_to_ms(us: SimUs) -> f64 {
    us as f64 / 1000.0
}

fn fmt_t(us: SimUs) -> String {
    format!("{}.{:03}", us / 1000, us % 1000)
}

/// A completion event: the instant a previously admitted query
/// releases its slot, with everything needed to settle it.
struct PendingCompletion {
    idx: usize,
    reservation: usize,
    step: DegradeStep,
    admitted_us: SimUs,
    queue_wait_ms: f64,
    result: Result<QueryOutcome>,
}

/// Runs `jobs` through admission control on the simulated clock.
///
/// The driver is a serial discrete-event loop: at each simulated
/// instant it settles completions (freeing slots, reservations, and
/// absorbing feedback through the breaker), drains the admission
/// queue, then processes arrivals. An admitted query executes *at its
/// admission instant* via [`ParallelRunner::run_query`] (morsel
/// parallelism inside one query; byte-identical to a serial run), with
/// its deadline or cancellation instant as the config's query deadline;
/// its simulated `elapsed_ms` schedules the completion event. Shed
/// queries never execute at all.
///
/// Determinism: every decision reads only simulated time, the
/// controller/budget state, and deterministic per-query outcomes, so
/// the returned trace is byte-identical across repeat runs and across
/// `runner` worker counts.
pub fn run_admitted_workload(
    db: &mut Database,
    runner: &ParallelRunner,
    jobs: &[AdmittedJob],
    cfg: &MonitorConfig,
    admission: AdmissionConfig,
    mut budget: MemoryBudget,
) -> AdmittedRunReport {
    let mut controller = AdmissionController::new(admission);
    let mut records: Vec<Option<JobRecord>> = (0..jobs.len()).map(|_| None).collect();
    let mut trace: Vec<String> = Vec::new();
    let mut completions: BTreeMap<(SimUs, u64), PendingCompletion> = BTreeMap::new();
    let mut seq = 0u64;
    let mut absorbed_reports = 0u64;
    let mut durable_reports = 0u64;
    let mut lost_reports = 0u64;

    let mut arrivals: Vec<(SimUs, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (to_us(j.arrival_ms), i))
        .collect();
    arrivals.sort();
    let mut next_arrival = 0usize;

    // Admits job `idx` right now: walks the memory ladder, executes or
    // sheds, and either schedules a completion event or frees the slot
    // immediately. Returns whether the slot was freed synchronously
    // (the caller then re-drains the queue).
    let admit_and_run = |idx: usize,
                         now_us: SimUs,
                         queue_wait_ms: f64,
                         db: &mut Database,
                         controller: &mut AdmissionController,
                         budget: &mut MemoryBudget,
                         completions: &mut BTreeMap<(SimUs, u64), PendingCompletion>,
                         seq: &mut u64,
                         trace: &mut Vec<String>,
                         records: &mut Vec<Option<JobRecord>>|
     -> bool {
        let job = &jobs[idx];
        let now_ms = us_to_ms(now_us);

        // Cancelled while queued: the slot frees immediately.
        if job.cancel_at_ms.is_some_and(|c| to_us(c) <= now_us) {
            trace.push(format!("t={} q{idx} cancelled before start", fmt_t(now_us)));
            records[idx] = Some(JobRecord {
                result: Err(Error::Cancelled),
                step: None,
                admitted_ms: Some(now_ms),
                completed_ms: now_ms,
                queue_wait_ms,
            });
            controller.on_complete(now_ms);
            return true;
        }

        let cfg_i = ParallelRunner::cfg_for(cfg, idx);
        let estimate = match db.estimate_monitor_bytes(&job.query, &cfg_i) {
            Ok(b) => b,
            Err(e) => {
                // A query that cannot even be planned fails cleanly
                // without wedging the workload.
                trace.push(format!("t={} q{idx} failed planning", fmt_t(now_us)));
                records[idx] = Some(JobRecord {
                    result: Err(e),
                    step: None,
                    admitted_ms: Some(now_ms),
                    completed_ms: now_ms,
                    queue_wait_ms,
                });
                controller.on_complete(now_ms);
                return true;
            }
        };

        let (step, reservation) = degrade_step(budget.free(), estimate);
        if step == DegradeStep::Shed {
            let retry_after_ms = completions
                .keys()
                .next()
                .map(|(t, _)| (t.saturating_sub(now_us)).div_ceil(1000).max(1))
                .unwrap_or(1);
            trace.push(format!(
                "t={} q{idx} memshed retry={retry_after_ms}",
                fmt_t(now_us)
            ));
            controller.note_memory_shed();
            records[idx] = Some(JobRecord {
                result: Err(Error::Overloaded { retry_after_ms }),
                step: Some(DegradeStep::Shed),
                admitted_ms: Some(now_ms),
                completed_ms: now_ms,
                queue_wait_ms,
            });
            controller.on_complete(now_ms);
            return true;
        }
        let reserved = budget.try_reserve(reservation);
        debug_assert!(reserved, "degrade_step returned an unreservable rung");

        let run_cfg = match step {
            DegradeStep::Full => cfg_i.clone(),
            DegradeStep::BudgetedMonitors => MonitorConfig {
                memory_budget: Some(reservation.saturating_sub(BASE_QUERY_BYTES)),
                ..cfg_i.clone()
            },
            DegradeStep::Unmonitored => MonitorConfig::off(),
            DegradeStep::Shed => unreachable!("shed handled above"),
        };
        trace.push(format!(
            "t={} q{idx} start {step} est={estimate} reserve={reservation}",
            fmt_t(now_us)
        ));

        // Effective interrupt budget: the job's own deadline and/or its
        // absolute cancellation instant, whichever bites first.
        let deadline_rel = job.deadline_ms;
        let cancel_rel = job
            .cancel_at_ms
            .map(|c| (to_us(c).saturating_sub(now_us)) / 1000);
        let eff = match (deadline_rel, cancel_rel) {
            (Some(d), Some(c)) => Some(d.min(c)),
            (Some(d), None) => Some(d),
            (None, Some(c)) => Some(c),
            (None, None) => None,
        };
        let cancel_bites =
            matches!((deadline_rel, cancel_rel), (d, Some(c)) if d.is_none_or(|d| c < d));

        let run_cfg = MonitorConfig {
            deadline_ms: eff,
            ..run_cfg
        };
        let result = runner
            .run_query(db, &job.query, &run_cfg)
            .map_err(|e| match e {
                Error::DeadlineExceeded { .. } if cancel_bites => Error::Cancelled,
                other => other,
            });
        let done_us = match &result {
            Ok(outcome) => now_us + to_us(outcome.elapsed_ms),
            Err(e) if e.is_abort() => now_us + eff.unwrap_or(0) * 1000,
            Err(_) => now_us,
        };
        completions.insert(
            (done_us, *seq),
            PendingCompletion {
                idx,
                reservation,
                step,
                admitted_us: now_us,
                queue_wait_ms,
                result,
            },
        );
        *seq += 1;
        false
    };

    macro_rules! admit {
        ($idx:expr, $now:expr, $wait:expr) => {
            admit_and_run(
                $idx,
                $now,
                $wait,
                db,
                &mut controller,
                &mut budget,
                &mut completions,
                &mut seq,
                &mut trace,
                &mut records,
            )
        };
    }

    macro_rules! drain_queue {
        ($now:expr) => {
            loop {
                let drained = controller.drain(us_to_ms($now));
                if drained.is_empty() {
                    break;
                }
                for adm in drained {
                    let idx = adm.id as usize;
                    trace.push(format!(
                        "t={} q{idx} {} admit wait={:.3}",
                        fmt_t($now),
                        adm.class,
                        adm.waited_ms
                    ));
                    admit!(idx, $now, adm.waited_ms);
                }
            }
        };
    }

    let mut now_us: SimUs = 0;
    loop {
        let na = (next_arrival < arrivals.len()).then(|| arrivals[next_arrival].0);
        let nc = completions.keys().next().map(|(t, _)| *t);
        let nt = controller
            .next_admit_opportunity_ms(us_to_ms(now_us))
            .map(|ms| to_us(ms).max(now_us + 1));
        let Some(t) = [na, nc, nt].into_iter().flatten().min() else {
            break;
        };
        now_us = t;

        // 1. Settle completions due now (each may unblock the queue).
        while let Some(entry) = completions.first_entry() {
            if entry.key().0 > now_us {
                break;
            }
            let done = entry.remove();
            let idx = done.idx;
            let now_ms = us_to_ms(now_us);
            match &done.result {
                Ok(outcome) => {
                    budget.reconcile(
                        done.reservation,
                        BASE_QUERY_BYTES.saturating_add(outcome.monitor_bytes),
                    );
                    trace.push(format!(
                        "t={} q{idx} done count={} mon={}",
                        fmt_t(now_us),
                        outcome.count,
                        outcome.monitor_bytes
                    ));
                    if !outcome.report.measurements.is_empty() {
                        match db.absorb_feedback_at(&outcome.report, now_us / 1000) {
                            Ok(true) => {
                                absorbed_reports += 1;
                                durable_reports += 1;
                            }
                            Ok(false) => absorbed_reports += 1,
                            Err(_) => lost_reports += 1,
                        }
                    }
                }
                Err(e) => {
                    budget.release(done.reservation);
                    let tag = match e {
                        Error::Cancelled => "cancelled".to_string(),
                        Error::DeadlineExceeded { deadline_ms } => {
                            format!("deadline={deadline_ms}")
                        }
                        other => format!("failed {other}"),
                    };
                    trace.push(format!("t={} q{idx} {tag}", fmt_t(now_us)));
                }
            }
            records[idx] = Some(JobRecord {
                result: done.result,
                step: Some(done.step),
                admitted_ms: Some(us_to_ms(done.admitted_us)),
                completed_ms: now_ms,
                queue_wait_ms: done.queue_wait_ms,
            });
            controller.on_complete(now_ms);
            drain_queue!(now_us);
        }

        // 2. Token refills alone may unblock the queue.
        drain_queue!(now_us);

        // 3. Arrivals due now.
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now_us {
            let idx = arrivals[next_arrival].1;
            next_arrival += 1;
            let job = &jobs[idx];
            match controller.request(idx as u64, job.class, us_to_ms(now_us)) {
                AdmitDecision::Admit => {
                    trace.push(format!(
                        "t={} q{idx} {} admit wait=0.000",
                        fmt_t(now_us),
                        job.class
                    ));
                    admit!(idx, now_us, 0.0);
                    drain_queue!(now_us);
                }
                AdmitDecision::Queued { depth } => {
                    trace.push(format!(
                        "t={} q{idx} {} queued depth={depth}",
                        fmt_t(now_us),
                        job.class
                    ));
                }
                AdmitDecision::Shed { retry_after_ms } => {
                    trace.push(format!(
                        "t={} q{idx} {} shed retry={retry_after_ms}",
                        fmt_t(now_us),
                        job.class
                    ));
                    records[idx] = Some(JobRecord {
                        result: Err(Error::Overloaded { retry_after_ms }),
                        step: None,
                        admitted_ms: None,
                        completed_ms: us_to_ms(now_us),
                        queue_wait_ms: 0.0,
                    });
                }
            }
        }
    }

    let stats = controller.stats().clone();
    let breaker_trace = db.breaker().map(|b| b.trace_lines()).unwrap_or_default();
    let breaker_trips = db.breaker().map(|b| b.trips()).unwrap_or(0);
    AdmittedRunReport {
        records: records
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or(JobRecord {
                    result: Err(Error::Internal(format!("job {i} never settled"))),
                    step: None,
                    admitted_ms: None,
                    completed_ms: 0.0,
                    queue_wait_ms: 0.0,
                })
            })
            .collect(),
        trace,
        stats,
        budget,
        absorbed_reports,
        durable_reports,
        lost_reports,
        breaker_trips,
        breaker_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(max_concurrent: usize, queue: usize, rate: f64, burst: f64) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_concurrent,
            queue_capacity: queue,
            tokens_per_sec: rate,
            burst,
        })
    }

    #[test]
    fn admits_until_gate_then_queues_then_sheds() {
        let mut c = ctrl(2, 2, f64::INFINITY, 8.0);
        assert_eq!(c.request(0, Priority::Batch, 0.0), AdmitDecision::Admit);
        assert_eq!(c.request(1, Priority::Batch, 0.0), AdmitDecision::Admit);
        assert_eq!(
            c.request(2, Priority::Batch, 0.0),
            AdmitDecision::Queued { depth: 1 }
        );
        assert_eq!(
            c.request(3, Priority::Batch, 0.0),
            AdmitDecision::Queued { depth: 2 }
        );
        let AdmitDecision::Shed { retry_after_ms } = c.request(4, Priority::Batch, 0.0) else {
            panic!("queue is full: must shed");
        };
        assert!(retry_after_ms >= 1);
        assert_eq!(c.stats().shed_admission, 1);
        assert_eq!(c.stats().max_queue_depth, 2);

        // A completion admits the queue head.
        c.on_complete(1.0);
        let drained = c.drain(1.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, 2);
        assert_eq!(drained[0].waited_ms, 1.0);
    }

    #[test]
    fn interactive_overtakes_queued_batch() {
        let mut c = ctrl(1, 4, f64::INFINITY, 8.0);
        assert_eq!(c.request(0, Priority::Batch, 0.0), AdmitDecision::Admit);
        c.request(1, Priority::Batch, 0.0);
        c.request(2, Priority::Interactive, 0.0);
        c.request(3, Priority::Batch, 0.0);
        c.on_complete(5.0);
        let drained = c.drain(5.0);
        assert_eq!(
            drained.iter().map(|d| d.id).collect::<Vec<_>>(),
            vec![2],
            "the interactive arrival parked ahead of earlier batch work"
        );
        c.on_complete(6.0);
        assert_eq!(c.drain(6.0)[0].id, 1, "FIFO among batch");
    }

    #[test]
    fn token_bucket_rations_admissions_over_time() {
        // 1 token per 100 simulated ms, burst 1.
        let mut c = ctrl(8, 8, 10.0, 1.0);
        assert_eq!(c.request(0, Priority::Batch, 0.0), AdmitDecision::Admit);
        assert_eq!(
            c.request(1, Priority::Batch, 1.0),
            AdmitDecision::Queued { depth: 1 },
            "bucket empty: must wait for refill"
        );
        let opp = c
            .next_admit_opportunity_ms(1.0)
            .expect("queued + free slot");
        assert!((opp - 100.0).abs() < 1e-9, "one token at t=100, got {opp}");
        assert!(c.drain(50.0).is_empty());
        let drained = c.drain(100.0);
        assert_eq!(drained.len(), 1);
        assert!((drained[0].waited_ms - 99.0).abs() < 1e-9);
    }

    /// A query paced by the token bucket is admitted by a drain at the
    /// controller's hint: refilling to that instant yields a whole token,
    /// never a rounding hair under one that would strand the query in
    /// the queue (and every later arrival behind it).
    #[test]
    fn drain_at_the_hint_admits_a_paced_query() {
        let mut c = ctrl(4, 8, 3.0, 1.0);
        assert_eq!(
            c.request(0, Priority::Interactive, 0.0),
            AdmitDecision::Admit
        );
        c.on_complete(1.1);
        assert_eq!(
            c.request(1, Priority::Interactive, 1.1),
            AdmitDecision::Queued { depth: 1 }
        );
        let at = c
            .next_admit_opportunity_ms(1.1)
            .expect("queued + free slot");
        // A `now` before the last refill gets the same reachable hint.
        assert_eq!(c.next_admit_opportunity_ms(0.5), Some(at));
        assert_eq!(c.drain(at).len(), 1, "stranded at {at} ms");

        // The same holds for every shell-style session: one statement at
        // a time, each running a pseudo-random simulated time.
        for (rate, burst) in [(1.0, 1.0), (3.0, 1.0), (7.0, 2.0), (200.0, 4.0)] {
            let mut c = ctrl(4, 8, rate, burst);
            let (mut now, mut x) = (0.0f64, 0x9E37_79B9_u64);
            for id in 0..500 {
                if let AdmitDecision::Queued { .. } = c.request(id, Priority::Interactive, now) {
                    now = c.next_admit_opportunity_ms(now).expect("a token refills");
                    assert_eq!(c.drain(now).len(), 1, "rate {rate}: query {id} stranded");
                }
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                now += (x >> 40) as f64 / (1u64 << 24) as f64 * 5.0;
                c.on_complete(now);
            }
            assert_eq!(c.stats().admitted, 500, "rate {rate}");
        }
    }

    #[test]
    fn queue_blocks_same_class_overtaking() {
        let mut c = ctrl(2, 4, f64::INFINITY, 8.0);
        c.request(0, Priority::Batch, 0.0);
        c.request(1, Priority::Batch, 0.0);
        c.request(2, Priority::Batch, 0.0); // queued
        c.on_complete(1.0);
        // A fresh batch arrival must not bypass the queued one even
        // though a slot is free.
        assert_eq!(
            c.request(3, Priority::Batch, 1.0),
            AdmitDecision::Queued { depth: 2 }
        );
        // But an interactive arrival may (no queued interactive ahead).
        assert_eq!(
            c.request(4, Priority::Interactive, 1.0),
            AdmitDecision::Admit
        );
    }

    #[test]
    fn stats_reset_clears_counters() {
        let mut c = ctrl(1, 0, f64::INFINITY, 8.0);
        c.request(0, Priority::Batch, 0.0);
        c.request(1, Priority::Batch, 0.0); // shed (queue cap 0)
        assert_eq!(c.stats().shed_admission, 1);
        c.reset_stats();
        assert_eq!(c.stats(), &AdmissionStats::default());
        assert_eq!(c.running(), 1, "reset touches counters, not state");
    }

    #[test]
    fn budget_reserves_releases_reconciles() {
        let mut b = MemoryBudget::new(100);
        assert!(b.try_reserve(60));
        assert!(!b.try_reserve(50));
        assert!(b.try_reserve(40));
        assert_eq!(b.free(), 0);
        assert_eq!(b.peak_reserved(), 100);
        b.release(40);
        b.reconcile(60, 45);
        assert_eq!(b.free(), 100);
        assert_eq!(b.over_estimated(), 15);
        b.try_reserve(10);
        b.reconcile(10, 25);
        assert_eq!(b.under_estimated(), 15);
        assert_eq!(b.peak_reserved(), 100);
    }

    #[test]
    fn ladder_is_monotone_and_prefix_ordered() {
        // Exhaustive over free-byte values (at byte granularity around
        // the rung boundaries, coarse in between) for estimates that
        // exercise every rung: as free memory shrinks the chosen rung
        // only ever moves down the ladder, one contiguous band per
        // rung — i.e. the degraded plans of any budget walk are a
        // prefix-ordered run of the fixed ladder.
        for estimate in [0usize, 1, MIN_MONITOR_BYTES, 4096, 1 << 20] {
            let cap = BASE_QUERY_BYTES + estimate + 1024;
            let mut last_step: Option<DegradeStep> = None;
            let mut seen: Vec<DegradeStep> = Vec::new();
            // Descending free memory.
            for free in (0..=cap).rev() {
                let (step, reservation) = degrade_step(free, estimate);
                // The reservation must actually fit.
                assert!(reservation <= free || step == DegradeStep::Shed);
                if step != DegradeStep::Shed {
                    assert!(reservation >= BASE_QUERY_BYTES);
                }
                match last_step {
                    Some(prev) => assert!(
                        step >= prev,
                        "free={free} est={estimate}: rung {step} above previous {prev}"
                    ),
                    None => assert_eq!(step, DegradeStep::Full, "ample memory must run undegraded"),
                }
                if last_step != Some(step) {
                    seen.push(step);
                    last_step = Some(step);
                }
            }
            assert_eq!(*seen.last().expect("nonempty"), DegradeStep::Shed);
            // The distinct rungs visited are a strictly descending walk
            // of the ladder — never a skip backwards, never a repeat.
            let mut sorted = seen.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(
                seen, sorted,
                "est={estimate}: walk {seen:?} not ladder-ordered"
            );
            if estimate > MIN_MONITOR_BYTES {
                assert_eq!(
                    seen,
                    vec![
                        DegradeStep::Full,
                        DegradeStep::BudgetedMonitors,
                        DegradeStep::Unmonitored,
                        DegradeStep::Shed
                    ],
                    "a large estimate must visit every rung"
                );
            }
        }
    }

    #[test]
    fn admission_config_defaults_and_sanitizing() {
        let cfg = AdmissionConfig::default();
        assert_eq!(cfg.max_concurrent, 4);
        assert_eq!(cfg.queue_capacity, 8);
        let c = AdmissionController::new(AdmissionConfig {
            max_concurrent: 0,
            queue_capacity: 0,
            tokens_per_sec: -1.0,
            burst: 0.0,
        });
        assert_eq!(c.config().max_concurrent, 1, "sanitized");
        assert!(c.config().tokens_per_sec > 0.0);
        assert!(c.config().burst >= 1.0);
    }
}
