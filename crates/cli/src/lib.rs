//! The shell engine behind `pagefeed-cli` — separated from the binary so
//! every command is unit-testable.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use pagefeed::{
    parse_query, AdmissionConfig, AdmissionController, AdmitDecision, CircuitBreaker, Database,
    MonitorConfig, ParallelRunner, Priority, Query, WorkloadSummary,
};
use pf_common::Error;
use pf_workloads::{realworld, synthetic, tpch};
use std::fmt::Write as _;

/// What the REPL should do after a command.
pub enum Control {
    /// Print this output and keep going.
    Continue(String),
    /// Exit.
    Quit,
}

/// The interactive shell state.
pub struct Shell {
    db: Option<Database>,
    monitor: MonitorConfig,
    runner: ParallelRunner,
    /// Per-query deadline in simulated ms (`.deadline`), put into the
    /// config of every SQL statement; `None` disables it.
    deadline_ms: Option<u64>,
    /// Queries this session aborted via cancellation or deadline.
    queries_cancelled: u64,
    /// The admission gate every SQL statement passes through, on the
    /// session's simulated clock (`.admit` reconfigures it).
    admission: AdmissionController,
    /// Session simulated clock: advances by each query's simulated
    /// elapsed time, driving admission tokens and breaker probes.
    sim_now_ms: f64,
}

impl Shell {
    /// A fresh shell with no database loaded, exact monitoring, one
    /// worker per core, the default admission gate, no fault plan and
    /// no per-query deadline; `.jobs`, `.admit`, `.faults` and
    /// `.deadline` change them for the session.
    pub fn new() -> Self {
        Shell {
            db: None,
            monitor: MonitorConfig::default(),
            runner: ParallelRunner::default(),
            deadline_ms: None,
            queries_cancelled: 0,
            admission: AdmissionController::new(AdmissionConfig::default()),
            sim_now_ms: 0.0,
        }
    }

    /// Evaluates one input line.
    pub fn eval(&mut self, line: &str) -> Control {
        let line = line.trim();
        if line.is_empty() {
            return Control::Continue(String::new());
        }
        if let Some(rest) = line.strip_prefix('.') {
            return self.dot_command(rest);
        }
        Control::Continue(self.sql(line))
    }

    fn dot_command(&mut self, rest: &str) -> Control {
        let mut parts = rest.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        let out = match cmd {
            "help" => HELP.to_string(),
            "quit" | "exit" => return Control::Quit,
            "load" => self.load(arg),
            "save" => self.save(arg),
            "open" => self.open(arg),
            "tables" => self.tables(),
            "monitor" => self.set_monitor(arg),
            "plans" => self.plans(arg),
            "explain" => self.explain(arg),
            "diagnose" => self.diagnose(arg),
            "feedback" => self.feedback(arg),
            "hints" => self.hints(),
            "jobs" => self.set_jobs(arg),
            "deadline" => self.set_deadline(arg),
            "faults" => self.set_faults(arg),
            "admit" => self.admit(arg),
            "breaker" => self.breaker_cmd(arg),
            "bench" => self.bench(arg),
            other => format!("unknown command .{other} — try .help"),
        };
        Control::Continue(out)
    }

    fn load(&mut self, which: &str) -> String {
        let built = match which {
            "synthetic" => synthetic::build(&synthetic::SyntheticConfig {
                rows: 80_000,
                with_t1: true,
                seed: 1,
            }),
            "tpch" => tpch::build_lineitem_with_rows(80_000, 1),
            "books" => realworld::book_retailer(1),
            "yellowpages" => realworld::yellow_pages(1),
            "voter" => realworld::voter(1),
            "products" => realworld::products(1),
            other => Err(Error::InvalidArgument(format!(
                "unknown dataset {other:?} (try synthetic|tpch|books|yellowpages|voter|products)"
            ))),
        };
        match built {
            Ok(mut db) => {
                db.enable_dpc_histograms(32);
                let summary = summarize_catalog(&db);
                self.db = Some(db);
                format!("loaded {which}\n{summary}")
            }
            Err(e) => format!("load failed: {e}"),
        }
    }

    fn save(&self, path: &str) -> String {
        if path.is_empty() {
            return "usage: .save <path>".to_string();
        }
        let Some(db) = &self.db else {
            return NO_DB.to_string();
        };
        match db.save(path) {
            Ok(()) => format!("saved to {path}"),
            Err(e) => format!("save failed: {e}"),
        }
    }

    fn open(&mut self, path: &str) -> String {
        if path.is_empty() {
            return "usage: .open <path>".to_string();
        }
        match Database::open(path) {
            Ok(mut db) => {
                db.enable_dpc_histograms(32);
                let summary = summarize_catalog(&db);
                self.db = Some(db);
                format!("opened {path}\n{summary}")
            }
            Err(e) => format!("open failed: {e}"),
        }
    }

    fn tables(&self) -> String {
        let Some(db) = &self.db else {
            return NO_DB.to_string();
        };
        summarize_catalog(db)
    }

    fn set_monitor(&mut self, arg: &str) -> String {
        match arg {
            "off" => {
                self.monitor = MonitorConfig::off();
                "monitoring off".to_string()
            }
            "on" | "exact" => {
                self.monitor = MonitorConfig::default();
                "monitoring on (exact)".to_string()
            }
            other => match other.strip_suffix('%').and_then(|p| p.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 && pct <= 100.0 => {
                    self.monitor = MonitorConfig::sampled(pct / 100.0);
                    format!("monitoring on (page sampling {pct}%)")
                }
                _ => "usage: .monitor on|off|<pct>%".to_string(),
            },
        }
    }

    fn parse(&self, sql: &str) -> Result<Query, String> {
        if sql.is_empty() {
            return Err("usage: give a SQL query".to_string());
        }
        parse_query(sql).map_err(|e| format!("parse error: {e}"))
    }

    fn sql(&mut self, sql: &str) -> String {
        let query = match self.parse(sql) {
            Ok(q) => q,
            Err(e) => return e,
        };
        if self.db.is_none() {
            return NO_DB.to_string();
        }
        // Every statement passes the admission gate on the session's
        // simulated clock. Shell queries are interactive-class; the
        // shell is serial, so a Queued verdict just means the token
        // bucket is pacing us — wait it out on the simulated clock. The
        // statement is alone in the queue and nothing runs, so the drain
        // at the controller's hint admits it.
        let mut note = String::new();
        let id = self.admission.stats().submitted;
        match self
            .admission
            .request(id, Priority::Interactive, self.sim_now_ms)
        {
            AdmitDecision::Admit => {}
            AdmitDecision::Queued { .. } => {
                match self.admission.next_admit_opportunity_ms(self.sim_now_ms) {
                    Some(at) if !self.admission.drain(at).is_empty() => {
                        let _ = writeln!(
                            note,
                            "note: token bucket paced this query by {:.1} ms (simulated)",
                            at - self.sim_now_ms
                        );
                        self.sim_now_ms = at;
                    }
                    _ => {
                        return "overloaded: admission queue is saturated — see .admit".to_string();
                    }
                }
            }
            AdmitDecision::Shed { retry_after_ms } => {
                return format!(
                    "overloaded: query shed at admission, retry after {retry_after_ms} ms (simulated) — see .admit"
                );
            }
        }
        let Some(db) = &self.db else {
            return NO_DB.to_string();
        };
        // Morsel-parallel when the plan is eligible and jobs > 1 (a
        // deadline keeps it serial); bit-identical to db.run either way.
        let cfg = MonitorConfig {
            deadline_ms: self.deadline_ms,
            ..self.monitor.clone()
        };
        let result = self.runner.run_query(db, &query, &cfg);
        if let Ok(out) = &result {
            self.sim_now_ms += out.elapsed_ms;
        } else if let Some(deadline) = self.deadline_ms {
            self.sim_now_ms += deadline as f64;
        }
        self.admission.on_complete(self.sim_now_ms);
        match result {
            Ok(out) => {
                let mut s = format!(
                    "{note}count: {}\nplan:  {}\ntime:  {:.1} ms (simulated, cold cache)",
                    out.count, out.description, out.elapsed_ms
                );
                if out.degraded() {
                    let _ = write!(
                        s,
                        "\nwarning: {} corrupt page(s) skipped — count and estimates are degraded",
                        out.stats.pages_skipped
                    );
                }
                if !out.report.measurements.is_empty() {
                    let _ = write!(s, "\n{}", out.report);
                }
                s
            }
            Err(e) if e.is_abort() => {
                self.queries_cancelled += 1;
                format!("aborted: {e}")
            }
            Err(e) => format!("execution failed: {e}"),
        }
    }

    fn set_deadline(&mut self, arg: &str) -> String {
        if arg.is_empty() {
            return match self.deadline_ms {
                Some(ms) => format!("per-query deadline: {ms} ms (simulated)"),
                None => "no per-query deadline".to_string(),
            };
        }
        if arg == "off" {
            self.deadline_ms = None;
            self.reset_overload_counters();
            return "per-query deadline off (admission/breaker counters reset)".to_string();
        }
        match arg.parse::<u64>() {
            Ok(ms) => {
                self.deadline_ms = Some(ms);
                format!("per-query deadline: {ms} ms (simulated)")
            }
            Err(_) => "usage: .deadline [<ms>|off]".to_string(),
        }
    }

    fn plans(&mut self, sql: &str) -> String {
        let query = match self.parse(sql) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        let result = (|| -> pf_common::Result<String> {
            let mut s = String::new();
            match &query {
                Query::Count {
                    table, predicate, ..
                } => {
                    let meta = db.catalog().table_by_name(table)?;
                    let pred = Query::resolve_predicates(predicate, meta.schema())?;
                    let opt = db.optimizer()?;
                    for p in opt.candidate_single_table_plans(meta.id, &pred)? {
                        let _ = writeln!(
                            s,
                            "{:<22} est cost {:>10.1} ms   est rows {:>9.0}   est DPC {}",
                            p.path.name(),
                            p.cost_ms,
                            p.est_rows,
                            p.est_dpc.map_or("-".into(), |d| format!("{d:.0}")),
                        );
                    }
                }
                Query::JoinCount {
                    outer,
                    inner,
                    outer_pred,
                    outer_col,
                    inner_col,
                } => {
                    let planner = db.planner()?;
                    let spec =
                        planner.resolve_join(outer, inner, outer_pred, outer_col, inner_col)?;
                    let opt = db.optimizer()?;
                    for p in opt.candidate_join_plans(&spec)? {
                        let _ = writeln!(
                            s,
                            "{:<22} est cost {:>10.1} ms   est rows {:>9.0}   est DPC {}",
                            p.method.name(),
                            p.cost_ms,
                            p.est_rows,
                            p.est_dpc.map_or("-".into(), |d| format!("{d:.0}")),
                        );
                    }
                }
            }
            Ok(s)
        })();
        result.unwrap_or_else(|e| format!("planning failed: {e}"))
    }

    fn explain(&mut self, sql: &str) -> String {
        let query = match self.parse(sql) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        match db.lower(&query, &MonitorConfig::off()) {
            Ok(plan) => plan.explain,
            Err(e) => format!("planning failed: {e}"),
        }
    }

    fn diagnose(&mut self, sql: &str) -> String {
        let query = match self.parse(sql) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let cfg = self.monitor.clone();
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        match db.diagnose(&query, &cfg, 2.0) {
            Ok(d) => d.to_string(),
            Err(e) => format!("diagnosis failed: {e}"),
        }
    }

    /// `.feedback` is two commands in one: a store subcommand
    /// (`load`/`save`/`stats`/`evict`) manages durable persistence;
    /// anything else is SQL to run through the feedback loop.
    fn feedback(&mut self, arg: &str) -> String {
        let mut parts = arg.splitn(2, ' ');
        let head = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match head {
            "load" => self.feedback_load(rest),
            "save" => self.feedback_save(),
            "stats" => self.feedback_stats(),
            "evict" => self.feedback_evict(),
            _ => self.feedback_sql(arg),
        }
    }

    fn feedback_load(&mut self, dir: &str) -> String {
        if dir.is_empty() {
            return "usage: .feedback load <dir>".to_string();
        }
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        match db.attach_feedback_store(dir) {
            Ok(recovered) => format!(
                "feedback store attached at {dir}: {recovered} report(s) recovered, {} live hint(s)",
                db.hints().len()
            ),
            Err(e) => format!("attach failed: {e}"),
        }
    }

    fn feedback_save(&mut self) -> String {
        let now_ms = self.sim_now_ms as u64;
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        if db.feedback_store().is_none() {
            return NO_STORE.to_string();
        }
        // Through the breaker when one is attached: an open breaker
        // skips the compaction instead of hitting a known-bad store.
        match db.compact_feedback_at(now_ms) {
            Ok(true) => {
                let s = db
                    .feedback_store()
                    .map(pagefeed::FeedbackStore::stats)
                    .unwrap_or_default();
                format!(
                    "compacted {} report(s) into an atomic snapshot ({} snapshot bytes, {} WAL bytes)",
                    s.records, s.snapshot_bytes, s.wal_bytes
                )
            }
            Ok(false) => {
                "compaction skipped: feedback circuit breaker is open (see .breaker)".to_string()
            }
            Err(e) => format!("compact failed: {e}"),
        }
    }

    fn feedback_stats(&self) -> String {
        let Some(db) = &self.db else {
            return NO_DB.to_string();
        };
        let Some(store) = db.feedback_store() else {
            return NO_STORE.to_string();
        };
        let s = store.stats();
        format!(
            "feedback store at {}:\n  {} report(s), {} measurement(s), next seq {}\n  WAL {} bytes, snapshot {} bytes",
            store.dir().display(),
            s.records,
            s.measurements,
            s.next_seq,
            s.wal_bytes,
            s.snapshot_bytes
        )
    }

    fn feedback_evict(&mut self) -> String {
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        let policy = db.staleness;
        let states = db.table_epoch_states();
        let from_hints = db.hints_mut().apply_staleness(policy, &states);
        let from_store = match db.feedback_store_mut() {
            Some(store) => match store.evict_stale(policy, &states) {
                Ok(n) => n,
                Err(e) => return format!("evict failed: {e}"),
            },
            None => 0,
        };
        format!(
            "evicted {from_hints} stale hint(s) from memory, {from_store} measurement(s) from the store"
        )
    }

    fn feedback_sql(&mut self, sql: &str) -> String {
        let query = match self.parse(sql) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let cfg = self.monitor.clone();
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        match db.feedback_loop(&query, &cfg) {
            Ok(out) => format!(
                "plan before: {} ({:.1} ms)\nplan after:  {} ({:.1} ms)\nspeedup: {:.1}%   monitoring overhead: {:.2}%\n{}",
                out.before.description,
                out.before.elapsed_ms,
                out.after.description,
                out.after.elapsed_ms,
                out.speedup() * 100.0,
                out.overhead() * 100.0,
                out.report
            ),
            Err(e) => format!("feedback loop failed: {e}"),
        }
    }

    fn set_jobs(&mut self, arg: &str) -> String {
        if arg.is_empty() {
            return format!("{} worker threads", self.runner.jobs());
        }
        match arg.parse::<usize>() {
            Ok(n) if n >= 1 => {
                self.runner = ParallelRunner::new(n);
                format!("{n} worker threads")
            }
            _ => "usage: .jobs [N]".to_string(),
        }
    }

    fn set_faults(&mut self, arg: &str) -> String {
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        if arg.is_empty() {
            let mut s = match db.fault_plan() {
                None => "fault injection off".to_string(),
                Some(plan) => {
                    let damaged: usize = db
                        .catalog()
                        .tables()
                        .iter()
                        .map(|t| t.storage.injected_fault_count())
                        .sum();
                    let mut s = format!(
                        "fault injection on: seed {} rate {} — {damaged} damaged pages",
                        plan.seed(),
                        plan.rate()
                    );
                    if plan.error_rate() > 0.0 {
                        let _ = write!(s, ", error returns at {}", plan.error_rate());
                    }
                    s
                }
            };
            if self.queries_cancelled > 0 {
                let _ = write!(
                    s,
                    "\n{} query(ies) aborted by cancellation/deadline this session",
                    self.queries_cancelled
                );
            }
            return s;
        }
        if arg == "off" {
            let healed = match db.set_fault_plan(None) {
                Ok(()) => {
                    "fault injection off (injected damage healed; admission/breaker counters reset)"
                        .to_string()
                }
                Err(e) => format!("failed: {e}"),
            };
            self.reset_overload_counters();
            return healed;
        }
        let mut parts = arg.split_whitespace();
        let (seed, rate, error_rate) = match (
            parts.next().and_then(|s| s.parse::<u64>().ok()),
            parts.next().and_then(|s| s.parse::<f64>().ok()),
            parts.next().map(str::parse::<f64>),
            parts.next(),
        ) {
            (Some(seed), Some(rate), None, None) => (seed, rate, 0.0),
            (Some(seed), Some(rate), Some(Ok(e)), None) => (seed, rate, e),
            _ => return "usage: .faults [<seed> <rate> [<error-rate>]|off]".to_string(),
        };
        let plan = match pagefeed::FaultPlan::new(seed, rate)
            .and_then(|p| p.with_error_returns(error_rate))
        {
            Ok(p) => p,
            Err(e) => return format!("bad fault plan: {e}"),
        };
        match db.set_fault_plan(Some(plan)) {
            Ok(()) => self.set_faults(""),
            Err(e) => format!("failed: {e}"),
        }
    }

    /// Clears the overload-protection counters: admission stats and
    /// the breaker's trip count/trace (the `.faults off` /
    /// `.deadline off` hygiene path).
    fn reset_overload_counters(&mut self) {
        self.admission.reset_stats();
        if let Some(db) = &mut self.db {
            if let Some(b) = db.breaker_mut() {
                b.reset();
            }
        }
    }

    fn admit(&mut self, arg: &str) -> String {
        if arg.is_empty() {
            let cfg = self.admission.config();
            let s = self.admission.stats();
            return format!(
                "admission gate: {} concurrent, queue {} deep, {} tokens/s (burst {})\nsession: {} submitted, {} admitted, {} paced, {} shed; clock at {:.1} ms (simulated)",
                cfg.max_concurrent,
                cfg.queue_capacity,
                cfg.tokens_per_sec,
                cfg.burst,
                s.submitted,
                s.admitted,
                s.queued,
                s.shed(),
                self.sim_now_ms
            );
        }
        if arg == "reset" {
            self.admission.reset_stats();
            return "admission counters reset".to_string();
        }
        let mut parts = arg.split_whitespace();
        let parsed = (
            parts.next().and_then(|s| s.parse::<usize>().ok()),
            parts.next().and_then(|s| s.parse::<usize>().ok()),
            parts.next().map(str::parse::<f64>),
            parts.next().map(str::parse::<f64>),
            parts.next(),
        );
        let cfg = match parsed {
            (Some(c), Some(q), rate, burst, None) => {
                let d = AdmissionConfig::default();
                match (rate, burst) {
                    (None, None) => Some(AdmissionConfig {
                        max_concurrent: c,
                        queue_capacity: q,
                        ..d
                    }),
                    (Some(Ok(r)), None) => Some(AdmissionConfig {
                        max_concurrent: c,
                        queue_capacity: q,
                        tokens_per_sec: r,
                        ..d
                    }),
                    (Some(Ok(r)), Some(Ok(b))) => Some(AdmissionConfig {
                        max_concurrent: c,
                        queue_capacity: q,
                        tokens_per_sec: r,
                        burst: b,
                    }),
                    _ => None,
                }
            }
            _ => None,
        };
        match cfg {
            Some(cfg) => {
                self.admission = AdmissionController::new(cfg);
                self.admit("")
            }
            None => "usage: .admit [<concurrent> <queue> [<tokens/s> [<burst>]]|reset]".to_string(),
        }
    }

    fn breaker_cmd(&mut self, arg: &str) -> String {
        let now_ms = self.sim_now_ms as u64;
        let Some(db) = &mut self.db else {
            return NO_DB.to_string();
        };
        match arg {
            "" => match db.breaker() {
                None => "no feedback circuit breaker attached — try .breaker on".to_string(),
                Some(b) => {
                    let mut s = format!(
                        "breaker {}: {} trip(s), {} consecutive failure(s)",
                        b.state(),
                        b.trips(),
                        b.consecutive_failures()
                    );
                    if let Some(at) = b.probe_at_ms() {
                        if at == u64::MAX {
                            let _ = write!(s, "; forced open until .breaker reset");
                        } else {
                            let _ = write!(s, "; next probe at t={at} ms (simulated)");
                        }
                    }
                    for line in b.trace_lines() {
                        let _ = write!(s, "\n  {line}");
                    }
                    s
                }
            },
            "on" => {
                db.set_breaker(Some(CircuitBreaker::default()));
                "feedback circuit breaker attached (closed)".to_string()
            }
            "off" => {
                db.set_breaker(None);
                "feedback circuit breaker detached".to_string()
            }
            "trip" => match db.breaker_mut() {
                None => "no feedback circuit breaker attached — try .breaker on".to_string(),
                Some(b) => {
                    b.force_open(now_ms);
                    format!("breaker forced open at t={now_ms} ms — durability suspended until .breaker reset")
                }
            },
            "reset" => match db.breaker_mut() {
                None => "no feedback circuit breaker attached — try .breaker on".to_string(),
                Some(b) => {
                    b.reset();
                    "breaker reset to closed".to_string()
                }
            },
            _ => "usage: .breaker [on|off|trip|reset]".to_string(),
        }
    }

    fn bench(&mut self, arg: &str) -> String {
        let mut parts = arg.splitn(2, ' ');
        let count: usize = match parts.next().unwrap_or("").parse() {
            Ok(n) if n >= 1 => n,
            _ => return "usage: .bench <count> <sql>".to_string(),
        };
        let query = match self.parse(parts.next().unwrap_or("").trim()) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let cfg = self.monitor.clone();
        let runner = self.runner.clone();
        let Some(db) = &self.db else {
            return NO_DB.to_string();
        };
        let queries = vec![query; count];
        let start = std::time::Instant::now();
        match runner.run_queries(db, &queries, &cfg) {
            Ok(outcomes) => {
                let wall = start.elapsed().as_secs_f64();
                let s =
                    WorkloadSummary::from_owned(outcomes).with_contention(runner.last_run_stats());
                let mut out = format!(
                    "{} queries on {} workers: {:.1} q/s wall\nsimulated: {:.1} ms total, {} logical / {} physical reads",
                    s.queries,
                    runner.jobs(),
                    s.queries as f64 / wall.max(1e-9),
                    s.total_elapsed_ms,
                    s.total_stats.logical_reads,
                    s.total_stats.physical_reads(),
                );
                if let Some(c) = &s.contention {
                    let _ = write!(
                        out,
                        "\nworkers: {:.0}% busy, {:.2} ms queue wait total",
                        c.utilization() * 100.0,
                        c.queue_wait_ns() as f64 / 1e6,
                    );
                }
                let pc = db.plan_cache_stats();
                if pc.enabled {
                    let _ = write!(
                        out,
                        "\nplan cache: {} hits / {} misses ({:.0}% hit rate)",
                        pc.hits,
                        pc.misses,
                        pc.hit_rate() * 100.0,
                    );
                }
                out
            }
            Err(e) => format!("bench failed: {e}"),
        }
    }

    fn hints(&self) -> String {
        let Some(db) = &self.db else {
            return NO_DB.to_string();
        };
        let n = db.hints().len();
        let trained = db
            .dpc_histogram_cache()
            .map_or(0, pagefeed::DpcHistogramCache::observations);
        format!("{n} injected hints; {trained} histogram observations")
    }
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

fn summarize_catalog(db: &Database) -> String {
    let mut s = String::new();
    for t in db.catalog().tables() {
        let cols: Vec<&str> = t
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let indexes: Vec<String> = db
            .catalog()
            .indexes_on(t.id)
            .map(|i| i.name.clone())
            .collect();
        let _ = writeln!(
            s,
            "{}  ({} rows, {} pages, {:.0} rows/page)\n  columns: {}\n  indexes: {}",
            t.name,
            t.stats.rows,
            t.stats.pages,
            t.stats.rows_per_page,
            cols.join(", "),
            if indexes.is_empty() {
                "none".into()
            } else {
                indexes.join(", ")
            }
        );
    }
    s.trim_end().to_string()
}

const NO_DB: &str = "no database loaded — try `.load synthetic`";

const NO_STORE: &str = "no feedback store attached — try `.feedback load <dir>`";

const HELP: &str = "\
commands:
  .load <dataset>     load synthetic|tpch|books|yellowpages|voter|products
  .save <path>        snapshot the database to a file
  .open <path>        open a snapshot
  .tables             show tables, sizes, and indexes
  .monitor on|off|N%  toggle DPC monitoring / set page-sampling rate
  .plans <sql>        show every costed plan candidate
  .explain <sql>      show the chosen plan tree with estimates
  .diagnose <sql>     DBA diagnosis: estimated-vs-actual page counts
  .feedback <sql>     run the full feedback loop (measure, inject, replan)
  .feedback load <d>  attach a durable feedback store at directory <d> (WAL + snapshot);
                      recovered measurements are replayed into the hint set
  .feedback save      compact the attached store into an atomic snapshot
  .feedback stats     show store size and contents
  .feedback evict     age hints against current table epochs; drop dead measurements
  .hints              show feedback-cache status
  .jobs [N]           show / set worker threads for .bench (default: all cores)
  .deadline [MS|off]  show / set the per-query deadline in simulated ms (default: off)
  .faults [S R [E]|off] show / set deterministic fault injection (seed S, page rate R,
                      optional error-return rate E; default: off); no args also reports
                      the session's cancellations; off also resets admission/breaker counters
  .admit [C Q [R [B]]|reset] show / set the admission gate (C concurrent, queue Q deep,
                      R tokens/s, burst B — default: 4 8 1000 8); reset clears counters
  .breaker [on|off|trip|reset] show / manage the feedback circuit breaker; trip forces
                      it open (durability suspended), reset closes it again
  .bench <n> <sql>    run the query n times across the worker pool, report throughput
  .quit               exit
anything else is parsed as SQL:
  SELECT COUNT(*) FROM T WHERE c2 < 3200 AND c5 < 50000
  SELECT COUNT(T.pad) FROM T1, T WHERE T1.c1 < 4000 AND T1.c2 = T.c2";

#[cfg(test)]
mod tests {
    use super::*;

    fn out(c: Control) -> String {
        match c {
            Control::Continue(s) => s,
            Control::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn help_and_quit() {
        let mut sh = Shell::new();
        assert!(out(sh.eval(".help")).contains(".load"));
        assert!(matches!(sh.eval(".quit"), Control::Quit));
    }

    #[test]
    fn query_without_db_is_friendly() {
        let mut sh = Shell::new();
        let msg = out(sh.eval("SELECT COUNT(*) FROM t"));
        assert!(msg.contains("no database loaded"), "{msg}");
    }

    #[test]
    fn load_query_plans_feedback_cycle() {
        let mut sh = Shell::new();
        let loaded = out(sh.eval(".load products"));
        assert!(loaded.contains("products"), "{loaded}");

        let tables = out(sh.eval(".tables"));
        assert!(tables.contains("rows/page"));

        let result = out(sh.eval("SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(result.contains("count: 2000"), "{result}");
        assert!(result.contains("plan:"));

        let plans = out(sh.eval(".plans SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(plans.contains("TableScan"), "{plans}");
        assert!(plans.contains("IndexSeek"), "{plans}");

        let fb = out(sh.eval(".feedback SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(fb.contains("speedup"), "{fb}");

        let ex = out(sh.eval(".explain SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(ex.contains("est_cost"), "{ex}");
        assert!(ex.contains("└─"), "{ex}");

        let hints = out(sh.eval(".hints"));
        assert!(!hints.starts_with('0'), "{hints}");
    }

    #[test]
    fn explain_join_prints_strategy() {
        let mut sh = Shell::new();
        sh.eval(".load synthetic");
        let ex = out(sh.eval(
            // Half the outer qualifies — far above the Hash-vs-INL
            // crossover, so the chosen method is always Hash and the
            // strategy line is present.
            ".explain SELECT COUNT(T.pad) FROM T1, T WHERE T1.c1 < 40000 AND T1.c2 = T.c2",
        ));
        assert!(ex.contains("strategy: parts="), "{ex}");
        assert!(ex.contains("pushdown="), "{ex}");
    }

    /// An INL join reads the inner only through index seeks and fetches,
    /// so its explain names that access, never a probe scan, and the
    /// outer subtree's continuation lines stay under its own branch.
    #[test]
    fn explain_inl_join_names_the_inner_index() {
        let mut sh = Shell::new();
        sh.eval(".load synthetic");
        let ex =
            out(sh
                .eval(".explain SELECT COUNT(T.pad) FROM T1, T WHERE T1.c1 < 40 AND T1.c2 = T.c2"));
        assert!(ex.contains("INLJoin"), "{ex}");
        assert!(ex.contains("ix_T_c2"), "{ex}");
        assert!(!ex.contains("[probe]"), "{ex}");
        assert!(!ex.contains("├─ └─"), "{ex}");
    }

    #[test]
    fn save_and_open_round_trip() {
        let mut sh = Shell::new();
        sh.eval(".load products");
        let path = std::env::temp_dir().join(format!("pf-cli-snap-{}", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let saved = out(sh.eval(&format!(".save {path}")));
        assert!(saved.contains("saved"), "{saved}");
        let mut sh2 = Shell::new();
        let opened = out(sh2.eval(&format!(".open {path}")));
        assert!(opened.contains("products"), "{opened}");
        let result = out(sh2.eval("SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(result.contains("count: 2000"), "{result}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn monitor_settings() {
        let mut sh = Shell::new();
        assert!(out(sh.eval(".monitor off")).contains("off"));
        assert!(out(sh.eval(".monitor 5%")).contains('5'));
        assert!(out(sh.eval(".monitor banana")).contains("usage"));
    }

    #[test]
    fn jobs_and_bench() {
        let mut sh = Shell::new();
        assert!(out(sh.eval(".jobs 3")).contains("3 worker threads"));
        assert!(out(sh.eval(".jobs")).contains("3 worker threads"));
        assert!(out(sh.eval(".jobs zero")).contains("usage"));
        assert!(out(sh.eval(".bench nope")).contains("usage"));
        sh.eval(".load products");
        let b = out(sh.eval(".bench 8 SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(b.contains("8 queries on 3 workers"), "{b}");
        assert!(b.contains("q/s"), "{b}");
    }

    #[test]
    fn faults_command_injects_and_heals() {
        let mut sh = Shell::new();
        assert!(out(sh.eval(".faults")).contains("no database loaded"));
        sh.eval(".load products");
        assert!(out(sh.eval(".faults")).contains("off"));
        assert!(out(sh.eval(".faults banana")).contains("usage"));
        assert!(out(sh.eval(".faults 7 2.0")).contains("bad fault plan"));

        // A heavy deterministic rate damages at least one page; queries
        // still answer, flagged as degraded.
        let on = out(sh.eval(".faults 7 0.2"));
        assert!(on.contains("seed 7 rate 0.2"), "{on}");
        let damaged: usize = on
            .split(" — ")
            .nth(1)
            .and_then(|t| t.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("damaged-page count in status line");
        assert!(damaged > 0, "{on}");
        // COUNT(pad) forces heap access (no index covers pad), so the
        // scan must cross damaged pages, skip them, and say so.
        let q = out(sh.eval("SELECT COUNT(pad) FROM products WHERE supplier < 100"));
        assert!(q.contains("count:"), "{q}");
        assert!(q.contains("degraded"), "{q}");

        // Healing restores the exact fault-free answer.
        let healed = out(sh.eval(".faults off"));
        assert!(healed.contains("healed"), "{healed}");
        let q = out(sh.eval("SELECT COUNT(pad) FROM products WHERE supplier < 100"));
        assert!(q.contains("count: 2000"), "{q}");
        assert!(!q.contains("degraded"), "{q}");
    }

    #[test]
    fn faults_status_reports_error_returns() {
        let mut sh = Shell::new();
        sh.eval(".load products");
        let status = out(sh.eval(".faults"));
        assert_eq!(status, "fault injection off");
        let on = out(sh.eval(".faults 7 0.01 0.5"));
        assert!(on.contains("error returns at 0.5"), "{on}");
        assert!(out(sh.eval(".faults 7 0.01 2.0")).contains("bad fault plan"));
        assert!(out(sh.eval(".faults 7 0.01 0.5 9")).contains("usage"));
        out(sh.eval(".faults off"));
    }

    #[test]
    fn deadline_command_aborts_and_counts() {
        let mut sh = Shell::new();
        assert!(out(sh.eval(".deadline")).contains("no per-query deadline"));
        assert!(out(sh.eval(".deadline banana")).contains("usage"));
        assert!(out(sh.eval(".deadline 0")).contains("0 ms"));
        sh.eval(".load products");
        let aborted = out(sh.eval("SELECT COUNT(pad) FROM products WHERE supplier < 100"));
        assert!(aborted.contains("deadline"), "{aborted}");
        let status = out(sh.eval(".faults"));
        assert!(
            status.contains("1 query(ies) aborted by cancellation/deadline"),
            "{status}"
        );
        assert!(out(sh.eval(".deadline off")).contains("off"));
        let ok = out(sh.eval("SELECT COUNT(pad) FROM products WHERE supplier < 100"));
        assert!(ok.contains("count: 2000"), "{ok}");
    }

    #[test]
    fn feedback_store_commands_round_trip() {
        let dir = std::env::temp_dir().join(format!("pf-cli-feedback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = dir.to_string_lossy().to_string();

        let mut sh = Shell::new();
        assert!(out(sh.eval(".feedback stats")).contains("no database loaded"));
        sh.eval(".load products");
        assert!(out(sh.eval(".feedback stats")).contains("no feedback store"));
        assert!(out(sh.eval(".feedback save")).contains("no feedback store"));
        assert!(out(sh.eval(".feedback load")).contains("usage"));

        let attached = out(sh.eval(&format!(".feedback load {dirs}")));
        assert!(attached.contains("0 report(s) recovered"), "{attached}");
        // COUNT(pad) forces a heap scan, which monitors the predicate's
        // DPC exactly (an index-only plan would harvest nothing).
        let fb = out(sh.eval(".feedback SELECT COUNT(pad) FROM products WHERE supplier < 100"));
        assert!(fb.contains("speedup"), "{fb}");
        let stats = out(sh.eval(".feedback stats"));
        assert!(stats.contains("1 report(s), 1 measurement(s)"), "{stats}");
        let saved = out(sh.eval(".feedback save"));
        assert!(saved.contains("compacted 1 report(s)"), "{saved}");
        // Nothing has drifted, so eviction is a no-op.
        let evicted = out(sh.eval(".feedback evict"));
        assert!(evicted.contains("evicted 0 stale hint(s)"), "{evicted}");
        assert!(evicted.contains("0 measurement(s)"), "{evicted}");

        // A fresh shell over the same dataset recovers the measurements
        // from the snapshot and starts with live hints.
        let mut sh2 = Shell::new();
        sh2.eval(".load products");
        let re = out(sh2.eval(&format!(".feedback load {dirs}")));
        assert!(re.contains("1 report(s) recovered, 1 live hint(s)"), "{re}");
        let hints = out(sh2.eval(".hints"));
        assert!(hints.starts_with("1 injected hint"), "{hints}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admit_command_configures_and_sheds() {
        let mut sh = Shell::new();
        let st = out(sh.eval(".admit"));
        assert!(st.contains("admission gate"), "{st}");
        assert!(out(sh.eval(".admit banana")).contains("usage"));
        sh.eval(".load products");
        // A tight gate: one token, effectively no refill, no queue —
        // the second statement must be shed, not run.
        assert!(out(sh.eval(".admit 1 0 0.000001 1")).contains("queue 0 deep"));
        let ok = out(sh.eval("SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(ok.contains("count: 2000"), "{ok}");
        let shed = out(sh.eval("SELECT COUNT(*) FROM products WHERE category < 20"));
        assert!(shed.contains("overloaded"), "{shed}");
        assert!(shed.contains("retry after"), "{shed}");
        let st = out(sh.eval(".admit"));
        assert!(st.contains("2 submitted, 1 admitted"), "{st}");
        assert!(st.contains("1 shed"), "{st}");
        assert!(out(sh.eval(".admit reset")).contains("reset"));
        assert!(out(sh.eval(".admit")).contains("0 submitted"));
        // .deadline off also clears the overload counters.
        sh.eval(".admit 1 0 0.000001 1");
        sh.eval("SELECT COUNT(*) FROM products WHERE category < 20");
        sh.eval("SELECT COUNT(*) FROM products WHERE category < 20");
        assert!(out(sh.eval(".deadline off")).contains("counters reset"));
        assert!(out(sh.eval(".admit")).contains("0 submitted"));
    }

    /// A statement the token bucket paces runs once a token refills,
    /// never strands in the admission queue ahead of every later one.
    #[test]
    fn paced_statements_all_run() {
        let mut sh = Shell::new();
        sh.eval(".load products");
        sh.eval(".monitor off");
        assert!(out(sh.eval(".admit 4 8 1 2")).contains("1 tokens/s"));
        for k in 1..=12 {
            let res = out(sh.eval(&format!(
                "SELECT COUNT(*) FROM products WHERE category < {k}"
            )));
            assert!(res.contains("count:"), "statement {k}: {res}");
        }
        let st = out(sh.eval(".admit"));
        assert!(st.contains("12 submitted, 12 admitted"), "{st}");
    }

    #[test]
    fn breaker_command_manages_durability() {
        let dir = std::env::temp_dir().join(format!("pf-cli-breaker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = dir.to_string_lossy().to_string();

        let mut sh = Shell::new();
        assert!(out(sh.eval(".breaker")).contains("no database loaded"));
        sh.eval(".load products");
        assert!(out(sh.eval(".breaker")).contains("no feedback circuit breaker"));
        assert!(out(sh.eval(".breaker trip")).contains("no feedback circuit breaker"));
        assert!(out(sh.eval(".breaker on")).contains("attached"));
        assert!(out(sh.eval(".breaker")).contains("breaker closed: 0 trip(s)"));

        sh.eval(&format!(".feedback load {dirs}"));
        out(sh.eval(".feedback SELECT COUNT(pad) FROM products WHERE supplier < 100"));
        assert!(out(sh.eval(".breaker trip")).contains("forced open"));
        let skipped = out(sh.eval(".feedback save"));
        assert!(skipped.contains("skipped"), "{skipped}");
        assert!(
            out(sh.eval(".breaker")).contains("forced open until"),
            "trace shown"
        );

        // .faults off resets the breaker; compaction flows again.
        let healed = out(sh.eval(".faults off"));
        assert!(healed.contains("counters reset"), "{healed}");
        assert!(out(sh.eval(".breaker")).contains("breaker closed: 0 trip(s)"));
        let saved = out(sh.eval(".feedback save"));
        assert!(saved.contains("compacted"), "{saved}");

        assert!(out(sh.eval(".breaker banana")).contains("usage"));
        assert!(out(sh.eval(".breaker off")).contains("detached"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut sh = Shell::new();
        sh.eval(".load products");
        let msg = out(sh.eval("SELEC COUNT(*) FROM x"));
        assert!(msg.contains("parse error"), "{msg}");
    }
}
