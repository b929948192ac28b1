//! End-to-end and per-layer benchmark of pagefeed's measure-then-inject
//! loop. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_feedback --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread issues ops serially in a closed loop. A read op is
//! `parse_query` → `Database::lower` → `Database::execute` →
//! `Database::absorb_feedback`; a write op replaces one row of `T`. The
//! last line of standard output is one JSON object with the run's
//! metrics; the lines before it repeat them with units and sample
//! counts.

mod calib;
mod data;
mod host;
mod trace;
mod workload;

use calib::Pace;
use data::{engine_row, synthetic_columns, Stmt, TableOracle};
use host::thread_cpu_s;
use pagefeed::{parse_query, Database, FeedbackStore, MonitorConfig, QueryOutcome};
use pf_common::rng::Rng;
use pf_common::{Datum, Result, Row};
use pf_feedback::FeedbackReport;
use pf_optimizer::EpochStamp;
use pf_workloads::synthetic::schema;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Kind, OpSpan, Tracer, ROOT};
use workload::{Spec, Workload};

/// End-to-end metrics printed with `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("sim_ms", "ms_simulated"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics printed with `--trace 1`: name and unit.
const PER_LAYER: [(&str, &str); 40] = [
    ("storage.load_s", "s"),
    ("storage.load_s.share", "ratio"),
    ("storage.index_build_s", "s"),
    ("storage.index_build_s.share", "ratio"),
    ("optimizer.analyze_s", "s"),
    ("optimizer.analyze_s.share", "ratio"),
    ("sql.parse_us", "us"),
    ("sql.parse_us.share", "ratio"),
    ("planner.lower_us", "us"),
    ("planner.lower_us.share", "ratio"),
    ("plan_cache.hit_rate", "ratio"),
    ("plan_cache.invalidations_per_op", "count"),
    ("exec.execute_ms", "ms"),
    ("exec.execute_ms.share", "ratio"),
    ("exec.rows_examined_per_row_out", "ratio"),
    ("exec.logical_pages_per_op", "count"),
    ("exec.physical_pages_per_op", "count"),
    ("exec.hash_ops_per_op", "count"),
    ("exec.monitor_ops_per_row", "ratio"),
    ("feedback.measurements_per_op", "count"),
    ("feedback.empty_report_frac", "ratio"),
    ("feedback.monitor_kib_per_op", "KiB"),
    ("hints.absorb_us", "us"),
    ("hints.absorb_us.share", "ratio"),
    ("optimizer.replan_frac", "ratio"),
    ("storage.insert_ms", "ms"),
    ("storage.insert_ms.share", "ratio"),
    ("storage.delete_ms", "ms"),
    ("storage.delete_ms.share", "ratio"),
    ("optimizer.reanalyze_ms", "ms"),
    ("optimizer.reanalyze_ms.share", "ratio"),
    ("run.write_time_frac", "ratio"),
    ("feedback_store.append_us", "us"),
    ("feedback_store.compact_ms", "ms"),
    ("feedback_store.bytes_per_report", "B"),
    ("feedback_store.recover_ms", "ms"),
    ("run.kernel_ms", "ms"),
    ("run.steal_frac", "ratio"),
    ("run.bench_self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Span names, one per layer call the benchmark makes.
mod call {
    pub const CREATE_TABLE: &str = "storage.create_table";
    pub const CREATE_INDEX: &str = "storage.create_index";
    pub const ANALYZE: &str = "optimizer.analyze";
    pub const ATTACH: &str = "feedback_store.attach";
    pub const PARSE: &str = "sql.parse_query";
    pub const LOWER: &str = "planner.lower";
    pub const EXECUTE: &str = "exec.execute";
    pub const ABSORB: &str = "hints.absorb_feedback";
    pub const DELETE: &str = "storage.delete_where";
    pub const INSERT: &str = "storage.insert_row";
    pub const REANALYZE: &str = "optimizer.reanalyze";
    pub const APPEND: &str = "feedback_store.append";
    pub const COMPACT: &str = "feedback_store.compact";
    pub const RECOVER: &str = "feedback_store.recover";
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // Before anything is built and while this is the only thread.
    let cleared = host::clear_engine_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload scan_feedback|join_feedback|interactive_sql \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let spec = Spec::full(args.workload, args.seconds);
    let run_dir = PathBuf::from(".perfbench_run").join(format!(
        "{}-{}-{}",
        spec.workload.name(),
        args.seed,
        std::process::id()
    ));
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        spec.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# cleared_env=[{}]", cleared.join(","));
    let result = run(&spec, args.seed, args.trace, &run_dir);
    // Store directories are scratch; the span file is kept beside them.
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            report.print(args.trace);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.workload.name());
            std::process::exit(1);
        }
    }
}

/// The generated inputs of one run; nothing here is timed.
struct Dataset {
    t_rows: Vec<Row>,
    t1_rows: Option<Vec<Row>>,
    t: TableOracle,
    t1: Option<TableOracle>,
}

impl Dataset {
    fn generate(spec: &Spec, seed: u64) -> Self {
        let t_cols = synthetic_columns(spec.rows, seed);
        // An independent draw for T1, as in `pf_workloads::synthetic`.
        let t1_cols = spec
            .with_t1
            .then(|| synthetic_columns(spec.rows, seed + 1_000_003));
        let rows = |c: &[Vec<i64>; 5]| -> Vec<Row> {
            (0..c[0].len())
                .map(|i| engine_row([c[0][i], c[1][i], c[2][i], c[3][i], c[4][i]]))
                .collect()
        };
        Dataset {
            t_rows: rows(&t_cols),
            t1_rows: t1_cols.as_ref().map(rows),
            t: TableOracle::new(&t_cols),
            t1: t1_cols.as_ref().map(TableOracle::new),
        }
    }
}

/// Loads, indexes and analyzes the tables (and attaches an empty store);
/// returns the database and the timed interval on the CPU clock. Row
/// copies are made before the clock starts.
fn setup(
    data: &Dataset,
    store: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<(Database, (f64, f64))> {
    let t_rows = data.t_rows.clone();
    let t1_rows = data.t1_rows.clone();
    let start = thread_cpu_s();
    let span = tracer.begin(Kind::Setup);
    let mut db = Database::new();
    tracer.call(&span, call::CREATE_TABLE, || {
        db.create_table("T", schema(), t_rows, Some("c1"))
    })?;
    for c in ["c2", "c3", "c4", "c5"] {
        tracer.call(&span, call::CREATE_INDEX, || {
            db.create_index(&format!("ix_T_{c}"), "T", c)
        })?;
    }
    if let Some(rows) = t1_rows {
        tracer.call(&span, call::CREATE_TABLE, || {
            db.create_table("T1", schema(), rows, Some("c1"))
        })?;
    }
    tracer.call(&span, call::ANALYZE, || db.analyze())?;
    if let Some(dir) = store {
        tracer.call(&span, call::ATTACH, || db.attach_feedback_store(dir))?;
    }
    tracer.end(span);
    Ok((db, (start, thread_cpu_s())))
}

/// `count` timed set-ups, each from scratch (the previous database is
/// dropped first) and each between two kernel samples; returns the last
/// database and every set-up's interval.
fn setup_repeatedly(
    data: &Dataset,
    count: usize,
    store: bool,
    dir: &Path,
    tracer: &mut Tracer,
    pace: &mut Pace,
) -> Result<(Database, Vec<(f64, f64)>)> {
    let mut times = Vec::with_capacity(count);
    let mut db = None;
    for k in 0..count.max(1) {
        drop(db.take());
        let store_dir = dir.join(format!("setup{k}"));
        pace.sample();
        let (fresh, iv) = setup(data, store.then_some(store_dir.as_path()), tracer)?;
        times.push(iv);
        db = Some(fresh);
    }
    pace.sample();
    Ok((db.expect("at least one set-up"), times))
}

/// Exact per-op counts summed over the read ops of a phase.
#[derive(Debug, Default, Clone)]
struct Counters {
    reads: u64,
    rows_examined: u64,
    rows_out: u64,
    logical_pages: u64,
    physical_pages: u64,
    hash_ops: u64,
    monitor_ops: u64,
    measurements: u64,
    empty_reports: u64,
    monitor_bytes: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_invalidations: u64,
    repeats: u64,
    replans: u64,
}

/// What one timed phase measured. Intervals are `(start, end)` on the
/// client thread's CPU clock.
struct Phase {
    read_iv: Vec<(f64, f64)>,
    /// In-stream writes first, then the probe writes.
    write_iv: Vec<(f64, f64)>,
    slices: Vec<Slice>,
    /// Wall time of the timed phase (reads, in-stream writes, commits).
    wall_s: f64,
    /// The same phase on the CPU clock, less the kernel samples.
    busy_s: f64,
    completed: u64,
    attempted: u64,
    failed: u64,
    sim_ms: f64,
    digest: u64,
    steal_frac: f64,
    counters: Counters,
    store_bytes_per_report: f64,
    recovery_ok: bool,
    /// How many of `write_iv` are probe writes after the phase.
    probe_writes: usize,
}

/// A stretch `[t0, t1]` of the phase on the CPU clock, normalized as
/// one interval; `cpu_s` of it was outside kernel samples.
struct Slice {
    t0: f64,
    t1: f64,
    cpu_s: f64,
}

impl Slice {
    /// Closes the slice opened at `(cpu clock, kernel seconds spent)`.
    fn close(open: (f64, f64), pace: &Pace) -> Self {
        let t1 = thread_cpu_s();
        Slice {
            t0: open.0,
            t1,
            cpu_s: t1 - open.0 - (pace.spent_s() - open.1),
        }
    }
}

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A feedback store driven by the benchmark: reports queue in
/// `pending` and are appended, each synced, in one group commit;
/// `acked` counts the appends that returned.
struct Durable {
    store: FeedbackStore,
    pending: Vec<(FeedbackReport, HashMap<String, EpochStamp>)>,
    acked: u64,
    compact_every: u64,
    ok: bool,
}

impl Durable {
    fn new(store: FeedbackStore, compact_every: usize) -> Self {
        Durable {
            store,
            pending: Vec::new(),
            acked: 0,
            compact_every: compact_every as u64,
            ok: true,
        }
    }

    /// Appends every pending report, compacting after each
    /// `compact_every` acknowledged appends.
    fn commit(&mut self, tracer: &mut Tracer) {
        if self.pending.is_empty() {
            return;
        }
        let span = tracer.begin(Kind::Store);
        for (report, stamps) in std::mem::take(&mut self.pending) {
            if let Err(e) = tracer.call(&span, call::APPEND, || self.store.append(&report, &stamps))
            {
                eprintln!("perfbench: append failed: {e}");
                self.ok = false;
                continue;
            }
            self.acked += 1;
            if self.compact_every > 0 && self.acked.is_multiple_of(self.compact_every) {
                if let Err(e) = tracer.call(&span, call::COMPACT, || self.store.compact()) {
                    eprintln!("perfbench: compaction failed: {e}");
                    self.ok = false;
                }
            }
        }
        tracer.end(span);
    }
}

/// Parse → lower → execute → absorb, one span per call.
fn read_op(
    db: &mut Database,
    tracer: &mut Tracer,
    span: &OpSpan,
    sql: &str,
    cfg: &MonitorConfig,
) -> Result<QueryOutcome> {
    let query = tracer.call(span, call::PARSE, || parse_query(sql))?;
    let plan = tracer.call(span, call::LOWER, || db.lower(&query, cfg))?;
    let outcome = tracer.call(span, call::EXECUTE, || db.execute(plan))?;
    tracer.call(span, call::ABSORB, || db.absorb_feedback(&outcome.report))?;
    Ok(outcome)
}

/// Replaces one row of `T`: delete a live key, insert a fresh key, then
/// the `analyze` the engine needs before it plans again. Returns whether
/// exactly one row was deleted; the oracle follows the engine.
fn replace_row(
    db: &mut Database,
    tracer: &mut Tracer,
    span: &OpSpan,
    oracle: &mut TableOracle,
    rng: &mut Rng,
    fresh_key: i64,
    domain: u64,
) -> Result<bool> {
    let victim = oracle.row(rng.gen_range(oracle.len() as u64) as usize)[0];
    let deleted = tracer.call(span, call::DELETE, || {
        db.delete_where("T", |r| matches!(r.values[0], Datum::Int(k) if k == victim))
    })?;
    let row = [
        fresh_key,
        fresh_key,
        rng.gen_range(domain) as i64,
        rng.gen_range(domain) as i64,
        rng.gen_range(domain) as i64,
    ];
    tracer.call(span, call::INSERT, || db.insert_row("T", engine_row(row)))?;
    tracer.call(span, call::REANALYZE, || db.analyze())?;
    let ok = deleted == 1 && oracle.delete(victim).is_some();
    oracle.insert(row);
    Ok(ok)
}

/// Runs the op stream on a freshly set-up database, then the write
/// probe and the store round trip, checking every answer. Timed
/// intervals are kept on the CPU clock; `pace` samples the host's speed
/// between ops so they can be normalized afterwards.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    spec: &Spec,
    seed: u64,
    data: &Dataset,
    stmts: &[Stmt],
    schedule: &[Option<usize>],
    mut db: Database,
    store_dir: &Path,
    tracer: &mut Tracer,
    pace: &mut Pace,
) -> Result<Phase> {
    let sqls: Vec<String> = stmts.iter().map(Stmt::sql).collect();
    let mut t = data.t.clone();
    let t1 = data.t1.as_ref();
    let mut write_rng = Rng::new(seed ^ 0x5EED_0003);
    let mut fresh_key = spec.rows as i64 * 4;
    let mut c = Counters::default();
    let mut first_plan: HashMap<usize, String> = HashMap::new();
    let mut first_report: Vec<Option<FeedbackReport>> = vec![None; stmts.len()];
    let (mut read_iv, mut write_iv) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut completed) = (0u64, 0u64, 0u64);
    let mut sim_ms = 0.0;
    let mut digest = Digest::new();
    // The store attached at set-up is driven directly, so that its
    // syncs happen between ops rather than inside them.
    let mut durable = db
        .detach_feedback_store()
        .map(|store| Durable::new(store, spec.compact_every));
    // A timed row replacement; returns its interval if it succeeded,
    // and the fresh key it inserted.
    let mut write = |db: &mut Database, tracer: &mut Tracer, t: &mut TableOracle| {
        let start = thread_cpu_s();
        let span = tracer.begin(Kind::Write);
        let res = replace_row(
            db,
            tracer,
            &span,
            t,
            &mut write_rng,
            fresh_key,
            spec.rows as u64,
        );
        tracer.end(span);
        let end = thread_cpu_s();
        fresh_key += 1;
        (
            matches!(res, Ok(true)).then_some((start, end)),
            fresh_key - 1,
        )
    };

    let steal0 = host::cpu_times();
    let wall0 = Instant::now();
    pace.sample();
    let (cpu0, spent0) = (thread_cpu_s(), pace.spent_s());
    let slice_ops = spec.slice_ops();
    let mut slices = Vec::new();
    let mut slice_start = (cpu0, spent0);
    for (i, slot) in schedule.iter().enumerate() {
        if i > 0 && i % slice_ops == 0 {
            slices.push(Slice::close(slice_start, pace));
            slice_start = (thread_cpu_s(), pace.spent_s());
        }
        if (i + 1) % spec.pace_every == 0 {
            pace.sample();
        }
        attempted += 1;
        let Some(s) = *slot else {
            let (iv, key) = write(&mut db, tracer, &mut t);
            digest.feed(&key.to_le_bytes());
            match iv {
                Some(iv) => {
                    completed += 1;
                    write_iv.push(iv);
                }
                None => failed += 1,
            }
            continue;
        };
        let cfg = MonitorConfig {
            seed: i as u64,
            ..MonitorConfig::default()
        };
        let cache0 = db.plan_cache_stats();
        let start = thread_cpu_s();
        let span = tracer.begin(Kind::Read);
        let res = read_op(&mut db, tracer, &span, &sqls[s], &cfg);
        tracer.end(span);
        let end = thread_cpu_s();
        // Everything below is outside the op's timer.
        let cache1 = db.plan_cache_stats();
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: op {i} ({}) failed: {e}", sqls[s]);
                failed += 1;
                continue;
            }
        };
        if let Some(d) = &mut durable {
            d.pending.push((out.report.clone(), db.epoch_stamps()));
            if d.pending.len() >= spec.commit_every {
                d.commit(tracer);
            }
        }
        let expected = stmts[s].expected(&t, t1);
        if out.count != expected {
            eprintln!(
                "perfbench: op {i} ({}) returned {} rows, expected {expected}",
                sqls[s], out.count
            );
            failed += 1;
            continue;
        }
        completed += 1;
        read_iv.push((start, end));
        sim_ms += out.elapsed_ms;
        digest.feed(&out.count.to_le_bytes());
        digest.feed(out.description.as_bytes());
        digest.feed(&out.elapsed_ms.to_bits().to_le_bytes());
        c.reads += 1;
        c.rows_examined += out.stats.rows_processed;
        c.rows_out += out.count;
        c.logical_pages += out.stats.logical_reads;
        c.physical_pages += out.stats.physical_reads();
        c.hash_ops += out.stats.hash_ops;
        c.monitor_ops += out.stats.monitor_ops;
        c.measurements += out.report.measurements.len() as u64;
        c.empty_reports += u64::from(out.report.measurements.is_empty());
        c.monitor_bytes += out.monitor_bytes as u64;
        c.cache_hits += cache1.hits - cache0.hits;
        c.cache_lookups += (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
        c.cache_invalidations += cache1.invalidations - cache0.invalidations;
        match first_plan.get(&s) {
            Some(d) => {
                c.repeats += 1;
                c.replans += u64::from(*d != out.description);
            }
            None => {
                first_plan.insert(s, out.description.clone());
            }
        }
        if first_report[s].is_none() {
            first_report[s] = Some(out.report);
        }
    }
    if let Some(d) = &mut durable {
        d.commit(tracer);
    }
    slices.push(Slice::close(slice_start, pace));
    let wall_s = wall0.elapsed().as_secs_f64();
    let busy_s = thread_cpu_s() - cpu0 - (pace.spent_s() - spent0);
    let steal_frac = host::steal_frac(steal0, host::cpu_times());
    pace.sample();

    // Workloads whose stream does not write time a replacement of a row
    // of the same table after the timed phase.
    for _ in 0..spec.probe_writes {
        attempted += 1;
        let (iv, key) = write(&mut db, tracer, &mut t);
        digest.feed(&key.to_le_bytes());
        match iv {
            Some(iv) => write_iv.push(iv),
            None => failed += 1,
        }
        pace.sample();
    }

    // Durability round trip. Workloads without a live store persist
    // one harvested report per statement now, then compact.
    let d = match durable {
        Some(d) => d,
        None => {
            let mut d = Durable::new(FeedbackStore::open(store_dir.join("persist"))?, 0);
            d.pending = first_report
                .into_iter()
                .flatten()
                .map(|r| (r, db.epoch_stamps()))
                .collect();
            d.commit(tracer);
            let span = tracer.begin(Kind::Store);
            if let Err(e) = tracer.call(&span, call::COMPACT, || d.store.compact()) {
                eprintln!("perfbench: compaction failed: {e}");
                d.ok = false;
            }
            tracer.end(span);
            d
        }
    };
    let stats = d.store.stats();
    let bytes_per_report =
        (stats.wal_bytes + stats.snapshot_bytes) as f64 / stats.records.max(1) as f64;
    let dir = d.store.dir().to_path_buf();
    drop(d.store);
    let span = tracer.begin(Kind::Store);
    let recovered = tracer.call(&span, call::RECOVER, || db.attach_feedback_store(&dir));
    tracer.end(span);
    let recovery_ok = d.ok
        && match recovered {
            Ok(n) if n as u64 == d.acked => true,
            Ok(n) => {
                eprintln!(
                    "perfbench: recovered {n} reports, {} were acknowledged",
                    d.acked
                );
                false
            }
            Err(e) => {
                eprintln!("perfbench: recovery failed: {e}");
                false
            }
        };

    Ok(Phase {
        read_iv,
        write_iv,
        slices,
        wall_s,
        busy_s,
        completed,
        attempted,
        failed,
        sim_ms,
        digest: digest.0,
        steal_frac,
        counters: c,
        store_bytes_per_report: bytes_per_report,
        recovery_ok,
        probe_writes: spec.probe_writes,
    })
}

/// The `p`-quantile (0..=1) by linear interpolation; 0 for no samples.
fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A named value with its unit and how many samples it summarises.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

struct Report {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: u64,
    sim_ms: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// `failed_frac`, printed but not in the JSON: it is 0 when all is well.
    failed_frac: f64,
    steal_frac: f64,
}

impl Report {
    fn print(&self, trace: bool) {
        println!(
            "# digest {:016x} sim_ms {} ({})",
            self.digest,
            self.sim_ms,
            self.workload.name()
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!("metric {} {} {} ({})", m.name, m.value, m.unit, m.note);
        }
        println!(
            "metric failed_frac {} ratio ({} failed of {} attempted)",
            self.failed_frac, self.failed, self.attempted
        );
        println!("# run.steal_frac {}", self.steal_frac);
        let shown = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// One benchmark run: untimed generation, `spec.setups` timed set-ups,
/// the timed op stream, the write probe and the store round trip, with
/// spans recorded when `trace` is set.
fn run(spec: &Spec, seed: u64, trace: bool, run_dir: &Path) -> Result<Report> {
    let data = Dataset::generate(spec, seed);
    let stmts = spec.pool(seed, &data.t, data.t1.as_ref());
    let schedule = spec.schedule(seed);
    let store_root = run_dir.join("store");
    let monitor = MonitorConfig::default();
    let probe_db = Database::new();
    println!(
        "# config hardware_threads={} pool_pages={} monitor={{enabled={} sampling_fraction={} \
         monitor_pairs={} bitvector_bits={:?} memory_budget={:?} deadline_ms={:?} seed=op index}} \
         store={} store_fs={}",
        host::hardware_threads(),
        probe_db.pool_pages,
        monitor.enabled,
        monitor.sampling_fraction,
        monitor.monitor_pairs,
        monitor.bitvector_bits,
        monitor.memory_budget,
        monitor.deadline_ms,
        if spec.store {
            store_root.display().to_string()
        } else {
            "none (in-memory hints; a store is attached only for the round trip)".into()
        },
        host::filesystem_of(run_dir)
    );
    drop(probe_db);
    println!(
        "# sizes rows={} t1={} pool={} ops={} setups={} write_every={} probe_writes={} \
         compact_every={}",
        spec.rows,
        spec.with_t1,
        spec.pool,
        spec.ops,
        spec.setups,
        spec.write_every,
        spec.probe_writes,
        spec.compact_every
    );
    std::fs::create_dir_all(&store_root)
        .map_err(|e| pf_common::Error::InvalidArgument(format!("run directory: {e}")))?;

    let mut tracer = Tracer::new(trace);
    let mut pace = Pace::new();
    let (db, setups) = setup_repeatedly(
        &data,
        spec.setups,
        spec.store,
        &store_root,
        &mut tracer,
        &mut pace,
    )?;
    let phase = run_phase(
        spec,
        seed,
        &data,
        &stmts,
        &schedule,
        db,
        &store_root,
        &mut tracer,
        &mut pace,
    )?;
    if trace {
        let path = run_dir
            .parent()
            .unwrap_or(run_dir)
            .join(format!("trace-{}-seed{seed}.tsv", spec.workload.name()));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let (attempted, failed) = (phase.attempted, phase.failed);
    let correct = failed == 0 && phase.recovery_ok;

    let e2e = |name: &'static str, value: f64, note: String| Metric {
        name,
        unit: unit_of(&END_TO_END, name),
        value,
        note,
    };
    // Each interval rescaled by the host speed around it (see `calib`),
    // and the raw CPU figure beside it in the notes.
    let norm = |iv: &[(f64, f64)]| -> Vec<f64> {
        iv.iter()
            .map(|&(a, b)| pace.normalize(a, b, b - a))
            .collect()
    };
    let raw = |iv: &[(f64, f64)]| -> Vec<f64> { iv.iter().map(|&(a, b)| b - a).collect() };
    let (reads, writes) = (norm(&phase.read_iv), norm(&phase.write_iv));
    let raw_reads = raw(&phase.read_iv);
    let phase_s: f64 = phase
        .slices
        .iter()
        .map(|s| pace.normalize(s.t0, s.t1, s.cpu_s))
        .sum();
    let n = reads.len();
    let end_to_end = vec![
        e2e(
            "setup_s",
            median(&norm(&setups)),
            format!(
                "median of {} set-ups; CPU {:?} s",
                setups.len(),
                raw(&setups)
            ),
        ),
        e2e(
            "ops_per_s",
            ratio(phase.completed as f64, phase_s),
            format!(
                "{} ops in {:.3} s; CPU {:.3} s, wall {:.3} s",
                phase.completed, phase_s, phase.busy_s, phase.wall_s
            ),
        ),
        e2e(
            "op_p50_ms",
            median(&reads) * 1e3,
            format!("n={n} reads; CPU {:.4} ms", median(&raw_reads) * 1e3),
        ),
        e2e(
            "op_p95_ms",
            quantile(&reads, 0.95) * 1e3,
            format!(
                "n={n} reads, {} beyond p95; CPU {:.4} ms",
                n / 20,
                quantile(&raw_reads, 0.95) * 1e3
            ),
        ),
        e2e(
            "write_p50_ms",
            median(&writes) * 1e3,
            format!(
                "n={} writes {}; CPU {:.3} ms",
                writes.len(),
                if spec.write_every > 0 {
                    "in the op stream"
                } else {
                    "after the read phase"
                },
                median(&raw(&phase.write_iv)) * 1e3
            ),
        ),
        e2e(
            "sim_ms",
            phase.sim_ms,
            format!("simulated, summed over {n} reads"),
        ),
        e2e(
            "peak_rss_mb",
            host::peak_rss_kib() as f64 / 1024.0,
            "VmHWM".into(),
        ),
    ];
    println!(
        "# host kernel {:.3} ms median over {} samples (reference {} ms)",
        pace.median_s() * 1e3,
        pace.samples(),
        calib::REFERENCE_KERNEL_S * 1e3
    );

    let per_layer = if trace {
        per_layer_metrics(&tracer, &phase, &pace)
    } else {
        Vec::new()
    };
    Ok(Report {
        workload: spec.workload,
        correct,
        attempted,
        failed,
        digest: phase.digest,
        sim_ms: phase.sim_ms,
        end_to_end,
        per_layer,
        failed_frac: ratio(failed as f64, attempted as f64),
        steal_frac: phase.steal_frac,
    })
}

/// Per-layer figures from the traced phase, on the raw CPU clock.
fn per_layer_metrics(tracer: &Tracer, p: &Phase, pace: &Pace) -> Vec<Metric> {
    let c = &p.counters;
    let reads = c.reads as f64;
    let metric = |name: &'static str, value: f64, note: String| Metric {
        name,
        unit: unit_of(&PER_LAYER, name),
        value,
        note,
    };
    let mut out = Vec::new();
    // A timed call: its per-call median, scaled to the metric's unit, and
    // its share of the time of all ops of its kind.
    for (name, share, kind, span, scale) in [
        (
            "storage.load_s",
            "storage.load_s.share",
            Kind::Setup,
            call::CREATE_TABLE,
            1.0,
        ),
        (
            "storage.index_build_s",
            "storage.index_build_s.share",
            Kind::Setup,
            call::CREATE_INDEX,
            1.0,
        ),
        (
            "optimizer.analyze_s",
            "optimizer.analyze_s.share",
            Kind::Setup,
            call::ANALYZE,
            1.0,
        ),
        (
            "sql.parse_us",
            "sql.parse_us.share",
            Kind::Read,
            call::PARSE,
            1e6,
        ),
        (
            "planner.lower_us",
            "planner.lower_us.share",
            Kind::Read,
            call::LOWER,
            1e6,
        ),
        (
            "exec.execute_ms",
            "exec.execute_ms.share",
            Kind::Read,
            call::EXECUTE,
            1e3,
        ),
        (
            "hints.absorb_us",
            "hints.absorb_us.share",
            Kind::Read,
            call::ABSORB,
            1e6,
        ),
        (
            "storage.insert_ms",
            "storage.insert_ms.share",
            Kind::Write,
            call::INSERT,
            1e3,
        ),
        (
            "storage.delete_ms",
            "storage.delete_ms.share",
            Kind::Write,
            call::DELETE,
            1e3,
        ),
        (
            "optimizer.reanalyze_ms",
            "optimizer.reanalyze_ms.share",
            Kind::Write,
            call::REANALYZE,
            1e3,
        ),
    ] {
        let d = tracer.durations(kind, span);
        out.push(metric(
            name,
            median(&d) * scale,
            format!("median of {} {span} calls", d.len()),
        ));
        out.push(metric(
            share,
            ratio(tracer.self_time(kind, span), tracer.op_time(kind)),
            format!("of {} op time", kind.name()),
        ));
    }
    for (name, span, scale) in [
        ("feedback_store.append_us", call::APPEND, 1e6),
        ("feedback_store.compact_ms", call::COMPACT, 1e3),
        ("feedback_store.recover_ms", call::RECOVER, 1e3),
    ] {
        let d = tracer.durations(Kind::Store, span);
        out.push(metric(
            name,
            median(&d) * scale,
            format!("median of {} {span} calls", d.len()),
        ));
    }
    let span_cost_s = Tracer::span_cost_s();
    out.extend([
        metric(
            "feedback_store.bytes_per_report",
            p.store_bytes_per_report,
            "WAL + snapshot bytes per live report".into(),
        ),
        metric(
            "plan_cache.hit_rate",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
            format!("{} hits of {} lookups", c.cache_hits, c.cache_lookups),
        ),
        metric(
            "plan_cache.invalidations_per_op",
            ratio(c.cache_invalidations as f64, reads),
            format!("{} invalidations", c.cache_invalidations),
        ),
        metric(
            "exec.rows_examined_per_row_out",
            ratio(c.rows_examined as f64, c.rows_out as f64),
            format!("{} examined, {} returned", c.rows_examined, c.rows_out),
        ),
        metric(
            "exec.logical_pages_per_op",
            ratio(c.logical_pages as f64, reads),
            format!("over {} reads", c.reads),
        ),
        metric(
            "exec.physical_pages_per_op",
            ratio(c.physical_pages as f64, reads),
            format!("over {} reads", c.reads),
        ),
        metric(
            "exec.hash_ops_per_op",
            ratio(c.hash_ops as f64, reads),
            format!("over {} reads", c.reads),
        ),
        metric(
            "exec.monitor_ops_per_row",
            ratio(c.monitor_ops as f64, c.rows_examined as f64),
            format!("{} monitor ops", c.monitor_ops),
        ),
        metric(
            "feedback.measurements_per_op",
            ratio(c.measurements as f64, reads),
            format!("{} measurements", c.measurements),
        ),
        metric(
            "feedback.empty_report_frac",
            ratio(c.empty_reports as f64, reads),
            format!("{} empty reports", c.empty_reports),
        ),
        metric(
            "feedback.monitor_kib_per_op",
            ratio(c.monitor_bytes as f64, reads) / 1024.0,
            "monitor bytes held at harvest".into(),
        ),
        metric(
            "optimizer.replan_frac",
            ratio(c.replans as f64, c.repeats as f64),
            format!(
                "{} of {} repeated statements changed plan",
                c.replans, c.repeats
            ),
        ),
        metric(
            "run.write_time_frac",
            ratio(
                p.write_iv
                    .iter()
                    .take(p.write_iv.len() - p.probe_writes)
                    .map(|&(a, b)| b - a)
                    .sum(),
                p.busy_s,
            ),
            "writes' share of the timed phase".into(),
        ),
        metric(
            "run.kernel_ms",
            pace.median_s() * 1e3,
            format!("host speed: median of {} kernel samples", pace.samples()),
        ),
        metric(
            "run.steal_frac",
            p.steal_frac,
            "steal ticks / all ticks over the traced phase".into(),
        ),
        metric(
            "run.bench_self_frac",
            ratio(
                tracer.self_time(Kind::Read, ROOT),
                tracer.op_time(Kind::Read),
            ),
            "read-op time outside any layer call".into(),
        ),
        metric(
            "trace.overhead_frac",
            ratio(tracer.spans() as f64 * span_cost_s, p.busy_s),
            format!(
                "{} spans at {:.0} ns each, over the phase's CPU time",
                tracer.spans(),
                span_cost_s * 1e9
            ),
        ),
    ]);
    // Report in the declared order.
    out.sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_run(workload: Workload, seed: u64, trace: bool) -> Report {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_run")
            .join(format!(
                "selftest-{}-{seed}-{}",
                workload.name(),
                std::process::id()
            ));
        // The span file lands beside the run directory, so nest it.
        let report = run(&Spec::toy(workload), seed, trace, &dir.join("run")).expect("toy run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    fn assert_complete(metrics: &[Metric], table: &[(&'static str, &'static str)]) {
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for m in metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            assert_eq!(m.unit, unit_of(table, m.name), "{}", m.name);
        }
    }

    #[test]
    fn every_workload_answers_correctly_and_prints_every_metric() {
        for workload in Workload::ALL {
            let r = toy_run(workload, 1, true);
            assert!(r.correct, "{}", workload.name());
            assert_eq!(r.failed, 0);
            assert_complete(&r.end_to_end, &END_TO_END);
            assert_complete(&r.per_layer, &PER_LAYER);
        }
    }

    #[test]
    fn the_seed_alone_decides_digest_and_simulated_time() {
        for workload in Workload::ALL {
            let a = toy_run(workload, 7, false);
            let b = toy_run(workload, 7, false);
            let c = toy_run(workload, 8, false);
            assert_eq!(
                (a.digest, a.sim_ms),
                (b.digest, b.sim_ms),
                "{}",
                workload.name()
            );
            assert_ne!(a.digest, c.digest, "{}", workload.name());
        }
    }

    #[test]
    fn benchmark_json_names_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = Workload::ALL
            .iter()
            .filter(|w| json.contains(&format!("\"name\": \"{}\"", w.name())))
            .count();
        assert!(listed >= 2, "BENCHMARK.json lists {listed} workloads");
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + listed
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload join_feedback --seed 3 --seconds 5 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::JoinFeedback, 3, 5, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload scan_feedback --trace 2").is_err());
        assert!(args("--workload scan_feedback --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}
