//! Wall-clock throughput of the parallel workload driver: the same
//! monitored query batch executed at 1/2/4/8 workers over one shared
//! read-only storage snapshot, repeated for several rounds so the
//! steady state (persistent pool warm, plan cache populated, scratch
//! contexts grown) dominates. Emits `BENCH_parallel_driver.json` with
//! per-job-count throughput, speedup, worker contention counters, and
//! plan-cache effectiveness for the CI trend line.
//!
//! Run with `cargo bench --bench parallel`. Knobs:
//!
//! * `PF_BENCH_QUICK=1` — small workload / fewer rounds, for CI smoke.
//! * `PF_BENCH_ENFORCE=1` — exit non-zero if jobs=8 throughput falls
//!   below jobs=1 (the negative-scaling regression gate). Off by
//!   default because single-core hosts cannot exhibit real speedup;
//!   the JSON's `hardware_threads` field records what the host offered.

use pagefeed::{
    Database, MonitorConfig, ParallelRunner, PredSpec, Query, RunStats, WorkloadSummary,
};
use pf_common::Datum;
use pf_exec::CompareOp;
use pf_workloads::single_table_workload;
use pf_workloads::synthetic::{build, SyntheticConfig};
use std::time::Instant;

fn quick() -> bool {
    matches!(std::env::var("PF_BENCH_QUICK").as_deref(), Ok("1"))
}

fn nrows() -> i64 {
    if quick() {
        10_000
    } else {
        40_000
    }
}

fn synthetic_db(rows: i64, with_t1: bool) -> Database {
    build(&SyntheticConfig {
        rows: rows as usize,
        with_t1,
        seed: 2_024,
    })
    .unwrap()
}

fn workload(db: &Database) -> Vec<Query> {
    // n is per predicate column: 4 columns × n = total queries.
    let n = if quick() { 4 } else { 16 };
    single_table_workload(db, "T", &["c2", "c3", "c4", "c5"], n, (0.01, 0.10), 7).unwrap()
}

/// Table size of the feedback-flipped cases in both modes: a flipped
/// index fetch or INL join over a smaller table touches too few pages
/// to show anything but per-morsel overhead.
const FLIP_ROWS: i64 = 40_000;

struct Sample {
    jobs: usize,
    queries_per_sec: f64,
    speedup_vs_serial: f64,
    utilization: f64,
    queue_wait_ms: f64,
    contention: Option<RunStats>,
}

fn main() {
    let db = synthetic_db(nrows(), false);
    let queries = workload(&db);
    let cfg = MonitorConfig::default();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm up page decode paths / allocator before timing anything.
    ParallelRunner::new(1)
        .run_queries(&db, &queries, &cfg)
        .unwrap();

    let mut samples: Vec<Sample> = Vec::new();
    let mut baseline_qps = 0.0;
    for jobs in [1usize, 2, 4, 8] {
        let runner = ParallelRunner::new(jobs);
        // Best of several rounds: throughput, not latency percentiles.
        // The pool persists across rounds, so round 2+ measures the
        // steady state the driver actually runs in.
        let rounds = if quick() { 3 } else { 5 };
        let mut best = f64::INFINITY;
        let mut reference: Option<WorkloadSummary> = None;
        for _ in 0..rounds {
            let start = Instant::now();
            let outcomes = runner.run_queries(&db, &queries, &cfg).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            best = best.min(elapsed);
            let summary =
                WorkloadSummary::from_owned(outcomes).with_contention(runner.last_run_stats());
            if let Some(r) = &reference {
                assert_eq!(
                    r.total_stats, summary.total_stats,
                    "jobs={jobs}: results drifted between rounds"
                );
            }
            reference = Some(summary);
        }
        let contention = reference.and_then(|r| r.contention);
        let (utilization, queue_wait_ms) = contention.as_ref().map_or((0.0, 0.0), |c| {
            (c.utilization(), c.queue_wait_ns() as f64 / 1e6)
        });
        let qps = queries.len() as f64 / best;
        if jobs == 1 {
            baseline_qps = qps;
        }
        let speedup = qps / baseline_qps;
        println!(
            "jobs={jobs:<2} {qps:>8.1} queries/sec   {speedup:>5.2}x vs serial   {:>5.1}% busy   {queue_wait_ms:>7.2} ms queue wait",
            utilization * 100.0,
        );
        samples.push(Sample {
            jobs,
            queries_per_sec: qps,
            speedup_vs_serial: speedup,
            utilization,
            queue_wait_ms,
            contention,
        });
    }

    let cache = db.plan_cache_stats();
    println!(
        "plan cache: {} hits / {} misses ({:.0}% hit rate), {} invalidations",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.invalidations,
    );

    // -----------------------------------------------------------------
    // Intra-query morsel scaling: single queries repeatedly executed
    // through `run_query`, which splits each of the four morsel shapes:
    // a monitored scan into page-range morsels, a hash join into build
    // and probe morsels, an index fetch into RID-run morsels, and an
    // index-nested-loops join into outer page-range morsels. The last
    // two are the plans the paper's feedback loop flips to, so they run
    // on their own `FLIP_ROWS` database (with the join copy `T1`) after
    // one run absorbs the measured DPCs. Each case asserts identity
    // against the serial outcome before timing counts for anything.
    // -----------------------------------------------------------------
    let nrows = nrows();
    let cases: Vec<(&str, Query, MonitorConfig, bool)> = vec![
        (
            "monitored_scan",
            Query::count(
                "T",
                vec![PredSpec::new(
                    "c2",
                    CompareOp::Lt,
                    Datum::Int(nrows * 3 / 4),
                )],
            ),
            MonitorConfig::sampled(0.5),
            false,
        ),
        (
            // Scattered inner join column keeps the optimizer on a hash
            // join; its build and probe phases split into morsels.
            "hash_join",
            Query::join_count("T", "T", vec![], "c2", "c5"),
            MonitorConfig::default(),
            false,
        ),
        (
            // The correlated column's measured DPC flips a table scan to
            // an index fetch of 1 000 rows.
            "index_fetch",
            Query::count(
                "T",
                vec![PredSpec::new("c2", CompareOp::Lt, Datum::Int(1_000))],
            ),
            MonitorConfig::default(),
            true,
        ),
        (
            // `T1 ⋈ T` on the correlated column: the bit-vector DPC
            // measured by the hash join flips it to index nested loops
            // (as in `examples/join_tuning.rs`).
            "inl_join",
            Query::join_count(
                "T1",
                "T",
                vec![PredSpec::new(
                    "c1",
                    CompareOp::Lt,
                    Datum::Int(FLIP_ROWS / 40),
                )],
                "c2",
                "c2",
            ),
            MonitorConfig::default(),
            true,
        ),
    ];
    let mut flip_db = synthetic_db(FLIP_ROWS, true);
    for (name, query, mcfg, _) in cases.iter().filter(|c| c.3) {
        let first = flip_db.run(query, mcfg).unwrap();
        flip_db.absorb_feedback(&first.report).unwrap();
        let now = flip_db.run(query, mcfg).unwrap();
        assert_ne!(
            first.choice.name(),
            now.choice.name(),
            "{name}: feedback must flip the plan"
        );
        println!("{name:<16} {} -> {}", first.description, now.description);
    }
    let reps = if quick() { 3 } else { 8 };
    let mut intra: Vec<(String, usize, f64, f64)> = Vec::new();
    for (name, query, mcfg, flip) in &cases {
        let db = if *flip { &flip_db } else { &db };
        let serial = db.run(query, mcfg).unwrap();
        let mut base_eps = 0.0;
        for jobs in [1usize, 2, 4, 8] {
            let runner = ParallelRunner::new(jobs);
            // Warm the pool, and check the morsel result is the serial
            // result before trusting any timing from this case.
            let outcome = runner.run_query(db, query, mcfg).unwrap();
            assert_eq!(serial.count, outcome.count, "{name} jobs={jobs}");
            assert_eq!(serial.stats, outcome.stats, "{name} jobs={jobs}");
            assert_eq!(serial.report, outcome.report, "{name} jobs={jobs}");
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let start = Instant::now();
                for _ in 0..reps {
                    runner.run_query(db, query, mcfg).unwrap();
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            let eps = reps as f64 / best;
            if jobs == 1 {
                base_eps = eps;
            }
            let speedup = eps / base_eps;
            println!("{name:<16} jobs={jobs:<2} {eps:>8.1} execs/sec   {speedup:>5.2}x vs serial");
            intra.push((name.to_string(), jobs, eps, speedup));
        }
    }

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            let workers: Vec<String> = s
                .contention
                .iter()
                .flat_map(|c| &c.workers)
                .map(|w| {
                    format!(
                        "{{\"worker\": {}, \"tasks\": {}, \"batches\": {}, \"busy_ns\": {}, \"queue_wait_ns\": {}}}",
                        w.worker, w.tasks, w.batches, w.busy_ns, w.queue_wait_ns
                    )
                })
                .collect();
            format!(
                "    {{\"jobs\": {}, \"queries_per_sec\": {:.2}, \"speedup_vs_serial\": {:.3}, \"utilization\": {:.3}, \"queue_wait_ms\": {:.3}, \"workers\": [{}]}}",
                s.jobs,
                s.queries_per_sec,
                s.speedup_vs_serial,
                s.utilization,
                s.queue_wait_ms,
                workers.join(", ")
            )
        })
        .collect();
    let intra_rows: Vec<String> = intra
        .iter()
        .map(|(name, jobs, eps, speedup)| {
            format!(
                "    {{\"case\": \"{name}\", \"jobs\": {jobs}, \"execs_per_sec\": {eps:.2}, \"speedup_vs_serial\": {speedup:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"parallel_driver\",\n  \"queries\": {},\n  \"hardware_threads\": {},\n  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}, \"invalidations\": {}}},\n  \"results\": [\n{}\n  ],\n  \"intra_query\": [\n{}\n  ]\n}}\n",
        queries.len(),
        hardware_threads,
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        cache.invalidations,
        rows.join(",\n"),
        intra_rows.join(",\n")
    );
    // cargo runs benches with CWD = the package dir; put the artifact at
    // the workspace root where CI collects BENCH_*.json files.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_parallel_driver.json");
    std::fs::write(&out, &json).unwrap();
    println!("wrote {}", out.display());

    if matches!(std::env::var("PF_BENCH_ENFORCE").as_deref(), Ok("1")) {
        let qps_at = |jobs: usize| {
            samples
                .iter()
                .find(|s| s.jobs == jobs)
                .map(|s| s.queries_per_sec)
                .unwrap_or(0.0)
        };
        let (one, eight) = (qps_at(1), qps_at(8));
        if eight < one {
            eprintln!("FAIL: negative scaling — jobs=8 {eight:.1} q/s < jobs=1 {one:.1} q/s");
            std::process::exit(1);
        }
        println!("scaling gate passed: jobs=8 {eight:.1} q/s >= jobs=1 {one:.1} q/s");
        for (name, ..) in &cases {
            let eps_at = |jobs: usize| {
                intra
                    .iter()
                    .find(|(n, j, _, _)| n == name && *j == jobs)
                    .map(|(_, _, eps, _)| *eps)
                    .unwrap_or(0.0)
            };
            let (one, eight) = (eps_at(1), eps_at(8));
            if eight < one {
                eprintln!(
                    "FAIL: negative morsel scaling — {name} jobs=8 {eight:.1} execs/s < jobs=1 {one:.1} execs/s"
                );
                std::process::exit(1);
            }
            println!(
                "morsel gate passed: {name} jobs=8 {eight:.1} execs/s >= jobs=1 {one:.1} execs/s"
            );
        }
    }
}
