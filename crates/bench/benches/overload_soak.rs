//! Overload soak: seeded 4×-over-capacity query storms through
//! admission control, the memory-reservation ladder, and the feedback
//! circuit breaker, at seeds {1,2,3} × store error rates {0, 0.01}.
//! Every scenario runs at jobs ∈ {1, 2, 8} and must produce a
//! byte-identical admit/shed/breaker trace (the digest), plus a repeat
//! run at the same seed for replay identity. Emits
//! `BENCH_overload_soak.json` with shed rate, p99 simulated queue
//! wait, and breaker trips per scenario for the CI trend line.
//!
//! Run with `cargo bench --bench overload_soak`. Knobs:
//!
//! * `PF_BENCH_QUICK=1` — smaller storms, for CI smoke.
//! * `PF_BENCH_ENFORCE=1` — exit non-zero if a storm sheds nothing,
//!   sheds everything, or lets the p99 simulated queue wait exceed the
//!   storm's own simulated duration. The determinism and boundedness
//!   invariants are asserted unconditionally.

use pf_bench::soak::{run_soak, SoakSpec};

fn quick() -> bool {
    matches!(std::env::var("PF_BENCH_QUICK").as_deref(), Ok("1"))
}

struct Row {
    seed: u64,
    error_rate: f64,
    shed_rate: f64,
    p99_queue_wait_ms: f64,
    breaker_trips: u64,
    completed: usize,
    durable: u64,
    digest: u64,
}

fn main() {
    let queries = if quick() { 400 } else { 2_000 };
    let mut rows: Vec<Row> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for seed in [1u64, 2, 3] {
        for error_rate in [0.0, 0.01] {
            // jobs=1 is the reference; 2 and 8 must match its digest.
            let reference = run_soak(&SoakSpec::storm(seed, queries, error_rate, 1));
            reference.assert_invariants();
            for jobs in [2usize, 8] {
                let other = run_soak(&SoakSpec::storm(seed, queries, error_rate, jobs));
                other.assert_invariants();
                assert_eq!(
                    reference.digest, other.digest,
                    "seed={seed} rate={error_rate}: jobs={jobs} trace diverged from jobs=1"
                );
            }
            // Replay identity at the same seed.
            let replay = run_soak(&SoakSpec::storm(seed, queries, error_rate, 1));
            assert_eq!(
                reference.digest, replay.digest,
                "seed={seed} rate={error_rate}: repeat run diverged"
            );

            let report = &reference.report;
            let shed_rate = report.shed_rate();
            let p99 = report.stats.p99_queue_wait_ms();
            let trips = report.breaker_trips;
            println!(
                "seed={seed} rate={error_rate:<4} shed={:>5.1}% p99_wait={p99:>8.3} ms trips={trips} completed={} durable={} digest={:016x}",
                shed_rate * 100.0,
                reference.completed,
                report.durable_reports,
                reference.digest,
            );

            // A 4x storm must shed something but not everything, and a
            // bounded queue means bounded simulated waits: the p99 wait
            // cannot exceed the whole storm's simulated span.
            let span_ms = report
                .records
                .iter()
                .map(|r| r.completed_ms)
                .fold(0.0f64, f64::max);
            if shed_rate <= 0.0 {
                violations.push(format!(
                    "seed={seed} rate={error_rate}: 4x storm shed nothing"
                ));
            }
            if shed_rate >= 1.0 {
                violations.push(format!(
                    "seed={seed} rate={error_rate}: storm shed everything"
                ));
            }
            if p99 > span_ms {
                violations.push(format!(
                    "seed={seed} rate={error_rate}: p99 wait {p99:.3} ms exceeds storm span {span_ms:.3} ms"
                ));
            }
            // A torn store fails every subsequent append, so once the
            // run has accumulated threshold-many failed/skipped appends
            // the breaker must have tripped. (At a 1% rate the fault may
            // deterministically never fire in a short storm — that run
            // legitimately records zero failures and zero trips.)
            let failed_appends = report.absorbed_reports - report.durable_reports;
            if failed_appends >= 3 && trips == 0 {
                violations.push(format!(
                    "seed={seed} rate={error_rate}: {failed_appends} failed appends but the breaker never tripped"
                ));
            }
            if error_rate == 0.0 && trips != 0 {
                violations.push(format!(
                    "seed={seed} rate={error_rate}: breaker tripped without faults"
                ));
            }

            rows.push(Row {
                seed,
                error_rate,
                shed_rate,
                p99_queue_wait_ms: p99,
                breaker_trips: trips,
                completed: reference.completed,
                durable: report.durable_reports,
                digest: reference.digest,
            });
        }
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"seed\": {}, \"error_rate\": {}, \"shed_rate\": {:.4}, \"p99_queue_wait_ms\": {:.3}, \"breaker_trips\": {}, \"completed\": {}, \"durable_reports\": {}, \"digest\": \"{:016x}\"}}",
                r.seed,
                r.error_rate,
                r.shed_rate,
                r.p99_queue_wait_ms,
                r.breaker_trips,
                r.completed,
                r.durable,
                r.digest
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"overload_soak\",\n  \"queries_per_storm\": {queries},\n  \"over_capacity\": 4.0,\n  \"hardware_threads\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_rows.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_overload_soak.json");
    std::fs::write(&out, &json).expect("write artifact");
    println!("wrote {}", out.display());

    if matches!(std::env::var("PF_BENCH_ENFORCE").as_deref(), Ok("1")) {
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("FAIL: {v}");
            }
            std::process::exit(1);
        }
        println!("overload gates passed: {} scenarios", rows.len());
    } else if !violations.is_empty() {
        for v in &violations {
            println!("note (unenforced): {v}");
        }
    }
}
