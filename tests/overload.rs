//! Overload-protection acceptance tests: admission control, the
//! memory-reservation degradation ladder, and the feedback circuit
//! breaker, end to end on the simulated clock.
//!
//! The key claims under test:
//! * a 4×-over-capacity storm completes without wedging, with bounded
//!   queue depth and bounded peak reserved memory;
//! * the admit/shed/breaker trace is byte-identical across worker
//!   counts (jobs ∈ {1, 2, 8}) and across repeat runs at one seed;
//! * a run with the breaker forced open is byte-identical to a run
//!   with no feedback store attached at all;
//! * a faulted store trips the breaker without losing or duplicating
//!   feedback.

use pagefeed::{
    run_admitted_workload, AdmittedJob, CircuitBreaker, DegradeStep, MemoryBudget, MonitorConfig,
    ParallelRunner, PredSpec, Query, BASE_QUERY_BYTES,
};
use pf_bench::soak::{
    build_storm, fnv1a_lines, run_soak, soak_admission, soak_budget_capacity, soak_db,
    soak_queries, SoakSpec,
};
use pf_common::{Datum, Error};
use pf_exec::CompareOp;

#[test]
fn storm_is_jobs_invariant_and_replayable() {
    let reference = run_soak(&SoakSpec::storm(11, 150, 0.01, 1));
    reference.assert_invariants();
    for jobs in [2usize, 8] {
        let other = run_soak(&SoakSpec::storm(11, 150, 0.01, jobs));
        other.assert_invariants();
        assert_eq!(
            reference.digest, other.digest,
            "jobs={jobs} diverged from the serial trace"
        );
    }
    let replay = run_soak(&SoakSpec::storm(11, 150, 0.01, 1));
    assert_eq!(reference.digest, replay.digest, "replay diverged");
}

#[test]
fn four_x_storm_sheds_but_stays_bounded() {
    let out = run_soak(&SoakSpec::storm(1, 200, 0.0, 1));
    out.assert_invariants();
    let stats = &out.report.stats;
    assert!(stats.shed() > 0, "a 4x storm must shed");
    assert!(out.completed > 0, "a 4x storm must still serve queries");
    assert!(
        stats.max_queue_depth <= out.queue_capacity,
        "queue depth {} broke the bound {}",
        stats.max_queue_depth,
        out.queue_capacity
    );
    assert!(out.report.budget.peak_reserved() <= out.budget_capacity);
    // Someone waited: the p99 simulated queue wait is a real number.
    assert!(stats.p99_queue_wait_ms() > 0.0);
}

#[test]
fn breaker_forced_open_matches_no_store_run() {
    let spec = SoakSpec::storm(5, 80, 0.0, 1);
    let admission = soak_admission();

    let run = |attach_store: bool| {
        let mut db = soak_db();
        let pool = soak_queries(&db);
        let jobs = build_storm(&db, &pool, &spec, &admission);
        if attach_store {
            let dir =
                std::env::temp_dir().join(format!("pagefeed-forced-open-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            db.attach_feedback_store(&dir).expect("attach");
            let mut breaker = CircuitBreaker::default();
            breaker.force_open(0);
            db.set_breaker(Some(breaker));
        }
        let report = run_admitted_workload(
            &mut db,
            &ParallelRunner::new(1),
            &jobs,
            &MonitorConfig::default(),
            admission.clone(),
            MemoryBudget::new(soak_budget_capacity()),
        );
        let store_len = db.feedback_store().map_or(0, |s| s.len());
        (report, store_len)
    };

    let (without_store, _) = run(false);
    let (with_tripped_breaker, store_len) = run(true);

    assert_eq!(
        fnv1a_lines(without_store.trace.iter().map(String::as_str)),
        fnv1a_lines(with_tripped_breaker.trace.iter().map(String::as_str)),
        "forced-open run must trace byte-identically to a storeless run"
    );
    assert_eq!(without_store.trace, with_tripped_breaker.trace);
    assert_eq!(
        without_store.absorbed_reports, with_tripped_breaker.absorbed_reports,
        "in-memory feedback must flow identically"
    );
    assert_eq!(with_tripped_breaker.durable_reports, 0);
    assert_eq!(
        store_len, 0,
        "a forced-open breaker must never touch the store"
    );
    // Per-job outcomes match exactly.
    for (a, b) in without_store
        .records
        .iter()
        .zip(with_tripped_breaker.records.iter())
    {
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.count, y.count);
                assert_eq!(x.elapsed_ms.to_bits(), y.elapsed_ms.to_bits());
                assert_eq!(x.monitor_bytes, y.monitor_bytes);
            }
            (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
            (x, y) => panic!("outcome kind diverged: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn faulted_store_trips_breaker_without_losing_feedback() {
    let out = run_soak(&SoakSpec::storm(3, 200, 0.2, 1));
    out.assert_invariants();
    let report = &out.report;
    assert!(
        report.durable_reports < report.absorbed_reports,
        "a 20% fault rate must cost some durable appends"
    );
    assert!(
        report.breaker_trips >= 1,
        "consecutive append failures must trip the breaker"
    );
    assert!(!report.breaker_trace.is_empty());
    assert_eq!(report.lost_reports, 0, "the breaker must contain, not lose");
    assert_eq!(
        out.store_len as u64, report.durable_reports,
        "store contents must match the durable count exactly (no dupes, no holes)"
    );
}

#[test]
fn memory_ladder_degrades_then_sheds_under_tiny_budgets() {
    let mut db = soak_db();
    let query = Query::count(
        "T",
        vec![PredSpec::new("c2", CompareOp::Lt, Datum::Int(500))],
    );
    let jobs: Vec<AdmittedJob> = (0..6)
        .map(|i| AdmittedJob::batch(query.clone(), i as f64 * 0.01))
        .collect();
    let runner = ParallelRunner::new(1);

    // Budget for exactly one base reservation: the first running query
    // is degraded to an unmonitored plan, and anything admitted beside
    // it is shed by the ladder — never by a panic or a wedge.
    let report = run_admitted_workload(
        &mut db,
        &runner,
        &jobs,
        &MonitorConfig::default(),
        soak_admission(),
        MemoryBudget::new(BASE_QUERY_BYTES),
    );
    let steps: Vec<Option<DegradeStep>> = report.records.iter().map(|r| r.step).collect();
    assert!(
        steps.contains(&Some(DegradeStep::Unmonitored)),
        "one query at a time runs unmonitored: {steps:?}"
    );
    assert!(
        steps.contains(&Some(DegradeStep::Shed)),
        "concurrent admissions must shed: {steps:?}"
    );
    for rec in &report.records {
        match (&rec.step, &rec.result) {
            (Some(DegradeStep::Unmonitored), Ok(out)) => {
                assert_eq!(out.monitor_bytes, 0, "unmonitored runs hold no monitors");
                assert!(out.report.measurements.is_empty());
            }
            (Some(DegradeStep::Shed), Err(Error::Overloaded { retry_after_ms })) => {
                assert!(*retry_after_ms >= 1);
            }
            (step, result) => panic!("unexpected (step, result): {step:?}, {result:?}"),
        }
    }

    // Below the base reservation nothing can run at all — every job is
    // shed with a typed, non-transient error.
    let mut db = soak_db();
    let report = run_admitted_workload(
        &mut db,
        &runner,
        &jobs,
        &MonitorConfig::default(),
        soak_admission(),
        MemoryBudget::new(BASE_QUERY_BYTES - 1),
    );
    for rec in &report.records {
        let err = rec.result.as_ref().expect_err("everything sheds");
        assert!(err.is_shed(), "{err:?}");
        assert!(!err.is_transient());
    }
    assert_eq!(report.stats.shed(), jobs.len() as u64);
    assert_eq!(report.budget.peak_reserved(), 0);
}
