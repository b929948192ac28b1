//! End-to-end corruption tolerance: a full monitored workload over a
//! database carrying ~1% deterministic page damage must complete with
//! zero panics, report exactly which queries were degraded, and leave
//! every *non-degraded* query's feedback sketch identical to the
//! fault-free run's — the headline robustness guarantee of the harness.

use pagefeed::{Database, FaultPlan, MonitorConfig, ParallelRunner, PredSpec, Query, QueryOutcome};
use pf_common::{Datum, PageId};
use pf_exec::CompareOp;
use pf_workloads::synthetic::{self, SyntheticConfig};

const ROWS: usize = 40_000;

fn build_db(plan: Option<FaultPlan>) -> Database {
    let mut db = synthetic::build(&SyntheticConfig {
        rows: ROWS,
        with_t1: true,
        seed: 1,
    })
    .expect("synthetic build");
    db.set_fault_plan(plan).expect("install fault plan");
    db
}

/// A mixed workload: scans, seeks, fetches, and a join — every monitored
/// code path that can meet a corrupt page.
fn workload() -> Vec<Query> {
    let mut qs = Vec::new();
    for i in 0..10 {
        let cut = 500 + 1_700 * i;
        // c2 is correlated with layout (clustered-ish), c5 scattered:
        // the two extremes of the paper's fetch patterns.
        qs.push(Query::count(
            "T",
            vec![PredSpec::new("c2", CompareOp::Lt, Datum::Int(cut))],
        ));
        qs.push(Query::count(
            "T",
            vec![PredSpec::new("c5", CompareOp::Lt, Datum::Int(cut))],
        ));
    }
    qs.push(Query::join_count(
        "T1",
        "T",
        vec![PredSpec::new("c1", CompareOp::Lt, Datum::Int(4_000))],
        "c2",
        "c2",
    ));
    qs
}

#[test]
fn faulted_workload_completes_and_labels_degraded_queries() {
    let fault_free = build_db(None);
    let plan = FaultPlan::new(42, 0.01).expect("valid plan");
    let faulted = build_db(Some(plan));
    let damaged: usize = faulted
        .catalog()
        .tables()
        .iter()
        .map(|t| t.storage.injected_fault_count())
        .sum();
    assert!(damaged > 0, "1% of a {ROWS}-row database must damage pages");

    let queries = workload();
    let cfg = MonitorConfig::default();
    let runner = ParallelRunner::new(4);

    let clean = runner
        .run_queries(&fault_free, &queries, &cfg)
        .expect("fault-free workload");
    let results = runner.run_queries_quarantined(&faulted, &queries, &cfg);
    assert_eq!(results.len(), queries.len());

    let mut degraded = Vec::new();
    for (i, r) in results.iter().enumerate() {
        // Corruption is skipped, stalls are retried: every query must
        // still produce an outcome.
        let out = r
            .as_ref()
            .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
        if out.degraded() {
            degraded.push(i);
            assert!(
                out.stats.pages_skipped > 0 || out.report.is_degraded(),
                "query {i} marked degraded without evidence"
            );
        } else {
            // The robustness contract: untouched queries are *exactly*
            // the fault-free run — same count, same sketches.
            assert_eq!(out.count, clean[i].count, "query {i} count drifted");
            assert_eq!(out.report, clean[i].report, "query {i} sketch drifted");
        }
    }
    assert!(
        !degraded.is_empty(),
        "a 1% fault rate must degrade at least one of {} queries",
        queries.len()
    );

    // The degraded set is deterministic: a rerun reports the same list.
    let rerun = runner.run_queries_quarantined(&faulted, &queries, &cfg);
    let rerun_degraded: Vec<usize> = rerun
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().filter(|o| o.degraded()).map(|_| i))
        .collect();
    assert_eq!(degraded, rerun_degraded);
}

#[test]
fn faulted_sketches_are_identical_across_worker_counts() {
    let plan = FaultPlan::new(7, 0.02).expect("valid plan");
    let db = build_db(Some(plan));
    let queries = workload();
    let cfg = MonitorConfig::sampled(0.3);

    let serial = ParallelRunner::new(1).run_queries_quarantined(&db, &queries, &cfg);
    let parallel = ParallelRunner::new(8).run_queries_quarantined(&db, &queries, &cfg);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        match (s, p) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.count, p.count, "query {i}");
                assert_eq!(s.stats, p.stats, "query {i}");
                assert_eq!(s.report, p.report, "query {i} sketch depends on jobs");
                assert_eq!(s.degraded(), p.degraded(), "query {i}");
            }
            (s, p) => panic!(
                "query {i} outcome depends on worker count: jobs=1 ok={}, jobs=8 ok={}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    }
}

#[test]
fn healing_the_plan_restores_the_fault_free_run() {
    let plan = FaultPlan::new(42, 0.01).expect("valid plan");
    let mut db = build_db(Some(plan));
    let queries = workload();
    let cfg = MonitorConfig::default();
    let runner = ParallelRunner::new(4);
    let faulted = runner.run_queries_quarantined(&db, &queries, &cfg);
    assert!(faulted
        .iter()
        .any(|r| r.as_ref().is_ok_and(|o| o.degraded())));

    db.set_fault_plan(None).expect("heal");
    let clean = build_db(None);
    let healed = runner
        .run_queries(&db, &queries, &cfg)
        .expect("healed workload");
    let reference = runner
        .run_queries(&clean, &queries, &cfg)
        .expect("reference workload");
    for (i, (h, r)) in healed.iter().zip(&reference).enumerate() {
        assert_eq!(h.count, r.count, "query {i}");
        assert_eq!(h.report, r.report, "query {i}");
        assert!(!h.degraded(), "query {i} still degraded after healing");
    }
}

/// The synthetic database loaded table by table into an empty database
/// that already carries `plan`, from the pristine rows of `src`.
fn build_db_plan_first(src: &Database, plan: FaultPlan) -> Database {
    let mut db = Database::new();
    db.set_fault_plan(Some(plan)).expect("install fault plan");
    let rows = |name: &str| {
        let storage = &src.catalog().table_by_name(name).expect("table").storage;
        (0..storage.page_count())
            .flat_map(|p| storage.rows_on_page(PageId(p)).expect("pristine rows"))
            .collect()
    };
    db.create_table("T", synthetic::schema(), rows("T"), Some("c1"))
        .expect("load T");
    for c in ["c2", "c3", "c4", "c5"] {
        db.create_index(&format!("ix_T_{c}"), "T", c)
            .expect("index");
    }
    db.create_table("T1", synthetic::schema(), rows("T1"), Some("c1"))
        .expect("load T1");
    db.analyze().expect("analyze");
    db
}

/// Experiments install their fault plan after the builder returns. That
/// must equal a plan set on the empty database before any load, index
/// build or analyze: same damage, same feedback-loop outcomes, same
/// hints.
#[test]
fn plan_installed_after_load_equals_plan_set_before() {
    let plan = FaultPlan::new(42, 0.05)
        .and_then(|p| p.with_error_returns(0.05))
        .expect("valid plan");
    let mut after = build_db(None);
    let mut before = build_db_plan_first(&after, plan);
    after
        .set_fault_plan(Some(plan))
        .expect("install after load");

    for (a, b) in after
        .catalog()
        .tables()
        .iter()
        .zip(before.catalog().tables())
    {
        assert_eq!(a.name, b.name);
        assert_eq!(a.storage.page_count(), b.storage.page_count(), "{}", a.name);
        for p in (0..a.storage.page_count()).map(PageId) {
            assert_eq!(
                a.storage.page(p).expect("page").bytes(),
                b.storage.page(p).expect("page").bytes(),
                "{} page {p:?}: same pristine bytes",
                a.name
            );
        }
        assert_eq!(
            a.storage.injected_fault_count(),
            b.storage.injected_fault_count(),
            "{}: same damage",
            a.name
        );
    }
    let damaged: usize = after
        .catalog()
        .tables()
        .iter()
        .map(|t| t.storage.injected_fault_count())
        .sum();
    assert!(damaged > 0, "the plan must damage pages");

    // The shared workload's scans and join, plus narrow ranges on the
    // scattered column c5, whose index seeks fetch from pages all over
    // the table.
    let mut queries = workload();
    for lo in (0..12).map(|k| k * 3_000) {
        queries.push(Query::count(
            "T",
            vec![
                PredSpec::new("c5", CompareOp::Ge, Datum::Int(lo)),
                PredSpec::new("c5", CompareOp::Lt, Datum::Int(lo + 12)),
            ],
        ));
    }
    let cfg = MonitorConfig::default();
    let runner = ParallelRunner::new(2);
    let a = runner
        .run_feedback(&mut after, &queries, &cfg)
        .expect("feedback workload, plan after load");
    let b = runner
        .run_feedback(&mut before, &queries, &cfg)
        .expect("feedback workload, plan before load");
    assert_eq!(a.len(), b.len());
    let same = |what: &str, i: usize, x: &QueryOutcome, y: &QueryOutcome| {
        assert_eq!(x.count, y.count, "query {i} {what}: count");
        assert_eq!(x.stats, y.stats, "query {i} {what}: stats");
        assert_eq!(x.report, y.report, "query {i} {what}: report");
        assert_eq!(x.description, y.description, "query {i} {what}: plan");
        assert_eq!(
            x.elapsed_ms.to_bits(),
            y.elapsed_ms.to_bits(),
            "query {i} {what}: elapsed_ms"
        );
    };
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        same("before feedback", i, &x.before, &y.before);
        same("after feedback", i, &x.after, &y.after);
        assert_eq!(x.report, y.report, "query {i}: harvested report");
        assert_eq!(
            x.monitored_elapsed_ms.to_bits(),
            y.monitored_elapsed_ms.to_bits(),
            "query {i}: monitored elapsed_ms"
        );
    }
    assert!(
        a.iter().any(|o| o.before.degraded() || o.after.degraded()),
        "the damage must reach the workload"
    );
    assert_eq!(after.hints().len(), before.hints().len());
}
