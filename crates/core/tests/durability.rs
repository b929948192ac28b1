//! End-to-end durability, staleness, and governance scenarios:
//!
//! * the measure → crash → restart → reoptimize loop reproduces
//!   byte-identical plans from a recovered [`pagefeed::FeedbackStore`],
//! * a torn WAL tail loses at most the in-flight report (recovered
//!   hints are a subset of the pre-crash hints),
//! * DML past the drift tolerance evicts stamped hints and the plan
//!   falls back to the analytical model,
//! * a tiny monitor memory budget sheds monitors without panics, and a
//!   query deadline aborts without a trace, identically at any worker
//!   count.

use pagefeed::{Database, MonitorConfig, ParallelRunner, PredSpec, Query};
use pf_common::{Column, DataType, Datum, Row, Schema};
use pf_exec::CompareOp;
use pf_optimizer::plan::DpcSource;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pagefeed-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 20 000 rows clustered on `id`; `corr` == id (fully correlated, the
/// paper's worst case for the analytical DPC model), `scat` scrambled.
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
    db.create_table("t", schema, rows, Some("id"))
        .expect("load");
    db.create_index("ix_corr", "t", "corr").expect("index corr");
    db.create_index("ix_scat", "t", "scat").expect("index scat");
    db.analyze().expect("analyze");
    db
}

fn q(col: &str, v: i64) -> Query {
    Query::count("t", vec![PredSpec::new(col, CompareOp::Lt, Datum::Int(v))])
}

#[test]
fn restart_reproduces_byte_identical_plans() {
    let dir = tmp("replan");
    let query = q("corr", 400);

    // Session 1: measure under monitoring, persist, reoptimize.
    let (description, explain, count) = {
        let mut db = demo_db();
        assert_eq!(db.attach_feedback_store(&dir).expect("attach"), 0);
        let out = db
            .feedback_loop(&query, &MonitorConfig::default())
            .expect("feedback loop");
        assert!(out.plan_changed(), "feedback must flip the plan");
        let lowered = db.lower(&query, &MonitorConfig::off()).expect("lower");
        let run = db.run(&query, &MonitorConfig::off()).expect("run");
        (lowered.description, lowered.explain, run.count)
    }; // db dropped — the only survivor is the store directory

    // Session 2: a fresh engine over the same data recovers the store
    // and produces the *same bytes* of plan.
    let mut db = demo_db();
    let recovered = db.attach_feedback_store(&dir).expect("recover");
    assert!(recovered >= 1, "session 1's report must be recovered");
    let lowered = db.lower(&query, &MonitorConfig::off()).expect("lower");
    assert_eq!(lowered.description, description);
    assert_eq!(lowered.explain, explain);
    let run = db.run(&query, &MonitorConfig::off()).expect("run");
    assert_eq!(run.count, count);
    match run.choice {
        pagefeed::PlanChoice::Single(ref p) => {
            assert_eq!(
                p.dpc_source,
                DpcSource::Injected,
                "recovered feedback drives the plan"
            )
        }
        ref other => panic!("unexpected plan shape: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_a_subset_of_hints() {
    let dir = tmp("torn-subset");
    let q1 = q("corr", 400);
    let q2 = q("corr", 900);

    let pre_crash: Vec<((String, String), f64)> = {
        let mut db = demo_db();
        db.attach_feedback_store(&dir).expect("attach");
        db.feedback_loop(&q1, &MonitorConfig::default())
            .expect("loop 1");
        db.feedback_loop(&q2, &MonitorConfig::default())
            .expect("loop 2");
        db.hints()
            .dpc_entries()
            .map(|(k, h)| (k.clone(), h.value))
            .collect()
    };
    assert!(pre_crash.len() >= 2);

    // Crash mid-append: chop bytes off the WAL tail, inside a frame.
    let wal = dir.join("feedback.wal");
    let bytes = std::fs::read(&wal).expect("read wal");
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).expect("tear tail");

    let mut db = demo_db();
    let recovered = db.attach_feedback_store(&dir).expect("recover");
    assert!(recovered >= 1, "untorn frames survive");
    let post: Vec<((String, String), f64)> = db
        .hints()
        .dpc_entries()
        .map(|(k, h)| (k.clone(), h.value))
        .collect();
    assert!(post.len() < pre_crash.len(), "the torn record is gone");
    for entry in &post {
        assert!(
            pre_crash.contains(entry),
            "recovered hint {entry:?} must exist pre-crash"
        );
    }
    // The surviving feedback still flips q1's plan.
    let run = db.run(&q1, &MonitorConfig::off()).expect("run q1");
    assert_eq!(run.choice.name(), "IndexSeek");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dml_drift_discounts_then_evicts_and_restores_analytical_plan() {
    let mut db = demo_db();
    let query = q("corr", 400);
    db.feedback_loop(&query, &MonitorConfig::default())
        .expect("feedback loop");
    let hinted = db.run(&query, &MonitorConfig::off()).expect("run hinted");
    assert_eq!(hinted.choice.name(), "IndexSeek");

    // Light DML: a handful of inserts is well under the 10% drift
    // tolerance — the hint survives (discounted, not evicted).
    for i in 0..5 {
        db.insert_row(
            "t",
            Row::new(vec![
                Datum::Int(20_000 + i),
                Datum::Int(20_000 + i),
                Datum::Int(i),
                Datum::Str("x".repeat(60)),
            ]),
        )
        .expect("insert");
    }
    assert!(
        db.hints().dpc("t", "corr<400").is_some(),
        "light drift must not evict"
    );

    // Heavy DML: deleting half the table rewrites far more than 10% of
    // its pages — every stamped hint on `t` dies.
    let deleted = db
        .delete_where("t", |r| matches!(r.get(1), Datum::Int(v) if *v >= 10_000))
        .expect("delete");
    assert!(deleted >= 9_000, "deleted {deleted}");
    assert_eq!(
        db.hints().dpc("t", "corr<400"),
        None,
        "heavy drift must evict the stale measurement"
    );

    // Statistics went stale with the DML; after re-analyzing, the plan
    // no longer uses injected feedback — it is exactly what a fresh
    // engine that never saw feedback chooses over the mutated data.
    assert!(
        db.run(&query, &MonitorConfig::off()).is_err(),
        "stats stale"
    );
    db.analyze().expect("re-analyze");
    let out = db.run(&query, &MonitorConfig::off()).expect("run");
    match out.choice {
        pagefeed::PlanChoice::Single(ref p) => assert_ne!(
            p.dpc_source,
            DpcSource::Injected,
            "evicted feedback must not drive the plan"
        ),
        ref other => panic!("unexpected plan shape: {other:?}"),
    }
    assert_eq!(out.count, 400, "all corr<400 rows survived the delete");

    // Reference: the same DML history on an engine that never harvested
    // feedback produces the same plan bytes.
    let mut fresh = demo_db();
    for i in 0..5 {
        fresh
            .insert_row(
                "t",
                Row::new(vec![
                    Datum::Int(20_000 + i),
                    Datum::Int(20_000 + i),
                    Datum::Int(i),
                    Datum::Str("x".repeat(60)),
                ]),
            )
            .expect("insert");
    }
    fresh
        .delete_where("t", |r| matches!(r.get(1), Datum::Int(v) if *v >= 10_000))
        .expect("delete");
    fresh.analyze().expect("analyze");
    let reference = fresh.lower(&query, &MonitorConfig::off()).expect("lower");
    let lowered = db.lower(&query, &MonitorConfig::off()).expect("lower");
    assert_eq!(lowered.description, reference.description);
}

#[test]
fn tiny_memory_budget_sheds_monitors_identically_at_any_worker_count() {
    let db = demo_db();
    let queries: Vec<Query> = (1..=8)
        .map(|i| q(if i % 2 == 0 { "corr" } else { "scat" }, 300 * i))
        .collect();
    // 16 bytes cannot hold any sketch: every monitor is shed at
    // admission, the run completes, and the counts stay correct.
    let cfg = MonitorConfig {
        memory_budget: Some(16),
        ..MonitorConfig::default()
    };
    let serial = ParallelRunner::new(1)
        .run_queries(&db, &queries, &cfg)
        .expect("serial run");
    let parallel = ParallelRunner::new(8)
        .run_queries(&db, &queries, &cfg)
        .expect("parallel run");
    assert_eq!(serial.len(), parallel.len());
    let mut shed_seen = false;
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.count, p.count, "query {i} count");
        assert_eq!(
            s.report, p.report,
            "query {i} report must be jobs-invariant"
        );
        shed_seen |= s.report.measurements.iter().any(|m| m.budget_shed);
        for m in &s.report.measurements {
            assert!(m.budget_shed, "query {i}: {m:?} fit in a 16-byte budget?");
        }
    }
    assert!(shed_seen, "some monitor must have been shed");

    // Shed measurements are partial: absorbing the reports must not
    // plant any hints.
    let mut hints = pf_optimizer::HintSet::new();
    for s in &serial {
        hints.absorb_report(&s.report);
    }
    assert!(
        hints.is_empty(),
        "shed measurements must never become hints"
    );
}

/// A query deadline aborts mid-run identically at any worker count and
/// never sheds a monitor: completed runs carry full, absorbable
/// measurements, and aborted runs leave the hints and the attached
/// store untouched.
#[test]
fn deadline_aborts_hygienically_and_stays_jobs_invariant() {
    let dir = tmp("deadline");
    let mut db = demo_db();
    db.attach_feedback_store(&dir).expect("attach store");
    // Clustered range scans whose simulated time grows with the range.
    let queries: Vec<Query> = (1..=6).map(|i| q("id", 3_000 * i)).collect();
    let plain = ParallelRunner::new(1)
        .run_queries(&db, &queries, &MonitorConfig::default())
        .expect("plain run");
    let cfg = MonitorConfig {
        deadline_ms: Some(plain[2].elapsed_ms as u64),
        ..MonitorConfig::default()
    };
    let (hints, stored) = (db.hints().len(), db.feedback_store().map(|s| s.len()));
    let serial = ParallelRunner::new(1).run_queries_quarantined(&db, &queries, &cfg);
    let parallel = ParallelRunner::new(8).run_queries_quarantined(&db, &queries, &cfg);
    let mut aborted = 0;
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        match (s, p) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.count, p.count, "query {i} count");
                assert_eq!(s.report, p.report, "query {i} report");
                assert_eq!(s.report, plain[i].report, "query {i} runs as if unbounded");
                assert!(
                    !s.report.is_budget_shed(),
                    "query {i}: a deadline never sheds"
                );
            }
            (Err(s), Err(p)) => {
                assert_eq!(s, p, "query {i}: the abort is jobs-invariant");
                aborted += 1;
            }
            _ => panic!("query {i}: {s:?} vs {p:?}"),
        }
    }
    assert!(aborted > 0 && aborted < queries.len(), "aborted {aborted}");
    assert_eq!(db.hints().len(), hints, "an aborted run absorbs nothing");
    assert_eq!(db.feedback_store().map(|s| s.len()), stored);
    let _ = std::fs::remove_dir_all(&dir);
}
