//! The parallel driver's contract: per-worker sketches merge into
//! exactly the serial sketch, and `ParallelRunner` produces bit-identical
//! feedback no matter the worker count.

use proptest::prelude::*;

use pagefeed::{
    Database, FaultPlan, MonitorConfig, ParallelRunner, PredSpec, Query, QueryOutcome,
    WorkloadSummary,
};
use pf_common::{Column, DataType, Datum, Error, Row, Schema};
use pf_exec::CompareOp;
use pf_feedback::{BitVectorFilter, DpSampler, FmSketch, GroupedPageCounter, LinearCounter};

// ---------------------------------------------------------------------
// Mergeable sketches: chunked == serial, bit for bit
// ---------------------------------------------------------------------

proptest! {
    /// Splitting a PID stream across workers and OR-merging their linear
    /// counters yields the same bitmap, estimate, and observation count
    /// as one counter fed the concatenated stream.
    #[test]
    fn linear_counter_merge_is_bit_identical(
        chunks in prop::collection::vec(
            prop::collection::vec(any::<u32>().prop_map(|p| p % 10_000), 0..60),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let numbits = 1_024;
        let mut serial = LinearCounter::new(numbits, seed);
        for pid in chunks.iter().flatten() {
            serial.observe(*pid);
        }

        let mut merged = LinearCounter::new(numbits, seed);
        for chunk in &chunks {
            let mut worker = LinearCounter::new(numbits, seed);
            for pid in chunk {
                worker.observe(*pid);
            }
            merged.merge(&worker).unwrap();
        }

        prop_assert_eq!(merged.bits_set(), serial.bits_set());
        prop_assert_eq!(merged.observations(), serial.observations());
        let (m, s) = (merged.estimate(), serial.estimate());
        prop_assert!((m - s).abs() < 1e-12, "estimates {} vs {}", m, s);
    }

    /// The same chunked-vs-serial identity for the FM/PCSA sketch.
    #[test]
    fn fm_sketch_merge_is_bit_identical(
        chunks in prop::collection::vec(
            prop::collection::vec(any::<u32>().prop_map(|p| p % 50_000), 0..60),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let m = 64;
        let mut serial = FmSketch::new(m, seed);
        for pid in chunks.iter().flatten() {
            serial.observe(*pid);
        }

        let mut merged = FmSketch::new(m, seed);
        for chunk in &chunks {
            let mut worker = FmSketch::new(m, seed);
            for pid in chunk {
                worker.observe(*pid);
            }
            merged.merge(&worker).unwrap();
        }

        prop_assert_eq!(merged.observations(), serial.observations());
        let (me, se) = (merged.estimate(), serial.estimate());
        prop_assert!((me - se).abs() < 1e-12, "estimates {} vs {}", me, se);
    }

    /// Grouped page counters over disjoint page ranges merge to the
    /// serial count — including pages still pending at the split point.
    #[test]
    fn grouped_counter_merge_sums_disjoint_ranges(
        pages in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 1..5),
            1..30,
        ),
        split_at in any::<u64>(),
    ) {
        let split = (split_at as usize) % (pages.len() + 1);

        let observe = |gc: &mut GroupedPageCounter, p: usize, rows: &[bool]| {
            let satisfying = rows.iter().filter(|s| **s).count() as u64;
            gc.observe_page(p as u32, satisfying, rows.len() as u64);
        };

        let mut serial = GroupedPageCounter::new();
        for (p, rows) in pages.iter().enumerate() {
            observe(&mut serial, p, rows);
        }
        serial.finish();

        let mut left = GroupedPageCounter::new();
        for (p, rows) in pages.iter().enumerate().take(split) {
            observe(&mut left, p, rows);
        }
        let mut right = GroupedPageCounter::new();
        for (p, rows) in pages.iter().enumerate().skip(split) {
            observe(&mut right, p, rows);
        }
        left.merge(&right);
        left.finish();

        prop_assert_eq!(left.count(), serial.count());
        prop_assert_eq!(left.pages_seen(), serial.pages_seen());
    }

    /// `DpSample` partials merge to the sum of their independently
    /// finished counts (same sampling fraction required).
    #[test]
    fn dpsample_merge_sums_partials(
        a_pages in prop::collection::vec(prop::collection::vec(any::<bool>(), 1..4), 0..20),
        b_pages in prop::collection::vec(prop::collection::vec(any::<bool>(), 1..4), 0..20),
        seed in any::<u64>(),
    ) {
        let feed = |s: &mut DpSampler, pages: &[Vec<bool>]| {
            for rows in pages {
                if s.start_page() {
                    for &sat in rows {
                        s.observe_row(sat);
                    }
                }
            }
        };
        // Identically seeded duplicates make the same page-sampling
        // decisions, so the finished pair is the merged pair's oracle.
        let mut a1 = DpSampler::new(0.5, seed).unwrap();
        let mut b1 = DpSampler::new(0.5, seed.wrapping_add(1)).unwrap();
        let mut a2 = DpSampler::new(0.5, seed).unwrap();
        let mut b2 = DpSampler::new(0.5, seed.wrapping_add(1)).unwrap();
        feed(&mut a1, &a_pages);
        feed(&mut b1, &b_pages);
        feed(&mut a2, &a_pages);
        feed(&mut b2, &b_pages);

        a1.merge(&b1).unwrap();
        a1.finish();
        a2.finish();
        b2.finish();

        prop_assert_eq!(a1.raw_count(), a2.raw_count() + b2.raw_count());
        prop_assert_eq!(a1.pages_seen(), a2.pages_seen() + b2.pages_seen());
        prop_assert_eq!(a1.pages_sampled(), a2.pages_sampled() + b2.pages_sampled());
    }

    /// Per-morsel bit-vector filter fragments OR-merged in morsel order
    /// reproduce the filter one serial build would have produced: same
    /// insertion count, fill ratio, and membership answers.
    #[test]
    fn bitvector_filter_merge_is_bit_identical(
        chunks in prop::collection::vec(
            prop::collection::vec(any::<i64>().prop_map(|k| k % 500), 0..40),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let numbits = 4_096;
        let mut serial = BitVectorFilter::new(numbits, seed);
        for k in chunks.iter().flatten() {
            serial.insert(&Datum::Int(*k));
        }

        let mut merged = BitVectorFilter::new(numbits, seed);
        for chunk in &chunks {
            let mut frag = BitVectorFilter::new(numbits, seed);
            for k in chunk {
                frag.insert(&Datum::Int(*k));
            }
            merged.merge(&frag).unwrap();
        }

        prop_assert_eq!(merged.insertions(), serial.insertions());
        let (m, s) = (merged.fill_ratio(), serial.fill_ratio());
        prop_assert!((m - s).abs() < 1e-15, "fill {} vs {}", m, s);
        for k in -500i64..500 {
            prop_assert_eq!(
                merged.may_contain(&Datum::Int(k)),
                serial.may_contain(&Datum::Int(k))
            );
        }
    }
}

#[test]
fn merges_reject_mismatched_configurations() {
    let mut a = LinearCounter::new(1_024, 1);
    assert!(
        a.merge(&LinearCounter::new(1_024, 2)).is_err(),
        "seed mismatch"
    );
    assert!(
        a.merge(&LinearCounter::new(2_048, 1)).is_err(),
        "size mismatch"
    );

    let mut f = FmSketch::new(64, 1);
    assert!(f.merge(&FmSketch::new(64, 2)).is_err(), "seed mismatch");
    assert!(f.merge(&FmSketch::new(32, 1)).is_err(), "size mismatch");

    let mut d = DpSampler::new(0.5, 1).unwrap();
    assert!(
        d.merge(&DpSampler::new(0.25, 1).unwrap()).is_err(),
        "fraction mismatch"
    );
}

// ---------------------------------------------------------------------
// End-to-end: the runner is jobs-invariant
// ---------------------------------------------------------------------

fn build_db() -> Database {
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

fn feedback_workload() -> Vec<Query> {
    (0..10)
        .flat_map(|i| {
            [
                Query::count(
                    "t",
                    vec![PredSpec::new(
                        "corr",
                        CompareOp::Lt,
                        Datum::Int(300 + 150 * i),
                    )],
                ),
                Query::count(
                    "t",
                    vec![PredSpec::new(
                        "scat",
                        CompareOp::Lt,
                        Datum::Int(300 + 150 * i),
                    )],
                ),
            ]
        })
        .collect()
}

/// Running the feedback workload at 1, 2, and 8 workers yields
/// byte-identical feedback reports, I/O statistics, plans, and simulated
/// times per query — and the same final hint state.
#[test]
fn runner_feedback_is_identical_across_job_counts() {
    let queries = feedback_workload();
    let cfg = MonitorConfig::sampled(0.5); // sampling exercises the RNG seeds

    // Database is deliberately !Clone (it owns Arc'd storage); rebuild
    // per worker count from the same deterministic recipe instead.
    let mut serial_db = build_db();
    let serial = ParallelRunner::new(1)
        .run_feedback(&mut serial_db, &queries, &cfg)
        .unwrap();
    assert!(
        serial.iter().any(|o| o.plan_changed()),
        "workload must exercise plan flips"
    );

    for jobs in [2, 8] {
        let mut db = build_db();
        let parallel = ParallelRunner::new(jobs)
            .run_feedback(&mut db, &queries, &cfg)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.report, p.report,
                "report diverged at query {i}, jobs {jobs}"
            );
            assert_eq!(s.before.count, p.before.count, "query {i}");
            assert_eq!(s.before.stats, p.before.stats, "query {i}");
            assert_eq!(s.after.stats, p.after.stats, "query {i}");
            assert_eq!(s.before.description, p.before.description, "query {i}");
            assert_eq!(s.after.description, p.after.description, "query {i}");
            assert!((s.before.elapsed_ms - p.before.elapsed_ms).abs() < 1e-12);
            assert!((s.after.elapsed_ms - p.after.elapsed_ms).abs() < 1e-12);
            assert!((s.monitored_elapsed_ms - p.monitored_elapsed_ms).abs() < 1e-12);
        }
        assert_eq!(
            serial_db.hints().len(),
            db.hints().len(),
            "absorbed hint state diverged at jobs {jobs}"
        );
    }
}

/// Plain query execution is also jobs-invariant, and the workload
/// summary equals the sum of the serial per-query statistics.
#[test]
fn runner_queries_and_summary_match_serial() {
    let db = build_db();
    let queries = feedback_workload();
    let cfg = MonitorConfig::default();

    let serial: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| db.run(q, &ParallelRunner::cfg_for(&cfg, i)).unwrap())
        .collect();

    for jobs in [1, 2, 8] {
        let outcomes = ParallelRunner::new(jobs)
            .run_queries(&db, &queries, &cfg)
            .unwrap();
        for (s, p) in serial.iter().zip(&outcomes) {
            assert_eq!(s.count, p.count);
            assert_eq!(s.stats, p.stats);
            assert_eq!(s.report, p.report);
        }
        let summary = WorkloadSummary::from_outcomes(&outcomes);
        assert_eq!(summary.queries, queries.len());
        let mut expected = pf_storage::IoStats::default();
        for o in &serial {
            expected.add(&o.stats);
        }
        assert_eq!(summary.total_stats, expected, "summed IoStats, jobs {jobs}");
        assert_eq!(
            summary.report.measurements.len(),
            serial
                .iter()
                .map(|o| o.report.measurements.len())
                .sum::<usize>()
        );
    }
}

// ---------------------------------------------------------------------
// Plan cache: hits on repeats, invalidation on state changes
// ---------------------------------------------------------------------

/// Repeated query shapes hit the plan cache; results are bit-identical
/// to optimizing, lowering and executing every query afresh, at every
/// worker count.
#[test]
fn plan_cache_hits_repeats_and_is_semantically_invisible() {
    let queries = feedback_workload();
    let cfg = MonitorConfig::default();

    let reference_db = build_db();
    let planner = reference_db.planner().unwrap();
    let reference: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let optimized = planner.optimize_query(q).unwrap();
            let plan = planner
                .lower_optimized(&optimized, &ParallelRunner::cfg_for(&cfg, i))
                .unwrap();
            reference_db.execute(plan).unwrap()
        })
        .collect();
    let bypassed = reference_db.plan_cache_stats();
    assert_eq!(
        (bypassed.hits, bypassed.misses),
        (0, 0),
        "the reference path must bypass the cache"
    );

    for jobs in [1, 2, 8] {
        let db = build_db();
        let runner = ParallelRunner::new(jobs);
        // Two passes over the same workload: the second is all hits.
        runner.run_queries(&db, &queries, &cfg).unwrap();
        let outcomes = runner.run_queries(&db, &queries, &cfg).unwrap();
        for (s, p) in reference.iter().zip(&outcomes) {
            assert_eq!(s.count, p.count, "jobs {jobs}");
            assert_eq!(s.stats, p.stats, "jobs {jobs}");
            assert_eq!(s.report, p.report, "jobs {jobs}");
            assert_eq!(s.description, p.description, "jobs {jobs}");
        }
        let stats = db.plan_cache_stats();
        assert!(
            stats.hits >= queries.len() as u64,
            "second pass must hit: {stats:?}"
        );
        assert!(stats.hit_rate() > 0.0);
        assert!(stats.entries > 0);
    }
}

/// Feedback absorption and DML both clear the cache: cached decisions
/// must never outlive the statistics they were derived from.
#[test]
fn plan_cache_invalidates_on_feedback_and_dml() {
    let mut db = build_db();
    let cfg = MonitorConfig::default();
    let query = Query::count(
        "t",
        vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(500))],
    );

    db.run(&query, &cfg).unwrap();
    db.run(&query, &cfg).unwrap();
    let warm = db.plan_cache_stats();
    assert!(warm.hits >= 1, "repeat must hit: {warm:?}");
    assert!(warm.entries > 0);

    // Absorbing harvested feedback can flip plan choices → cache drops.
    let outcome = db.run(&query, &cfg).unwrap();
    db.absorb_feedback(&outcome.report).unwrap();
    let after_absorb = db.plan_cache_stats();
    assert_eq!(after_absorb.entries, 0, "absorb must clear the cache");
    assert!(after_absorb.invalidations > warm.invalidations);

    // Repopulate, then mutate the table: DML also invalidates.
    db.run(&query, &cfg).unwrap();
    assert!(db.plan_cache_stats().entries > 0);
    db.insert_row(
        "t",
        Row::new(vec![
            Datum::Int(20_000),
            Datum::Int(20_000),
            Datum::Int(13),
            Datum::Str("x".repeat(60)),
        ]),
    )
    .unwrap();
    assert_eq!(
        db.plan_cache_stats().entries,
        0,
        "insert_row must clear the cache"
    );

    // DML also invalidates statistics; re-analyze before optimizing.
    db.analyze().unwrap();
    db.run(&query, &cfg).unwrap();
    assert!(db.plan_cache_stats().entries > 0);
    db.delete_where("t", |row| row.get(0) == &Datum::Int(20_000))
        .unwrap();
    assert_eq!(
        db.plan_cache_stats().entries,
        0,
        "delete_where must clear the cache"
    );

    // The cleared cache still answers correctly (miss → repopulate).
    db.analyze().unwrap();
    let fresh = db.run(&query, &cfg).unwrap();
    assert_eq!(fresh.count, outcome.count);
}

fn plan_cache_lookups(db: &Database) -> u64 {
    let stats = db.plan_cache_stats();
    stats.hits + stats.misses
}

fn assert_same_run(got: &QueryOutcome, want: &QueryOutcome, what: &str) {
    assert_eq!(got.count, want.count, "{what}");
    assert_eq!(got.stats, want.stats, "{what}");
    assert_eq!(got.report, want.report, "{what}");
    assert_eq!(got.description, want.description, "{what}");
}

/// Every run obtains one decision and lowers it per config and per
/// attempt. On a fresh database the feedback loop's two plans cost two
/// plan-cache lookups — its monitored and unmonitored runs of `P` share
/// one — and a `run_query` that declines to split after planning (an
/// index-only scan, or a fetch whose index yields one RID) costs one.
/// Each outcome equals the one `Database::run` gives.
#[test]
fn one_plan_cache_lookup_per_decision() {
    let cfg = MonitorConfig::default();
    let query = Query::count(
        "t",
        vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(400))],
    );
    let mut db = build_db();
    let out = db.feedback_loop(&query, &cfg).unwrap();
    assert_eq!(plan_cache_lookups(&db), 2, "P and P′, one lookup each");
    assert!(out.plan_changed(), "feedback must flip the plan");
    // The same methodology, step by step through `Database::run`.
    let mut reference = build_db();
    reference.inject_accurate_cardinalities(&query).unwrap();
    let monitored = reference.run(&query, &cfg).unwrap();
    let before = reference.run(&query, &MonitorConfig::off()).unwrap();
    reference.absorb_feedback(&monitored.report).unwrap();
    let after = reference.run(&query, &MonitorConfig::off()).unwrap();
    assert_eq!(out.report, monitored.report);
    assert_eq!(out.monitored_elapsed_ms, monitored.elapsed_ms);
    assert_same_run(&out.before, &before, "T");
    assert_same_run(&out.after, &after, "T′");

    let runner = ParallelRunner::new(2);
    for (declined, plan) in [
        (
            Query::count_star(
                "t",
                vec![PredSpec::new("scat", CompareOp::Lt, Datum::Int(5_000))],
            ),
            "IndexOnlyScan",
        ),
        (
            Query::count(
                "t",
                vec![PredSpec::new("corr", CompareOp::Eq, Datum::Int(7))],
            ),
            "IndexSeek",
        ),
    ] {
        let db = build_db();
        let split = runner.run_query(&db, &declined, &cfg).unwrap();
        assert_eq!(plan_cache_lookups(&db), 1, "{plan}: one decision");
        assert!(split.description.starts_with(plan), "{}", split.description);
        assert_same_run(&split, &db.run(&declined, &cfg).unwrap(), plan);
    }
}

// ---------------------------------------------------------------------
// Morsel parallelism: a declined split runs the serial decision
// (`tests/harness` checks the splits against `Database::run`)
// ---------------------------------------------------------------------

/// Asserts that morsel execution at 2 and 8 workers reproduces the
/// serial outcome byte for byte: count, I/O counters, sketches, plan
/// text, fault retries, and simulated time.
fn assert_jobs_invariant(db: &Database, query: &Query, cfg: &MonitorConfig, what: &str) {
    let serial = db.run(query, cfg).unwrap();
    for jobs in [2, 8] {
        let runner = ParallelRunner::new(jobs);
        let morsel = runner.run_query(db, query, cfg).unwrap();
        assert_eq!(serial.count, morsel.count, "{what}, jobs {jobs}");
        assert_eq!(serial.stats, morsel.stats, "{what}, jobs {jobs}");
        assert_eq!(serial.report, morsel.report, "{what}, jobs {jobs}");
        assert_eq!(
            serial.description, morsel.description,
            "{what}, jobs {jobs}"
        );
        assert_eq!(
            serial.fault_retries, morsel.fault_retries,
            "{what}, jobs {jobs}"
        );
        assert!(
            (serial.elapsed_ms - morsel.elapsed_ms).abs() < 1e-12,
            "{what}, jobs {jobs}: {} vs {}",
            serial.elapsed_ms,
            morsel.elapsed_ms
        );
    }
}

fn wide_scan() -> Query {
    Query::count(
        "t",
        vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(15_000))],
    )
}

/// Shapes outside the morsel matrix fall back to the serial path and
/// still match `Database::run` exactly: query deadlines abort on
/// whole-query simulated time.
#[test]
fn morsel_run_query_falls_back_for_ineligible_shapes() {
    let db = build_db();
    let runner = ParallelRunner::new(4);

    let deadline = MonitorConfig {
        deadline_ms: Some(1_000_000),
        ..MonitorConfig::default()
    };
    assert!(db.morsel_plan(&wide_scan(), &deadline).unwrap().is_none());
    let s = db.run(&wide_scan(), &deadline).unwrap();
    let p = runner.run_query(&db, &wide_scan(), &deadline).unwrap();
    assert_eq!(s.count, p.count);
    assert_eq!(s.stats, p.stats);
    assert_eq!(s.report, p.report);
}

/// A hash join whose outer clustered range holds no page splits into no
/// build morsel, and runs serially: the count is 0, as `Database::run`
/// says, not an internal error.
#[test]
fn hash_join_over_an_empty_outer_range_matches_serial() {
    let db = build_db();
    let cfg = MonitorConfig::default();
    let join = Query::join_count(
        "t",
        "t",
        vec![PredSpec::new("id", CompareOp::Lt, Datum::Int(-5))],
        "id",
        "id",
    );
    let serial = db.run(&join, &cfg).unwrap();
    assert_eq!(serial.count, 0);
    assert!(
        serial.description.starts_with("HashJoin"),
        "{}",
        serial.description
    );
    assert_jobs_invariant(&db, &join, &cfg, "empty-build hash join");
}

// ---------------------------------------------------------------------
// Worker-pool robustness
// ---------------------------------------------------------------------

/// A large batch followed by many small batches must not wedge the
/// persistent worker pool (regression test for the generation-counting
/// handshake: late sleepers from the big batch must not consume wakeups
/// meant for the small ones).
#[test]
fn shrinking_batch_after_large_batch() {
    let db = build_db();
    let cfg = MonitorConfig::off();
    let q = |hi: i64| {
        Query::count(
            "t",
            vec![PredSpec::new("scat", CompareOp::Lt, Datum::Int(hi))],
        )
    };
    let runner = ParallelRunner::new(8);
    let big: Vec<Query> = (0..64).map(|i| q(i % 50)).collect();
    runner.run_queries(&db, &big, &cfg).unwrap();
    for _ in 0..50 {
        let small: Vec<Query> = (0..2).map(|i| q(i + 1)).collect();
        runner.run_queries(&db, &small, &cfg).unwrap();
    }
}

// ---------------------------------------------------------------------
// Abort hygiene and fault-injected invariance
// ---------------------------------------------------------------------

/// Snapshot of everything an aborted query must not touch: hint count,
/// plan-cache entries, and the exact bytes of every feedback-store file.
fn hygiene_snapshot(
    db: &Database,
    dir: &std::path::Path,
) -> (usize, usize, Vec<(String, Vec<u8>)>) {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("file readable"),
            )
        })
        .collect();
    files.sort();
    (db.hints().len(), db.plan_cache_stats().entries, files)
}

/// `cfg` with a simulated-clock deadline of `deadline_ms`.
fn with_deadline(cfg: &MonitorConfig, deadline_ms: u64) -> MonitorConfig {
    MonitorConfig {
        deadline_ms: Some(deadline_ms),
        ..cfg.clone()
    }
}

/// Aborting a monitored scan at *every* simulated millisecond of its run
/// leaves the database byte-identical to the query never having run: no
/// absorbed feedback, no plan-cache entry, no feedback-store write. The
/// deadline rises one millisecond per run until the query completes, so
/// the aborts land all along the scan, from before its first page to
/// its last millisecond. Afterwards the same query still runs
/// jobs-invariantly at 1/2/8 workers.
#[test]
fn deadline_at_every_simulated_ms_leaves_no_trace() {
    let dir = std::env::temp_dir().join(format!("pf-deadline-hygiene-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = build_db();
    db.attach_feedback_store(&dir).unwrap();
    let cfg = MonitorConfig::default();
    let query = wide_scan();

    // A deadline run reads the plan cache but never fills it, so the
    // reference run leaves it empty and a sweep run that filled it
    // would show.
    let reference = db.run(&query, &with_deadline(&cfg, u64::MAX / 2)).unwrap();
    let baseline = hygiene_snapshot(&db, &dir);
    assert_eq!(baseline.1, 0, "the reference run cached no plan");

    let mut deadline_ms = 0u64;
    loop {
        match db.run(&query, &with_deadline(&cfg, deadline_ms)) {
            Err(e) => assert_eq!(e, Error::DeadlineExceeded { deadline_ms }),
            Ok(out) => {
                // The deadline outlived the scan: the query ran to the end.
                assert_eq!(out.count, reference.count);
                assert_eq!(out.report, reference.report);
                break;
            }
        }
        assert_eq!(
            hygiene_snapshot(&db, &dir),
            baseline,
            "an abort at {deadline_ms} simulated ms left a trace"
        );
        deadline_ms += 1;
        assert!(deadline_ms < 100_000, "scan must terminate");
    }
    assert!(
        deadline_ms > 10,
        "the sweep must cover many abort points, got {deadline_ms} ms"
    );

    assert_jobs_invariant(&db, &query, &cfg, "post-abort scan");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small (≈25-page) table so the per-case cost of the deadline
/// property below stays trivial.
fn small_db() -> Database {
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("corr", DataType::Int),
        Column::new("pad", DataType::Str),
    ]);
    let rows: Vec<Row> = (0..2_000i64)
        .map(|i| {
            Row::new(vec![
                Datum::Int(i),
                Datum::Int(i),
                Datum::Str("x".repeat(60)),
            ])
        })
        .collect();
    db.create_table("s", schema, rows, Some("id")).unwrap();
    db.create_index("ix_s_corr", "s", "corr").unwrap();
    db.analyze().unwrap();
    db
}

proptest! {
    /// Property form of the hygiene sweep: at an arbitrary deadline
    /// the run either aborts with `DeadlineExceeded` and leaves no hint
    /// or plan-cache entry behind, or completes with the reference
    /// count. The query runs 5.682 simulated ms, so deadlines 0–5 abort
    /// and 6–7 complete: the sweep exercises both outcomes.
    #[test]
    fn deadline_at_any_point_is_hygienic(deadline_ms in 0u64..8) {
        let db = small_db();
        let cfg = MonitorConfig::default();
        let query = Query::count(
            "s",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(1_500))],
        );
        let reference = db.run(&query, &with_deadline(&cfg, u64::MAX / 2)).unwrap();
        let hints = db.hints().len();
        let entries = db.plan_cache_stats().entries;
        match db.run(&query, &with_deadline(&cfg, deadline_ms)) {
            Err(e) => prop_assert_eq!(e, Error::DeadlineExceeded { deadline_ms }),
            Ok(out) => prop_assert_eq!(out.count, reference.count),
        }
        prop_assert_eq!(db.hints().len(), hints);
        prop_assert_eq!(db.plan_cache_stats().entries, entries);
    }
}

/// A deadline on the simulated clock aborts deterministically, and a
/// deadline generous enough to never fire is execution-invisible.
#[test]
fn deadline_runs_are_deterministic_and_hygienic() {
    let db = build_db();
    let cfg = MonitorConfig::default();
    let deadline = |deadline_ms| MonitorConfig {
        deadline_ms: Some(deadline_ms),
        ..cfg.clone()
    };
    let query = wide_scan();
    let first = db.run(&query, &deadline(1)).unwrap_err();
    let second = db.run(&query, &deadline(1)).unwrap_err();
    assert_eq!(first, Error::DeadlineExceeded { deadline_ms: 1 });
    assert_eq!(first, second, "simulated-clock aborts are repeatable");
    assert_eq!(db.hints().len(), 0, "an aborted run absorbs nothing");

    let plain = db.run(&query, &cfg).unwrap();
    let generous = db.run(&query, &deadline(u64::MAX / 2)).unwrap();
    assert_eq!(plain.count, generous.count);
    assert_eq!(plain.stats, generous.stats);
    assert_eq!(plain.report, generous.report);
}

/// The config's deadline is the only one, and every entry point honours
/// it alike: `Database::run`, `lower` + `execute`, and the runner's
/// `run_query` and `run_queries_quarantined` at 1, 2 and 8 workers each
/// return the plain run's outcome or the same `DeadlineExceeded`, and no
/// run adds a hint, a plan-cache entry or a feedback-store byte.
#[test]
fn config_deadline_is_one_deadline_at_every_entry_point() {
    let dir = std::env::temp_dir().join(format!("pf-deadline-hygiene-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = build_db();
    db.attach_feedback_store(&dir).unwrap();
    // Clustered range scans whose simulated time grows with the range.
    let queries: Vec<Query> = (1..=10)
        .map(|i| {
            Query::count(
                "t",
                vec![PredSpec::new("id", CompareOp::Lt, Datum::Int(2_000 * i))],
            )
        })
        .collect();
    let plain = ParallelRunner::new(1)
        .run_queries(&db, &queries, &MonitorConfig::default())
        .unwrap();
    let mut elapsed: Vec<f64> = plain.iter().map(|o| o.elapsed_ms).collect();
    elapsed.sort_by(f64::total_cmp);
    let deadline_ms = elapsed[elapsed.len() / 2] as u64;
    let cfg = MonitorConfig {
        deadline_ms: Some(deadline_ms),
        ..MonitorConfig::default()
    };
    let baseline = hygiene_snapshot(&db, &dir);

    let same = |what: &str, i: usize, got: &pf_common::Result<pagefeed::QueryOutcome>| match got {
        Ok(out) => {
            assert_eq!(out.count, plain[i].count, "{what}, query {i}");
            assert_eq!(out.stats, plain[i].stats, "{what}, query {i}");
            assert_eq!(out.report, plain[i].report, "{what}, query {i}");
            assert_eq!(out.description, plain[i].description, "{what}, query {i}");
        }
        Err(e) => assert_eq!(
            *e,
            Error::DeadlineExceeded { deadline_ms },
            "{what}, query {i}"
        ),
    };
    let mut aborted = 0;
    for (i, query) in queries.iter().enumerate() {
        let cfg_i = ParallelRunner::cfg_for(&cfg, i);
        let reference = db.run(query, &cfg_i);
        same("run", i, &reference);
        aborted += usize::from(reference.is_err());
        let lowered = db.lower(query, &cfg_i).and_then(|plan| db.execute(plan));
        assert_eq!(
            lowered.as_ref().err(),
            reference.as_ref().err(),
            "query {i}"
        );
        same("lower + execute", i, &lowered);
        for jobs in [1, 2, 8] {
            let out = ParallelRunner::new(jobs).run_query(&db, query, &cfg_i);
            assert_eq!(out.as_ref().err(), reference.as_ref().err(), "query {i}");
            same(&format!("run_query, jobs {jobs}"), i, &out);
        }
    }
    assert!(
        aborted > 0 && aborted < queries.len(),
        "a median deadline must abort some queries and complete others, aborted {aborted}"
    );
    for jobs in [1, 2, 8] {
        let outs = ParallelRunner::new(jobs).run_queries_quarantined(&db, &queries, &cfg);
        for (i, out) in outs.iter().enumerate() {
            same(&format!("run_queries_quarantined, jobs {jobs}"), i, out);
        }
        let aborts = outs.iter().filter(|o| o.is_err()).count();
        assert_eq!(aborts, aborted, "jobs {jobs}");
    }
    assert_eq!(hygiene_snapshot(&db, &dir), baseline);
    std::fs::remove_dir_all(&dir).ok();
}

/// Under an active fault plan with injected damage and read stalls at
/// rate 0.01, repeated runs at eight jobs over the same (aged) pool
/// stay bit-identical to the serial run.
#[test]
fn eight_jobs_match_serial_under_faults_across_rounds() {
    let mut db = build_db();
    db.set_fault_plan(Some(FaultPlan::new(42, 0.01).unwrap()))
        .unwrap();
    let queries = feedback_workload();
    let cfg = MonitorConfig::default();
    let serial = ParallelRunner::new(1)
        .run_queries(&db, &queries, &cfg)
        .unwrap();
    let runner = ParallelRunner::new(8);
    for round in 0..3 {
        let out = runner.run_queries(&db, &queries, &cfg).unwrap();
        for (i, (s, p)) in serial.iter().zip(&out).enumerate() {
            assert_eq!(s.count, p.count, "round {round}, query {i}");
            assert_eq!(s.stats, p.stats, "round {round}, query {i}");
            assert_eq!(s.report, p.report, "round {round}, query {i}");
        }
    }
}

/// Error-return injection ([`FaultPlan::with_error_returns`]): a
/// buffer-pool read that fails once surfaces as a transient stall, is
/// retried, and the surviving attempt is bit-identical to the
/// fault-free run — serially and across worker counts.
#[test]
fn error_return_injection_is_transparent_after_retry() {
    let mut db = build_db();
    let cfg = MonitorConfig::default();
    let fault_free = db.run(&wide_scan(), &cfg).unwrap();
    assert_eq!(fault_free.fault_retries, 0);
    db.set_fault_plan(Some(
        FaultPlan::new(7, 0.0)
            .unwrap()
            .with_error_returns(0.5)
            .unwrap(),
    ))
    .unwrap();
    let under = db.run(&wide_scan(), &cfg).unwrap();
    assert!(
        under.fault_retries >= 1,
        "a 50% error rate must hit at least one scanned page"
    );
    assert_eq!(under.count, fault_free.count);
    assert_eq!(under.stats, fault_free.stats);
    assert_eq!(under.report, fault_free.report);
    // Morsel scans retry the error morsel-locally and still merge to
    // the serial outcome.
    assert_jobs_invariant(&db, &wide_scan(), &cfg, "error-return scan");
}
