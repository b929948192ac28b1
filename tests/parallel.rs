//! The parallel driver's contract: per-worker sketches merge into
//! exactly the serial sketch, and `ParallelRunner` produces bit-identical
//! feedback no matter the worker count.

use proptest::prelude::*;

use pagefeed::{
    CancelToken, Database, FaultPlan, MonitorConfig, MorselPlan, ParallelRunner, PredSpec, Query,
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
    build_db_with_copy(false)
}

/// `with_copy` adds `t1`, an identical second table, so join tests can
/// exercise joins of two distinct tables beside self-joins.
fn build_db_with_copy(with_copy: bool) -> Database {
    let mut db = Database::new();
    let schema = || {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("corr", DataType::Int),
            Column::new("scat", DataType::Int),
            Column::new("pad", DataType::Str),
        ])
    };
    let n = 20_000i64;
    let rows = || {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str("x".repeat(60)),
                ])
            })
            .collect::<Vec<Row>>()
    };
    db.create_table("t", schema(), rows(), Some("id")).unwrap();
    db.create_index("ix_corr", "t", "corr").unwrap();
    db.create_index("ix_scat", "t", "scat").unwrap();
    if with_copy {
        db.create_table("t1", schema(), rows(), Some("id")).unwrap();
    }
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
/// to a cache-disabled database at every worker count.
#[test]
fn plan_cache_hits_repeats_and_is_semantically_invisible() {
    let queries = feedback_workload();
    let cfg = MonitorConfig::default();

    let mut reference_db = build_db();
    reference_db.set_plan_cache_enabled(false);
    let reference: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            reference_db
                .run(q, &ParallelRunner::cfg_for(&cfg, i))
                .unwrap()
        })
        .collect();
    assert!(
        !reference_db.plan_cache_stats().enabled,
        "reference database must bypass the cache"
    );

    for jobs in [1, 2, 8] {
        let db = build_db();
        assert!(db.plan_cache_stats().enabled, "cache on by default");
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

// ---------------------------------------------------------------------
// Morsel parallelism: intra-query splits are bit-identical to serial
// ---------------------------------------------------------------------

/// Every eligible scan shape (full scan with and without predicates,
/// clustered range) split into morsels produces the same count, I/O
/// counters, simulated time, sketches, and plan text as `Database::run`,
/// at every worker count.
#[test]
fn morsel_run_query_is_bit_identical_to_serial() {
    let db = build_db();
    let cfg = MonitorConfig::default();
    let shapes = [
        // Unpredicated full scan (CountArg::Star still walks the heap).
        Query::count("t", vec![]),
        // Predicated table scan — wide enough that the optimizer keeps
        // the full scan rather than an index.
        Query::count(
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(15_000))],
        ),
        // Clustered-range scan on the primary key.
        Query::count(
            "t",
            vec![
                PredSpec::new("id", CompareOp::Ge, Datum::Int(2_000)),
                PredSpec::new("id", CompareOp::Lt, Datum::Int(18_000)),
            ],
        ),
    ];
    for (qi, query) in shapes.iter().enumerate() {
        let serial = db.run(query, &cfg).unwrap();
        assert!(
            matches!(
                db.morsel_plan(query, &cfg).unwrap(),
                Some(MorselPlan::Scan(_))
            ),
            "shape {qi} must be morsel-eligible"
        );
        for jobs in [2, 8] {
            let runner = ParallelRunner::new(jobs);
            let morsel = runner.run_query(&db, query, &cfg).unwrap();
            assert_eq!(serial.count, morsel.count, "shape {qi}, jobs {jobs}");
            assert_eq!(serial.stats, morsel.stats, "shape {qi}, jobs {jobs}");
            assert_eq!(serial.report, morsel.report, "shape {qi}, jobs {jobs}");
            assert_eq!(
                serial.description, morsel.description,
                "shape {qi}, jobs {jobs}"
            );
            assert!(
                (serial.elapsed_ms - morsel.elapsed_ms).abs() < 1e-12,
                "shape {qi}, jobs {jobs}"
            );
        }
    }
}

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

/// Sampled and budget-governed monitors now split into morsels: the
/// page-keyed Bernoulli draw and the replicated shed flags are pure
/// functions of `(seed, page)`, so per-morsel partials merge into the
/// serial sketches exactly.
#[test]
fn morsel_sampled_and_budgeted_scans_match_serial() {
    let db = build_db();
    let sampled = MonitorConfig::sampled(0.5);
    assert!(
        db.morsel_plan(&wide_scan(), &sampled).unwrap().is_some(),
        "sampled scans are morsel-eligible"
    );
    assert_jobs_invariant(&db, &wide_scan(), &sampled, "sampled scan");

    let budgeted = MonitorConfig {
        memory_budget: Some(512),
        ..MonitorConfig::default()
    };
    assert_jobs_invariant(&db, &wide_scan(), &budgeted, "budgeted scan");
}

/// Index-driven plans split their RID fetch list into contiguous-run
/// morsels; per-run residency double-counting is reconciled at merge
/// time, so the distinct-page accounting matches serial.
/// A narrow seekable predicate plus a wide residual: the residual keeps
/// the plan off the (serial-only) index-only path, and the paper's
/// feedback loop is what flips the access path from scan to index fetch
/// — Cardenas overestimates DPC on the clustered column until measured.
fn fetch_query() -> Query {
    Query::count(
        "t",
        vec![
            PredSpec::new("corr", CompareOp::Lt, Datum::Int(200)),
            PredSpec::new("scat", CompareOp::Lt, Datum::Int(15_000)),
        ],
    )
}

#[test]
fn morsel_index_fetch_matches_serial() {
    let mut db = build_db();
    let cfg = MonitorConfig::default();
    let narrow = fetch_query();
    let out = db.run(&narrow, &cfg).unwrap();
    db.absorb_feedback(&out.report).unwrap();
    assert!(
        matches!(
            db.morsel_plan(&narrow, &cfg).unwrap(),
            Some(MorselPlan::Fetch(_))
        ),
        "measured DPC must flip the narrow predicate to an index fetch"
    );
    assert_jobs_invariant(&db, &narrow, &cfg, "index fetch");
    assert_jobs_invariant(&db, &narrow, &MonitorConfig::sampled(0.5), "sampled fetch");
}

/// Hash joins run morsel build and probe phases: build keys and filter
/// fragments concatenate/OR-merge in morsel order, probe morsels look up
/// a shared partitioned multiplicity map.
#[test]
fn morsel_hash_join_matches_serial() {
    let db = build_db();
    let cfg = MonitorConfig::default();
    // Scattered inner join column → high DPC estimate → hash join.
    let join = Query::join_count("t", "t", vec![], "corr", "scat");
    let plan = db.morsel_plan(&join, &cfg).unwrap();
    assert!(
        matches!(plan, Some(MorselPlan::HashJoin(_))),
        "scattered inner column must pick a hash join, got {plan:?}"
    );
    assert_jobs_invariant(&db, &join, &cfg, "hash join");
    // Semi-join monitors and bit-vector sketches merge exactly too.
    assert_jobs_invariant(
        &db,
        &join,
        &MonitorConfig::sampled(0.5),
        "sampled hash join",
    );
}

/// Index-nested-loops joins split the outer scan into morsels, each
/// running the whole join over its pages — still bit-identical to
/// serial, self-joins included.
#[test]
fn morsel_inl_join_matches_serial() {
    // A distinct outer table first; then an INL *self*-join, whose inner
    // fetches interleave with the outer scan's own residency.
    let mut db = build_db_with_copy(true);
    let join = Query::join_count(
        "t1",
        "t",
        vec![PredSpec::new("id", CompareOp::Lt, Datum::Int(400))],
        "id",
        "corr",
    );
    // The clustered inner column needs measured DPC feedback before the
    // optimizer dares to flip Hash → INL (the paper's core loop).
    let out = db.run(&join, &MonitorConfig::default()).unwrap();
    db.absorb_feedback(&out.report).unwrap();
    let cfg = MonitorConfig::default();
    let plan = db.morsel_plan(&join, &cfg).unwrap();
    assert!(
        matches!(plan, Some(MorselPlan::InlJoin(_))),
        "clustered inner column with feedback must pick INL, got {plan:?}"
    );
    assert_jobs_invariant(&db, &join, &cfg, "inl join");

    let self_join = Query::join_count(
        "t",
        "t",
        vec![PredSpec::new("id", CompareOp::Lt, Datum::Int(400))],
        "id",
        "corr",
    );
    let out = db.run(&self_join, &cfg).unwrap();
    db.absorb_feedback(&out.report).unwrap();
    assert!(
        matches!(
            db.morsel_plan(&self_join, &cfg).unwrap(),
            Some(MorselPlan::InlJoin(_))
        ),
        "INL self-joins split into outer page morsels"
    );
    assert_jobs_invariant(&db, &self_join, &cfg, "inl self-join");
    let s = db.run(&self_join, &cfg).unwrap();
    let p = ParallelRunner::new(4)
        .run_query(&db, &self_join, &cfg)
        .unwrap();
    assert_eq!(s.count, p.count);
    assert_eq!(s.stats, p.stats);
    assert_eq!(s.report, p.report);
}

/// Scans stay morsel-eligible under an injected fault plan: stall
/// budgets and corruption sites are pure functions of
/// `(seed, table, page)`, so per-morsel retries and page skips reproduce
/// the serial outcome. Fetch and join shapes refuse to split instead.
#[test]
fn morsel_scan_under_fault_plan_matches_serial() {
    let mut db = build_db();
    let cfg = MonitorConfig::default();
    // Flip the narrow query to an index fetch while still fault-free,
    // then inject faults: the fetch shape must refuse to split.
    let narrow = fetch_query();
    let out = db.run(&narrow, &cfg).unwrap();
    db.absorb_feedback(&out.report).unwrap();
    assert!(
        matches!(
            db.morsel_plan(&narrow, &cfg).unwrap(),
            Some(MorselPlan::Fetch(_))
        ),
        "fetch shape established before injecting faults"
    );
    db.set_fault_plan(Some(FaultPlan::new(42, 0.01).unwrap()))
        .unwrap();
    assert!(
        db.morsel_plan(&narrow, &cfg).unwrap().is_none(),
        "fetch shapes fall back under a fault plan"
    );
    let s = db.run(&narrow, &cfg).unwrap();
    let p = ParallelRunner::new(4)
        .run_query(&db, &narrow, &cfg)
        .unwrap();
    assert_eq!(s.count, p.count);
    assert_eq!(s.stats, p.stats);
    assert_eq!(s.report, p.report);

    assert!(
        matches!(
            db.morsel_plan(&wide_scan(), &cfg).unwrap(),
            Some(MorselPlan::Scan(_))
        ),
        "faulted scans still split"
    );
    assert_jobs_invariant(&db, &wide_scan(), &cfg, "faulted scan");
}

/// Shapes outside the morsel matrix fall back to the serial path and
/// still match `Database::run` exactly: query deadlines abort on
/// whole-query simulated time, and DPC-histogram overlays consult
/// serial whole-run state.
#[test]
fn morsel_run_query_falls_back_for_ineligible_shapes() {
    let mut db = build_db();
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

    db.enable_dpc_histograms(32);
    let cfg = MonitorConfig::default();
    assert!(db.morsel_plan(&wide_scan(), &cfg).unwrap().is_none());
    let s = db.run(&wide_scan(), &cfg).unwrap();
    let p = runner.run_query(&db, &wide_scan(), &cfg).unwrap();
    assert_eq!(s.count, p.count);
    assert_eq!(s.stats, p.stats);
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
// Scheduler fuzz: seeded interleaving sweeps over the worker pool
// ---------------------------------------------------------------------

/// Eight seeds of the scheduler fuzzer (shrinking/growing batches,
/// panicking jobs, injected stalls) run without a panic escaping, a
/// wedge, or a lost job — and each seed's report is bit-identical on a
/// repeat run over the same (aged) pool. This is the PR 6 wedge class
/// (stale workers from a drained generation racing fresh wakeups)
/// swept adversarially instead of by a single hand-picked schedule.
#[test]
fn scheduler_fuzz_eight_seeds_no_wedge_no_loss() {
    let runner = ParallelRunner::new(4);
    // `PF_CHAOS_SEED` (CI matrix) shifts the whole sweep, so each
    // matrix leg explores a disjoint class of schedules.
    let base = pagefeed::chaos_seed_from_env();
    for seed in base..base + 8 {
        let a = runner.scheduler_fuzz(seed).unwrap();
        let b = runner.scheduler_fuzz(seed).unwrap();
        assert_eq!(a, b, "seed {seed}: same seed, same pool → same report");
        assert!(a.tasks > 0 && a.rounds >= 5, "seed {seed}: {a:?}");
        assert!(a.panics > 0, "seed {seed}: the panic lane must fire");
        assert!(a.stalls > 0, "seed {seed}: the stall lane must fire");
    }
}

/// The fuzz report is a pure function of the seed — round sizes and
/// per-task behavior never depend on the worker count — so runs at 1,
/// 2, and 8 jobs must agree bit for bit. (At 8 jobs the batch size is
/// exactly `n/64`, so the seed sweep covers the batch range {1..64}.)
#[test]
fn scheduler_fuzz_digest_is_jobs_invariant() {
    for seed in [1u64, 2] {
        let r1 = ParallelRunner::new(1).scheduler_fuzz(seed).unwrap();
        let r2 = ParallelRunner::new(2).scheduler_fuzz(seed).unwrap();
        let r8 = ParallelRunner::new(8).scheduler_fuzz(seed).unwrap();
        assert_eq!(r1, r2, "seed {seed}");
        assert_eq!(r1, r8, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Cancellation hygiene and the stall watchdog
// ---------------------------------------------------------------------

/// Snapshot of everything a cancelled query must not touch: hint count,
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

/// Cancelling a monitored scan at *every* page boundary leaves the
/// database byte-identical to the query never having run: no absorbed
/// feedback, no plan-cache entry, no feedback-store write — and the
/// boundary index `k` aborts after exactly k pages, so the sweep is
/// exhaustive, not sampled. Afterwards the same query still runs
/// jobs-invariantly at 1/2/8 workers.
#[test]
fn cancellation_at_every_page_boundary_leaves_no_trace() {
    let dir = std::env::temp_dir().join(format!("pf-cancel-hygiene-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = build_db();
    db.attach_feedback_store(&dir).unwrap();
    let cfg = MonitorConfig::default();
    let query = wide_scan();

    let reference = db
        .run_query_cancellable(&query, &cfg, CancelToken::new())
        .unwrap();
    let baseline = hygiene_snapshot(&db, &dir);

    let mut boundaries = 0u64;
    loop {
        match db.run_query_cancellable(&query, &cfg, CancelToken::cancel_after(boundaries)) {
            Err(e) => assert_eq!(e, Error::Cancelled, "boundary {boundaries}"),
            Ok(out) => {
                // The token outlived the scan: the query ran to the end.
                assert_eq!(out.count, reference.count);
                break;
            }
        }
        assert_eq!(
            hygiene_snapshot(&db, &dir),
            baseline,
            "cancellation at page boundary {boundaries} left a trace"
        );
        boundaries += 1;
        assert!(boundaries < 10_000, "scan must terminate");
    }
    assert!(
        boundaries > 10,
        "the sweep must cover many page boundaries, got {boundaries}"
    );

    assert_jobs_invariant(&db, &query, &cfg, "post-cancellation scan");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small (≈25-page) table so the per-case cost of the cancellation
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
    /// Property form of the hygiene sweep: at an arbitrary cancel point
    /// (including points past the end of the scan) the run either
    /// aborts with `Cancelled` and absorbs nothing, or completes with
    /// the reference count.
    #[test]
    fn cancellation_at_any_point_is_hygienic(k in 0u64..64) {
        let db = small_db();
        let cfg = MonitorConfig::default();
        let query = Query::count(
            "s",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(1_500))],
        );
        let reference = db
            .run_query_cancellable(&query, &cfg, CancelToken::new())
            .unwrap();
        let hints = db.hints().len();
        let entries = db.plan_cache_stats().entries;
        match db.run_query_cancellable(&query, &cfg, CancelToken::cancel_after(k)) {
            Err(e) => prop_assert_eq!(e, Error::Cancelled),
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

/// With the stall budget floored at 1 ms the watchdog re-executes
/// whatever the workers still hold on almost every generation; rescue
/// must be idempotent (tasks are pure), so results — including under an
/// active fault plan with injected stalls at rate 0.01 — stay
/// bit-identical to the serial run.
#[test]
fn aggressive_watchdog_preserves_jobs_invariance_under_faults() {
    let mut db = build_db();
    db.set_fault_plan(Some(FaultPlan::new(42, 0.01).unwrap()))
        .unwrap();
    let queries = feedback_workload();
    let cfg = MonitorConfig::default();
    let serial = ParallelRunner::new(1)
        .run_queries(&db, &queries, &cfg)
        .unwrap();
    let runner = ParallelRunner::new(8);
    runner.set_stall_budget_ms(1);
    for round in 0..3 {
        let out = runner.run_queries(&db, &queries, &cfg).unwrap();
        for (i, (s, p)) in serial.iter().zip(&out).enumerate() {
            assert_eq!(s.count, p.count, "round {round}, query {i}");
            assert_eq!(s.stats, p.stats, "round {round}, query {i}");
            assert_eq!(s.report, p.report, "round {round}, query {i}");
        }
    }
}

/// Error-return injection (`PF_FAULT_ERROR_RATE`): a buffer-pool read
/// that fails once surfaces as a transient stall, is retried, and the
/// surviving attempt is bit-identical to the fault-free run — serially
/// and across worker counts.
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
