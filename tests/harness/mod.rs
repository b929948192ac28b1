//! Seeded differential harness: full queries against brute force.
//!
//! Seeded tables mix Int, Float (with NaN and ±0.0), Date and Str
//! columns, are clustered or heap-ordered, and carry two nonclustered
//! indexes. Seeded workloads — single-table counts of 0–3 atoms (at
//! least one with a Str atom, which the page kernel evaluates on row
//! views beside its fixed-prefix atoms) and self-join counts — run through
//! [`ParallelRunner::run_queries`] and [`ParallelRunner::run_query`] at
//! jobs ∈ {1, 2, 8} × monitors ∈ {default, sampled(0.5), a 512-byte
//! memory budget}, at the fault rate the caller names. Every outcome
//! must be byte-identical to the jobs=1 run of the same entry point —
//! where `run_query` at one job is [`Database::run`] — and must agree
//! with brute force:
//!
//! * every non-degraded count equals the oracle count;
//! * every fault-free exact-scan DPC the budget did not shed equals
//!   [`Database::true_dpc`] of the atom subset its label names
//!   ([`Conjunction::key_of`]);
//! * every fault-free, unsampled bit-vector DPC is consistent with
//!   [`Database::true_join_dpc`] (see [`check_bitvector_dpc`]).
//!
//! Under a fault plan only scans may split into morsels.
//!
//! Before the runs, the page-zone DPC bound
//! ([`pf_optimizer::zone_dpc_bound`]) of every atom subset the optimizer
//! prices for a count query, of every single atom, and of single atoms
//! over a pool of edge literals (±NaN, ±0.0, ±∞, the integer and date
//! extremes, Str) is checked against brute force (see
//! [`check_zone_bounds`]). Then the default config runs on a fresh
//! database with zone estimates on, through both entry points at every
//! worker count, under the same identity and brute-force checks.
//!
//! The default config then reruns under a query deadline at the median
//! simulated time of its outcomes, through
//! [`ParallelRunner::run_queries_quarantined`] and
//! [`ParallelRunner::run_query`] at every worker count: each query
//! completes byte-identical to its deadline-free outcome or aborts with
//! the same [`Error::DeadlineExceeded`] everywhere, and no run adds a
//! hint or a plan-cache entry.
//!
//! `tests/kernel_identity.rs` runs the count queries and
//! `tests/join_identity.rs` the self-joins; together with the
//! operator-level checks of `tests/differential.rs` they are the
//! executable form of the determinism contracts in DESIGN.md §5f–§5h
//! and §5k.

use std::collections::{BTreeSet, HashMap};

use pagefeed::{
    Database, FaultPlan, MonitorConfig, MorselPlan, ParallelRunner, PredSpec, Query, QueryOutcome,
};
use pf_common::rng::Rng;
use pf_common::{Column, DataType, Datum, Error, Result, Row, Schema};
use pf_exec::{CompareOp, Conjunction};
use pf_feedback::Mechanism;
use pf_optimizer::{zone_dpc_bound, AccessPath};

pub const TABLE: &str = "t";
/// An unindexed copy of `t` with the same rows, the outer side of
/// `t1 ⋈ t` joins (so the oracles over `t`'s rows hold unchanged).
const COPY: &str = "t1";
const ROWS: i64 = 3_000;
pub const SEEDS: [u64; 3] = [1, 2, 3];
/// Predicate columns, by schema position (`pad` is never filtered).
const COLUMNS: [&str; 6] = ["id", "a", "b", "f", "d", "s"];
const ID: usize = 0;
const A: usize = 1;
const B: usize = 2;
const F: usize = 3;
const D: usize = 4;
const S: usize = 5;
/// Columns whose atoms compile to page kernels (all but `s`).
const KERNEL_COLS: [usize; 5] = [ID, A, B, F, D];
const ALL_COLS: [usize; 6] = [ID, A, B, F, D, S];
/// Columns an index may cover (two per seed).
const INDEXABLE: [usize; 4] = [A, B, F, D];

// ---------------------------------------------------------------------
// Seeded fixtures
// ---------------------------------------------------------------------

/// One seed's table contents, physical design, and workload.
pub struct Fixture {
    rows: Vec<Row>,
    clustered: bool,
    indexes: [usize; 2],
    pub queries: Vec<Query>,
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("d", DataType::Date),
        Column::new("s", DataType::Str),
        Column::new("pad", DataType::Str),
    ])
}

fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.gen_range(items.len() as u64) as usize]
}

/// Quarter-step floats with NaN, `-0.0` and `0.0` mixed in.
fn float_value(rng: &mut Rng) -> f64 {
    match rng.gen_range(20) {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        _ => (rng.gen_range(400) as f64 - 200.0) * 0.25,
    }
}

/// One atom on column `col`; the literal is drawn from a stored row so
/// equality atoms hit.
fn atom(rng: &mut Rng, rows: &[Row], col: usize) -> PredSpec {
    let op = pick(
        rng,
        &[
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Eq,
            CompareOp::Ne,
        ],
    );
    let row = &rows[rng.gen_range(rows.len() as u64) as usize];
    PredSpec::new(COLUMNS[col], op, row.get(col).clone())
}

/// `n` atoms, each on a `hot` column (indexed, or the clustering key)
/// or on any column of `pool` with equal odds.
fn atoms(rng: &mut Rng, rows: &[Row], n: usize, hot: &[usize], pool: &[usize]) -> Vec<PredSpec> {
    (0..n)
        .map(|_| {
            let col = if rng.bernoulli(0.5) {
                pick(rng, hot)
            } else {
                pick(rng, pool)
            };
            atom(rng, rows, col)
        })
        .collect()
}

impl Fixture {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let rows: Vec<Row> = (0..ROWS)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    // `a` scatters, `b` follows `id` (correlated).
                    Datum::Int(rng.gen_range(ROWS as u64) as i64),
                    Datum::Int(i / 16 + rng.gen_range(4) as i64),
                    Datum::Float(float_value(&mut rng)),
                    Datum::Date(rng.gen_range(365) as i32),
                    Datum::Str(format!("tag{}", rng.gen_range(8))),
                    Datum::Str("x".repeat(60 + rng.gen_range(200) as usize)),
                ])
            })
            .collect();
        // Odd seeds cluster on `id`, even seeds load a heap.
        let clustered = seed % 2 == 1;
        let first = rng.gen_range(4) as usize;
        let second = (first + 1 + rng.gen_range(3) as usize) % 4;
        let indexes = [INDEXABLE[first], INDEXABLE[second]];
        let mut hot = indexes.to_vec();
        if clustered {
            hot.push(ID);
        }

        let mut queries = Vec::new();
        // A Str atom next to fixed-width ones: the kernel reads views.
        let n = rng.gen_range(3) as usize;
        let mut with_str = atoms(&mut rng, &rows, n, &hot, &KERNEL_COLS);
        let at = rng.gen_range(n as u64 + 1) as usize;
        with_str.insert(at, atom(&mut rng, &rows, S));
        queries.push(Query::count(TABLE, with_str));
        // Kernel-only conjunctions of every width.
        for n in 0..=3 {
            let pred = atoms(&mut rng, &rows, n, &hot, &KERNEL_COLS);
            queries.push(Query::count(TABLE, pred));
        }
        // A point lookup and a narrow range on each indexed column: the
        // index-seek and fetch paths.
        for col in indexes {
            let v = atom(&mut rng, &rows, col).value;
            queries.push(Query::count(
                TABLE,
                vec![PredSpec::new(COLUMNS[col], CompareOp::Eq, v.clone())],
            ));
            let mut pred = atoms(&mut rng, &rows, 1, &hot, &ALL_COLS);
            pred.push(PredSpec::new(COLUMNS[col], CompareOp::Ge, v.clone()));
            pred.push(PredSpec::new(COLUMNS[col], CompareOp::Le, v));
            queries.push(Query::count(TABLE, pred));
        }
        // Free-form counts, some answerable from an index alone.
        for i in 0..6 {
            let n = rng.gen_range(4) as usize;
            let pred = atoms(&mut rng, &rows, n, &hot, &ALL_COLS);
            queries.push(if i % 3 == 2 {
                Query::count_star(TABLE, pred)
            } else {
                Query::count(TABLE, pred)
            });
        }
        // Self-joins on an indexed inner key (so bit-vector monitoring
        // engages): one with a handful of outer rows, two with 0–2
        // random outer atoms. Float and Date keys join their own column;
        // Int keys any Int column.
        // Then the same over the copy table as the outer side, `t1 ⋈ t`.
        for j in 0..5 {
            let inner = pick(&mut rng, &indexes);
            let outer = if inner == D || inner == F {
                inner
            } else {
                pick(&mut rng, &[ID, A, B])
            };
            let (outer_table, narrow) = if j < 3 {
                (TABLE, j == 0)
            } else {
                (COPY, j == 3)
            };
            let pred = if narrow && clustered {
                let hi = 1 + rng.gen_range(6) as i64;
                vec![PredSpec::new("id", CompareOp::Lt, Datum::Int(hi))]
            } else if narrow {
                let v = atom(&mut rng, &rows, indexes[0]).value;
                vec![PredSpec::new(COLUMNS[indexes[0]], CompareOp::Eq, v)]
            } else {
                let n = rng.gen_range(3) as usize;
                atoms(&mut rng, &rows, n, &hot, &ALL_COLS)
            };
            queries.push(Query::join_count(
                outer_table,
                TABLE,
                pred,
                COLUMNS[outer],
                COLUMNS[inner],
            ));
        }
        // A few outer rows joined on the correlated `b`, from the copy
        // and from `t` itself: where `b` is indexed, its measured join
        // DPC flips the hash join to index nested loops over the outer
        // scan, which the seeded joins above may never reach. In the
        // self-join the inner fetches share pages with the outer scan.
        for outer_table in [COPY, TABLE] {
            queries.push(Query::join_count(
                outer_table,
                TABLE,
                vec![PredSpec::new("id", CompareOp::Lt, Datum::Int(40))],
                "b",
                "b",
            ));
        }
        Fixture {
            rows,
            clustered,
            indexes,
            queries,
        }
    }

    pub fn database(&self, fault_rate: f64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TABLE,
            schema(),
            self.rows.clone(),
            self.clustered.then_some("id"),
        )
        .expect("create table");
        db.create_table(
            COPY,
            schema(),
            self.rows.clone(),
            self.clustered.then_some("id"),
        )
        .expect("create copy table");
        for col in self.indexes {
            let name = COLUMNS[col];
            db.create_index(&format!("ix_{name}"), TABLE, name)
                .expect("create index");
        }
        db.analyze().expect("analyze");
        if fault_rate > 0.0 {
            db.set_fault_plan(Some(FaultPlan::new(42, fault_rate).expect("fault plan")))
                .expect("install fault plan");
        }
        db
    }
}

/// The query's single-table predicate or outer predicate, resolved.
pub fn resolved_pred(query: &Query) -> Conjunction {
    let specs = match query {
        Query::Count { predicate, .. } => predicate,
        Query::JoinCount { outer_pred, .. } => outer_pred,
    };
    Query::resolve_predicates(specs, &schema()).expect("predicate resolves")
}

// ---------------------------------------------------------------------
// Brute-force oracles
// ---------------------------------------------------------------------

/// Nested-loop self-join count over the generated rows, under `Datum`
/// equality (floats by bits) — every join method's key equality.
fn nested_loop_self_join(rows: &[Row], pred: &Conjunction, outer: usize, inner: usize) -> u64 {
    let mut inner_keys: HashMap<&Datum, u64> = HashMap::new();
    for r in rows {
        *inner_keys.entry(r.get(inner)).or_insert(0) += 1;
    }
    rows.iter()
        .filter(|r| pred.eval_short_circuit(*r).0)
        .map(|r| inner_keys.get(r.get(outer)).copied().unwrap_or(0))
        .sum()
}

/// The oracle count of every workload query.
fn true_counts(db: &Database, fx: &Fixture) -> Vec<u64> {
    let schema = schema();
    fx.queries
        .iter()
        .map(|q| {
            let pred = resolved_pred(q);
            match q {
                Query::Count { .. } => db.true_cardinality(TABLE, &pred).expect("oracle"),
                Query::JoinCount {
                    outer_col,
                    inner_col,
                    ..
                } => nested_loop_self_join(
                    &fx.rows,
                    &pred,
                    schema.index_of(outer_col).expect("column"),
                    schema.index_of(inner_col).expect("column"),
                ),
            }
        })
        .collect()
}

/// The atom subset of `pred` whose canonical text is `label`.
fn labelled_subset(pred: &Conjunction, label: &str) -> Conjunction {
    (0u32..1 << pred.len())
        .find_map(|mask| {
            let idx: Vec<usize> = (0..pred.len()).filter(|i| mask >> i & 1 == 1).collect();
            (pred.key_of(&idx) == label)
                .then(|| Conjunction::new(idx.iter().map(|&i| pred.atoms[i].clone()).collect()))
        })
        .unwrap_or_else(|| panic!("label {label:?} names no atom subset of {pred}"))
}

/// A fault-free, unsampled bit-vector DPC against the brute-force join
/// DPC. The filter has no false negatives, so the pages it hits are a
/// superset of the `truth` matching pages. The harvested value then
/// subtracts the expected false-positive pages: with `bits` bits, at
/// most `keys` distinct build keys and `rpp` rows per page, a
/// non-matching page hits with probability at most
/// `fpp = 1 − (1 − keys/bits)^rpp`, and the correction is monotone in
/// `fpp`. So the value can sit below `truth` by at most the correction
/// applied at that bound — and never above the page count.
fn check_bitvector_dpc(actual: f64, bits: u64, truth: u64, keys: usize, pages: u64, rpp: f64) {
    let fill = (keys as f64 / bits as f64).min(1.0);
    let fpp = 1.0 - (1.0 - fill).powf(rpp);
    let floor = if truth > 0 { 1.0 } else { 0.0 };
    let lower = ((truth as f64 - pages as f64 * fpp) / (1.0 - fpp)).max(floor);
    assert!(
        actual >= lower - 1e-9 && actual <= pages as f64,
        "bit-vector DPC {actual} outside [{lower}, {pages}] (truth {truth})"
    );
}

/// Checks one workload's outcomes against brute force.
fn check_against_brute_force(
    db: &Database,
    fx: &Fixture,
    counts: &[u64],
    outcomes: &[QueryOutcome],
    fault_free: bool,
    unsampled: bool,
    what: &str,
) {
    let meta = db.catalog().table_by_name(TABLE).expect("table");
    let pages = u64::from(meta.stats.pages);
    let rpp = ROWS as f64 / pages as f64;
    for (i, ((query, out), &truth)) in fx.queries.iter().zip(outcomes).zip(counts).enumerate() {
        let what = format!("{what}, query {i} ({query:?})");
        if !out.degraded() {
            assert_eq!(out.count, truth, "{what}: count");
        }
        if !fault_free {
            continue;
        }
        let pred = resolved_pred(query);
        for m in out.report.measurements.iter().filter(|m| !m.budget_shed) {
            match m.mechanism {
                Mechanism::ExactScan => {
                    let sub = labelled_subset(&pred, &m.expression);
                    let dpc = db.true_dpc(&m.table, &sub).expect("oracle");
                    assert_eq!(m.actual, dpc as f64, "{what}: DPC of {}", m.expression);
                }
                Mechanism::BitVector(bits) if unsampled => {
                    let (outer_col, inner_col) = match query {
                        Query::JoinCount {
                            outer_col,
                            inner_col,
                            ..
                        } => (outer_col, inner_col),
                        Query::Count { .. } => panic!("{what}: bit-vector DPC on a count"),
                    };
                    let truth = db
                        .true_join_dpc(TABLE, TABLE, &pred, outer_col, inner_col)
                        .expect("oracle");
                    let col = schema().index_of(outer_col).expect("column");
                    let mut keys: Vec<&Datum> = fx
                        .rows
                        .iter()
                        .filter(|r| pred.eval_short_circuit(*r).0)
                        .map(|r| r.get(col))
                        .collect();
                    keys.sort_by(|x, y| x.cmp_same_type(y).expect("same-typed keys"));
                    keys.dedup();
                    check_bitvector_dpc(m.actual, bits, truth, keys.len(), pages, rpp);
                }
                _ => {}
            }
        }
    }
}

/// Single atoms over edge literals of every predicate column: ±NaN,
/// ±0.0, ±∞, the integer and date extremes, and Str values around the
/// stored tags — under every comparison.
fn edge_atoms() -> Vec<PredSpec> {
    let literals: [(usize, Vec<Datum>); 6] = [
        (
            ID,
            vec![Datum::Int(i64::MIN), Datum::Int(0), Datum::Int(i64::MAX)],
        ),
        (
            A,
            vec![
                Datum::Int(i64::MIN),
                Datum::Int(ROWS / 2),
                Datum::Int(i64::MAX),
            ],
        ),
        (B, vec![Datum::Int(-1), Datum::Int(ROWS / 32)]),
        (
            F,
            [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ]
            .map(Datum::Float)
            .to_vec(),
        ),
        (
            D,
            vec![
                Datum::Date(i32::MIN),
                Datum::Date(180),
                Datum::Date(i32::MAX),
            ],
        ),
        (
            S,
            vec![Datum::Str(String::new()), Datum::Str("tag3".into())],
        ),
    ];
    let ops = [
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
        CompareOp::Eq,
        CompareOp::Ne,
    ];
    let mut atoms = Vec::new();
    for (col, values) in literals {
        for v in values {
            atoms.extend(ops.map(|op| PredSpec::new(COLUMNS[col], op, v.clone())));
        }
    }
    atoms
}

/// The page-zone DPC bound against brute force, for every atom subset
/// the optimizer prices for the workload's count queries (index seeks
/// and intersections), every single atom of those queries, and the
/// [`edge_atoms`]: `true_dpc ≤ bound ≤ pages`, with equality for one
/// one-sided fixed-width atom, and `pages` for one Str atom, which no
/// zone describes. The bound reads pristine pages, so `clean` — the
/// fault-free database of the same fixture, when `db` carries a fault
/// plan — gives the same bound.
fn check_zone_bounds(db: &Database, clean: Option<&Database>, fx: &Fixture, what: &str) {
    let meta = db.catalog().table_by_name(TABLE).expect("table");
    let pages = u64::from(meta.storage.page_count());
    let optimizer = db.optimizer().expect("optimizer");
    let mut cases: Vec<(Conjunction, Vec<usize>)> = edge_atoms()
        .into_iter()
        .map(|spec| {
            let pred = Query::resolve_predicates(&[spec], &schema()).expect("edge atom");
            (pred, vec![0])
        })
        .collect();
    for query in fx
        .queries
        .iter()
        .filter(|q| matches!(q, Query::Count { .. }))
    {
        let pred = resolved_pred(query);
        let candidates = optimizer
            .candidate_single_table_plans(meta.id, &pred)
            .expect("candidates");
        let priced = candidates.into_iter().filter_map(|plan| match plan.path {
            AccessPath::IndexSeek { atoms, .. } => Some(atoms),
            AccessPath::IndexIntersection { a, b } => {
                let mut both = [a.1, b.1].concat();
                both.sort_unstable();
                Some(both)
            }
            _ => None,
        });
        let subsets: Vec<Vec<usize>> = (0..pred.len()).map(|i| vec![i]).chain(priced).collect();
        cases.extend(subsets.into_iter().map(|atoms| (pred.clone(), atoms)));
    }
    for (pred, atoms) in &cases {
        let sub = Conjunction::new(atoms.iter().map(|&i| pred.atoms[i].clone()).collect());
        let what = format!("{what}: zone bound of {sub}");
        let bound = zone_dpc_bound(&meta.storage, pred, atoms);
        let truth = db.true_dpc(TABLE, &sub).expect("oracle");
        assert!(
            truth <= bound && bound <= pages,
            "{what}: {truth} ≤ {bound} ≤ {pages}"
        );
        if let [atom] = &sub.atoms[..] {
            let one_sided = matches!(
                atom.op,
                CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge
            );
            if matches!(atom.value, Datum::Str(_)) {
                assert_eq!(bound, pages, "{what}: a Str atom gives every page");
            } else if one_sided {
                assert_eq!(bound, truth, "{what}: exact for one one-sided atom");
            }
        }
        if let Some(clean) = clean {
            let storage = &clean.catalog().table_by_name(TABLE).expect("table").storage;
            assert_eq!(
                zone_dpc_bound(storage, pred, atoms),
                bound,
                "{what}: fault-free"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Full-query differential runs
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Entry {
    RunQueries,
    RunQuery,
}

fn run(
    entry: Entry,
    runner: &ParallelRunner,
    db: &Database,
    fx: &Fixture,
    cfg: &MonitorConfig,
) -> Vec<QueryOutcome> {
    match entry {
        Entry::RunQueries => runner
            .run_queries(db, &fx.queries, cfg)
            .expect("workload runs"),
        Entry::RunQuery => fx
            .queries
            .iter()
            .map(|q| runner.run_query(db, q, cfg).expect("query runs"))
            .collect(),
    }
}

fn assert_identical(base: &[QueryOutcome], other: &[QueryOutcome], what: &str) {
    assert_eq!(base.len(), other.len(), "{what}: workload length");
    for (i, (b, o)) in base.iter().zip(other).enumerate() {
        assert_same_outcome(b, o, &format!("{what}, query {i}"));
    }
}

fn assert_same_outcome(b: &QueryOutcome, o: &QueryOutcome, what: &str) {
    assert_eq!(b.count, o.count, "{what}: count");
    assert_eq!(b.stats, o.stats, "{what}: stats");
    // Debug text, so NaN estimates compare equal to themselves.
    assert_eq!(
        format!("{:?}", b.report),
        format!("{:?}", o.report),
        "{what}: report"
    );
    assert_eq!(b.description, o.description, "{what}: plan");
    assert_eq!(
        b.elapsed_ms.to_bits(),
        o.elapsed_ms.to_bits(),
        "{what}: simulated time"
    );
    assert_eq!(b.fault_retries, o.fault_retries, "{what}: fault retries");
}

/// Reruns `entry`'s default-config workload under a query deadline at
/// the median simulated time of its deadline-free outcomes `plain`, at
/// every worker count. Each query must complete byte-identical to its
/// plain outcome or abort with the deadline's `DeadlineExceeded`, the
/// same queries must abort at every worker count, and no run may add a
/// hint or a plan-cache entry. Returns the aborted query count.
fn deadline_runs(
    entry: Entry,
    runners: &[ParallelRunner],
    db: &Database,
    fx: &Fixture,
    plain: &[QueryOutcome],
    what: &str,
) -> usize {
    let mut elapsed: Vec<f64> = plain.iter().map(|o| o.elapsed_ms).collect();
    elapsed.sort_by(f64::total_cmp);
    let deadline_ms = elapsed[elapsed.len() / 2] as u64;
    let cfg = MonitorConfig {
        deadline_ms: Some(deadline_ms),
        ..MonitorConfig::default()
    };
    let state = || (db.hints().len(), db.plan_cache_stats().entries);
    let before = state();
    let mut reference: Option<Vec<usize>> = None;
    for runner in runners {
        let what = format!("{what}, deadline {deadline_ms} ms, jobs {}", runner.jobs());
        let outcomes: Vec<Result<QueryOutcome>> = match entry {
            Entry::RunQueries => runner.run_queries_quarantined(db, &fx.queries, &cfg),
            Entry::RunQuery => fx
                .queries
                .iter()
                .map(|q| runner.run_query(db, q, &cfg))
                .collect(),
        };
        let mut aborted = Vec::new();
        for (i, (out, plain)) in outcomes.iter().zip(plain).enumerate() {
            match out {
                Ok(out) => assert_same_outcome(plain, out, &format!("{what}, query {i}")),
                Err(e) => {
                    assert_eq!(
                        *e,
                        Error::DeadlineExceeded { deadline_ms },
                        "{what}, query {i}"
                    );
                    aborted.push(i);
                }
            }
        }
        match &reference {
            Some(r) => assert_eq!(&aborted, r, "{what}: aborted queries"),
            None => reference = Some(aborted),
        }
        assert_eq!(state(), before, "{what}: hints and plan-cache entries");
    }
    reference.map_or(0, |r| r.len())
}

/// What [`differential_runs`] saw across its runs.
pub struct Coverage {
    /// Whether any injected fault fired (a retry or a degraded outcome).
    pub fired: bool,
    /// Whether the memory budget shed any monitor.
    pub shed: bool,
    /// The [`MorselPlan`] variants [`Database::morsel_plan`] returned for
    /// the checked queries, in either pass (see [`shape`]).
    pub shapes: BTreeSet<&'static str>,
    /// Query runs under a deadline that aborted, and that completed.
    pub deadline_runs: (usize, usize),
    /// Queries that split into morsels under zone estimates, and whose
    /// plan differs from the analytical one.
    pub zone_runs: (usize, usize),
}

/// The morsel shape `query` splits into. A clustered range scan (its
/// first page access is random) is told apart from a full scan, and a
/// join of `t` with itself from a join of the copy with `t`.
fn shape(query: &Query, plan: &MorselPlan) -> &'static str {
    let self_join = matches!(query, Query::JoinCount { outer, inner, .. } if outer == inner);
    match (plan, self_join) {
        (
            MorselPlan::Scan {
                first_random: true, ..
            },
            _,
        ) => "RangeScan",
        (MorselPlan::Scan { .. }, _) => "Scan",
        (MorselPlan::Fetch { .. }, _) => "Fetch",
        (MorselPlan::HashJoin { .. }, false) => "HashJoin",
        (MorselPlan::HashJoin { .. }, true) => "HashSelfJoin",
        (MorselPlan::InlJoin { .. }, false) => "InlJoin",
        (MorselPlan::InlJoin { .. }, true) => "InlSelfJoin",
    }
}

/// Runs the default config on a fresh database with zone estimates on,
/// through both entry points at every worker count: byte-identical to
/// the jobs=1 run and agreeing with brute force, as with zones off.
fn zone_estimate_runs(
    runners: &[ParallelRunner],
    fx: &Fixture,
    counts: &[u64],
    fault_rate: f64,
    coverage: &mut Coverage,
    what: &str,
) {
    let cfg = MonitorConfig::default();
    let analytical = fx.database(fault_rate);
    let mut db = fx.database(fault_rate);
    db.set_zone_estimates(true);
    for query in &fx.queries {
        if db.morsel_plan(query, &cfg).expect("classify").is_some() {
            coverage.zone_runs.0 += 1;
        }
        let plan = |db: &Database| db.lower(query, &cfg).expect("lowers").description;
        if plan(&db) != plan(&analytical) {
            coverage.zone_runs.1 += 1;
        }
    }
    for entry in [Entry::RunQueries, Entry::RunQuery] {
        let what = format!("{what}, zone estimates, {entry:?}");
        let base = run(entry, &runners[0], &db, fx, &cfg);
        for runner in &runners[1..] {
            let out = run(entry, runner, &db, fx, &cfg);
            assert_identical(&base, &out, &format!("{what}, jobs {}", runner.jobs()));
        }
        check_against_brute_force(&db, fx, counts, &base, fault_rate == 0.0, true, &what);
    }
}

/// Runs the queries of every seed's workload that `keep` selects at
/// `fault_rate`, through both entry points at every worker count and
/// monitor config, and under a deadline — twice: the second pass runs
/// after the first pass's reports are absorbed, so plans that feedback
/// flips (index fetches, INL joins) go through the same identity and
/// brute-force checks.
pub fn differential_runs(fault_rate: f64, keep: fn(&Query) -> bool) -> Coverage {
    let runners = [1, 2, 8].map(ParallelRunner::new);
    let budgeted = MonitorConfig {
        memory_budget: Some(512),
        ..MonitorConfig::default()
    };
    let mut coverage = Coverage {
        fired: false,
        shed: false,
        shapes: BTreeSet::new(),
        deadline_runs: (0, 0),
        zone_runs: (0, 0),
    };
    for seed in SEEDS {
        let mut fx = Fixture::new(seed);
        fx.queries.retain(keep);
        let mut db = fx.database(fault_rate);
        // The oracles read pristine pages, never the injected faults.
        let counts = true_counts(&db, &fx);
        let clean = (fault_rate > 0.0).then(|| fx.database(0.0));
        let what = format!("seed {seed}, fault rate {fault_rate}");
        check_zone_bounds(&db, clean.as_ref(), &fx, &what);
        zone_estimate_runs(&runners, &fx, &counts, fault_rate, &mut coverage, &what);
        for pass in 1..=2 {
            // The default config's outcomes per entry point.
            let mut plain = Vec::new();
            for cfg in [
                MonitorConfig::default(),
                MonitorConfig::sampled(0.5),
                budgeted.clone(),
            ] {
                for query in &fx.queries {
                    if let Some(plan) = db.morsel_plan(query, &cfg).expect("classify") {
                        assert!(
                            fault_rate == 0.0 || matches!(plan, MorselPlan::Scan { .. }),
                            "seed {seed}: only scans split under a fault plan, got {plan:?}"
                        );
                        coverage.shapes.insert(shape(query, &plan));
                    }
                }
                for entry in [Entry::RunQueries, Entry::RunQuery] {
                    let what = format!(
                        "seed {seed}, pass {pass}, fault rate {fault_rate}, sampling {}, \
                         budget {:?}, {entry:?}",
                        cfg.sampling_fraction, cfg.memory_budget
                    );
                    let base = run(entry, &runners[0], &db, &fx, &cfg);
                    for runner in &runners[1..] {
                        let out = run(entry, runner, &db, &fx, &cfg);
                        assert_identical(&base, &out, &format!("{what}, jobs {}", runner.jobs()));
                    }
                    check_against_brute_force(
                        &db,
                        &fx,
                        &counts,
                        &base,
                        fault_rate == 0.0,
                        cfg.sampling_fraction >= 1.0,
                        &what,
                    );
                    coverage.fired |= base.iter().any(|o| o.fault_retries > 0 || o.degraded());
                    coverage.shed |= base.iter().any(|o| o.report.is_budget_shed());
                    if cfg.sampling_fraction >= 1.0 && cfg.memory_budget.is_none() {
                        plain.push((entry, base));
                    }
                }
            }
            for (entry, base) in &plain {
                let what = format!("seed {seed}, pass {pass}, fault rate {fault_rate}, {entry:?}");
                let aborted = deadline_runs(*entry, &runners, &db, &fx, base, &what);
                coverage.deadline_runs.0 += aborted;
                coverage.deadline_runs.1 += base.len() - aborted;
            }
            for outcome in &plain[0].1 {
                db.absorb_feedback(&outcome.report).expect("absorb");
            }
        }
    }
    coverage
}
