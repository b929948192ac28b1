//! Operator-level differential checks: the hash join against a nested
//! loop, and the radix table and bit-vector filter against per-row
//! reference models.
//!
//! The hash join's count and row drivers must agree with a nested loop
//! under the key equality documented in `pf_exec::join_table`, charging
//! one hash per build row and one per probe row. The seeded full-query
//! runs against brute force live in `tests/kernel_identity.rs` and
//! `tests/join_identity.rs` (shared harness in `tests/harness`).

use std::collections::HashMap;
use std::sync::Arc;

use pf_common::{Column, DataType, Datum, DatumRef, Row, Schema, TableId};
use pf_exec::join::{HashJoin, InlJoin, MergeJoin, StreamingMergeJoin};
use pf_exec::sort::Sort;
use pf_exec::{drain, run_count, Conjunction, ExecContext, Operator, RadixTable, SeqScan};
use pf_feedback::BitVectorFilter;
use pf_storage::btree::BPlusTree;
use pf_storage::TableStorage;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

// ---------------------------------------------------------------------
// Operator level: hash join ≡ nested loop, over arbitrary keys (direct
// construction, so NaN join keys — which no planner workload produces —
// are covered).
// ---------------------------------------------------------------------

/// A single-column table of join keys (small pages, so multi-page
/// self-joins exercise page overlap).
fn key_table(keys: &[Datum]) -> Arc<TableStorage> {
    let ty = if keys.iter().any(|d| matches!(d, Datum::Float(_))) {
        DataType::Float
    } else {
        DataType::Int
    };
    let schema = Schema::new(vec![Column::new("k", ty)]);
    let rows: Vec<Row> = keys.iter().map(|k| Row::new(vec![k.clone()])).collect();
    Arc::new(TableStorage::bulk_load(schema, &rows, None, 512, 1.0).expect("bulk load"))
}

fn key_join(build: &Arc<TableStorage>, probe: &Arc<TableStorage>) -> HashJoin {
    let scan = |t: &Arc<TableStorage>, id| {
        SeqScan::full(Arc::clone(t), TableId(id), Conjunction::always_true(), None)
    };
    HashJoin::new(
        Box::new(scan(build, 0)),
        Box::new(scan(probe, 1)),
        0,
        0,
        None,
    )
}

/// The join's key equality (`pf_exec::join_table`): `Datum` equality,
/// under which floats match exactly when their bits do.
fn keys_match(b: &Datum, p: &Datum) -> bool {
    b == p
}

/// Runs `bt ⋈ pt` (holding keys `bk` and `pk`) through the count driver
/// and the row driver and checks both against a nested loop, including
/// the hash charges. Joined pairs compare as sorted Debug text, which
/// tells `-0.0` from `0.0`.
fn check_hash_join(
    bk: &[Datum],
    pk: &[Datum],
    bt: &Arc<TableStorage>,
    pt: &Arc<TableStorage>,
) -> Result<(), TestCaseError> {
    let mut expected: Vec<String> = pk
        .iter()
        .flat_map(|p| {
            bk.iter()
                .filter(move |b| keys_match(b, p))
                .map(move |b| format!("{b:?} {p:?}"))
        })
        .collect();
    expected.sort();
    let hashes = (bk.len() + pk.len()) as u64;

    let mut ctx = ExecContext::new(8_192);
    let n = run_count(&mut key_join(bt, pt), &mut ctx).expect("join counts");
    prop_assert_eq!(n, expected.len() as u64);
    prop_assert_eq!(ctx.stats().hash_ops, hashes);

    let mut ctx = ExecContext::new(8_192);
    let rows = drain(&mut key_join(bt, pt), &mut ctx).expect("join drains");
    prop_assert_eq!(ctx.stats().hash_ops, hashes);
    let mut joined: Vec<String> = rows
        .iter()
        .map(|r| format!("{:?} {:?}", r.get(0), r.get(1)))
        .collect();
    joined.sort();
    prop_assert_eq!(joined, expected);
    Ok(())
}

/// One Float equality across join methods: the self-join of
/// `{-0.0, 0.0, 1.0, NaN}` pairs each key with itself alone under the
/// hash join, both merge joins, and the index-nested-loops join, whose
/// B+-tree seeks order keys by `total_cmp`.
#[test]
fn float_self_join_counts_alike_under_every_join_method() {
    // Clustered on the key, so the streaming merge join's inputs are
    // already in `total_cmp` order (NaN sorts last).
    let keys: Vec<Datum> = [-0.0, 0.0, 1.0, f64::NAN]
        .into_iter()
        .map(Datum::Float)
        .collect();
    let schema = Schema::new(vec![Column::new("k", DataType::Float)]);
    let rows: Vec<Row> = keys.iter().map(|k| Row::new(vec![k.clone()])).collect();
    let t = Arc::new(TableStorage::bulk_load(schema, &rows, Some(0), 512, 1.0).expect("load"));
    let scan = || -> Box<dyn Operator> {
        Box::new(SeqScan::full(
            Arc::clone(&t),
            TableId(0),
            Conjunction::always_true(),
            None,
        ))
    };
    let mut tree = BPlusTree::new();
    for rid in t.all_rids() {
        tree.insert(t.read_row(rid).expect("row").get(0).clone(), rid);
    }
    let tree = Arc::new(tree);
    let height = tree.height();
    let joins: Vec<(&str, Box<dyn Operator>)> = vec![
        ("hash", Box::new(HashJoin::new(scan(), scan(), 0, 0, None))),
        (
            "merge",
            Box::new(MergeJoin::new(
                Box::new(Sort::new(scan(), 0)),
                Box::new(Sort::new(scan(), 0)),
                0,
                0,
                None,
            )),
        ),
        (
            "streaming merge",
            Box::new(StreamingMergeJoin::new(scan(), scan(), 0, 0, None)),
        ),
        (
            "index nested loops",
            Box::new(InlJoin::new(
                scan(),
                0,
                tree,
                height,
                Arc::clone(&t),
                TableId(0),
                Conjunction::always_true(),
                None,
            )),
        ),
    ];
    for (method, mut join) in joins {
        let mut ctx = ExecContext::new(64);
        let n = run_count(join.as_mut(), &mut ctx).expect("join counts");
        assert_eq!(n, 4, "{method} join");
    }
}

/// Quarter-step floats (forcing genuine key collisions, `-0.0` among
/// them) with NaN injected every `nan_every` keys.
fn float_keys(raw: &[f64], nan_every: usize) -> Vec<Datum> {
    raw.iter()
        .enumerate()
        .map(|(i, x)| {
            if i % nan_every == 0 {
                Datum::Float(f64::NAN)
            } else {
                Datum::Float((x * 4.0).round() / 4.0)
            }
        })
        .collect()
}

proptest! {
    /// Hash join ≡ nested loop over random int keys.
    #[test]
    fn hash_join_matches_nested_loop_int_keys(
        build in prop::collection::vec(-20i64..20, 0..120),
        probe in prop::collection::vec(-20i64..20, 0..120),
    ) {
        let bk: Vec<Datum> = build.iter().copied().map(Datum::Int).collect();
        let pk: Vec<Datum> = probe.iter().copied().map(Datum::Int).collect();
        check_hash_join(&bk, &pk, &key_table(&bk), &key_table(&pk))?;
    }

    /// The same over float keys with NaNs and signed zeros: NaN keys
    /// match each other, and `-0.0` never meets `0.0`.
    #[test]
    fn hash_join_matches_nested_loop_nan_float_keys(
        build in prop::collection::vec(-4.0f64..4.0, 1..80),
        probe in prop::collection::vec(-4.0f64..4.0, 1..80),
        nan_every in 2usize..6,
    ) {
        let bk = float_keys(&build, nan_every);
        let pk = float_keys(&probe, nan_every);
        check_hash_join(&bk, &pk, &key_table(&bk), &key_table(&pk))?;
    }

    /// Hash self-join with full page overlap: the same storage feeds
    /// build and probe, so probe pages are pool hits.
    #[test]
    fn hash_join_self_join_page_overlap(
        keys in prop::collection::vec(0i64..30, 1..200),
    ) {
        let ks: Vec<Datum> = keys.iter().copied().map(Datum::Int).collect();
        let t = key_table(&ks);
        check_hash_join(&ks, &ks, &t, &t)?;
    }

    /// The radix table replicates `HashMap<Datum, count>` multiplicity
    /// semantics for arbitrary keys and partition counts.
    #[test]
    fn radix_table_matches_hashmap_reference(
        keys in prop::collection::vec(-10i64..10, 0..300),
        probes in prop::collection::vec(-15i64..15, 0..60),
        parts in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut table = RadixTable::new(parts, seed);
        let mut reference: HashMap<Datum, u64> = HashMap::new();
        for k in &keys {
            let d = Datum::Int(*k);
            table.insert(DatumRef::from(&d), None);
            *reference.entry(d).or_insert(0) += 1;
        }
        prop_assert_eq!(table.distinct_keys(), reference.len());
        prop_assert_eq!(table.total_rows(), keys.len() as u64);
        for p in &probes {
            let d = Datum::Int(*p);
            prop_assert_eq!(
                table.matches(DatumRef::from(&d)),
                reference.get(&d).copied().unwrap_or(0));
        }
    }

    /// `BitVectorFilter::insert_batch` ≡ per-row `insert_ref`, and both
    /// ≡ OR-merging per-fragment filters: same bits, same insertion
    /// count, same membership answers.
    #[test]
    fn filter_bulk_insert_matches_per_row_and_merge(
        keys in prop::collection::vec(-50i64..50, 0..200),
        split in 0usize..200,
        numbits in 64usize..2048,
        seed in any::<u64>(),
    ) {
        let ks: Vec<Datum> = keys.iter().copied().map(Datum::Int).collect();
        let split = split.min(ks.len());

        let mut per_row = BitVectorFilter::new(numbits, seed);
        for k in &ks {
            per_row.insert_ref(DatumRef::from(k));
        }

        let mut bulk = BitVectorFilter::new(numbits, seed);
        let n = bulk.insert_batch(ks.iter().map(DatumRef::from));
        prop_assert_eq!(n, ks.len() as u64);

        let mut left = BitVectorFilter::new(numbits, seed);
        left.insert_batch(ks[..split].iter().map(DatumRef::from));
        let mut right = BitVectorFilter::new(numbits, seed);
        right.insert_batch(ks[split..].iter().map(DatumRef::from));
        left.merge(&right).expect("same shape");

        prop_assert_eq!(per_row.insertions(), bulk.insertions());
        prop_assert_eq!(per_row.insertions(), left.insertions());
        for probe in -60i64..60 {
            let d = Datum::Int(probe);
            let want = per_row.may_contain(&d);
            prop_assert_eq!(bulk.may_contain(&d), want);
            prop_assert_eq!(left.may_contain(&d), want);
        }
    }
}
