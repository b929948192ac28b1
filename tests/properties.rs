//! Property-based tests (proptest) over the core data structures and the
//! paper's estimators, checked against brute-force models.

use proptest::prelude::*;
use std::collections::HashSet;
use std::ops::Bound;

use pf_common::{Column, DataType, Datum, Rid, Row, Schema};
use pf_exec::index::SeekRange;
use pf_exec::CompareOp;
use pf_feedback::{
    clustering_ratio, BitVectorFilter, DpSampler, GroupedPageCounter, LinearCounter,
};
use pf_optimizer::histogram::EquiDepthHistogram;
use pf_storage::btree::BPlusTree;
use pf_storage::TableStorage;

// ---------------------------------------------------------------------
// Storage codec / pages
// ---------------------------------------------------------------------

fn arb_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        any::<i64>().prop_map(Datum::Int),
        any::<f64>().prop_map(Datum::Float),
        any::<i32>().prop_map(Datum::Date),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Datum::Str),
    ]
}

proptest! {
    /// Datum hashing (the monitors' workhorse) is deterministic per seed
    /// and bit-vector filters honor it for every datum shape.
    #[test]
    fn datum_hash_deterministic_and_filter_consistent(
        data in prop::collection::vec(arb_datum(), 1..50),
        seed in any::<u64>(),
    ) {
        let mut f = BitVectorFilter::new(2_048, seed);
        for d in &data {
            prop_assert_eq!(
                pf_common::hash::hash_datum(d, seed),
                pf_common::hash::hash_datum(d, seed)
            );
            f.insert(d);
        }
        for d in &data {
            prop_assert!(f.may_contain(d));
        }
    }

    /// Bulk-loaded rows decode back byte-identically, in order, across
    /// arbitrary schemas and page sizes.
    #[test]
    fn storage_round_trips_arbitrary_rows(
        rows in prop::collection::vec(
            (any::<i64>(), "[a-z]{0,24}", any::<i32>()),
            1..200,
        ),
        page_size in 256usize..4096,
    ) {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("d", DataType::Date),
        ]);
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(k, s, d)| Row::new(vec![Datum::Int(k), Datum::Str(s), Datum::Date(d)]))
            .collect();
        let t = TableStorage::bulk_load(schema, &rows, None, page_size, 1.0).unwrap();
        prop_assert_eq!(t.row_count(), rows.len() as u64);
        let mut decoded = Vec::new();
        for rid in t.all_rids() {
            decoded.push(t.read_row(rid).unwrap());
        }
        prop_assert_eq!(decoded, rows);
    }

    /// Clustered loads bracket every key: any key's rows fall within the
    /// pages `locate_range` returns for it.
    #[test]
    fn locate_range_is_sound(
        mut keys in prop::collection::vec(-500i64..500, 1..300),
        probe in -500i64..500,
        page_size in 256usize..1024,
    ) {
        keys.sort_unstable();
        let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
        let rows: Vec<Row> = keys.iter().map(|k| Row::new(vec![Datum::Int(*k)])).collect();
        let t = TableStorage::bulk_load(schema, &rows, Some(0), page_size, 1.0).unwrap();
        let (lo, hi) = t
            .locate_range(Some(&Datum::Int(probe)), Some(&Datum::Int(probe)))
            .unwrap();
        // Brute force: pages that contain the probe key.
        for p in 0..t.page_count() {
            let has = t
                .rows_on_page(pf_common::PageId(p))
                .unwrap()
                .iter()
                .any(|r| r.get(0) == &Datum::Int(probe));
            if has {
                prop_assert!((lo..hi).contains(&p), "page {p} outside [{lo},{hi})");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Zero-copy row views vs the owned codec
// ---------------------------------------------------------------------

/// Derives the schema a generated row conforms to.
fn schema_of(cells: &[Datum]) -> Schema {
    Schema::new(
        cells
            .iter()
            .enumerate()
            .map(|(i, d)| Column::new(format!("c{i}"), d.data_type()))
            .collect(),
    )
}

proptest! {
    /// For arbitrary schemas — including multiple `Str` columns and empty
    /// strings — `RowView::materialize` is value-identical to
    /// `decode_row`, and so is `RowView::materialize_into` whatever the
    /// reused row held before (longer strings, values of other types,
    /// another arity); per-column borrowed access agrees with both, and
    /// `RowLayout::validate` consumes exactly the bytes the owned decoder
    /// consumes.
    #[test]
    fn row_view_matches_owned_decode(
        cells in prop::collection::vec(arb_datum(), 1..8),
        suffix in prop::collection::vec(any::<u64>().prop_map(|v| v as u8), 0..16),
        stale in prop::collection::vec(arb_datum(), 0..10),
    ) {
        let schema = schema_of(&cells);
        let row = Row::new(cells);
        let mut bytes = Vec::new();
        pf_storage::codec::encode_row(&schema, &row, &mut bytes).unwrap();
        let encoded_len = bytes.len();
        // Decoders must ignore trailing bytes (rows share page space).
        bytes.extend_from_slice(&suffix);

        let (decoded, consumed) = pf_storage::codec::decode_row(&schema, &bytes).unwrap();
        prop_assert_eq!(consumed, encoded_len);

        let layout = pf_storage::RowLayout::new(&schema);
        prop_assert_eq!(layout.validate(&bytes).unwrap(), encoded_len);
        let view = pf_storage::RowView::new(&layout, &bytes).unwrap();
        prop_assert_eq!(&view.materialize(), &decoded);
        prop_assert_eq!(&decoded, &row);
        for (i, cell) in row.values.iter().enumerate() {
            prop_assert_eq!(&view.get(i).to_datum(), cell);
        }

        let longer: Vec<Datum> = row
            .values
            .iter()
            .map(|d| match d {
                Datum::Str(s) => Datum::Str(format!("{s} and a stale tail")),
                _ => Datum::Str("stale".into()),
            })
            .chain([Datum::Int(7)])
            .collect();
        let other_types: Vec<Datum> = row.values[1..]
            .iter()
            .map(|d| match d {
                Datum::Str(_) => Datum::Float(f64::NAN),
                _ => Datum::Str(String::new()),
            })
            .collect();
        for held in [longer, other_types, stale] {
            let mut reused = Row::new(held);
            view.materialize_into(&mut reused);
            prop_assert_eq!(&reused, &decoded);
            view.materialize_into(&mut reused);
            prop_assert_eq!(&reused, &decoded);
        }
    }

    /// Truncation-rejection parity: every strict prefix of an encoded row
    /// is rejected by the owned decoder and the view validator alike —
    /// the zero-copy path accepts exactly the byte strings the codec
    /// accepts.
    #[test]
    fn row_view_rejects_exactly_what_decode_rejects(
        cells in prop::collection::vec(arb_datum(), 1..6),
    ) {
        let schema = schema_of(&cells);
        let row = Row::new(cells);
        let mut bytes = Vec::new();
        pf_storage::codec::encode_row(&schema, &row, &mut bytes).unwrap();
        let layout = pf_storage::RowLayout::new(&schema);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            prop_assert!(
                pf_storage::codec::decode_row(&schema, truncated).is_err(),
                "owned decode accepted a {cut}-byte prefix of {} bytes",
                bytes.len()
            );
            prop_assert!(
                pf_storage::RowView::new(&layout, truncated).is_err(),
                "view accepted a {cut}-byte prefix of {} bytes",
                bytes.len()
            );
        }
    }
}

/// The proptest shim only generates finite floats, so NaN payload
/// preservation gets a targeted check: both decode paths must return the
/// exact NaN bit pattern stored, not a canonicalized one.
#[test]
fn nan_bits_survive_both_decode_paths() {
    let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    let schema = Schema::new(vec![
        Column::new("f", DataType::Float),
        Column::new("s", DataType::Str),
    ]);
    let row = Row::new(vec![Datum::Float(nan), Datum::Str(String::new())]);
    let mut bytes = Vec::new();
    pf_storage::codec::encode_row(&schema, &row, &mut bytes).unwrap();

    let (decoded, _) = pf_storage::codec::decode_row(&schema, &bytes).unwrap();
    let layout = pf_storage::RowLayout::new(&schema);
    let view = pf_storage::RowView::new(&layout, &bytes).unwrap();
    for r in [&decoded, &view.materialize()] {
        match r.get(0) {
            Datum::Float(f) => assert_eq!(f.to_bits(), nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }
    match view.get(0) {
        pf_common::DatumRef::Float(f) => assert_eq!(f.to_bits(), nan.to_bits()),
        other => panic!("expected float ref, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// B+-tree vs a sorted-multimap model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i16, u16),
    Remove(i16, u16),
    Get(i16),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<i16>(), any::<u16>()).prop_map(|(k, r)| TreeOp::Insert(k, r)),
        (any::<i16>(), any::<u16>()).prop_map(|(k, r)| TreeOp::Remove(k, r)),
        any::<i16>().prop_map(TreeOp::Get),
    ]
}

proptest! {
    /// A small-order B+-tree behaves exactly like a BTreeMap<i64, Vec<Rid>>
    /// under arbitrary interleavings of insert/remove/get, and its range
    /// scans match the model's.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(arb_tree_op(), 1..400)) {
        let mut tree = BPlusTree::with_order(4);
        let mut model: std::collections::BTreeMap<i64, Vec<Rid>> = Default::default();
        for op in ops {
            match op {
                TreeOp::Insert(k, r) => {
                    let rid = Rid::new(u32::from(r), 0);
                    tree.insert(Datum::Int(i64::from(k)), rid);
                    model.entry(i64::from(k)).or_default().push(rid);
                }
                TreeOp::Remove(k, r) => {
                    let rid = Rid::new(u32::from(r), 0);
                    let t = tree.remove(&Datum::Int(i64::from(k)), rid);
                    let m = match model.get_mut(&i64::from(k)) {
                        Some(v) => match v.iter().position(|x| *x == rid) {
                            Some(i) => {
                                v.swap_remove(i);
                                if v.is_empty() {
                                    model.remove(&i64::from(k));
                                }
                                true
                            }
                            None => false,
                        },
                        None => false,
                    };
                    prop_assert_eq!(t, m);
                }
                TreeOp::Get(k) => {
                    let t: Option<HashSet<Rid>> = tree
                        .get(&Datum::Int(i64::from(k)))
                        .map(|s| s.iter().copied().collect());
                    let m: Option<HashSet<Rid>> =
                        model.get(&i64::from(k)).map(|v| v.iter().copied().collect());
                    prop_assert_eq!(t, m);
                }
            }
        }
        prop_assert!(tree.check_invariants().is_empty());
        prop_assert_eq!(tree.key_count(), model.len());
        // Full iteration in key order.
        let tree_keys: Vec<i64> = tree.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        let model_keys: Vec<i64> = model.keys().copied().collect();
        prop_assert_eq!(tree_keys, model_keys);
    }

    /// Range scans agree with the model for arbitrary bounds.
    #[test]
    fn btree_range_matches_model(
        keys in prop::collection::vec(any::<i16>(), 1..200),
        bounds in (any::<i16>(), any::<i16>()).prop_map(|(a, b)| (a.min(b), a.max(b))),
    ) {
        let (lo, hi) = bounds;
        let mut tree = BPlusTree::with_order(4);
        let mut model: std::collections::BTreeMap<i64, u32> = Default::default();
        for (n, k) in keys.iter().enumerate() {
            tree.insert(Datum::Int(i64::from(*k)), Rid::new(n as u32, 0));
            model.entry(i64::from(*k)).or_insert(0);
        }
        let (lo_d, hi_d) = (Datum::Int(i64::from(lo)), Datum::Int(i64::from(hi)));
        let got: Vec<i64> = tree
            .range(Bound::Included(&lo_d), Bound::Excluded(&hi_d))
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        let expect: Vec<i64> = model
            .range(i64::from(lo)..i64::from(hi))
            .map(|(k, _)| *k)
            .collect();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// The paper's estimators vs brute force
// ---------------------------------------------------------------------

proptest! {
    /// Grouped counting is exact for any page-grouped stream.
    #[test]
    fn grouped_counter_is_exact(
        pages in prop::collection::vec((0u32..200, prop::collection::vec(any::<bool>(), 1..20)), 0..100),
    ) {
        let mut counter = GroupedPageCounter::new();
        let mut truth = 0u64;
        for (i, (_, rows)) in pages.iter().enumerate() {
            // Distinct page ids in stream order (grouped access), one
            // batched observation per page.
            let pid = i as u32;
            let satisfying = rows.iter().filter(|s| **s).count() as u64;
            counter.observe_page(pid, satisfying, rows.len() as u64);
            truth += u64::from(rows.iter().any(|s| *s));
        }
        counter.finish();
        prop_assert_eq!(counter.count(), truth);
    }

    /// DPSample at fraction 1 is exact for any stream; at any fraction
    /// its estimate never exceeds pages_seen / fraction.
    #[test]
    fn dpsample_exact_at_full_fraction(
        satisfied in prop::collection::vec(any::<bool>(), 0..300),
    ) {
        let mut s = DpSampler::new(1.0, 1).unwrap();
        let truth = satisfied.iter().filter(|x| **x).count() as f64;
        for &sat in &satisfied {
            s.start_page();
            s.observe_row(sat);
        }
        s.finish();
        prop_assert_eq!(s.estimate(), truth);
    }

    /// Linear counting at ≤0.5 load factor stays within 15 % of the true
    /// distinct count (far inside Whang et al.'s bound for these sizes).
    #[test]
    fn linear_counter_error_bounded(
        pids in prop::collection::hash_set(0u32..2_000, 100..1_000),
        seed in any::<u64>(),
    ) {
        let mut c = LinearCounter::new(4_096, seed);
        for &p in &pids {
            c.observe(p);
            c.observe(p); // duplicates are free
        }
        let err = (c.estimate() - pids.len() as f64).abs() / pids.len() as f64;
        prop_assert!(err < 0.15, "err {err} for {} distinct", pids.len());
    }

    /// Bit-vector filters never produce false negatives, for any key mix.
    #[test]
    fn bitvector_no_false_negatives(
        keys in prop::collection::vec(any::<i64>(), 1..500),
        bits in 64usize..4_096,
        seed in any::<u64>(),
    ) {
        let mut f = BitVectorFilter::new(bits, seed);
        for k in &keys {
            f.insert(&Datum::Int(*k));
        }
        for k in &keys {
            prop_assert!(f.may_contain(&Datum::Int(*k)));
        }
    }

    /// The clustering ratio is always in [0, 1] when defined.
    #[test]
    fn clustering_ratio_bounded(
        rows in 0u64..100_000,
        pages_touched in 0u64..10_000,
        table_pages in 1u64..10_000,
        rpp in 1.0f64..200.0,
    ) {
        if let Some(cr) = clustering_ratio(rows, pages_touched, table_pages, rpp) {
            prop_assert!((0.0..=1.0).contains(&cr));
        }
    }
}

// ---------------------------------------------------------------------
// Seek ranges vs predicate semantics
// ---------------------------------------------------------------------

fn arb_seekable_op() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Gt),
        Just(CompareOp::Ge),
    ]
}

proptest! {
    /// A combined seek range selects exactly the keys satisfying all its
    /// atoms (checked against brute-force filtering over a key domain).
    #[test]
    fn seek_range_matches_predicate_semantics(
        atoms in prop::collection::vec((arb_seekable_op(), -50i64..50), 1..4),
    ) {
        let pairs: Vec<(CompareOp, Datum)> = atoms
            .iter()
            .map(|(op, v)| (*op, Datum::Int(*v)))
            .collect();
        let range = SeekRange::from_atoms(&pairs).unwrap();

        let mut tree = BPlusTree::with_order(8);
        for k in -60i64..60 {
            tree.insert(Datum::Int(k), Rid::new(k.unsigned_abs() as u32, 0));
        }
        let lo = match &range.lo {
            Bound::Included(d) => Bound::Included(d),
            Bound::Excluded(d) => Bound::Excluded(d),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match &range.hi {
            Bound::Included(d) => Bound::Included(d),
            Bound::Excluded(d) => Bound::Excluded(d),
            Bound::Unbounded => Bound::Unbounded,
        };
        let via_range: Vec<i64> = tree.range(lo, hi).map(|(k, _)| k.as_int().unwrap()).collect();

        let matches = |k: i64| {
            atoms.iter().all(|(op, v)| match op {
                CompareOp::Eq => k == *v,
                CompareOp::Lt => k < *v,
                CompareOp::Le => k <= *v,
                CompareOp::Gt => k > *v,
                CompareOp::Ge => k >= *v,
                CompareOp::Ne => k != *v,
            })
        };
        let brute: Vec<i64> = (-60i64..60).filter(|k| matches(*k)).collect();
        prop_assert_eq!(via_range, brute);
    }

    /// Histogram selectivities are probabilities, and `<` selectivity is
    /// monotone in the cut point.
    #[test]
    fn histogram_selectivity_sane(
        mut values in prop::collection::vec(-1_000i64..1_000, 1..500),
        x1 in -1_200i64..1_200,
        x2 in -1_200i64..1_200,
    ) {
        values.sort_unstable();
        let h = EquiDepthHistogram::build(values.iter().map(|v| *v as f64).collect(), 20);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let s_lo = h.selectivity(pf_optimizer::plan::HistOp::Lt, lo as f64);
        let s_hi = h.selectivity(pf_optimizer::plan::HistOp::Lt, hi as f64);
        prop_assert!((0.0..=1.0).contains(&s_lo));
        prop_assert!((0.0..=1.0).contains(&s_hi));
        prop_assert!(s_lo <= s_hi + 1e-9);
    }
}
