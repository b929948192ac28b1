//! Per-column statistics, built from the column values the catalog
//! keeps current ([`ColumnValues`]) and rebuilt only for tables whose
//! modification epoch moved since. Building reads no page and sorts
//! nothing.

use crate::histogram::EquiDepthHistogram;
use crate::plan::HistOp;
use pf_common::{Datum, TableId};
use pf_storage::{Catalog, ColumnValues};
use std::collections::HashMap;

/// Default histogram resolution (SQL Server uses up to 200 steps).
pub const DEFAULT_BUCKETS: usize = 100;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Histogram over the numeric view (absent for string columns).
    pub histogram: Option<EquiDepthHistogram>,
    /// Exact per-value counts for string columns (our tables have
    /// low-cardinality strings: states, categories).
    pub str_counts: Option<HashMap<String, u64>>,
    /// Number of distinct values.
    pub distinct: u64,
    /// Number of rows.
    pub count: u64,
}

impl ColumnStats {
    /// Stats of a numeric column from its values sorted by
    /// [`f64::total_cmp`]: the histogram and the distinct count both
    /// come from the one sorted vector.
    fn from_sorted(sorted: &[f64]) -> Self {
        let mut distinct = u64::from(!sorted.is_empty());
        for w in sorted.windows(2) {
            if w[0] != w[1] {
                distinct += 1;
            }
        }
        ColumnStats {
            histogram: Some(EquiDepthHistogram::from_sorted(sorted, DEFAULT_BUCKETS)),
            str_counts: None,
            distinct,
            count: sorted.len() as u64,
        }
    }

    /// Stats of a string column over `count` rows from its per-value
    /// counts.
    fn from_counts(counts: &HashMap<String, u64>, count: u64) -> Self {
        ColumnStats {
            distinct: counts.len() as u64,
            str_counts: Some(counts.clone()),
            histogram: None,
            count,
        }
    }

    /// Stats of a column of `count` rows from its values. A column is a
    /// string column iff it holds a string, so an emptied column gets
    /// empty numeric stats whatever its type.
    fn from_values(values: &ColumnValues, count: u64) -> Self {
        if values.strs().is_empty() {
            Self::from_sorted(values.nums())
        } else {
            Self::from_counts(values.strs(), count)
        }
    }

    /// Smallest numeric value (from the histogram), if numeric.
    pub fn min(&self) -> Option<f64> {
        self.histogram
            .as_ref()
            .and_then(|h| h.buckets().first())
            .map(|b| b.lo)
    }

    /// Largest numeric value (from the histogram), if numeric.
    pub fn max(&self) -> Option<f64> {
        self.histogram
            .as_ref()
            .and_then(|h| h.buckets().last())
            .map(|b| b.hi)
    }

    /// Estimated selectivity of `column <op> value`.
    pub fn selectivity(&self, op: HistOp, value: &Datum) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if let (Some(h), Some(x)) = (&self.histogram, value.numeric()) {
            return h.selectivity(op, x);
        }
        if let (Some(counts), Datum::Str(s)) = (&self.str_counts, value) {
            let hit = *counts.get(s).unwrap_or(&0) as f64 / self.count as f64;
            return match op {
                HistOp::Eq => hit,
                HistOp::Ne => 1.0 - hit,
                // Range over strings: a coarse guess, like real engines
                // without string histograms.
                _ => 1.0 / 3.0,
            };
        }
        1.0 / 3.0
    }
}

/// Statistics for every column of every table; each table's set is
/// stamped with the modification epoch it was analyzed at.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbStats {
    tables: HashMap<TableId, AnalyzedTable>,
}

/// One table's column statistics and the epoch they describe.
#[derive(Debug, Clone, PartialEq)]
struct AnalyzedTable {
    epoch: u64,
    columns: Vec<ColumnStats>,
}

impl DbStats {
    /// Builds statistics for every table in the catalog (the `CREATE
    /// STATISTICS … WITH FULLSCAN` of this engine, over the column values
    /// the catalog keeps).
    pub fn build(catalog: &Catalog) -> Self {
        let mut stats = DbStats::default();
        stats.refresh(catalog);
        stats
    }

    /// Rebuilds the statistics of every table that is new or whose
    /// modification epoch moved since it was last analyzed, and keeps
    /// the rest; returns how many tables it rebuilt.
    pub fn refresh(&mut self, catalog: &Catalog) -> usize {
        let mut rebuilt = 0;
        for t in catalog.tables() {
            let epoch = t.storage.epoch();
            if self.epoch(t.id) == Some(epoch) {
                continue;
            }
            let rows = t.storage.row_count();
            let columns = t
                .values
                .iter()
                .map(|v| ColumnStats::from_values(v, rows))
                .collect();
            self.tables.insert(t.id, AnalyzedTable { epoch, columns });
            rebuilt += 1;
        }
        rebuilt
    }

    /// The modification epoch `table` was last analyzed at, if ever.
    pub fn epoch(&self, table: TableId) -> Option<u64> {
        self.tables.get(&table).map(|t| t.epoch)
    }

    /// Stats for `column` of `table` (panics if the table was not built —
    /// a programming error, since stats are built from the same catalog).
    pub fn column(&self, table: TableId, column: usize) -> &ColumnStats {
        &self.tables[&table].columns[column]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::rng::Rng;
    use pf_common::{Column, DataType, Row, Schema};
    use pf_storage::{TableBuilder, TableStorage};

    impl ColumnStats {
        /// Column stats as a row-materializing builder computes them,
        /// kept as the oracle that stats built from the maintained column
        /// values must match bit for bit: every value materialized, each
        /// numeric column sorted twice.
        fn build(values: &[Datum]) -> Self {
            let count = values.len() as u64;
            if values.iter().all(|v| v.numeric().is_some()) {
                let mut nums: Vec<f64> = values.iter().filter_map(Datum::numeric).collect();
                let histogram = EquiDepthHistogram::build(nums.clone(), DEFAULT_BUCKETS);
                nums.sort_by(f64::total_cmp);
                let mut distinct = if nums.is_empty() { 0 } else { 1 };
                for w in nums.windows(2) {
                    if w[0] != w[1] {
                        distinct += 1;
                    }
                }
                ColumnStats {
                    histogram: Some(histogram),
                    str_counts: None,
                    distinct,
                    count,
                }
            } else {
                let mut counts: HashMap<String, u64> = HashMap::new();
                for v in values {
                    if let Datum::Str(s) = v {
                        *counts.entry(s.clone()).or_insert(0) += 1;
                    }
                }
                let distinct = counts.len() as u64;
                ColumnStats {
                    histogram: None,
                    str_counts: Some(counts),
                    distinct,
                    count,
                }
            }
        }
    }

    /// Every column of `storage`, materialized row by row.
    fn columns(storage: &TableStorage) -> Vec<Vec<Datum>> {
        let mut cols = vec![Vec::new(); storage.schema().arity()];
        for rid in storage.all_rids() {
            for (c, v) in storage
                .read_row(rid)
                .unwrap()
                .values
                .into_iter()
                .enumerate()
            {
                cols[c].push(v);
            }
        }
        cols
    }

    /// `stats` matches the oracle on every column of every table.
    fn assert_matches_oracle(stats: &DbStats, catalog: &Catalog, at: &str) {
        for t in catalog.tables() {
            for (c, values) in columns(&t.storage).iter().enumerate() {
                let oracle = ColumnStats::build(values);
                assert_eq!(stats.column(t.id, c), &oracle, "{at} {} col {c}", t.name);
            }
        }
    }

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("d", DataType::Date),
            Column::new("s", DataType::Str),
        ])
    }

    fn mixed_row(rng: &mut Rng, id: i64) -> Row {
        let f = rng.gen_range(200) as f64 / 8.0 - 12.5;
        Row::new(vec![
            Datum::Int(id),
            Datum::Float(if f == 0.0 { -0.0 } else { f }),
            Datum::Date(rng.gen_range(90) as i32 - 30),
            Datum::Str(format!("v{}", rng.gen_range(25)).repeat(1 + rng.gen_range(3) as usize)),
        ])
    }

    /// Random DML on one table of two, clustered and heap: every refresh
    /// rebuilds exactly the table DML moved, equals a from-scratch build
    /// over the same catalog, and matches the oracle on every column —
    /// down to a table emptied by a delete.
    #[test]
    fn refreshed_stats_equal_a_fresh_build_and_the_oracle() {
        for seed in 0..6u64 {
            for clustered in [true, false] {
                let mut rng = Rng::new(seed);
                let mut cat = Catalog::new();
                let mut load = |name: &str, n: i64, rng: &mut Rng| {
                    let rows = (0..n).map(|i| mixed_row(rng, i * 3)).collect();
                    let mut b = TableBuilder::new(name, mixed_schema())
                        .rows(rows)
                        .page_size(1024);
                    if clustered {
                        b = b.clustered_on("id");
                    }
                    b.register(&mut cat).unwrap()
                };
                let t = load("t", 400, &mut rng);
                let u = load("u", 150, &mut rng);
                let mut stats = DbStats::build(&cat);
                assert_eq!((stats.epoch(t), stats.epoch(u)), (Some(0), Some(0)));
                assert_matches_oracle(&stats, &cat, "load");
                for step in 0..40 {
                    let before = cat.epoch_state(t).unwrap().epoch;
                    if rng.gen_range(3) < 2 {
                        let id = rng.gen_range(1_300) as i64;
                        cat.insert_row(t, mixed_row(&mut rng, id)).unwrap();
                    } else {
                        let lo = rng.gen_range(1_300) as i64;
                        let hi = lo + rng.gen_range(60) as i64;
                        cat.delete_where(t, |r| (lo..hi).contains(&r.get(0).as_int().unwrap()))
                            .unwrap();
                    }
                    let moved = cat.epoch_state(t).unwrap().epoch != before;
                    let rebuilt = stats.refresh(&cat);
                    assert_eq!(
                        rebuilt,
                        usize::from(moved),
                        "step {step}: only t re-analyzed"
                    );
                    assert_eq!(stats.epoch(u), Some(0));
                    assert_eq!(stats, DbStats::build(&cat), "step {step}");
                    assert_matches_oracle(&stats, &cat, &format!("seed {seed} step {step}"));
                }
                cat.delete_where(t, |_| true).unwrap();
                assert_eq!(stats.refresh(&cat), 1);
                assert_eq!(stats, DbStats::build(&cat));
                assert_matches_oracle(&stats, &cat, "emptied");
            }
        }
    }

    /// NaN, signed zeros and infinities: statistics match the oracle bit
    /// for bit at load and after every statement that deletes or
    /// re-inserts one of them (compared through `Debug`, which prints
    /// `NaN` and `-0.0` as such, since `NaN != NaN`). Maintenance that
    /// matched values with `==` would never find a NaN to remove, and
    /// could remove a `0.0` for a `-0.0`.
    #[test]
    fn special_floats_match_the_oracle_bit_for_bit() {
        let specials = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let rows: Vec<Row> = (0..300)
            .map(|i| {
                Row::new(vec![Datum::Float(
                    specials[i % specials.len()] * (i / 6) as f64,
                )])
            })
            .collect();
        let mut cat = Catalog::new();
        let t = TableBuilder::new("t", Schema::new(vec![Column::new("f", DataType::Float)]))
            .rows(rows)
            .page_size(512)
            .register(&mut cat)
            .unwrap();
        let mut stats = DbStats::build(&cat);
        let check = |stats: &DbStats, cat: &Catalog, at: &str| {
            let values = &columns(&cat.table(t).unwrap().storage)[0];
            assert_eq!(
                format!("{:?}", stats.column(t, 0)),
                format!("{:?}", ColumnStats::build(values)),
                "{at}"
            );
        };
        check(&stats, &cat, "load");
        for x in &specials[..5] {
            let v = Datum::Float(*x);
            let deleted = cat.delete_where(t, |r| r.get(0) == &v).unwrap();
            assert!(deleted > 0, "no row holds {x:?}");
            stats.refresh(&cat);
            check(&stats, &cat, &format!("delete {x:?}"));
            for i in 0..3 {
                cat.insert_row(t, Row::new(vec![v.clone()])).unwrap();
                stats.refresh(&cat);
                check(&stats, &cat, &format!("insert {x:?} #{i}"));
            }
        }
    }

    #[test]
    fn numeric_column_stats() {
        let vals: Vec<Datum> = (0..1_000).map(Datum::Int).collect();
        let s = ColumnStats::build(&vals);
        assert_eq!(s.count, 1_000);
        assert_eq!(s.distinct, 1_000);
        let sel = s.selectivity(HistOp::Lt, &Datum::Int(100));
        assert!((sel - 0.1).abs() < 0.02, "{sel}");
    }

    #[test]
    fn string_column_stats() {
        let vals: Vec<Datum> = (0..90)
            .map(|i| Datum::Str(if i % 3 == 0 { "CA" } else { "WA" }.into()))
            .collect();
        let s = ColumnStats::build(&vals);
        assert_eq!(s.distinct, 2);
        let ca = s.selectivity(HistOp::Eq, &Datum::Str("CA".into()));
        assert!((ca - 1.0 / 3.0).abs() < 1e-9);
        let tx = s.selectivity(HistOp::Eq, &Datum::Str("TX".into()));
        assert_eq!(tx, 0.0);
        let ne = s.selectivity(HistOp::Ne, &Datum::Str("CA".into()));
        assert!((ne - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_column() {
        let s = ColumnStats::build(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.selectivity(HistOp::Eq, &Datum::Int(1)), 0.0);
    }

    #[test]
    fn db_stats_from_catalog() {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("state", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Str(if i < 50 { "CA" } else { "WA" }.into()),
                ])
            })
            .collect();
        let id = TableBuilder::new("t", schema)
            .rows(rows)
            .clustered_on("id")
            .register(&mut cat)
            .unwrap();
        let stats = DbStats::build(&cat);
        assert_eq!(stats.column(id, 0).distinct, 200);
        let ca = stats
            .column(id, 1)
            .selectivity(HistOp::Eq, &Datum::Str("CA".into()));
        assert!((ca - 0.25).abs() < 1e-9);
    }
}
