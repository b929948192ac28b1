//! Cardinality estimation for conjunctive predicates.
//!
//! Conjunct selectivities multiply (the independence assumption), with
//! injected cardinalities taking precedence at every granularity: the
//! full conjunction first, then per-atom. This mirrors the paper's
//! methodology, where exact cardinalities are injected so that plan
//! differences are attributable to page counts alone.

use crate::hints::HintSet;
use crate::plan::HistOp;
use crate::stats::DbStats;
use pf_common::TableId;
use pf_exec::Conjunction;

/// Estimates row counts for predicates on one table.
pub struct CardinalityEstimator<'a> {
    stats: &'a DbStats,
    hints: &'a HintSet,
    table: TableId,
    table_name: &'a str,
    table_rows: u64,
}

impl<'a> CardinalityEstimator<'a> {
    /// Builds an estimator for `table` (`table_name` is used for hint keys).
    pub fn new(
        stats: &'a DbStats,
        hints: &'a HintSet,
        table: TableId,
        table_name: &'a str,
        table_rows: u64,
    ) -> Self {
        CardinalityEstimator {
            stats,
            hints,
            table,
            table_name,
            table_rows,
        }
    }

    /// Estimated selectivity of the atom at `idx` of `pred` (hints win).
    pub fn atom_selectivity(&self, pred: &Conjunction, idx: usize) -> f64 {
        let key = pred.key_of(&[idx]);
        if let Some(rows) = self.hints.cardinality(self.table_name, &key) {
            return (rows / self.table_rows.max(1) as f64).clamp(0.0, 1.0);
        }
        let atom = &pred.atoms[idx];
        self.stats
            .column(self.table, atom.column)
            .selectivity(HistOp::from(atom.op), &atom.value)
    }

    /// Estimated rows satisfying the sub-conjunction at `indices`
    /// (injected value if present, else independence product).
    pub fn rows_of(&self, pred: &Conjunction, indices: &[usize]) -> f64 {
        let key = pred.key_of(indices);
        if let Some(rows) = self.hints.cardinality(self.table_name, &key) {
            return rows;
        }
        let sel: f64 = indices
            .iter()
            .map(|&i| self.atom_selectivity(pred, i))
            .product();
        sel * self.table_rows as f64
    }

    /// Estimated rows satisfying the full conjunction.
    pub fn rows(&self, pred: &Conjunction) -> f64 {
        let all: Vec<usize> = (0..pred.len()).collect();
        self.rows_of(pred, &all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType, Datum, Row, Schema};
    use pf_exec::{AtomicPredicate, CompareOp};
    use pf_storage::{Catalog, TableBuilder};

    fn setup() -> (Catalog, DbStats, TableId) {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..1_000)
            .map(|i| Row::new(vec![Datum::Int(i), Datum::Int(i % 10)]))
            .collect();
        let id = TableBuilder::new("t", schema)
            .rows(rows)
            .clustered_on("a")
            .register(&mut cat)
            .unwrap();
        let stats = DbStats::build(&cat);
        (cat, stats, id)
    }

    fn pred(cat: &Catalog, id: TableId) -> Conjunction {
        let schema = cat.table(id).unwrap().schema();
        Conjunction::new(vec![
            AtomicPredicate::new(schema, "a", CompareOp::Lt, Datum::Int(100)).unwrap(),
            AtomicPredicate::new(schema, "b", CompareOp::Eq, Datum::Int(3)).unwrap(),
        ])
    }

    #[test]
    fn independence_product() {
        let (cat, stats, id) = setup();
        let hints = HintSet::new();
        let est = CardinalityEstimator::new(&stats, &hints, id, "t", 1_000);
        let p = pred(&cat, id);
        // a<100: ~0.1; b=3: ~0.1 ⇒ ~10 rows.
        let rows = est.rows(&p);
        assert!((5.0..20.0).contains(&rows), "{rows}");
    }

    #[test]
    fn full_conjunction_hint_wins() {
        let (cat, stats, id) = setup();
        let p = pred(&cat, id);
        let mut hints = HintSet::new();
        hints.inject_cardinality("t", p.key(), 42.0);
        let est = CardinalityEstimator::new(&stats, &hints, id, "t", 1_000);
        assert_eq!(est.rows(&p), 42.0);
    }

    #[test]
    fn atom_hint_wins_over_histogram() {
        let (cat, stats, id) = setup();
        let p = pred(&cat, id);
        let mut hints = HintSet::new();
        hints.inject_cardinality("t", p.key_of(&[0]), 500.0);
        let est = CardinalityEstimator::new(&stats, &hints, id, "t", 1_000);
        assert_eq!(est.rows_of(&p, &[0]), 500.0);
        // Product now uses the injected 0.5 selectivity for atom 0.
        let rows = est.rows(&p);
        assert!((40.0..60.0).contains(&rows), "{rows}");
    }

    #[test]
    fn empty_predicate_returns_all_rows() {
        let (_, stats, id) = setup();
        let hints = HintSet::new();
        let est = CardinalityEstimator::new(&stats, &hints, id, "t", 1_000);
        assert_eq!(est.rows(&Conjunction::always_true()), 1_000.0);
    }
}
