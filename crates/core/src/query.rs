//! Declarative query specifications.
//!
//! The experiments need exactly two query shapes (Section V):
//! `SELECT count(pad) FROM T WHERE <conjunction>` and
//! `SELECT count(T.pad) FROM T1, T WHERE <outer pred> AND T1.a = T.b`.
//! [`Query`] captures both; the planner resolves names against the
//! catalog and builds typed [`pf_exec::Conjunction`]s.

use pf_common::{Datum, Error, Result, Schema};
use pf_exec::{AtomicPredicate, CompareOp, Conjunction};

/// One atomic predicate, by column name.
#[derive(Debug, Clone)]
pub struct PredSpec {
    /// Column name.
    pub column: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal.
    pub value: Datum,
}

impl PredSpec {
    /// Builds a predicate spec.
    pub fn new(column: impl Into<String>, op: CompareOp, value: Datum) -> Self {
        PredSpec {
            column: column.into(),
            op,
            value,
        }
    }

    /// Resolves against a schema into a typed atom.
    pub fn resolve(&self, schema: &Schema) -> Result<AtomicPredicate> {
        AtomicPredicate::new(schema, &self.column, self.op, self.value.clone())
    }
}

/// What sits inside `COUNT(…)` — it decides whether a covering
/// index-only scan can answer the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountArg {
    /// `COUNT(*)`: no column needed; any access path qualifies.
    Star,
    /// `COUNT(column)`: that column must be available; an index whose
    /// key is this column covers the query.
    Column(String),
    /// Counting a column that lives only in the base table (the paper's
    /// `COUNT(padding)`): the plan must fetch base-table rows, which is
    /// what makes the access-method choice — and its DPC — matter.
    BaseRow,
}

/// A query the engine can optimize and execute.
#[derive(Debug, Clone)]
pub enum Query {
    /// `SELECT count(…) FROM table WHERE predicate`.
    Count {
        /// Table name.
        table: String,
        /// Conjunctive predicate.
        predicate: Vec<PredSpec>,
        /// The `COUNT` argument.
        count_arg: CountArg,
    },
    /// `SELECT count(*) FROM outer, inner
    ///  WHERE outer_pred AND outer.outer_col = inner.inner_col`.
    JoinCount {
        /// Outer (driving) table name.
        outer: String,
        /// Inner (probed) table name.
        inner: String,
        /// Selection on the outer table.
        outer_pred: Vec<PredSpec>,
        /// Join column on the outer table.
        outer_col: String,
        /// Join column on the inner table.
        inner_col: String,
    },
}

impl Query {
    /// A single-table count of a base-table-only column — the paper's
    /// `COUNT(padding)` shape, which always requires base-table access.
    pub fn count(table: impl Into<String>, predicate: Vec<PredSpec>) -> Self {
        Query::Count {
            table: table.into(),
            predicate,
            count_arg: CountArg::BaseRow,
        }
    }

    /// A single-table `COUNT(*)` query — answerable from any access
    /// path, including a covering index-only scan.
    pub fn count_star(table: impl Into<String>, predicate: Vec<PredSpec>) -> Self {
        Query::Count {
            table: table.into(),
            predicate,
            count_arg: CountArg::Star,
        }
    }

    /// A two-table equijoin count query.
    pub fn join_count(
        outer: impl Into<String>,
        inner: impl Into<String>,
        outer_pred: Vec<PredSpec>,
        outer_col: impl Into<String>,
        inner_col: impl Into<String>,
    ) -> Self {
        Query::JoinCount {
            outer: outer.into(),
            inner: inner.into(),
            outer_pred,
            outer_col: outer_col.into(),
            inner_col: inner_col.into(),
        }
    }

    /// The parts of a single-table count query —
    /// `(table, predicate, count_arg)` — or `Error::InvalidArgument` for
    /// any other shape. A `Result`-returning alternative to matching on
    /// the enum when a caller *requires* the single-table shape.
    pub fn as_count(&self) -> Result<(&str, &[PredSpec], &CountArg)> {
        match self {
            Query::Count {
                table,
                predicate,
                count_arg,
            } => Ok((table, predicate, count_arg)),
            Query::JoinCount { outer, inner, .. } => Err(Error::InvalidArgument(format!(
                "expected single-table count query, got join of {outer} and {inner}"
            ))),
        }
    }

    /// The parts of a join count query —
    /// `(outer, inner, outer_pred, outer_col, inner_col)` — or
    /// `Error::InvalidArgument` for any other shape.
    #[allow(clippy::type_complexity)]
    pub fn as_join(&self) -> Result<(&str, &str, &[PredSpec], &str, &str)> {
        match self {
            Query::JoinCount {
                outer,
                inner,
                outer_pred,
                outer_col,
                inner_col,
            } => Ok((outer, inner, outer_pred, outer_col, inner_col)),
            Query::Count { table, .. } => Err(Error::InvalidArgument(format!(
                "expected join count query, got single-table count on {table}"
            ))),
        }
    }

    /// Resolves a predicate list against a schema.
    pub fn resolve_predicates(specs: &[PredSpec], schema: &Schema) -> Result<Conjunction> {
        let atoms = specs
            .iter()
            .map(|s| s.resolve(schema))
            .collect::<Result<Vec<_>>>()?;
        Ok(Conjunction::new(atoms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType};

    #[test]
    fn resolve_predicates_checks_names_and_types() {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("s", DataType::Str),
        ]);
        let good = Query::resolve_predicates(
            &[
                PredSpec::new("a", CompareOp::Lt, Datum::Int(5)),
                PredSpec::new("s", CompareOp::Eq, Datum::Str("x".into())),
            ],
            &schema,
        )
        .unwrap();
        assert_eq!(good.len(), 2);
        assert!(Query::resolve_predicates(
            &[PredSpec::new("missing", CompareOp::Eq, Datum::Int(1))],
            &schema
        )
        .is_err());
        assert!(Query::resolve_predicates(
            &[PredSpec::new("a", CompareOp::Eq, Datum::Str("no".into()))],
            &schema
        )
        .is_err());
    }
}
