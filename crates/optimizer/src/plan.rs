//! Physical plan descriptions produced by the optimizer.

use pf_common::{IndexId, TableId};
use pf_exec::{CompareOp, Conjunction};

/// Operator kind for histogram selectivity (payload-free mirror of
/// [`CompareOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>`
    Ne,
}

impl From<CompareOp> for HistOp {
    fn from(op: CompareOp) -> Self {
        match op {
            CompareOp::Eq => HistOp::Eq,
            CompareOp::Lt => HistOp::Lt,
            CompareOp::Le => HistOp::Le,
            CompareOp::Gt => HistOp::Gt,
            CompareOp::Ge => HistOp::Ge,
            CompareOp::Ne => HistOp::Ne,
        }
    }
}

/// Where a plan's DPC estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpcSource {
    /// The plan's cost does not involve a distinct page count.
    NotApplicable,
    /// The analytical model (Cardenas — the independence assumption).
    Analytical,
    /// Injected through [`crate::HintSet`] (execution feedback).
    Injected,
}

/// How a single table is accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Scan every page.
    FullScan,
    /// Sequential scan of the clustered-key range selected by these
    /// atoms of the conjunction (all on the clustering column).
    ClusteredRange {
        /// Atom indices within the predicate (same column).
        atoms: Vec<usize>,
    },
    /// Seek the named index with the combined range of these atoms (all
    /// on the index key column), then Fetch.
    IndexSeek {
        /// The nonclustered index used.
        index: IndexId,
        /// Atom indices within the predicate (same column).
        atoms: Vec<usize>,
    },
    /// Scan (a range of) a covering index's leaf level only — no
    /// base-table access at all, so no DPC is involved. Only valid when
    /// every predicate atom and every projected column is the index key.
    IndexOnlyScan {
        /// The covering nonclustered index.
        index: IndexId,
        /// Atom indices within the predicate (all on the key column).
        atoms: Vec<usize>,
    },
    /// Seek two indexes, intersect RIDs, then Fetch.
    IndexIntersection {
        /// First (index, atom indices).
        a: (IndexId, Vec<usize>),
        /// Second (index, atom indices).
        b: (IndexId, Vec<usize>),
    },
}

impl AccessPath {
    /// Short human-readable name (for experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            AccessPath::FullScan => "TableScan",
            AccessPath::ClusteredRange { .. } => "ClusteredRangeScan",
            AccessPath::IndexSeek { .. } => "IndexSeek",
            AccessPath::IndexOnlyScan { .. } => "IndexOnlyScan",
            AccessPath::IndexIntersection { .. } => "IndexIntersection",
        }
    }
}

/// A costed single-table plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleTablePlan {
    /// Table accessed.
    pub table: TableId,
    /// The chosen access path.
    pub path: AccessPath,
    /// Estimated cost (simulated milliseconds).
    pub cost_ms: f64,
    /// Estimated output rows (after the full predicate).
    pub est_rows: f64,
    /// Estimated distinct page count driving the cost (if any).
    pub est_dpc: Option<f64>,
    /// Provenance of the DPC estimate.
    pub dpc_source: DpcSource,
}

/// Join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    /// Build on the (filtered) outer, probe with a full scan of the inner.
    Hash,
    /// For each outer row, seek the inner's index on the join column.
    IndexNestedLoops,
}

impl JoinMethod {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            JoinMethod::Hash => "HashJoin",
            JoinMethod::IndexNestedLoops => "INLJoin",
        }
    }
}

/// A two-table equijoin request:
/// `SELECT … FROM outer, inner WHERE outer_pred AND outer.oc = inner.ic`.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Outer (build / driving) table.
    pub outer: TableId,
    /// Inner (probed) table.
    pub inner: TableId,
    /// Selection on the outer table.
    pub outer_pred: Conjunction,
    /// Join column ordinal on the outer table.
    pub outer_join_col: usize,
    /// Join column ordinal on the inner table.
    pub inner_join_col: usize,
}

/// A costed join plan.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Chosen algorithm.
    pub method: JoinMethod,
    /// How the outer side is accessed.
    pub outer_plan: SingleTablePlan,
    /// Estimated cost (simulated milliseconds).
    pub cost_ms: f64,
    /// Estimated `DPC(inner, join-pred)` (INL candidates only).
    pub est_dpc: Option<f64>,
    /// Provenance of that estimate.
    pub dpc_source: DpcSource,
    /// Estimated join output rows.
    pub est_rows: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(AccessPath::FullScan.name(), "TableScan");
        assert_eq!(
            AccessPath::IndexSeek {
                index: IndexId(0),
                atoms: vec![0]
            }
            .name(),
            "IndexSeek"
        );
        assert_eq!(JoinMethod::Hash.name(), "HashJoin");
        assert_eq!(JoinMethod::IndexNestedLoops.name(), "INLJoin");
    }

    #[test]
    fn hist_op_conversion() {
        assert_eq!(HistOp::from(CompareOp::Lt), HistOp::Lt);
        assert_eq!(HistOp::from(CompareOp::Ne), HistOp::Ne);
    }
}
