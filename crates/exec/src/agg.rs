//! RE-side aggregation: `COUNT(column)`.
//!
//! The paper's workloads are `SELECT count(padding) FROM ...` — an
//! aggregate chosen so the query must *fetch the row* (the padding
//! column is in no index), forcing the access-method decision the
//! experiments study.

use crate::context::ExecContext;
use crate::monitor::MonitorMut;
use crate::op::Operator;
use pf_common::{Column, DataType, Datum, Result, Row, Schema};

/// Counts input rows, emitting a single `(count: Int)` row.
pub struct CountAgg {
    input: Box<dyn Operator>,
    schema: Schema,
    done: bool,
}

impl CountAgg {
    /// Builds a count aggregate.
    pub fn new(input: Box<dyn Operator>) -> Self {
        CountAgg {
            input,
            schema: Schema::new(vec![Column::new("count", DataType::Int)]),
            done: false,
        }
    }
}

impl Operator for CountAgg {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if self.done {
            return Ok(None);
        }
        // Counting pull: batch-capable inputs (scans, vectorized joins)
        // deliver per-page counts without materializing a single row;
        // everything else degrades to the per-row default.
        let mut n: u64 = 0;
        while let Some(k) = self.input.next_count(ctx)? {
            n += k;
        }
        self.done = true;
        Ok(Some(Row::new(vec![Datum::Int(n as i64)])))
    }

    fn visit_monitors(&mut self, visit: &mut dyn FnMut(MonitorMut<'_>)) {
        self.input.visit_monitors(visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AtomicPredicate, CompareOp, Conjunction};
    use crate::scan::SeqScan;
    use pf_common::TableId;
    use pf_storage::TableStorage;
    use std::sync::Arc;

    #[test]
    fn counts_filtered_rows() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let rows: Vec<Row> = (0..250).map(|i| Row::new(vec![Datum::Int(i)])).collect();
        let t = Arc::new(TableStorage::bulk_load(schema, &rows, Some(0), 512, 1.0).unwrap());
        let pred = Conjunction::new(vec![AtomicPredicate::new(
            t.schema(),
            "id",
            CompareOp::Lt,
            Datum::Int(42),
        )
        .unwrap()]);
        let scan = SeqScan::full(Arc::clone(&t), TableId(0), pred, None);
        let mut agg = CountAgg::new(Box::new(scan));
        let mut ctx = ExecContext::new(1024);
        let row = agg.next(&mut ctx).unwrap().unwrap();
        assert_eq!(row.get(0), &Datum::Int(42));
        assert!(agg.next(&mut ctx).unwrap().is_none());
    }
}
