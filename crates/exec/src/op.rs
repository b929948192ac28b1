//! Operator traits and drivers.

use crate::context::ExecContext;
use pf_common::{Result, Rid, Row, Schema};

/// A Volcano-style row operator.
pub trait Operator {
    /// The shape of rows this operator produces.
    fn schema(&self) -> &Schema;

    /// Produces the next row, or `None` at end of stream.
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>>;

    /// Batched counting pull: the number of output rows in the next
    /// batch, or `None` at end of stream. Semantically identical to
    /// `next()` mapped to a count of 1 — page-batched operators
    /// override it to count qualifying rows without materializing
    /// them. Every I/O-statistics charge is identical on both pulls;
    /// only allocation work differs. A driver must pick one pull style
    /// per operator run (counting drivers never interleave the two).
    fn next_count(&mut self, ctx: &mut ExecContext) -> Result<Option<u64>> {
        Ok(self.next(ctx)?.map(|_| 1))
    }

    /// Downcast hook for page-batched consumers: a [`crate::SeqScan`]
    /// returns itself so parents (vectorized joins) can drive it
    /// a page at a time instead of row by row. Everything else is not
    /// page-addressable and returns `None`.
    fn as_seq_scan(&mut self) -> Option<&mut crate::scan::SeqScan> {
        None
    }

    /// Downcast hook for a parallel join's build morsels, which run only
    /// the build phase of a [`crate::join::HashJoin`] (see
    /// [`crate::join::HashJoin::build_side`]). Everything else returns
    /// `None`.
    fn as_hash_join(&mut self) -> Option<&mut crate::join::HashJoin> {
        None
    }
}

/// An SE-side producer of row identifiers (index seeks and RID
/// combinators) — the input of the Fetch operator.
pub trait RidSource {
    /// Produces the next RID, or `None` at end of stream.
    fn next_rid(&mut self, ctx: &mut ExecContext) -> Result<Option<Rid>>;
}

/// Drains an operator into a vector.
pub fn drain(op: &mut dyn Operator, ctx: &mut ExecContext) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(row) = op.next(ctx)? {
        out.push(row);
    }
    Ok(out)
}

/// Drains an operator counting rows (the `SELECT COUNT(...)` driver).
/// Uses the batched pull, so operators that can count a page at a time
/// never materialize their output.
pub fn run_count(op: &mut dyn Operator, ctx: &mut ExecContext) -> Result<u64> {
    let mut n = 0;
    while let Some(k) = op.next_count(ctx)? {
        n += k;
    }
    Ok(n)
}
