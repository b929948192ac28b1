//! The operator trait.

use crate::context::ExecContext;
use crate::monitor::MonitorMut;
use pf_common::{Result, Rid};

/// An executor operator. Every query the engine accepts is a
/// `SELECT COUNT(...)`, so counting is the one pull: an operator runs
/// to completion and returns its number of output rows, without
/// materializing any of them.
pub trait Operator {
    /// Runs the operator to completion and returns its output row
    /// count. Call once per operator run.
    fn count(&mut self, ctx: &mut ExecContext) -> Result<u64>;

    /// Hands every monitor this operator's subtree owns to `visit`, in
    /// plan order: inputs before the operator's own monitors, a join's
    /// outer (build) side before its inner (probe) side. The free
    /// functions of [`crate::monitor`] harvest, price and merge monitors
    /// through this walk. Operators that own monitors or have inputs
    /// override it; the default visits nothing.
    fn visit_monitors(&mut self, _visit: &mut dyn FnMut(MonitorMut<'_>)) {}

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
