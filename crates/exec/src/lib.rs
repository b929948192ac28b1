//! # pf-exec — the relational-engine substrate
//!
//! A Volcano-style single-threaded executor with the architectural seam
//! the paper's mechanisms depend on: the split between the **storage
//! engine (SE)** — where page ids are visible and predicates are
//! evaluated inside scans — and the **relational engine (RE)** — joins
//! and aggregation, where PIDs are *not* available (Section II-B,
//! Example 2).
//!
//! * [`expr`] — atomic comparison predicates and conjunctions with
//!   *short-circuit* evaluation (the optimization Fig 4 works around),
//! * [`context`] — [`ExecContext`]: buffer pool + disk model threaded
//!   through every operator,
//! * [`monitor`] — monitor wiring: scan-side DPC monitors (exact /
//!   page-sampled / semi-join filtered), fetch-side linear counters, and
//!   the [`ShedClass`] order a memory budget sheds them in,
//! * [`op`] — the `Operator` / `RidSource` traits and drivers,
//! * [`scan`] — SE-side sequential & clustered-range scans,
//! * [`index`] — SE-side index seek, RID intersection, and Fetch,
//! * [`join`] — RE-side Hash and Index-Nested-Loops joins,
//! * [`agg`] — RE-side `COUNT` aggregation.
//!
//! Monitors are **caller-owned** (`Rc<RefCell<...>>` handles): the
//! planner constructs them, hands clones to the operators that drive
//! them, and harvests the measurements after the plan is drained —
//! mirroring how the prototype surfaces counters through the
//! `statistics xml` mode without touching the cached plan.

// Corruption tolerance: operators must surface typed errors, never
// panic, when page bytes fail verification.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod agg;
pub mod context;
pub mod expr;
pub mod index;
pub mod join;
pub mod join_table;
pub mod monitor;
pub mod op;
pub mod scan;

pub use context::{CancelToken, ExecContext};
pub use expr::{AtomicPredicate, CompareOp, Conjunction, PageKernel};
pub use join_table::{join_partitions, RadixTable};
pub use monitor::{
    FetchMonitor, FetchObserveWhen, ScanExprMonitor, ScanMonitorSet, SemiJoinSlot, ShedClass,
};
pub use op::{drain, run_count, Operator, RidSource};
pub use scan::{PageRows, SeqScan};
