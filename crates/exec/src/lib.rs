//! # pf-exec — the relational-engine substrate
//!
//! A single-threaded counting executor with the architectural seam the
//! paper's mechanisms depend on: the split between the **storage
//! engine (SE)** — where page ids are visible and predicates are
//! evaluated inside scans — and the **relational engine (RE)** — joins,
//! where PIDs are *not* available (Section II-B, Example 2).
//!
//! * [`expr`] — atomic comparison predicates and conjunctions with
//!   *short-circuit* evaluation (the optimization Fig 4 works around),
//! * [`context`] — [`ExecContext`]: buffer pool + disk model + query
//!   deadline threaded through every operator,
//! * [`monitor`] — monitor wiring: scan-side DPC monitors (exact /
//!   page-sampled / semi-join filtered), fetch-side linear counters, the
//!   [`ShedClass`] order a memory budget sheds them in, and the tree
//!   walk that harvests, prices and merges them,
//! * [`op`] — the `Operator` / `RidSource` traits,
//! * [`scan`] — SE-side sequential & clustered-range scans,
//! * [`index`] — SE-side index seek, RID intersection, and Fetch,
//! * [`join`] — RE-side Hash and Index-Nested-Loops joins.
//!
//! Every query is a `SELECT COUNT(...)`, so an operator has one pull,
//! [`Operator::count`], which runs it to completion. Joins read their
//! inputs as borrowed rows instead: the outer side is a [`JoinOuter`]
//! (a scan or a fetch) and a hash join's probe side is a [`SeqScan`].
//!
//! Monitors are **operator-owned** plain data: the planner constructs
//! them and moves each into the operator that drives it, and after the
//! plan has counted [`monitor::harvest`] walks the tree
//! ([`Operator::visit_monitors`]) to read them back — mirroring how the
//! paper's engine surfaces counters through the `statistics xml` mode
//! without touching the cached plan. The executor holds no shared
//! mutable state.

// Corruption tolerance: operators must surface typed errors, never
// panic, when page bytes fail verification.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod context;
pub mod expr;
pub mod index;
pub mod join;
pub mod join_table;
pub mod monitor;
pub mod op;
pub mod scan;

pub use context::ExecContext;
pub use expr::{AtomicPredicate, CompareOp, Conjunction};
pub use join::JoinOuter;
pub use join_table::{join_partitions, RadixTable};
pub use monitor::{FetchMonitor, FetchObserveWhen, ScanExprMonitor, ScanMonitorSet, ShedClass};
pub use op::{Operator, RidSource};
pub use scan::SeqScan;
