//! # pf-common — shared fundamentals for the `pagefeed` workspace
//!
//! Foundation types used by every other crate in the reproduction of
//! *Diagnosing Estimation Errors in Page Counts Using Execution Feedback*
//! (Chaudhuri, Narasayya, Ramamurthy — ICDE 2008):
//!
//! * [`Datum`] / [`DataType`] — the value model stored in table rows,
//! * [`Schema`] / [`Row`] — table shapes and tuples,
//! * identifier newtypes ([`PageId`], [`Rid`], [`TableId`], ...),
//! * [`Error`] — the workspace-wide error type,
//! * [`hash`] — a fast, deterministic 64-bit hasher used by the
//!   probabilistic page counters and bit-vector filters,
//! * [`rng`] — a tiny deterministic PRNG (SplitMix64 / Xoshiro256**) so
//!   every experiment in the paper reproduction is exactly replayable.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod env;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod schema;
pub mod value;

pub use env::env_knob;
pub use error::{Error, Result};
pub use ids::{ColumnId, IndexId, PageId, Rid, SlotId, TableId};
pub use schema::{Column, Row, Schema};
pub use value::{DataType, Datum, DatumAccess, DatumRef};
