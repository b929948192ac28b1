//! # pf-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (Section V),
//! plus the ablations DESIGN.md calls out. The `repro` binary dispatches
//! to these; each prints the rows/series the paper's plot reports and
//! returns a machine-readable summary for tests.
//!
//! Scale note: databases are built at ~1:200 of the paper's (DESIGN.md
//! §2); experiment structure, workload shapes, and *relative* outcomes
//! (who wins, crossovers) are preserved. `repro` reads `PF_ROWS` to
//! override the synthetic table size.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod experiments;
pub mod soak;
pub mod util;

pub use experiments::*;
