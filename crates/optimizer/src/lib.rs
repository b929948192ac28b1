//! # pf-optimizer — cost-based access-path and join-method selection
//!
//! The optimizer substrate the paper's prototype modifies: a cost model
//! whose I/O term is driven by the **distinct page count**, analytical
//! DPC estimators that (like SQL Server's) assume independence between
//! the predicate column and the physical clustering, and — the paper's
//! Section V-A extension — an injection interface ([`HintSet`]) through
//! which accurate cardinalities and DPCs from execution feedback replace
//! the analytical guesses.
//!
//! * [`histogram`] — equi-depth histograms for selectivity estimation,
//! * [`stats`] — per-column statistics built at load time,
//! * [`cardinality`] — conjunct selectivity under independence,
//! * [`dpc_model`] — Cardenas / Yao / Mackert–Lohman page-count models,
//! * [`cost`] — the cost model (mirrors `pf-storage::DiskModel`),
//! * [`hints`] — expression keys + the injection API,
//! * [`plan`] — physical plan descriptions,
//! * [`optimizer`] — enumeration and choice, and the page-zone DPC
//!   bound ([`zone_dpc_bound`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cardinality;
pub mod cost;
pub mod dpc_model;
pub mod hints;
pub mod histogram;
pub mod optimizer;
pub mod plan;
pub mod stats;

pub use cardinality::CardinalityEstimator;
pub use cost::CostModel;
pub use hints::{
    decide_staleness, join_dpc_key, join_expr_key, DpcHint, EpochStamp, HintSet, StalenessDecision,
    TableEpochState,
};
pub use optimizer::{zone_dpc_bound, Optimizer};
pub use plan::{AccessPath, JoinMethod, JoinPlan, JoinSpec, SingleTablePlan};
pub use stats::{ColumnStats, DbStats};
