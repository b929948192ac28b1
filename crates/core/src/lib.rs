//! # pagefeed — distinct page counts from execution feedback
//!
//! A from-scratch Rust reproduction of **“Diagnosing Estimation Errors in
//! Page Counts Using Execution Feedback”** (Chaudhuri, Narasayya,
//! Ramamurthy — ICDE 2008), including every substrate the paper's SQL
//! Server prototype relied on: a paged storage engine with clustered
//! tables and B+-tree indexes, a Volcano executor with the RE/SE split,
//! a cost-based optimizer with analytical page-count models, and the
//! paper's low-overhead monitors (linear counting, `DPSample`, bit-vector
//! filtering).
//!
//! ## Quick start
//!
//! ```
//! use pagefeed::{Database, MonitorConfig, Query, PredSpec};
//! use pf_common::{Column, DataType, Datum, Row, Schema};
//! use pf_exec::CompareOp;
//!
//! // A table clustered on `id` whose `ship` column is correlated with
//! // the load order — the situation the optimizer cannot see.
//! let mut db = Database::new();
//! let schema = Schema::new(vec![
//!     Column::new("id", DataType::Int),
//!     Column::new("ship", DataType::Int),
//!     Column::new("pad", DataType::Str),
//! ]);
//! let rows: Vec<Row> = (0..20_000)
//!     .map(|i| Row::new(vec![Datum::Int(i), Datum::Int(i), Datum::Str("x".repeat(80))]))
//!     .collect();
//! db.create_table("sales", schema, rows, Some("id")).unwrap();
//! db.create_index("ix_ship", "sales", "ship").unwrap();
//! db.analyze().unwrap();
//!
//! let query = Query::count("sales", vec![PredSpec::new("ship", CompareOp::Lt, Datum::Int(400))]);
//! let outcome = db.feedback_loop(&query, &MonitorConfig::default()).unwrap();
//! // The analytical model picked a Table Scan; feedback reveals the
//! // tiny true page count and flips the plan to an Index Seek.
//! assert!(outcome.plan_changed());
//! assert!(outcome.speedup() > 0.5);
//! ```
//!
//! ## Crate map
//!
//! * [`db`] — the [`Database`] facade (tables, indexes, statistics,
//!   execution),
//! * [`query`] — declarative query specs ([`Query`], [`PredSpec`]),
//! * [`planner`] — lowers optimizer plans to executor trees and attaches
//!   the DPC monitors,
//! * [`feedback_loop`] — the paper's evaluation methodology (run →
//!   harvest DPCs → inject → re-optimize → compare),
//! * [`dba`] — the DBA-facing diagnosis built on the
//!   `statistics xml`-style report,
//! * [`histogram_cache`] — self-tuning DPC histograms (the paper's §VI
//!   future work): feedback generalizes to queries never seen before,
//! * [`parallel`] — the multi-threaded workload driver
//!   ([`ParallelRunner`]): scoped workers over the shared read-only
//!   storage snapshot, with deterministic per-query seeds and serial
//!   feedback harvesting,
//! * [`sql`] — a small SQL front end for the supported query shapes,
//! * [`snapshot`] — save/load the whole database to a single file,
//! * [`feedback_store`] — crash-safe WAL persistence for harvested
//!   feedback, with epoch stamps for staleness checking after restart,
//! * [`admission`] — system-wide overload protection: deterministic
//!   admission control, per-query memory reservations with a fixed
//!   degradation ladder, and the admitted-workload driver,
//! * [`breaker`] — a circuit breaker isolating feedback durability
//!   failures so queries keep running when the store misbehaves.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod admission;
pub mod breaker;
pub mod db;
pub mod dba;
pub mod feedback_loop;
pub mod feedback_store;
mod governor;
pub mod histogram_cache;
pub mod parallel;
pub mod plan_cache;
pub mod planner;
pub mod query;
pub mod snapshot;
pub mod sql;

pub use admission::{
    degrade_step, run_admitted_workload, AdmissionConfig, AdmissionController, AdmissionStats,
    AdmitDecision, AdmittedJob, AdmittedRunReport, DegradeStep, JobRecord, MemoryBudget, Priority,
    BASE_QUERY_BYTES,
};
pub use breaker::{BreakerState, BreakerTransition, CircuitBreaker};
pub use db::{Database, MorselPlan, Morsels, QueryOutcome, MAX_TRANSIENT_RETRIES};
pub use dba::{DbaDiagnosis, Discrepancy};
pub use feedback_loop::FeedbackOutcome;
pub use feedback_store::{FeedbackStore, StoreStats, StoredReport};
pub use histogram_cache::DpcHistogramCache;
pub use parallel::{ParallelRunner, RunStats, WorkerRunStats, WorkloadSummary};
pub use pf_storage::{ErrorFault, FaultKind, FaultPlan};
pub use plan_cache::PlanCacheStats;
pub use planner::{LoweredPlan, MonitorConfig, OptimizedQuery, PlanChoice};
pub use query::{PredSpec, Query};
pub use sql::parse_query;
