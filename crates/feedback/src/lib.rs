//! # pf-feedback — the paper's contribution: distinct-page-count monitors
//!
//! Low-overhead mechanisms that measure `DPC(T, p)` — the number of
//! distinct pages of table `T` holding at least one row satisfying
//! predicate `p` — *while the query executes*, exactly as Sections III
//! and IV of the paper prescribe:
//!
//! * [`linear_counter`] — probabilistic (linear) counting over hashed
//!   PIDs, for **index plans** where pages interleave (Fig 3; Whang,
//!   Vander-Zanden & Taylor, TODS 1990),
//! * [`fm_sketch`] — Flajolet–Martin PCSA (the paper's reference \[8\]),
//!   the other probabilistic-counting lineage, for comparison,
//! * [`grouped_counter`] — exact counting for **scan plans**, which
//!   enjoy the *grouped page access* property (Section III-B),
//! * [`dpsample`] — `DPSample`: Bernoulli page sampling that bounds the
//!   cost of turning off predicate short-circuiting (Fig 4),
//! * [`bitvector`] — bit-vector filters used as a *derived semi-join
//!   predicate* so a hash join execution can measure the DPC an
//!   INL join would incur (Fig 5),
//! * [`distinct_estimators`] — the sampling-based alternative the paper
//!   weighs against probabilistic counting (reservoir sampling + GEE /
//!   Chao estimators),
//! * [`mod@clustering_ratio`] — the normalized clustering measure of Fig 10,
//! * [`report`] — the `statistics xml`-style estimated-vs-actual report
//!   of Section V-A.
//!
//! Everything here is deliberately independent of the executor: monitors
//! consume streams of `(page, satisfies)` observations — or, on the
//! batched path, one per-page summary via each sketch's `observe_page` /
//! `observe_rows` entry point ([`bitmap`] holds the shared word-level
//! primitives) — so they can be unit- and property-tested against
//! brute-force ground truth without a storage engine in the loop.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bitmap;
pub mod bitvector;
pub mod clustering_ratio;
pub mod distinct_estimators;
pub mod dpsample;
pub mod fm_sketch;
pub mod grouped_counter;
pub mod linear_counter;
pub mod report;
pub mod sketch;

pub use bitvector::BitVectorFilter;
pub use clustering_ratio::{clustering_ratio, ClusteringObservation};
pub use dpsample::{page_sampled, DpSampler};
pub use fm_sketch::FmSketch;
pub use grouped_counter::GroupedPageCounter;
pub use linear_counter::LinearCounter;
pub use report::{DpcMeasurement, FeedbackReport, Mechanism};
pub use sketch::Sketch;
