//! # pf-storage — the storage-engine substrate
//!
//! The paper instruments Microsoft SQL Server's storage engine (SE); no
//! open-source Rust engine exposes the disk-page machinery its monitors
//! hook into, so this crate builds that substrate from scratch:
//!
//! * [`codec`] — binary row serialization (schema-directed, no per-value tags),
//! * [`page`] — slotted 8 KB pages with a slot directory,
//! * [`view`] — zero-copy row views: a schema-compiled [`RowLayout`]
//!   plus borrowed [`RowView`]s and [`PageCursor`]s, so the executor's
//!   scan hot path decodes without allocating,
//! * [`table`] — table storage, bulk-loaded and then changed in place by
//!   DML that reports the RIDs it moved; a table is either a heap
//!   (load order) or a *clustered index* (rows ordered by the clustering
//!   key, with a sparse page-level key index for seeks),
//! * [`btree`] — a from-scratch B+-tree used for nonclustered indexes
//!   (`key -> RIDs`),
//! * [`lru`] / [`bufferpool`] — an LRU buffer pool that distinguishes
//!   logical from physical I/O and sequential from random page reads,
//! * [`disk`] — the deterministic simulated clock ([`DiskModel`]) that
//!   converts I/O and CPU counters into elapsed milliseconds,
//! * [`catalog`] — tables, indexes, and their statistics.
//!
//! The buffer pool + disk model is what makes the paper's central
//! quantity observable: every *distinct* page touched by a Fetch is a
//! physical random I/O on a cold cache, so the executor's measured cost
//! is driven by `DPC(T, p)` rather than by cardinality.

// Corruption tolerance starts with never panicking on data we did not
// author: production code must surface typed errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod btree;
pub mod bufferpool;
pub mod catalog;
pub mod codec;
pub mod disk;
pub mod fault;
pub mod lru;
pub mod page;
pub mod table;
pub mod view;

pub use bufferpool::{merge_morsel_stats, AccessPattern, BufferPool, IoStats, PageMiss};
pub use catalog::{Catalog, ColumnValues, IndexMeta, TableBuilder, TableMeta, TableStats};
pub use disk::DiskModel;
pub use fault::{ErrorFault, FaultKind, FaultPlan};
pub use page::{crc32, Page, DEFAULT_PAGE_SIZE};
pub use table::{EpochState, TableStorage};
pub use view::{PageCursor, RowLayout, RowView};
