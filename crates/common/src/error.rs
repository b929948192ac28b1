//! Workspace-wide error type.
//!
//! The engine is deliberately strict: anything that would be a silent
//! mis-execution (unknown column, type mismatch in a predicate, a RID
//! pointing at a missing slot) surfaces as an [`Error`] rather than a
//! panic, so library users get a recoverable failure.

use crate::ids::{PageId, TableId};
use std::fmt;

/// Convenient alias used across all `pagefeed` crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the storage engine, executor, and optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A named table does not exist in the catalog.
    UnknownTable(String),
    /// A named index does not exist in the catalog.
    UnknownIndex(String),
    /// A named column does not exist in a schema.
    UnknownColumn(String),
    /// A value had a different [`crate::DataType`] than the operation expected.
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it actually got.
        found: &'static str,
    },
    /// A RID referenced a page that is not part of the table.
    PageOutOfBounds {
        /// The offending page number.
        page: u32,
        /// Number of pages in the table.
        page_count: u32,
    },
    /// A RID referenced a slot that is not occupied on its page.
    SlotOutOfBounds {
        /// The offending slot number.
        slot: u16,
        /// Number of occupied slots on the page.
        slot_count: u16,
    },
    /// A row did not match the schema it was inserted under.
    SchemaMismatch(String),
    /// A tuple was too large to fit in a single page.
    RowTooLarge {
        /// Serialized size of the offending row in bytes.
        row_bytes: usize,
        /// Usable bytes in a page.
        page_capacity: usize,
    },
    /// The optimizer could not produce any plan for the request.
    NoPlanFound(String),
    /// An invalid parameter was supplied (e.g. sampling fraction outside (0, 1]).
    InvalidArgument(String),
    /// A page's stored CRC32 did not match its contents — the page is
    /// damaged (bit rot, torn write, or an injected fault) and must not
    /// be decoded. Executors skip-and-record rather than abort.
    ChecksumMismatch {
        /// Table owning the damaged page.
        table: TableId,
        /// The damaged page.
        page: PageId,
    },
    /// A page read exceeded its latency budget (an injected transient
    /// stall). Retryable: the same read succeeds after backoff.
    ReadStalled {
        /// Table owning the slow page.
        table: TableId,
        /// The page whose read stalled.
        page: PageId,
    },
    /// A worker thread panicked while executing a workload query. The
    /// panic is contained; only the offending query is lost.
    WorkerPanicked {
        /// Index of the query in the submitted workload.
        query_index: usize,
    },
    /// The query was cancelled before completing: `run_admitted_workload`
    /// reports it for a job whose cancellation instant came first, while
    /// queued or (run as a simulated-clock deadline) mid-run. Nothing
    /// the query touched is kept: no feedback is absorbed, no plan is
    /// cached.
    Cancelled,
    /// The query's simulated-clock deadline elapsed before it finished.
    /// Like [`Error::Cancelled`], the abort is hygienic: no partial
    /// sketches escape as hints.
    DeadlineExceeded {
        /// The deadline that was exceeded, in simulated milliseconds.
        deadline_ms: u64,
    },
    /// A durable write failed (ENOSPC, short write, failed fsync, or a
    /// failed atomic rename). The frame being written is *not*
    /// acknowledged; previously acknowledged frames stay readable.
    StorageFull {
        /// Which durable operation failed.
        what: String,
    },
    /// The system shed this query at admission: the concurrency gate,
    /// token bucket, admission queue, or memory budget was exhausted.
    /// The query never started — nothing to clean up — and the caller
    /// should retry after the indicated (simulated) delay.
    Overloaded {
        /// Earliest simulated-clock delay after which a retry could be
        /// admitted, in milliseconds.
        retry_after_ms: u64,
    },
    /// An internal invariant was violated — a bug, surfaced as an error
    /// instead of a panic so a workload run can quarantine it.
    Internal(String),
}

impl Error {
    /// Whether the failure is transient and the operation may be retried
    /// (currently only injected read stalls). Cancellation, deadline
    /// expiry, and storage-full are deliberate, terminal outcomes —
    /// retry layers must not resurrect them.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::ReadStalled { .. })
    }

    /// Whether the query was aborted on purpose (cancel or deadline), as
    /// opposed to failing. Aborted queries are guaranteed hygienic: they
    /// absorb zero feedback and leave the plan cache untouched.
    pub fn is_abort(&self) -> bool {
        matches!(self, Error::Cancelled | Error::DeadlineExceeded { .. })
    }

    /// Whether the query was shed at admission under overload. Shed
    /// queries never started, so they are trivially hygienic; they are
    /// neither transient (immediate retry would be shed again) nor
    /// aborts (nothing was in flight to abort).
    pub fn is_shed(&self) -> bool {
        matches!(self, Error::Overloaded { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable(name) => write!(f, "unknown table: {name}"),
            Error::UnknownIndex(name) => write!(f, "unknown index: {name}"),
            Error::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::PageOutOfBounds { page, page_count } => {
                write!(
                    f,
                    "page {page} out of bounds (table has {page_count} pages)"
                )
            }
            Error::SlotOutOfBounds { slot, slot_count } => {
                write!(f, "slot {slot} out of bounds (page has {slot_count} slots)")
            }
            Error::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            Error::RowTooLarge {
                row_bytes,
                page_capacity,
            } => write!(
                f,
                "row of {row_bytes} bytes exceeds page capacity of {page_capacity} bytes"
            ),
            Error::NoPlanFound(msg) => write!(f, "no plan found: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::ChecksumMismatch { table, page } => {
                write!(f, "checksum mismatch on {table} {page}: page is corrupt")
            }
            Error::ReadStalled { table, page } => {
                write!(f, "read stalled on {table} {page}: transient, retry")
            }
            Error::WorkerPanicked { query_index } => {
                write!(
                    f,
                    "worker thread panicked while running query {query_index}"
                )
            }
            Error::Cancelled => write!(f, "query cancelled: no feedback absorbed"),
            Error::DeadlineExceeded { deadline_ms } => {
                write!(
                    f,
                    "deadline of {deadline_ms} ms exceeded: query aborted, no feedback absorbed"
                )
            }
            Error::StorageFull { what } => {
                write!(f, "storage full: {what}; frame not acknowledged")
            }
            Error::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "overloaded: query shed at admission, retry after {retry_after_ms} ms"
                )
            }
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            Error::UnknownTable("sales".into()).to_string(),
            "unknown table: sales"
        );
        assert_eq!(
            Error::TypeMismatch {
                expected: "Int",
                found: "Str"
            }
            .to_string(),
            "type mismatch: expected Int, found Str"
        );
        assert_eq!(
            Error::PageOutOfBounds {
                page: 9,
                page_count: 4
            }
            .to_string(),
            "page 9 out of bounds (table has 4 pages)"
        );
    }

    #[test]
    fn fault_variants_format_and_classify() {
        let cs = Error::ChecksumMismatch {
            table: TableId(2),
            page: PageId(7),
        };
        assert_eq!(
            cs.to_string(),
            "checksum mismatch on t2 p7: page is corrupt"
        );
        assert!(!cs.is_transient());
        let stall = Error::ReadStalled {
            table: TableId(1),
            page: PageId(3),
        };
        assert!(stall.is_transient());
        assert_eq!(
            Error::WorkerPanicked { query_index: 4 }.to_string(),
            "worker thread panicked while running query 4"
        );
    }

    #[test]
    fn abort_variants_format_and_classify() {
        let c = Error::Cancelled;
        assert_eq!(c.to_string(), "query cancelled: no feedback absorbed");
        assert!(c.is_abort());
        assert!(!c.is_transient());
        let d = Error::DeadlineExceeded { deadline_ms: 40 };
        assert_eq!(
            d.to_string(),
            "deadline of 40 ms exceeded: query aborted, no feedback absorbed"
        );
        assert!(d.is_abort());
        assert!(!d.is_transient());
        let s = Error::StorageFull {
            what: "WAL append hit ENOSPC".into(),
        };
        assert_eq!(
            s.to_string(),
            "storage full: WAL append hit ENOSPC; frame not acknowledged"
        );
        assert!(!s.is_abort());
        assert!(!s.is_transient());
    }

    #[test]
    fn overloaded_formats_and_classifies() {
        let o = Error::Overloaded { retry_after_ms: 17 };
        assert_eq!(
            o.to_string(),
            "overloaded: query shed at admission, retry after 17 ms"
        );
        assert!(o.is_shed());
        assert!(!o.is_abort());
        assert!(!o.is_transient());
        assert!(!Error::Cancelled.is_shed());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_e: &dyn std::error::Error) {}
        takes_std_error(&Error::UnknownColumn("c9".into()));
    }
}
