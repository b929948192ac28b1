//! Execution context: buffer pool + disk model + cancellation.

use pf_common::{Error, Result};
use pf_storage::{BufferPool, DiskModel, IoStats};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// A shared, cloneable cooperative-cancellation handle.
///
/// Operators poll the token at page/morsel boundaries via
/// [`ExecContext::check_interrupt`]; once tripped, the query unwinds
/// with [`Error::Cancelled`] without absorbing any feedback. Besides
/// the usual externally-tripped flag ([`CancelToken::cancel`]), a token
/// can be armed to trip *at the n-th checkpoint*
/// ([`CancelToken::cancel_after`]) — a deterministic way to abort a
/// query at any chosen page boundary, which is exactly what the
/// cancellation-hygiene tests sweep over.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Remaining checkpoints before the token trips itself; negative
    /// means "never self-trip" (the default).
    budget: AtomicI64,
}

impl Default for TokenInner {
    fn default() -> Self {
        TokenInner {
            cancelled: AtomicBool::new(false),
            budget: AtomicI64::new(i64::MIN / 2),
        }
    }
}

impl CancelToken {
    /// A fresh token that only trips when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that trips at the `n`-th checkpoint (0 = the very first
    /// [`ExecContext::check_interrupt`] call aborts).
    pub fn cancel_after(n: u64) -> Self {
        let t = CancelToken::new();
        t.inner
            .budget
            .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::SeqCst);
        t
    }

    /// Trip the token: every context holding a clone aborts at its next
    /// checkpoint.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Record one checkpoint; returns `true` when the token is (now)
    /// tripped. Self-trips when a `cancel_after` budget reaches zero.
    pub fn checkpoint(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        // A `cancel_after` budget counts down to exactly zero; the
        // deeply negative default never reaches it, so ordinary tokens
        // only trip via `cancel()`.
        if self.inner.budget.fetch_sub(1, Ordering::SeqCst) == 0 {
            self.inner.cancelled.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }
}

/// Everything an operator needs at `next()` time.
///
/// Single-threaded by design (one query at a time, like the paper's
/// per-query experiments); operators receive `&mut ExecContext` so the
/// accounting is free of interior mutability.
#[derive(Debug)]
pub struct ExecContext {
    /// The buffer pool (owns the [`IoStats`] counters).
    pub pool: BufferPool,
    /// The simulated clock.
    pub model: DiskModel,
    /// Which retry of the current query this execution is (0 = first
    /// try). [`pf_storage::TableStorage`] clears transient read-stall
    /// faults once the attempt reaches the site's stall budget, so a
    /// runner that retries with an incremented attempt always makes
    /// progress.
    pub fault_attempt: u32,
    /// Cooperative cancellation handle, polled at page granularity.
    pub cancel: CancelToken,
    /// Simulated-clock deadline: when `elapsed_ms()` passes this the
    /// next checkpoint aborts with [`Error::DeadlineExceeded`]. Driven
    /// by the *simulated* clock, so the abort point is deterministic
    /// across machines and worker counts.
    pub deadline_ms: Option<u64>,
}

impl ExecContext {
    /// A context with the given pool capacity and the default disk model.
    pub fn new(pool_pages: usize) -> Self {
        ExecContext {
            pool: BufferPool::new(pool_pages),
            model: DiskModel::default(),
            fault_attempt: 0,
            cancel: CancelToken::new(),
            deadline_ms: None,
        }
    }

    /// A context with a custom disk model.
    pub fn with_model(pool_pages: usize, model: DiskModel) -> Self {
        ExecContext {
            pool: BufferPool::new(pool_pages),
            model,
            fault_attempt: 0,
            cancel: CancelToken::new(),
            deadline_ms: None,
        }
    }

    /// Simulated elapsed time of everything charged so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.model.elapsed_ms(&self.pool.stats())
    }

    /// Cancellation/deadline checkpoint. Operators call this at page
    /// (and morsel) boundaries; an `Err` here must propagate untouched
    /// so the abort reaches the runner before any feedback is
    /// harvested. The deadline check reads the simulated clock, and the
    /// clock is monotone within a run, so a fired deadline stays fired.
    pub fn check_interrupt(&self) -> Result<()> {
        if self.cancel.checkpoint() {
            return Err(Error::Cancelled);
        }
        if let Some(deadline_ms) = self.deadline_ms {
            #[allow(clippy::cast_precision_loss)]
            if self.elapsed_ms() > deadline_ms as f64 {
                return Err(Error::DeadlineExceeded { deadline_ms });
            }
        }
        Ok(())
    }

    /// Drop any armed cancellation/deadline state (used when a pooled
    /// context is recycled for the next query).
    pub fn clear_interrupts(&mut self) {
        self.cancel = CancelToken::new();
        self.deadline_ms = None;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Cold cache: evict everything, reset counters (the paper's
    /// measurement methodology).
    pub fn cold_start(&mut self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{PageId, TableId};
    use pf_storage::AccessPattern;

    #[test]
    fn elapsed_tracks_charges() {
        let mut ctx = ExecContext::new(16);
        assert_eq!(ctx.elapsed_ms(), 0.0);
        ctx.pool
            .access(TableId(0), PageId(0), AccessPattern::Random);
        assert!(ctx.elapsed_ms() >= ctx.model.rand_read_ms);
    }

    #[test]
    fn cold_start_resets() {
        let mut ctx = ExecContext::new(16);
        ctx.pool
            .access(TableId(0), PageId(0), AccessPattern::Random);
        ctx.cold_start();
        assert_eq!(ctx.elapsed_ms(), 0.0);
        assert_eq!(ctx.pool.resident_pages(), 0);
    }

    #[test]
    fn cancel_token_trips_every_clone() {
        let ctx = ExecContext::new(16);
        let handle = ctx.cancel.clone();
        assert!(ctx.check_interrupt().is_ok());
        handle.cancel();
        assert_eq!(ctx.check_interrupt(), Err(Error::Cancelled));
        // Once tripped, it stays tripped.
        assert_eq!(ctx.check_interrupt(), Err(Error::Cancelled));
    }

    #[test]
    fn cancel_after_counts_checkpoints() {
        let mut ctx = ExecContext::new(16);
        ctx.cancel = CancelToken::cancel_after(3);
        for _ in 0..3 {
            assert!(ctx.check_interrupt().is_ok());
        }
        assert_eq!(ctx.check_interrupt(), Err(Error::Cancelled));
    }

    #[test]
    fn deadline_fires_on_simulated_clock() {
        let mut ctx = ExecContext::new(16);
        ctx.deadline_ms = Some(0);
        assert!(ctx.check_interrupt().is_ok(), "no charges, no elapsed time");
        ctx.pool
            .access(TableId(0), PageId(0), AccessPattern::Random);
        assert_eq!(
            ctx.check_interrupt(),
            Err(Error::DeadlineExceeded { deadline_ms: 0 })
        );
        ctx.clear_interrupts();
        assert!(ctx.check_interrupt().is_ok());
    }

    /// A fired deadline stays fired: the simulated clock never runs
    /// backwards within a run, so every later checkpoint aborts too.
    #[test]
    fn deadline_latches() {
        let mut ctx = ExecContext::new(16);
        ctx.deadline_ms = Some(10);
        for p in 0..2 {
            ctx.pool
                .access(TableId(0), PageId(p), AccessPattern::Random);
        }
        assert!(ctx.check_interrupt().is_ok(), "8 ms fits a 10 ms deadline");
        ctx.pool
            .access(TableId(0), PageId(2), AccessPattern::Random);
        let fired = Err(Error::DeadlineExceeded { deadline_ms: 10 });
        assert_eq!(ctx.check_interrupt(), fired);
        // A buffer hit still charges a logical read: time only grows.
        ctx.pool
            .access(TableId(0), PageId(0), AccessPattern::Random);
        assert_eq!(ctx.check_interrupt(), fired);
    }
}
