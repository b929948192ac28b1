//! Execution context: buffer pool, disk model and query deadline.

use pf_common::{Error, Result};
use pf_storage::{BufferPool, DiskModel, IoStats};

/// Everything an operator needs while it runs.
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
    /// Simulated-clock deadline: when `elapsed_ms()` passes this the
    /// next checkpoint aborts with [`Error::DeadlineExceeded`]. Driven
    /// by the *simulated* clock, so the abort point is deterministic
    /// across machines and worker counts. It is the only interrupt a
    /// query has: a caller that wants to stop a query sooner sets an
    /// earlier deadline.
    pub deadline_ms: Option<u64>,
}

impl ExecContext {
    /// A context with the given pool capacity and the default disk model.
    pub fn new(pool_pages: usize) -> Self {
        ExecContext {
            pool: BufferPool::new(pool_pages),
            model: DiskModel::default(),
            fault_attempt: 0,
            deadline_ms: None,
        }
    }

    /// A context with a custom disk model.
    pub fn with_model(pool_pages: usize, model: DiskModel) -> Self {
        ExecContext {
            pool: BufferPool::new(pool_pages),
            model,
            fault_attempt: 0,
            deadline_ms: None,
        }
    }

    /// Simulated elapsed time of everything charged so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.model.elapsed_ms(&self.pool.stats())
    }

    /// Deadline checkpoint. Operators call this at page, RID and probe
    /// boundaries; an `Err` here must propagate untouched so the abort
    /// reaches the runner before any feedback is harvested. The check
    /// reads the simulated clock (a handful of multiply-adds over the
    /// I/O counters, nothing when no deadline is set), and the clock is
    /// monotone within a run, so a fired deadline stays fired.
    pub fn check_interrupt(&self) -> Result<()> {
        if let Some(deadline_ms) = self.deadline_ms {
            #[allow(clippy::cast_precision_loss)]
            if self.elapsed_ms() > deadline_ms as f64 {
                return Err(Error::DeadlineExceeded { deadline_ms });
            }
        }
        Ok(())
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
        ctx.deadline_ms = None;
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
