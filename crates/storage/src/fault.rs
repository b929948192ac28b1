//! Deterministic fault injection for storage reads.
//!
//! The feedback mechanisms of the paper only earn their keep if they
//! survive the conditions real storage engines face: damaged pages,
//! torn writes, and slow reads. This module provides a *seeded,
//! reproducible* fault plan: given `(seed, rate)`, every `(TableId,
//! PageId)` site independently draws whether it faults and how, so a
//! plan with seed 42 and rate 0.01 damages exactly the same pages every
//! time, on every machine, at every worker count.
//!
//! Fault kinds mirror the failure modes a page-oriented engine sees:
//!
//! * [`FaultKind::BitFlip`] — one flipped bit in the page image
//!   (media bit rot); caught by the CRC32 page checksum,
//! * [`FaultKind::TruncatedPage`] — the tail of the page zeroed (a
//!   short write); caught by the checksum,
//! * [`FaultKind::TornSlotDirectory`] — the slot directory scrambled
//!   (a torn 512-byte sector under the directory); caught by the
//!   checksum,
//! * [`FaultKind::ReadStall`] — the read exceeds its latency budget
//!   (a failing disk retrying internally). *Transient*: the same read
//!   succeeds after a bounded number of retries, so callers back off
//!   and retry instead of skipping the page.
//!
//! Corrupting faults are materialized once, at plan-install time, as
//! damaged *copies* of the affected pages ([`crate::TableStorage`]
//! keeps the pristine originals for derived state such as index
//! builds); the checked read path then discovers the damage via the
//! checksum, exactly as it would discover real corruption.

use pf_common::hash::mix64;
use pf_common::{PageId, TableId};
use std::fmt;

/// One injected failure mode for a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A single flipped bit somewhere in the page image.
    BitFlip,
    /// The tail of the page zeroed, as after a short write.
    TruncatedPage,
    /// The slot directory overwritten, as after a torn sector write.
    TornSlotDirectory,
    /// The read stalls (transiently) instead of returning data.
    ReadStall,
}

impl FaultKind {
    /// Whether this fault damages page bytes (and is therefore caught
    /// by the checksum) as opposed to delaying the read.
    pub fn corrupts(self) -> bool {
        !matches!(self, FaultKind::ReadStall)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::TruncatedPage => "truncated-page",
            FaultKind::TornSlotDirectory => "torn-slot-directory",
            FaultKind::ReadStall => "read-stall",
        };
        f.write_str(name)
    }
}

/// An injected *error return*: the operation fails outright with a
/// typed `Err` instead of silently corrupting bytes. These model the
/// failure modes the byte-level [`FaultKind`]s cannot: a full disk, a
/// lying fsync, a rename that never lands, a read syscall erroring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorFault {
    /// ENOSPC mid-write: only a prefix of the frame reaches the file
    /// before the append fails.
    WriteNoSpace,
    /// The data was written but `fsync` reports failure — the bytes
    /// must be treated as never durable.
    FsyncFailed,
    /// An atomic publish rename fails; the temp file is left behind and
    /// the previous snapshot stays authoritative.
    RenameFailed,
    /// A page read returns `Err` once (a failing syscall, not bad
    /// bytes); the retry path re-reads it successfully.
    ReadError,
}

impl fmt::Display for ErrorFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorFault::WriteNoSpace => "write-nospace",
            ErrorFault::FsyncFailed => "fsync-failed",
            ErrorFault::RenameFailed => "rename-failed",
            ErrorFault::ReadError => "read-error",
        };
        f.write_str(name)
    }
}

/// A seeded, deterministic plan of which pages fault and how.
///
/// The plan is pure: [`FaultPlan::fault_for`] is a function of
/// `(seed, table, page)` only. Nothing is sampled at run time, so a
/// plan's damage set is identical across runs, platforms, and worker
/// counts — the property the repro harness depends on when it compares
/// faulted and fault-free sketches byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    error_rate: f64,
}

impl FaultPlan {
    /// A plan damaging roughly `rate` of all pages, derived from `seed`.
    pub fn new(seed: u64, rate: f64) -> pf_common::Result<Self> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(pf_common::Error::InvalidArgument(format!(
                "fault rate must be in [0, 1], got {rate}"
            )));
        }
        Ok(FaultPlan {
            seed,
            rate,
            error_rate: 0.0,
        })
    }

    /// The same plan with error-return injection enabled at
    /// `error_rate`: roughly that fraction of durable-operation sites
    /// (WAL appends, fsyncs, renames, page reads) fail with a typed
    /// `Err`. The byte-damage set of the plan is unchanged — the
    /// error-return draw uses a disjoint hash stream, so enabling it
    /// never moves which pages are corrupted.
    pub fn with_error_returns(mut self, error_rate: f64) -> pf_common::Result<Self> {
        if !(0.0..=1.0).contains(&error_rate) {
            return Err(pf_common::Error::InvalidArgument(format!(
                "error-return rate must be in [0, 1], got {error_rate}"
            )));
        }
        self.error_rate = error_rate;
        Ok(self)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's per-page fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn site_hash(&self, table: TableId, page: PageId) -> u64 {
        mix64(self.seed ^ mix64((u64::from(table.0) << 32) | u64::from(page.0)))
    }

    /// The fault (if any) this plan assigns to `page` of `table`.
    pub fn fault_for(&self, table: TableId, page: PageId) -> Option<FaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let h = self.site_hash(table, page);
        // 53 high-ish bits → a uniform draw in [0, 1); the low bits
        // (disjoint from the draw) pick the fault kind.
        let draw = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw >= self.rate {
            return None;
        }
        Some(match h & 3 {
            0 => FaultKind::BitFlip,
            1 => FaultKind::TruncatedPage,
            2 => FaultKind::TornSlotDirectory,
            _ => FaultKind::ReadStall,
        })
    }

    /// For a [`FaultKind::ReadStall`] site: how many read attempts stall
    /// before the read succeeds (1 or 2 — transient by construction).
    pub fn stall_attempts(&self, table: TableId, page: PageId) -> u32 {
        1 + ((self.site_hash(table, page) >> 2) & 1) as u32
    }

    /// Deterministic per-site entropy used to place the damage within
    /// the page (e.g. which bit flips).
    pub fn entropy_for(&self, table: TableId, page: PageId) -> u64 {
        mix64(self.site_hash(table, page) ^ 0x5EED_F417)
    }

    /// The plan's error-return rate (0 unless enabled via
    /// [`FaultPlan::with_error_returns`]).
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    /// The error-return fault (if any) this plan assigns to a durable
    /// operation site. Drawn from a hash stream disjoint from
    /// [`FaultPlan::fault_for`], so the two injection families compose
    /// without perturbing each other's site sets.
    pub fn error_fault_for(&self, table: TableId, page: PageId) -> Option<ErrorFault> {
        if self.error_rate <= 0.0 {
            return None;
        }
        let h = mix64(self.site_hash(table, page) ^ 0xE44_0B17_BADD_1C0D);
        let draw = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw >= self.error_rate {
            return None;
        }
        Some(match h & 3 {
            0 => ErrorFault::WriteNoSpace,
            1 => ErrorFault::FsyncFailed,
            2 => ErrorFault::RenameFailed,
            _ => ErrorFault::ReadError,
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultPlan {{ seed: {:#x}, rate: {} }}",
            self.seed, self.rate
        )?;
        if self.error_rate > 0.0 {
            write!(f, " + error returns at {}", self.error_rate)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults() {
        let plan = FaultPlan::new(7, 0.0).expect("valid plan");
        for p in 0..10_000 {
            assert_eq!(plan.fault_for(TableId(0), PageId(p)), None);
        }
    }

    #[test]
    fn full_rate_always_faults() {
        let plan = FaultPlan::new(7, 1.0).expect("valid plan");
        for p in 0..1_000 {
            assert!(plan.fault_for(TableId(3), PageId(p)).is_some());
        }
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::new(0xDEAD, 0.01).expect("valid plan");
        let hits = (0..100_000)
            .filter(|&p| plan.fault_for(TableId(1), PageId(p)).is_some())
            .count();
        // 1% of 100k sites = 1000 expected; allow generous slack.
        assert!((600..1400).contains(&hits), "got {hits} faulted sites");
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1, 0.05).expect("valid plan");
        let b = FaultPlan::new(2, 0.05).expect("valid plan");
        let sites_a: Vec<_> = (0..5_000)
            .filter_map(|p| a.fault_for(TableId(0), PageId(p)).map(|k| (p, k)))
            .collect();
        let sites_a2: Vec<_> = (0..5_000)
            .filter_map(|p| a.fault_for(TableId(0), PageId(p)).map(|k| (p, k)))
            .collect();
        let sites_b: Vec<_> = (0..5_000)
            .filter_map(|p| b.fault_for(TableId(0), PageId(p)).map(|k| (p, k)))
            .collect();
        assert_eq!(sites_a, sites_a2, "same seed, same damage set");
        assert_ne!(sites_a, sites_b, "different seeds diverge");
    }

    #[test]
    fn tables_fault_independently() {
        let plan = FaultPlan::new(9, 0.02).expect("valid plan");
        let t0: Vec<_> = (0..5_000)
            .filter(|&p| plan.fault_for(TableId(0), PageId(p)).is_some())
            .collect();
        let t1: Vec<_> = (0..5_000)
            .filter(|&p| plan.fault_for(TableId(1), PageId(p)).is_some())
            .collect();
        assert_ne!(t0, t1);
    }

    #[test]
    fn stall_attempts_are_bounded() {
        let plan = FaultPlan::new(3, 1.0).expect("valid plan");
        for p in 0..1_000 {
            let n = plan.stall_attempts(TableId(0), PageId(p));
            assert!((1..=2).contains(&n));
        }
    }

    #[test]
    fn invalid_rate_rejected() {
        assert!(FaultPlan::new(0, -0.1).is_err());
        assert!(FaultPlan::new(0, 1.5).is_err());
        let plan = FaultPlan::new(0, 0.0).expect("valid plan");
        assert!(plan.with_error_returns(-0.1).is_err());
        assert!(plan.with_error_returns(2.0).is_err());
    }

    #[test]
    fn error_returns_off_by_default() {
        let plan = FaultPlan::new(7, 1.0).expect("valid plan");
        assert_eq!(plan.error_rate(), 0.0);
        for p in 0..1_000 {
            assert_eq!(plan.error_fault_for(TableId(0), PageId(p)), None);
        }
    }

    #[test]
    fn error_returns_do_not_move_the_damage_set() {
        let base = FaultPlan::new(42, 0.05).expect("valid plan");
        let chaotic = base.with_error_returns(0.5).expect("valid plan");
        for p in 0..5_000 {
            assert_eq!(
                base.fault_for(TableId(1), PageId(p)),
                chaotic.fault_for(TableId(1), PageId(p)),
                "byte-damage draw must ignore the error-return rate"
            );
        }
    }

    #[test]
    fn error_faults_are_deterministic_and_cover_all_kinds() {
        let plan = FaultPlan::new(11, 0.0)
            .and_then(|p| p.with_error_returns(1.0))
            .expect("valid plan");
        let kinds: std::collections::HashSet<_> = (0..1_000)
            .filter_map(|p| plan.error_fault_for(TableId(2), PageId(p)))
            .collect();
        assert_eq!(kinds.len(), 4, "all four error kinds drawn: {kinds:?}");
        let a: Vec<_> = (0..1_000)
            .map(|p| plan.error_fault_for(TableId(2), PageId(p)))
            .collect();
        let b: Vec<_> = (0..1_000)
            .map(|p| plan.error_fault_for(TableId(2), PageId(p)))
            .collect();
        assert_eq!(a, b);
    }
}
