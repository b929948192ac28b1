//! Flajolet–Martin probabilistic counting (PCSA) — the paper's
//! reference \[8\].
//!
//! Section III-A cites two probabilistic-counting lineages: Flajolet &
//! Martin's PCSA sketches \[8\] and Whang et al.'s linear counting \[20\]
//! (the one the prototype uses, implemented in
//! [`crate::linear_counter`]). This module implements PCSA so the two
//! can be compared (see `repro ablation-counters`):
//!
//! * each of `m` bitmaps records, for the PIDs hashed into it, the
//!   positions of the lowest set bits of their hashes (`ρ(h)`),
//! * the count estimate is `m/φ · 2^(mean lowest-unset-bit)` with
//!   φ ≈ 0.77351 (stochastic averaging).
//!
//! PCSA estimates *unbounded* cardinalities in `m` words of memory, but
//! pays ~√m-relative error (≈10 % at m = 64); linear counting needs
//! memory proportional to the domain yet is far more accurate at the
//! "one bit per page" budget — which is exactly why the paper picks it
//! for page counting, where the domain (the table's page count) is known
//! in advance.

use pf_common::hash::hash_page;
use pf_common::{Error, Result};

/// Flajolet–Martin correction constant.
const PHI: f64 = 0.77351;

/// A PCSA (Probabilistic Counting with Stochastic Averaging) sketch over
/// page ids.
#[derive(Debug, Clone)]
pub struct FmSketch {
    bitmaps: Vec<u64>,
    seed: u64,
    observations: u64,
}

impl FmSketch {
    /// Creates a sketch with `m` bitmaps (rounded up to a power of two,
    /// min 8). Memory is `m` words — independent of the counted domain.
    pub fn new(m: usize, seed: u64) -> Self {
        let m = m.next_power_of_two().max(8);
        FmSketch {
            bitmaps: vec![0; m],
            seed,
            observations: 0,
        }
    }

    /// Observes one page id.
    #[inline]
    pub fn observe(&mut self, page: u32) {
        let h = hash_page(page, self.seed);
        let m = self.bitmaps.len() as u64;
        // Low bits pick the bitmap; the rest feed ρ.
        let idx = (h & (m - 1)) as usize;
        let rest = h >> self.bitmaps.len().trailing_zeros();
        let rho = rest.trailing_ones().min(63);
        self.bitmaps[idx] |= 1 << rho;
        self.observations += 1;
    }

    /// Observes a run of `rows` rows from the same page: bit-identical
    /// to `rows` calls to [`FmSketch::observe`] (the bitmap update is
    /// idempotent per page), at the cost of one hash. `rows == 0` is a
    /// no-op.
    #[inline]
    pub fn observe_page(&mut self, page: u32, rows: u64) {
        if rows == 0 {
            return;
        }
        let h = hash_page(page, self.seed);
        let m = self.bitmaps.len() as u64;
        let idx = (h & (m - 1)) as usize;
        let rest = h >> self.bitmaps.len().trailing_zeros();
        let rho = rest.trailing_ones().min(63);
        self.bitmaps[idx] |= 1 << rho;
        self.observations += rows;
    }

    /// Unions `other` into `self` (bitwise OR of the PCSA bitmaps), so
    /// per-worker sketches over a partitioned PID stream combine into the
    /// sketch a serial run would have produced. Both sketches must share
    /// a seed and bitmap count.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.bitmaps.len() != other.bitmaps.len() || self.seed != other.seed {
            return Err(Error::InvalidArgument(format!(
                "cannot merge FM sketches: m {} vs {}, seed {} vs {}",
                self.bitmaps.len(),
                other.bitmaps.len(),
                self.seed,
                other.seed
            )));
        }
        crate::bitmap::or_into(&mut self.bitmaps, &other.bitmaps);
        self.observations += other.observations;
        Ok(())
    }

    /// Rows observed (not distinct).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The distinct-count estimate `m/φ · 2^(ΣR/m)`, where `R` is each
    /// bitmap's lowest unset bit position.
    pub fn estimate(&self) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        let m = self.bitmaps.len() as f64;
        let sum_r: u32 = self.bitmaps.iter().map(|b| b.trailing_ones()).sum();
        (m / PHI) * 2f64.powf(f64::from(sum_r) / m)
    }

    /// Clears the sketch.
    pub fn reset(&mut self) {
        self.bitmaps.fill(0);
        self.observations = 0;
    }
}

impl crate::sketch::Sketch for FmSketch {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bitmaps.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_error(truth: usize, est: f64) -> f64 {
        (est - truth as f64).abs() / truth as f64
    }

    #[test]
    fn empty_sketch_is_zero() {
        assert_eq!(FmSketch::new(64, 1).estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut once = FmSketch::new(64, 3);
        let mut many = FmSketch::new(64, 3);
        for p in 0..500u32 {
            once.observe(p);
            for _ in 0..20 {
                many.observe(p);
            }
        }
        assert_eq!(once.estimate(), many.estimate());
    }

    #[test]
    fn estimates_within_pcsa_error_across_seeds() {
        // PCSA standard error ≈ 0.78/√m ≈ 9.8% at m = 64; check the
        // mean over seeds lands well inside 3σ and no single run is wild.
        let truth = 20_000usize;
        let mut errs = Vec::new();
        for seed in 0..10 {
            let mut s = FmSketch::new(64, seed);
            for p in 0..truth as u32 {
                s.observe(p);
                s.observe(p);
            }
            errs.push(rel_error(truth, s.estimate()));
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.15, "mean error {mean}");
        assert!(errs.iter().all(|e| *e < 0.5), "outlier: {errs:?}");
    }

    #[test]
    fn more_bitmaps_reduce_error() {
        let truth = 50_000usize;
        let err_at = |m: usize| {
            let mut total = 0.0;
            for seed in 0..6 {
                let mut s = FmSketch::new(m, seed * 31 + 1);
                for p in 0..truth as u32 {
                    s.observe(p);
                }
                total += rel_error(truth, s.estimate());
            }
            total / 6.0
        };
        let coarse = err_at(16);
        let fine = err_at(256);
        assert!(fine < coarse, "m=16: {coarse}, m=256: {fine}");
    }

    #[test]
    fn unbounded_domain_at_fixed_memory() {
        // The PCSA selling point: 64 words track 1M distinct pages.
        let truth = 1_000_000usize;
        let mut s = FmSketch::new(64, 9);
        for p in 0..truth as u32 {
            s.observe(p);
        }
        assert!(rel_error(truth, s.estimate()) < 0.25, "{}", s.estimate());
    }

    #[test]
    fn rounding_and_reset() {
        let s = FmSketch::new(9, 0);
        assert_eq!(s.bitmaps.len(), 16, "rounds to power of two");
        let mut s = FmSketch::new(8, 0);
        s.observe(1);
        assert!(s.estimate() > 0.0);
        s.reset();
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.observations(), 0);
    }
}
