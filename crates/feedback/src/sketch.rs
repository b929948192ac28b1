//! Memory accounting for feedback sketches.
//!
//! A monitored run may carry a monitor memory budget; to enforce it,
//! every sketch must answer "how much memory do you hold?".
//! [`Sketch::approx_bytes`] reports the sketch's resident size — the
//! struct itself plus any heap-allocated bitmap words — so lowering can
//! charge monitors against the budget deterministically.
//!
//! The accounting is *approximate by design*: it ignores allocator
//! overhead and rounding, because the budget only needs a stable,
//! platform-independent-enough ordering of "who costs what", not a
//! malloc-accurate ledger. Crucially it is also *deterministic*: the
//! same sketch configuration always reports the same size, so budget
//! shedding decisions replay identically across runs and worker counts.

/// A distinct-count sketch whose memory footprint can be charged
/// against a monitor budget.
pub trait Sketch {
    /// Approximate resident size in bytes: the struct plus owned heap
    /// allocations (bitmap words). Deterministic for a given
    /// configuration.
    fn approx_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::Sketch;
    use crate::{BitVectorFilter, DpSampler, FmSketch, GroupedPageCounter, LinearCounter};

    #[test]
    fn bitmap_sketches_scale_with_configuration() {
        let small = LinearCounter::new(64, 1);
        let big = LinearCounter::new(64 * 1024, 1);
        assert!(big.approx_bytes() > small.approx_bytes());
        // The dominant term is the bitmap: 64 Ki bits = 8 KiB of words.
        assert!(big.approx_bytes() >= 8 * 1024);

        let small = BitVectorFilter::new(64, 1);
        let big = BitVectorFilter::new(1 << 20, 1);
        assert!(big.approx_bytes() > small.approx_bytes());

        let small = FmSketch::new(8, 1);
        let big = FmSketch::new(1024, 1);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn counter_sketches_are_constant_size() {
        let g = GroupedPageCounter::new();
        assert_eq!(g.approx_bytes(), std::mem::size_of::<GroupedPageCounter>());
        let s = DpSampler::new(0.5, 7).unwrap();
        assert_eq!(s.approx_bytes(), std::mem::size_of::<DpSampler>());
    }

    #[test]
    fn approx_bytes_is_deterministic() {
        let a = LinearCounter::for_table(10_000, 3);
        let b = LinearCounter::for_table(10_000, 3);
        assert_eq!(a.approx_bytes(), b.approx_bytes());
    }
}
