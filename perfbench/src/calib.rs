//! Host-speed normalization: a fixed reference kernel timed between ops.
//!
//! On a shared host the same work runs up to a third faster or slower
//! with the neighbours' load. Part of that is stolen time, which the CPU
//! clock already leaves out; the rest is contention for caches and
//! memory bandwidth, which the CPU clock counts. The kernel below does
//! fixed work with the engine's resource profile — a streaming pass with
//! a hash per value over a buffer larger than L2, then dependent random
//! probes into an L2-sized table — so its CPU time moves with the host's
//! speed and not with the program under test. Every timed interval is
//! rescaled by the kernel times sampled around it:
//!
//! ```text
//! normalized = cpu_seconds × REFERENCE_KERNEL_S / kernel_seconds_around_it
//! ```
//!
//! which reads as the interval's CPU time on a host where the kernel
//! takes `REFERENCE_KERNEL_S`.

use crate::host::thread_cpu_s;
use pf_common::hash::mix64;

/// Kernel CPU seconds on the reference host (2-vCPU KVM guest) when its
/// neighbours are idle; the unit normalized times are expressed in.
pub const REFERENCE_KERNEL_S: f64 = 0.009;

/// 4 MiB streamed: more than one core's L2.
const STREAM_WORDS: usize = 512 << 10;
/// 2 MiB probed: one core's L2.
const TABLE_WORDS: usize = 256 << 10;
const PROBES: usize = 1 << 16;

/// Host speed along a run: kernel CPU times sampled between ops.
pub struct Pace {
    stream: Vec<u64>,
    table: Vec<u64>,
    /// (CPU clock when the sample ended, kernel CPU seconds).
    samples: Vec<(f64, f64)>,
    /// CPU seconds spent in the kernel so far.
    spent_s: f64,
}

impl Pace {
    pub fn new() -> Self {
        Pace {
            stream: (0..STREAM_WORDS as u64).map(mix64).collect(),
            table: (0..TABLE_WORDS as u64).map(|i| mix64(i ^ 0xA5A5)).collect(),
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs the kernel once and records its CPU time.
    pub fn sample(&mut self) {
        let start = thread_cpu_s();
        let mut acc = 0u64;
        for &v in &self.stream {
            acc = acc.wrapping_add(mix64(v ^ acc));
        }
        let mut x = acc;
        for _ in 0..PROBES {
            x ^= self.table[(mix64(x) as usize) % TABLE_WORDS];
        }
        std::hint::black_box(x);
        let end = thread_cpu_s();
        self.samples.push((end, end - start));
        self.spent_s += end - start;
    }

    /// CPU seconds spent in the kernel so far, to take out of intervals
    /// that contain samples.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// `cpu_s` measured over `[t0, t1]` on the CPU clock, rescaled by the
    /// mean kernel time of the last sample before `t0`, the samples
    /// inside, and the first sample after `t1`.
    pub fn normalize(&self, t0: f64, t1: f64, cpu_s: f64) -> f64 {
        let before = self.samples.iter().rposition(|s| s.0 <= t0).unwrap_or(0);
        let after = self
            .samples
            .iter()
            .position(|s| s.0 >= t1)
            .unwrap_or(self.samples.len().saturating_sub(1));
        let around = &self.samples[before..=after.max(before)];
        let k = around.iter().map(|s| s.1).sum::<f64>() / around.len() as f64;
        cpu_s * REFERENCE_KERNEL_S / k
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel CPU seconds over the run.
    pub fn median_s(&self) -> f64 {
        let k: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::median(&k)
    }
}
