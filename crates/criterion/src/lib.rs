//! A minimal, dependency-free micro-benchmark harness exposing the subset
//! of the `criterion` crate's API that this workspace's benches use.
//!
//! The workspace builds in fully offline environments, so benches cannot
//! pull the real `criterion` from a registry. This shim keeps the bench
//! sources byte-compatible (`criterion_group!`/`criterion_main!`,
//! `Criterion::benchmark_group`, `bench_function`/`bench_with_input`,
//! `Throughput`, `black_box`) and reports wall-clock time per iteration
//! plus element throughput on stdout. Each benchmark splits its time
//! budget into ten timing windows, each at least five warm-up calls
//! long, and reports the median window's time per iteration with the
//! fastest and slowest beside it; there is no further statistical
//! machinery.

// Harness code must surface typed failures, not panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn label(&self) -> String {
        match &self.parameter {
            Some(p) => format!("{}/{}", self.function, p),
            None => self.function.clone(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(function: &str) -> Self {
        Self {
            function: function.to_string(),
            parameter: None,
        }
    }
}

/// Timing windows per benchmark.
const SAMPLES: u32 = 10;

/// A window lasts at least this many warm-up calls, so a routine slow
/// against the budget's share still repeats within every window.
const MIN_WINDOW_WARMUPS: u32 = 5;

/// Iteration cap of one timing window, for routines far faster than
/// the window.
const MAX_WINDOW_ITERS: u64 = 1_000_000;

/// Runs the closure under `Bencher::iter` in calibrated timing windows.
pub struct Bencher {
    budget: Duration,
    /// Nanoseconds per iteration of each window of the last run,
    /// ascending.
    window_ns: Vec<f64>,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Self {
            budget,
            window_ns: Vec::new(),
            iters: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Times `routine` after one warm-up call in ten windows, each
    /// running the routine until a tenth of the budget or five warm-up
    /// calls' time, whichever is longer, has passed (at least once), and
    /// keeps each window's time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let warm_up = Instant::now();
        black_box(routine());
        let window = (self.budget / SAMPLES).max(warm_up.elapsed() * MIN_WINDOW_WARMUPS);
        self.window_ns.clear();
        self.iters = 0;
        self.elapsed = Duration::ZERO;
        for _ in 0..SAMPLES {
            let start = Instant::now();
            let mut iters = 0u64;
            let elapsed = loop {
                black_box(routine());
                iters += 1;
                let elapsed = start.elapsed();
                if elapsed >= window || iters >= MAX_WINDOW_ITERS {
                    break elapsed;
                }
            };
            self.iters += iters;
            self.elapsed += elapsed;
            self.window_ns
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
        self.window_ns.sort_by(f64::total_cmp);
    }

    /// Iterations measured by the last [`Bencher::iter`] run, over all
    /// windows.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Total wall-clock time of the last [`Bencher::iter`] run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Number of timing windows of the last [`Bencher::iter`] run.
    pub fn samples(&self) -> usize {
        self.window_ns.len()
    }

    /// Median over the windows of the last [`Bencher::iter`] run of
    /// nanoseconds per iteration (`NaN` before any run). Public so
    /// harness-free benches can compute derived metrics (rows/sec, JSON
    /// artifacts) from the same measurement the report line prints.
    pub fn ns_per_iter(&self) -> f64 {
        let ns = &self.window_ns;
        match ns.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => ns[n / 2],
            n => (ns[n / 2 - 1] + ns[n / 2]) / 2.0,
        }
    }

    /// Nanoseconds per iteration of the fastest window (`NaN` before any
    /// run).
    pub fn min_ns_per_iter(&self) -> f64 {
        self.window_ns.first().copied().unwrap_or(f64::NAN)
    }

    /// Nanoseconds per iteration of the slowest window (`NaN` before any
    /// run).
    pub fn max_ns_per_iter(&self) -> f64 {
        self.window_ns.last().copied().unwrap_or(f64::NAN)
    }

    /// The last run as a rate of `units_per_iter` units per second.
    pub fn rate(&self, units_per_iter: u64) -> Rate {
        let per_sec = |ns: f64| units_per_iter as f64 / ns * 1e9;
        Rate {
            median: per_sec(self.ns_per_iter()),
            min: per_sec(self.max_ns_per_iter()),
            max: per_sec(self.min_ns_per_iter()),
            samples: self.samples(),
        }
    }
}

/// A throughput over a run's timing windows: the median window's rate,
/// the slowest and the fastest.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rate {
    /// Rate of the median window.
    pub median: f64,
    /// Rate of the slowest window.
    pub min: f64,
    /// Rate of the fastest window.
    pub max: f64,
    /// Number of windows.
    pub samples: usize,
}

impl Rate {
    /// `"key": median, "key_min": min, "key_max": max` for a JSON object.
    pub fn json_fields(&self, key: &str) -> String {
        format!(
            "\"{key}\": {:.0}, \"{key}_min\": {:.0}, \"{key}_max\": {:.0}",
            self.median, self.min, self.max
        )
    }
}

pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // `PF_BENCH_BUDGET_MS` shrinks (or stretches) the per-benchmark
        // timing budget — CI smoke jobs run benches in quick mode
        // without patching bench sources.
        let ms = std::env::var("PF_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        Self {
            budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            budget: self.budget,
            _criterion: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(name, &b, None);
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    budget: Duration,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(
            &format!("{}/{}", self.name, id.label()),
            &b,
            self.throughput,
        );
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.budget);
        f(&mut b, input);
        report(
            &format!("{}/{}", self.name, id.label()),
            &b,
            self.throughput,
        );
        self
    }

    pub fn finish(self) {}
}

/// `ns` nanoseconds in the largest unit that keeps it at or above one.
fn format_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report(label: &str, b: &Bencher, throughput: Option<Throughput>) {
    let ns = b.ns_per_iter();
    let thrpt = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  thrpt: {:>10.3} Melem/s", n as f64 / ns * 1e3)
        }
        Some(Throughput::Bytes(n)) => {
            format!(
                "  thrpt: {:>10.3} MiB/s",
                n as f64 / ns * 1e9 / (1024.0 * 1024.0)
            )
        }
        None => String::new(),
    };
    println!(
        "{label:<48} time: {:>12}/iter [{} .. {}]{thrpt}   ({} iters, {} samples)",
        format_time(ns),
        format_time(b.min_ns_per_iter()),
        format_time(b.max_ns_per_iter()),
        b.iters,
        b.samples()
    );
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_give_median_min_and_max() {
        let mut b = Bencher::new(Duration::from_millis(5));
        assert!(b.ns_per_iter().is_nan());
        let mut calls = 0u32;
        b.iter(|| {
            calls += 1;
            std::thread::sleep(Duration::from_micros(50));
        });
        assert_eq!(b.samples(), 10);
        assert!(u64::from(calls) == b.iters() + 1, "one warm-up call");
        let (min, med, max) = (b.min_ns_per_iter(), b.ns_per_iter(), b.max_ns_per_iter());
        assert!(
            min >= 50_000.0 && min <= med && med <= max,
            "{min} {med} {max}"
        );
        let rate = b.rate(1_000);
        assert!(rate.min <= rate.median && rate.median <= rate.max);
        assert_eq!(rate.samples, 10);
    }

    #[test]
    fn slow_routines_get_windows_of_several_warm_up_calls() {
        // A 1 ms budget would give 0.1 ms windows, each holding one call;
        // every window must instead last five warm-up calls (≥ 5 ms).
        let mut b = Bencher::new(Duration::from_millis(1));
        b.iter(|| std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(b.samples(), 10);
        assert!(
            b.elapsed() >= Duration::from_millis(50),
            "{:?}",
            b.elapsed()
        );
        assert!(b.iters() >= 10);
    }

    #[test]
    fn even_window_counts_average_the_middle_pair() {
        let mut b = Bencher::new(Duration::ZERO);
        b.window_ns = vec![1.0, 2.0, 4.0, 8.0];
        assert_eq!(b.ns_per_iter(), 3.0);
        assert_eq!((b.min_ns_per_iter(), b.max_ns_per_iter()), (1.0, 8.0));
    }
}
