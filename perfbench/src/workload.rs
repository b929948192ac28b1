//! The three workloads: their sizes, statement pools and op order.
//!
//! Every pool is stratified — each statement's selectivity is drawn
//! from its own narrow band — so that two seeds give pools of the same
//! cost profile and the seed-to-seed spread of a metric reflects the
//! program, not the luck of the draw. Op order is fixed by the seed.

use crate::data::{Pred, Stmt, TableOracle};
use pf_common::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanFeedback,
    JoinFeedback,
    InteractiveSql,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanFeedback,
        Workload::JoinFeedback,
        Workload::InteractiveSql,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanFeedback => "scan_feedback",
            Workload::JoinFeedback => "join_feedback",
            Workload::InteractiveSql => "interactive_sql",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one run.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Rows in `T` (and in `T1` when present).
    pub rows: usize,
    pub with_t1: bool,
    /// Statements in the pool.
    pub pool: usize,
    /// Ops in the timed phase (reads and in-stream writes).
    pub ops: usize,
    /// Timed set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Keep a durable feedback store during the op stream: every
    /// harvested report is appended and synced in group commits.
    pub store: bool,
    /// Every `write_every`-th op replaces a row of `T` (0 = no writes).
    pub write_every: usize,
    /// Row replacements timed after the read phase (workloads whose
    /// stream does not write).
    pub probe_writes: usize,
    /// Store compaction after this many acknowledged appends.
    pub compact_every: usize,
    /// Reports appended to the store in one group commit.
    pub commit_every: usize,
    /// The host-speed kernel runs before every `pace_every`-th op
    /// (before each write on interactive_sql), about every 150 ms.
    pub pace_every: usize,
}

/// Ops per second of the timed phase on the reference host (2-vCPU
/// KVM guest); `--seconds` times this fixes a run's op count, so the
/// digest and `sim_ms` are exact per seed.
const NOMINAL_OPS_PER_S: [(Workload, f64); 3] = [
    (Workload::ScanFeedback, 170.0),
    (Workload::JoinFeedback, 12.0),
    (Workload::InteractiveSql, 280.0),
];

impl Spec {
    /// Full-size spec whose timed phase lasts about `seconds` on the
    /// reference host.
    pub fn full(workload: Workload, seconds: u64) -> Self {
        let rate = NOMINAL_OPS_PER_S
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(1.0, |(_, r)| *r);
        let ops = ((seconds as f64 * rate).round() as usize).max(1);
        match workload {
            Workload::ScanFeedback => Spec {
                workload,
                rows: 320_000,
                with_t1: false,
                pool: 100,
                ops,
                setups: 5,
                store: false,
                write_every: 0,
                probe_writes: 5,
                compact_every: 0,
                commit_every: 0,
                pace_every: 25,
            },
            Workload::JoinFeedback => Spec {
                workload,
                rows: 320_000,
                with_t1: true,
                pool: 40,
                ops,
                setups: 5,
                store: false,
                write_every: 0,
                probe_writes: 5,
                compact_every: 0,
                commit_every: 0,
                pace_every: 2,
            },
            Workload::InteractiveSql => Spec {
                workload,
                rows: 40_000,
                with_t1: true,
                pool: FORMS.iter().map(|f| f.statements).sum(),
                ops,
                setups: 9,
                store: true,
                write_every: 100,
                probe_writes: 0,
                compact_every: 500,
                commit_every: 20,
                pace_every: 100,
            },
        }
    }

    /// Ops per slice of the phase that is normalized as one interval:
    /// one round of the pool for scan and join, one write period for
    /// interactive.
    pub fn slice_ops(&self) -> usize {
        if self.write_every > 0 {
            self.write_every
        } else {
            self.pool
        }
    }

    /// A small spec for the self-test: same shape, toy sizes.
    #[cfg(test)]
    pub fn toy(workload: Workload) -> Self {
        let mut spec = Self::full(workload, 1);
        spec.rows = 3_000;
        spec.ops = 240;
        spec.setups = 2;
        spec.probe_writes = spec.probe_writes.min(2);
        spec.compact_every = spec.compact_every.min(50);
        spec
    }

    /// The statement pool. Scan: `COUNT(pad)` with `c2..c5 < v` at
    /// 1–10 % selectivity. Join: `T1.c1 < v` at 0.2–7 % joined on
    /// `c2..c5`. Interactive: six forms in rank order (see
    /// [`interactive_form`]).
    pub fn pool(&self, seed: u64, t: &TableOracle, t1: Option<&TableOracle>) -> Vec<Stmt> {
        let mut rng = Rng::new(seed ^ 0x5EED_0001);
        let n = self.pool;
        match self.workload {
            Workload::ScanFeedback => (0..n)
                .map(|i| {
                    let per_col = n / 4;
                    let (col, k) = (1 + i / per_col, i % per_col);
                    let sel = band(0.01, 0.10, k, per_col, &mut rng);
                    Stmt::Count {
                        col: col.min(4),
                        pred: Pred::Lt(t.quantile(col.min(4), sel)),
                        star: false,
                    }
                })
                .collect(),
            Workload::JoinFeedback => {
                let t1 = t1.expect("join workload loads T1");
                (0..n)
                    .map(|i| {
                        let per_col = n / 4;
                        let (col, k) = (1 + i / per_col, i % per_col);
                        let sel = band(0.002, 0.07, k, per_col, &mut rng);
                        Stmt::Join {
                            outer: Pred::Lt(t1.quantile(0, sel)),
                            col: col.min(4),
                        }
                    })
                    .collect()
            }
            Workload::InteractiveSql => FORMS
                .iter()
                .enumerate()
                .flat_map(|(form, f)| (0..f.statements).map(move |k| (form, k, f.statements)))
                .map(|(form, k, per_form)| {
                    interactive_form(form, k, per_form, t.len() as i64, &mut rng)
                })
                .collect(),
        }
    }

    /// Which pool statement each op runs, or `None` for a write.
    /// Scan and join run the pool in rounds, each a fresh seeded
    /// permutation, so every statement repeats equally often.
    /// Interactive gives each form its fixed share of the reads and,
    /// within a form, the statement of rank `k` its Zipf(1.0) share,
    /// rounded to whole ops, in seeded order; every `write_every`-th op
    /// is a write. Exact shares keep a seed from changing the mix.
    pub fn schedule(&self, seed: u64) -> Vec<Option<usize>> {
        let mut rng = Rng::new(seed ^ 0x5EED_0002);
        if self.workload != Workload::InteractiveSql {
            let mut out = Vec::with_capacity(self.ops);
            let mut round: Vec<usize> = (0..self.pool).collect();
            while out.len() < self.ops {
                rng.shuffle(&mut round);
                out.extend(round.iter().take(self.ops - out.len()).map(|&i| Some(i)));
            }
            return out;
        }
        let is_write =
            |i: usize| self.write_every > 0 && i % self.write_every == self.write_every - 1;
        let reads = (0..self.ops).filter(|&i| !is_write(i)).count();
        let shares: Vec<f64> = FORMS.iter().map(|f| f.share).collect();
        let mut picks = Vec::with_capacity(reads);
        let mut first = 0;
        for (f, n) in FORMS.iter().zip(largest_remainder(&shares, reads)) {
            let zipf: Vec<f64> = (1..=f.statements).map(|r| 1.0 / r as f64).collect();
            for (k, count) in largest_remainder(&zipf, n).into_iter().enumerate() {
                picks.extend(std::iter::repeat_n(first + k, count));
            }
            first += f.statements;
        }
        rng.shuffle(&mut picks);
        let mut picks = picks.into_iter();
        (0..self.ops)
            .map(|i| if is_write(i) { None } else { picks.next() })
            .collect()
    }
}

/// Splits `total` in proportion to `weights`, largest remainders first,
/// so the parts sum to `total` exactly.
fn largest_remainder(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut parts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - parts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        parts[i] += 1;
    }
    parts
}

/// A value in the `k`-th of `strata` equal bands of `[lo, hi)`.
fn band(lo: f64, hi: f64, k: usize, strata: usize, rng: &mut Rng) -> f64 {
    lo + (hi - lo) * (k as f64 + rng.next_f64()) / strata as f64
}

/// One interactive statement form: how many pool statements it has and
/// its fixed share of the reads.
pub struct Form {
    pub statements: usize,
    pub share: f64,
}

/// The interactive forms, in the order of [`interactive_form`]. Cheap
/// lookups take 92.7 % of reads. The two-predicate form, which the
/// planner runs as a full scan of `T`, takes 7 %, so the p95 read lies
/// inside its cluster. The small-outer join hashes all of `T` and costs
/// as much as several hundred lookups; at 0.3 % it is exercised
/// without burying the per-statement layers this workload exposes.
pub const FORMS: [Form; 6] = [
    Form {
        statements: 60,
        share: 0.30,
    },
    Form {
        statements: 60,
        share: 0.22,
    },
    Form {
        statements: 60,
        share: 0.20,
    },
    Form {
        statements: 60,
        share: 0.207,
    },
    Form {
        statements: 40,
        share: 0.07,
    },
    Form {
        statements: 20,
        share: 0.003,
    },
];

/// The `k`-th of `per_form` interactive statements of `form`:
///
/// | form | statement | harvests feedback |
/// |---|---|---|
/// | 0 | `COUNT(*)` equality on c3..c5 (index-only) | no |
/// | 1 | `COUNT(pad)` equality on c2..c5 | yes |
/// | 2 | `COUNT(pad)` narrow one-sided range, 0.01–0.1 % | yes |
/// | 3 | `COUNT(*)` narrow one-sided range (index-only) | no |
/// | 4 | `COUNT(pad)` two predicates on c5: `a <= c5 < b`, 0.5–1 % | yes |
/// | 5 | small-outer join: 20–200 `T1` rows by `c1` range | yes |
///
/// A fixed scramble of `k` picks the band a statement's size is drawn
/// from, so hot ranks are not always the cheapest statements.
fn interactive_form(form: usize, k: usize, per_form: usize, n: i64, rng: &mut Rng) -> Stmt {
    let stratum = (k * 17) % per_form;
    let col = 1 + k % 4;
    let value = rng.gen_range(n as u64) as i64;
    let width = |lo: f64, hi: f64, rng: &mut Rng| {
        ((band(lo, hi, stratum, per_form, rng) * n as f64).round() as i64).max(1)
    };
    match form {
        0 => Stmt::Count {
            col: 2 + k % 3,
            pred: Pred::Eq(value),
            star: true,
        },
        1 => Stmt::Count {
            col,
            pred: Pred::Eq(value),
            star: false,
        },
        2 => Stmt::Count {
            col,
            pred: Pred::Lt(width(0.0001, 0.001, rng)),
            star: false,
        },
        3 => Stmt::Count {
            col,
            pred: Pred::Lt(width(0.0001, 0.001, rng)),
            star: true,
        },
        4 => {
            // On the uncorrelated c5 and at 0.5–1 %, a full scan beats
            // the index even with exact feedback, so the form's cost
            // does not depend on which plans feedback flipped.
            let w = width(0.005, 0.01, rng);
            let lo = rng.gen_range((n - w).max(1) as u64) as i64;
            Stmt::Count {
                col: 4,
                pred: Pred::Between(lo, lo + w),
                star: false,
            }
        }
        _ => {
            let w = (20.0 + 180.0 * (stratum as f64 + rng.next_f64()) / per_form as f64) as i64;
            let lo = rng.gen_range((n - w).max(1) as u64) as i64;
            Stmt::Join {
                outer: Pred::Between(lo, lo + w),
                col,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_remainder_is_exact_and_proportional() {
        let zipf: Vec<f64> = (1..=60).map(|r| 1.0 / r as f64).collect();
        let q = largest_remainder(&zipf, 1_000);
        assert_eq!(q.iter().sum::<usize>(), 1_000);
        assert!(q.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(largest_remainder(&[1.0, 1.0, 2.0], 7), vec![2, 2, 3]);
    }

    #[test]
    fn interactive_schedule_writes_every_hundredth_op() {
        let spec = Spec::full(Workload::InteractiveSql, 20);
        let s = spec.schedule(5);
        assert_eq!(s.len(), spec.ops);
        assert!(s
            .iter()
            .enumerate()
            .all(|(i, op)| op.is_none() == (i % 100 == 99)));
        let mut a: Vec<usize> = s.iter().flatten().copied().collect();
        let mut b: Vec<usize> = spec.schedule(6).iter().flatten().copied().collect();
        assert_ne!(a, b, "order follows the seed");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the mix does not");
    }
}
