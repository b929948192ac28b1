//! Equi-depth histograms over numeric columns.
//!
//! The selectivity substrate: the paper's methodology *injects accurate
//! cardinalities* to isolate the page-count effect, but the optimizer
//! still needs a realistic default estimator — and the histogram is also
//! what a DPC histogram (Section VI's future work) would extend.

use pf_common::Datum;
use std::cmp::Ordering;

/// One equi-depth bucket over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Smallest value in the bucket.
    pub lo: f64,
    /// Largest value in the bucket.
    pub hi: f64,
    /// Rows in the bucket.
    pub count: u64,
    /// Distinct values in the bucket.
    pub distinct: u64,
}

/// An equi-depth histogram over a numeric column
/// (`Int`/`Float`/`Date` via [`Datum::numeric`]).
///
/// Values, bucket bounds and literals are all compared by
/// [`f64::total_cmp`] — the order `Datum` sorts floats by — so `NaN`
/// (sorted last) and `±0.0` land in buckets like any other value and
/// every selectivity stays finite.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    buckets: Vec<Bucket>,
    total: u64,
}

impl EquiDepthHistogram {
    /// Builds a histogram with (up to) `num_buckets` buckets from the
    /// column's values (any order; sorted internally).
    pub fn build(mut values: Vec<f64>, num_buckets: usize) -> Self {
        values.sort_by(f64::total_cmp);
        Self::from_sorted(&values, num_buckets)
    }

    /// [`EquiDepthHistogram::build`] over values already sorted by
    /// [`f64::total_cmp`].
    pub(crate) fn from_sorted(values: &[f64], num_buckets: usize) -> Self {
        let total = values.len() as u64;
        if values.is_empty() {
            return EquiDepthHistogram {
                buckets: Vec::new(),
                total: 0,
            };
        }
        let num_buckets = num_buckets.max(1).min(values.len());
        let per = values.len().div_ceil(num_buckets);
        let mut buckets = Vec::with_capacity(num_buckets);
        let mut i = 0;
        while i < values.len() {
            let end = (i + per).min(values.len());
            let slice = &values[i..end];
            let mut distinct = 1u64;
            for w in slice.windows(2) {
                if w[0].total_cmp(&w[1]) != Ordering::Equal {
                    distinct += 1;
                }
            }
            buckets.push(Bucket {
                lo: slice[0],
                hi: slice[end - i - 1],
                count: slice.len() as u64,
                distinct,
            });
            i = end;
        }
        EquiDepthHistogram { buckets, total }
    }

    /// Total rows the histogram describes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Estimated number of rows with `value < x` (strict), by linear
    /// interpolation within the straddling bucket.
    pub fn rows_below(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for b in &self.buckets {
            if x.total_cmp(&b.lo) != Ordering::Greater {
                break;
            }
            if x.total_cmp(&b.hi) == Ordering::Greater {
                acc += b.count as f64;
            } else {
                let width = b.hi - b.lo;
                // Interpolate only across a finite width; a point bucket,
                // or one bounded by an infinity or NaN, is straddled at
                // half by convention.
                let frac = if width.is_finite() && width > 0.0 {
                    (x - b.lo) / width
                } else {
                    0.5
                };
                acc += b.count as f64 * frac;
                break;
            }
        }
        acc
    }

    /// Estimated number of rows with `value = x` (bucket count spread
    /// over its distinct values).
    pub fn rows_equal(&self, x: f64) -> f64 {
        // A heavy hitter can span several buckets; sum each straddling
        // bucket's per-distinct-value share.
        self.buckets
            .iter()
            .filter(|b| {
                x.total_cmp(&b.lo) != Ordering::Less && x.total_cmp(&b.hi) != Ordering::Greater
            })
            .map(|b| b.count as f64 / b.distinct.max(1) as f64)
            .sum()
    }

    /// Estimated selectivity of `column <op> x` in `[0, 1]`.
    pub fn selectivity(&self, op: crate::plan::HistOp, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let t = self.total as f64;
        let below = self.rows_below(x);
        let eq = self.rows_equal(x);
        let rows = match op {
            crate::plan::HistOp::Eq => eq,
            crate::plan::HistOp::Lt => below,
            crate::plan::HistOp::Le => below + eq,
            crate::plan::HistOp::Gt => t - below - eq,
            crate::plan::HistOp::Ge => t - below,
            crate::plan::HistOp::Ne => t - eq,
        };
        (rows / t).clamp(0.0, 1.0)
    }
}

/// Extracts the numeric view of a datum column, skipping strings.
pub fn numeric_column(values: &[Datum]) -> Vec<f64> {
    values.iter().filter_map(Datum::numeric).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::HistOp;

    fn uniform(n: u64) -> EquiDepthHistogram {
        EquiDepthHistogram::build((0..n).map(|i| i as f64).collect(), 50)
    }

    #[test]
    fn empty_histogram() {
        let h = EquiDepthHistogram::build(vec![], 10);
        assert_eq!(h.total(), 0);
        assert_eq!(h.selectivity(HistOp::Lt, 5.0), 0.0);
    }

    #[test]
    fn uniform_range_selectivity() {
        let h = uniform(10_000);
        for (x, expect) in [(1_000.0, 0.1), (5_000.0, 0.5), (9_999.0, 0.9999)] {
            let s = h.selectivity(HistOp::Lt, x);
            assert!((s - expect).abs() < 0.02, "Lt {x}: {s} vs {expect}");
        }
        assert_eq!(h.selectivity(HistOp::Lt, -5.0), 0.0);
        assert!((h.selectivity(HistOp::Lt, 1e9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_selectivity_uses_distinct() {
        let h = uniform(1_000);
        let s = h.selectivity(HistOp::Eq, 500.0);
        assert!((s - 0.001).abs() < 0.001, "{s}");
    }

    #[test]
    fn complementary_ops() {
        let h = uniform(1_000);
        let x = 250.0;
        let lt = h.selectivity(HistOp::Lt, x);
        let ge = h.selectivity(HistOp::Ge, x);
        assert!((lt + ge - 1.0).abs() < 1e-9);
        let le = h.selectivity(HistOp::Le, x);
        let gt = h.selectivity(HistOp::Gt, x);
        assert!((le + gt - 1.0).abs() < 1e-9);
    }

    /// A column with 5 % NaN (sorted into the last bucket): every op
    /// stays a finite selectivity in [0, 1] for every literal, NaN and
    /// the infinities included, and the complementary identities hold.
    #[test]
    fn nan_column_selectivities_are_finite_and_complementary() {
        let vals: Vec<f64> = (0..1_000)
            .map(|i| {
                if i % 20 == 0 {
                    f64::NAN
                } else {
                    (i % 100) as f64
                }
            })
            .collect();
        let h = EquiDepthHistogram::build(vals, 50);
        for x in [f64::NAN, f64::NEG_INFINITY, -0.0, 0.0, 49.0, f64::INFINITY] {
            let sel = |op| h.selectivity(op, x);
            for op in [
                HistOp::Eq,
                HistOp::Lt,
                HistOp::Le,
                HistOp::Gt,
                HistOp::Ge,
                HistOp::Ne,
            ] {
                let s = sel(op);
                assert!((0.0..=1.0).contains(&s), "{op:?} {x}: {s}");
            }
            assert!(
                (sel(HistOp::Lt) + sel(HistOp::Ge) - 1.0).abs() < 1e-9,
                "{x}"
            );
            assert!(
                (sel(HistOp::Le) + sel(HistOp::Gt) - 1.0).abs() < 1e-9,
                "{x}"
            );
        }
        assert!((h.selectivity(HistOp::Eq, f64::NAN) - 0.05).abs() < 1e-9);
        assert!((h.selectivity(HistOp::Lt, f64::NAN) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn skewed_data_tracked_by_equi_depth() {
        // 90% of values are 0, the rest uniform 1..=100.
        let mut vals = vec![0.0; 9_000];
        vals.extend((0..1_000).map(|i| 1.0 + (i % 100) as f64));
        let h = EquiDepthHistogram::build(vals, 50);
        let s0 = h.selectivity(HistOp::Eq, 0.0);
        assert!(s0 > 0.5, "heavy hitter underestimated: {s0}");
        let s_tail = h.selectivity(HistOp::Gt, 0.0);
        assert!((s_tail - 0.1).abs() < 0.05, "{s_tail}");
    }

    #[test]
    fn duplicate_only_column() {
        let h = EquiDepthHistogram::build(vec![7.0; 500], 10);
        assert!((h.selectivity(HistOp::Eq, 7.0) - 1.0).abs() < 1e-9);
        assert_eq!(h.selectivity(HistOp::Eq, 8.0), 0.0);
        assert_eq!(h.selectivity(HistOp::Lt, 7.0), 0.0);
    }
}
