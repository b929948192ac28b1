//! Seeded table data, the answer oracle, and the statements the
//! workloads issue.
//!
//! Rows are generated here from the public `pf_workloads::perm`
//! functions rather than through `synthetic::build`, which fuses
//! generation and loading: generation must stay outside the timed
//! set-up.

use pf_common::{Datum, Row};
use pf_workloads::perm::{scatter_values, windowed_permutation};

/// The paper's synthetic table `T (c1..c5, pad)`: `c1` is the identity
/// clustering key, `c2` a copy of it, `c3` locally disordered, `c4`
/// locally disordered with 2 % of values relocated, `c5` a uniform
/// permutation. Same recipe as `pf_workloads::synthetic`.
pub fn synthetic_columns(n: usize, seed: u64) -> [Vec<i64>; 5] {
    let window = (n / 160).max(64);
    let c1: Vec<i64> = (0..n as i64).collect();
    let c3 = windowed_permutation(n, window, seed + 1);
    let mut c4 = windowed_permutation(n, window, seed + 2);
    scatter_values(&mut c4, 0.02, seed + 3);
    let mut c5 = c1.clone();
    scatter_values(&mut c5, 1.0, seed + 4);
    [c1.clone(), c1, c3, c4, c5]
}

/// One engine row from the five integer columns; `pad` brings a row to
/// ~100 bytes (~80 rows per 8 KB page), as in `pf_workloads::synthetic`.
pub fn engine_row(v: [i64; 5]) -> Row {
    let mut values: Vec<Datum> = v.iter().map(|&x| Datum::Int(x)).collect();
    values.push(Datum::Str("x".repeat(54)));
    Row::new(values)
}

/// Expected answers for one table: its rows ordered by `c1` (unique)
/// and a sorted copy of every column, kept in step with every write.
#[derive(Debug, Clone)]
pub struct TableOracle {
    rows: Vec<[i64; 5]>,
    sorted: [Vec<i64>; 5],
}

impl TableOracle {
    pub fn new(cols: &[Vec<i64>; 5]) -> Self {
        let mut rows: Vec<[i64; 5]> = (0..cols[0].len())
            .map(|i| [cols[0][i], cols[1][i], cols[2][i], cols[3][i], cols[4][i]])
            .collect();
        rows.sort_unstable_by_key(|r| r[0]);
        let sorted = cols.clone().map(|mut c| {
            c.sort_unstable();
            c
        });
        TableOracle { rows, sorted }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Rows with `lo <= c1 < hi`.
    fn rows_in_c1(&self, lo: i64, hi: i64) -> &[[i64; 5]] {
        let a = self.rows.partition_point(|r| r[0] < lo);
        let b = self.rows.partition_point(|r| r[0] < hi);
        &self.rows[a..b.max(a)]
    }

    /// Values of column `col` with `lo <= v < hi`.
    pub fn count_range(&self, col: usize, lo: i64, hi: i64) -> u64 {
        let s = &self.sorted[col];
        let a = s.partition_point(|&v| v < lo);
        let b = s.partition_point(|&v| v < hi);
        b.saturating_sub(a) as u64
    }

    /// The value at quantile `q` of column `col` (as
    /// `pf_workloads::queries::ColumnSampler::quantile`).
    pub fn quantile(&self, col: usize, q: f64) -> i64 {
        let s = &self.sorted[col];
        s[(q.clamp(0.0, 1.0) * (s.len() - 1) as f64) as usize]
    }

    /// The row at position `i` in `c1` order.
    pub fn row(&self, i: usize) -> [i64; 5] {
        self.rows[i]
    }

    /// Removes the row whose key is `c1`; returns it.
    pub fn delete(&mut self, c1: i64) -> Option<[i64; 5]> {
        let i = self.rows.binary_search_by_key(&c1, |r| r[0]).ok()?;
        let row = self.rows.remove(i);
        for (col, s) in self.sorted.iter_mut().enumerate() {
            let j = s.partition_point(|&v| v < row[col]);
            s.remove(j);
        }
        Some(row)
    }

    /// Adds a row whose key is not yet present.
    pub fn insert(&mut self, row: [i64; 5]) {
        let i = self.rows.partition_point(|r| r[0] < row[0]);
        self.rows.insert(i, row);
        for (col, s) in self.sorted.iter_mut().enumerate() {
            let j = s.partition_point(|&v| v < row[col]);
            s.insert(j, row[col]);
        }
    }
}

/// A predicate on one integer column: `lo <= c < hi`, with either side
/// open. `Eq` renders as `=`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pred {
    Lt(i64),
    Eq(i64),
    Between(i64, i64),
}

impl Pred {
    fn bounds(self) -> (i64, i64) {
        match self {
            Pred::Lt(v) => (i64::MIN, v),
            Pred::Eq(v) => (v, v + 1),
            Pred::Between(lo, hi) => (lo, hi),
        }
    }

    fn sql(self, column: &str) -> String {
        match self {
            Pred::Lt(v) => format!("{column} < {v}"),
            Pred::Eq(v) => format!("{column} = {v}"),
            Pred::Between(lo, hi) => format!("{column} >= {lo} AND {column} < {hi}"),
        }
    }
}

/// Column names, indexed like the oracle's columns.
pub const COLUMNS: [&str; 5] = ["c1", "c2", "c3", "c4", "c5"];

/// One statement of a workload's pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `SELECT COUNT(pad | *) FROM T WHERE <pred on col>`. `COUNT(*)`
    /// may be answered index-only; `COUNT(pad)` must fetch base rows.
    Count { col: usize, pred: Pred, star: bool },
    /// `SELECT COUNT(*) FROM T1, T WHERE <pred on T1.c1> AND
    /// T1.col = T.col` — `T1` drives, `T` is probed.
    Join { outer: Pred, col: usize },
}

impl Stmt {
    pub fn sql(&self) -> String {
        match self {
            Stmt::Count { col, pred, star } => format!(
                "SELECT COUNT({}) FROM T WHERE {}",
                if *star { "*" } else { "pad" },
                pred.sql(COLUMNS[*col])
            ),
            Stmt::Join { outer, col } => format!(
                "SELECT COUNT(*) FROM T1, T WHERE {} AND T1.{c} = T.{c}",
                outer.sql("T1.c1"),
                c = COLUMNS[*col]
            ),
        }
    }

    /// The answer, computed by binary search over the oracles.
    pub fn expected(&self, t: &TableOracle, t1: Option<&TableOracle>) -> u64 {
        match self {
            Stmt::Count { col, pred, .. } => {
                let (lo, hi) = pred.bounds();
                t.count_range(*col, lo, hi)
            }
            Stmt::Join { outer, col } => {
                let (lo, hi) = outer.bounds();
                let t1 = t1.expect("join statements need T1");
                t1.rows_in_c1(lo, hi)
                    .iter()
                    .map(|r| t.count_range(*col, r[*col], r[*col] + 1))
                    .sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(n: usize, seed: u64) -> TableOracle {
        TableOracle::new(&synthetic_columns(n, seed))
    }

    fn brute(cols: &[[i64; 5]], col: usize, lo: i64, hi: i64) -> u64 {
        cols.iter().filter(|r| lo <= r[col] && r[col] < hi).count() as u64
    }

    #[test]
    fn columns_are_permutations_of_the_key() {
        for c in synthetic_columns(5_000, 3) {
            let mut s = c.clone();
            s.sort_unstable();
            assert_eq!(s, (0..5_000).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn oracle_counts_match_brute_force_across_writes() {
        let mut o = oracle(2_000, 7);
        o.delete(17).expect("key 17 exists");
        o.insert([5_000, 5_000, 3, 3, 3]);
        let rows: Vec<[i64; 5]> = (0..o.len()).map(|i| o.row(i)).collect();
        for col in 0..5 {
            for (lo, hi) in [(0, 10), (3, 4), (i64::MIN, 100), (1_990, 6_000)] {
                assert_eq!(o.count_range(col, lo, hi), brute(&rows, col, lo, hi));
            }
        }
        assert!(o.delete(17).is_none());
    }

    #[test]
    fn join_answer_counts_inner_multiplicities() {
        let t1 = oracle(1_000, 1);
        let mut t = oracle(1_000, 2);
        let probe = t1.row(5)[3];
        t.insert([9_999, 9_999, 0, probe, 0]);
        let stmt = Stmt::Join {
            outer: Pred::Lt(10),
            col: 3,
        };
        // Every outer key matches once, and the duplicated one twice.
        assert_eq!(stmt.expected(&t, Some(&t1)), 11);
        assert_eq!(
            stmt.sql(),
            "SELECT COUNT(*) FROM T1, T WHERE T1.c1 < 10 AND T1.c4 = T.c4"
        );
    }
}
