//! The buffer pool: logical vs physical I/O, sequential vs random reads.
//!
//! Section II-A of the paper: *"Each distinct page involves a new logical
//! I/O and if the page is not already present in the buffer pool, it can
//! result in a physical I/O (a random access to disk)."* This module
//! makes those words operational. Every page access goes through
//! [`BufferPool::access`]; a resident page costs a logical read only,
//! a miss additionally costs a physical read whose flavour (sequential
//! for scans, random for fetches) the caller declares.
//!
//! Experiments run cold-cache ([`BufferPool::clear`]) per the paper's
//! methodology, but the pool still dedupes *within* a query — which is
//! precisely why the number of **distinct** pages, not the number of
//! fetched rows, drives index-plan cost.

use crate::lru::PageLru;
use pf_common::{PageId, TableId};

/// How a physical read reaches the disk arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Next page of a scan — amortized by read-ahead.
    Sequential,
    /// An individual page fetch (index lookup) — a disk seek.
    Random,
}

/// Counters accumulated during execution; input to [`crate::DiskModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page accesses that found the page resident or not (every access).
    pub logical_reads: u64,
    /// Misses served with a sequential physical read.
    pub seq_physical_reads: u64,
    /// Misses served with a random physical read (disk seeks).
    pub rand_physical_reads: u64,
    /// Index (B+-tree) node traversals, charged separately because index
    /// pages are small, hot, and read-mostly.
    pub index_node_reads: u64,
    /// Rows materialized / examined by operators.
    pub rows_processed: u64,
    /// Hash computations (join build/probe, monitor PID hashes).
    pub hash_ops: u64,
    /// Predicate conjunct evaluations *beyond* what short-circuiting
    /// would have run — the monitoring overhead of Fig 9.
    pub extra_pred_evals: u64,
    /// Predicate conjunct evaluations performed by normal execution.
    pub pred_evals: u64,
    /// Per-row bookkeeping operations performed by attached DPC monitors
    /// (flag checks/updates — the "single comparison per row" of
    /// Section III-B). Much cheaper than a hash.
    pub monitor_ops: u64,
    /// Pages skipped by the executor because their checksum failed on
    /// read — the graceful-degradation path. A nonzero count marks every
    /// sketch harvested from the query as degraded.
    pub pages_skipped: u64,
}

impl IoStats {
    /// Total physical page reads.
    pub fn physical_reads(&self) -> u64 {
        self.seq_physical_reads + self.rand_physical_reads
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &IoStats) {
        self.logical_reads += other.logical_reads;
        self.seq_physical_reads += other.seq_physical_reads;
        self.rand_physical_reads += other.rand_physical_reads;
        self.index_node_reads += other.index_node_reads;
        self.rows_processed += other.rows_processed;
        self.hash_ops += other.hash_ops;
        self.extra_pred_evals += other.extra_pred_evals;
        self.pred_evals += other.pred_evals;
        self.monitor_ops += other.monitor_ops;
        self.pages_skipped += other.pages_skipped;
    }
}

/// One physical read: the page that missed and how the read reached
/// the disk.
pub type PageMiss = (TableId, PageId, AccessPattern);

/// Reassembles the counters of one serial pool from morsels that each
/// ran a contiguous piece of the serial access stream against their own
/// cold pool, given in stream order.
///
/// A morsel misses every page on its first touch, while the serial pool
/// misses a page only on its first touch in the whole stream. So the
/// serial counters are the summed counters minus every miss on a page
/// that an earlier morsel already missed, taken from the counter of that
/// miss's access pattern. Exact only when the serial pool never evicts
/// (the pages the stream touches fit in the pool), which callers must
/// gate on.
pub fn merge_morsel_stats<'a>(
    morsels: impl IntoIterator<Item = (&'a IoStats, &'a [PageMiss])>,
) -> IoStats {
    let mut total = IoStats::default();
    // One bitmap of already-missed pages per table (queries touch one
    // or two).
    let mut missed: Vec<(TableId, Vec<u64>)> = Vec::new();
    for (stats, misses) in morsels {
        total.add(stats);
        for &(table, page, pattern) in misses {
            let (word, bit) = missed_bit(&mut missed, table, page);
            if *word & bit != 0 {
                match pattern {
                    AccessPattern::Sequential => total.seq_physical_reads -= 1,
                    AccessPattern::Random => total.rand_physical_reads -= 1,
                }
            }
        }
        for &(table, page, _) in misses {
            let (word, bit) = missed_bit(&mut missed, table, page);
            *word |= bit;
        }
    }
    total
}

/// The bitmap word and bit of `(table, page)` in per-table bitmaps,
/// growing them as needed.
fn missed_bit(
    missed: &mut Vec<(TableId, Vec<u64>)>,
    table: TableId,
    page: PageId,
) -> (&mut u64, u64) {
    let t = match missed.iter().position(|(t, _)| *t == table) {
        Some(t) => t,
        None => {
            missed.push((table, Vec::new()));
            missed.len() - 1
        }
    };
    let bits = &mut missed[t].1;
    let word = page.0 as usize / 64;
    if bits.len() <= word {
        bits.resize(word + 1, 0);
    }
    (&mut bits[word], 1u64 << (page.0 % 64))
}

/// An LRU buffer pool over `(table, page)` keys.
///
/// Residency is found by index, not by hash: each table's pages map to
/// their LRU slots through an array indexed by page id (see
/// [`PageLru`]). The pool tracks residency only — page *bytes* live in
/// [`crate::TableStorage`]; what matters for the experiments is the I/O
/// accounting, which this type owns together with the CPU counters (they
/// share [`IoStats`] so one object travels through the executor).
#[derive(Debug)]
pub struct BufferPool {
    frames: PageLru,
    stats: IoStats,
    /// Every physical read since the last [`BufferPool::clear`], in
    /// access order.
    misses: Vec<PageMiss>,
}

impl BufferPool {
    /// A pool with room for `capacity_pages` pages.
    pub fn new(capacity_pages: usize) -> Self {
        BufferPool {
            frames: PageLru::new(capacity_pages),
            stats: IoStats::default(),
            misses: Vec::new(),
        }
    }

    /// Declares an access to `page` of `table`; returns `true` on a hit.
    ///
    /// Accounting: always one logical read; on a miss, one physical read
    /// of the declared [`AccessPattern`].
    pub fn access(&mut self, table: TableId, page: PageId, pattern: AccessPattern) -> bool {
        self.stats.logical_reads += 1;
        let (hit, _evicted) = self.frames.touch((table, page));
        // Branch-free on the (dominant) resident case: a hit adds 0 to
        // the chosen physical-read counter instead of taking a branch the
        // predictor must learn per access pattern.
        let miss = u64::from(!hit);
        let counter = match pattern {
            AccessPattern::Sequential => &mut self.stats.seq_physical_reads,
            AccessPattern::Random => &mut self.stats.rand_physical_reads,
        };
        *counter += miss;
        if !hit {
            self.misses.push((table, page, pattern));
        }
        hit
    }

    /// The physical reads since the last [`BufferPool::clear`], in
    /// access order — one morsel's input to [`merge_morsel_stats`].
    pub fn misses(&self) -> &[PageMiss] {
        &self.misses
    }

    /// Charges `n` B+-tree node reads.
    pub fn charge_index_nodes(&mut self, n: u64) {
        self.stats.index_node_reads += n;
    }

    /// Charges processing of `n` rows.
    pub fn charge_rows(&mut self, n: u64) {
        self.stats.rows_processed += n;
    }

    /// Charges `n` hash computations.
    pub fn charge_hashes(&mut self, n: u64) {
        self.stats.hash_ops += n;
    }

    /// Charges `n` predicate evaluations done by normal execution.
    pub fn charge_pred_evals(&mut self, n: u64) {
        self.stats.pred_evals += n;
    }

    /// Charges `n` predicate evaluations that only monitoring required
    /// (short-circuiting turned off on sampled pages).
    pub fn charge_extra_pred_evals(&mut self, n: u64) {
        self.stats.extra_pred_evals += n;
    }

    /// Charges `n` per-row monitor bookkeeping operations.
    pub fn charge_monitor_ops(&mut self, n: u64) {
        self.stats.monitor_ops += n;
    }

    /// Records a page skipped for failing its checksum, and evicts it:
    /// a corrupt page must not sit in the pool where a later access
    /// would hit it and bypass verification.
    pub fn skip_corrupt(&mut self, table: TableId, page: PageId) {
        self.stats.pages_skipped += 1;
        self.frames.remove((table, page));
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets counters but keeps page residency (warm cache, fresh stats).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Evicts everything and resets counters — the paper's cold cache.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.stats = IoStats::default();
        self.misses.clear();
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.frames.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    #[test]
    fn hit_then_miss_accounting() {
        let mut bp = BufferPool::new(16);
        assert!(!bp.access(T, PageId(0), AccessPattern::Random));
        assert!(bp.access(T, PageId(0), AccessPattern::Random));
        let s = bp.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.rand_physical_reads, 1);
        assert_eq!(s.seq_physical_reads, 0);
    }

    #[test]
    fn sequential_vs_random_counted_separately() {
        let mut bp = BufferPool::new(16);
        bp.access(T, PageId(0), AccessPattern::Sequential);
        bp.access(T, PageId(1), AccessPattern::Random);
        let s = bp.stats();
        assert_eq!(s.seq_physical_reads, 1);
        assert_eq!(s.rand_physical_reads, 1);
    }

    #[test]
    fn distinct_pages_drive_physical_io() {
        // 100 fetches of rows spread over 10 pages ⇒ 10 physical reads.
        let mut bp = BufferPool::new(64);
        for i in 0..100u32 {
            bp.access(T, PageId(i % 10), AccessPattern::Random);
        }
        let s = bp.stats();
        assert_eq!(s.logical_reads, 100);
        assert_eq!(s.rand_physical_reads, 10);
    }

    #[test]
    fn eviction_causes_refetch() {
        let mut bp = BufferPool::new(2);
        bp.access(T, PageId(0), AccessPattern::Random);
        bp.access(T, PageId(1), AccessPattern::Random);
        bp.access(T, PageId(2), AccessPattern::Random); // evicts p0
        assert!(!bp.access(T, PageId(0), AccessPattern::Random));
        assert_eq!(bp.stats().rand_physical_reads, 4);
    }

    #[test]
    fn tables_do_not_collide() {
        let mut bp = BufferPool::new(16);
        bp.access(TableId(1), PageId(0), AccessPattern::Random);
        assert!(!bp.access(TableId(2), PageId(0), AccessPattern::Random));
    }

    #[test]
    fn clear_is_cold_cache() {
        let mut bp = BufferPool::new(16);
        bp.access(T, PageId(0), AccessPattern::Random);
        bp.clear();
        assert_eq!(bp.resident_pages(), 0);
        assert_eq!(bp.stats(), IoStats::default());
        assert!(!bp.access(T, PageId(0), AccessPattern::Random));
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let mut bp = BufferPool::new(16);
        bp.access(T, PageId(0), AccessPattern::Random);
        bp.reset_stats();
        assert!(
            bp.access(T, PageId(0), AccessPattern::Random),
            "page stayed warm"
        );
        assert_eq!(bp.stats().rand_physical_reads, 0);
    }

    /// Runs `stream` through one pool, and through one cold pool per
    /// `cuts`-delimited piece merged with [`merge_morsel_stats`]: the two
    /// must agree counter for counter.
    fn assert_morsels_replay_serial(stream: &[(u32, AccessPattern)], cuts: &[usize]) {
        let access = |bp: &mut BufferPool, &(page, pattern): &(u32, AccessPattern)| {
            bp.access(T, PageId(page), pattern);
        };
        let mut serial = BufferPool::new(64);
        stream.iter().for_each(|a| access(&mut serial, a));
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(stream.len());
        let morsels: Vec<(IoStats, Vec<PageMiss>)> = bounds
            .windows(2)
            .map(|w| {
                let mut bp = BufferPool::new(64);
                stream[w[0]..w[1]].iter().for_each(|a| access(&mut bp, a));
                (bp.stats(), bp.misses().to_vec())
            })
            .collect();
        let merged = merge_morsel_stats(morsels.iter().map(|(s, m)| (s, m.as_slice())));
        assert_eq!(merged, serial.stats(), "cuts {cuts:?}");
    }

    #[test]
    fn morsel_misses_merge_to_one_serial_pool() {
        use AccessPattern::{Random as R, Sequential as S};
        // Split fetch runs: pages recur across runs.
        let fetch = [
            (0, R),
            (1, R),
            (2, R),
            (1, R),
            (3, R),
            (0, R),
            (2, R),
            (4, R),
        ];
        for cuts in [&[3][..], &[3, 5], &[1, 2, 7]] {
            assert_morsels_replay_serial(&fetch, cuts);
        }
        // A hash self-join: a build scan over pages 0..4, then a probe
        // scan over the same pages (serially all hits), each phase split
        // into morsels.
        let self_join: Vec<(u32, AccessPattern)> = (0..4).chain(0..4).map(|p| (p, S)).collect();
        for cuts in [&[2, 4, 6][..], &[4], &[1, 5]] {
            assert_morsels_replay_serial(&self_join, cuts);
        }
        // An INL self-join: scanning page 0 fetches page 2 ahead of the
        // scan, whose sequential read of page 2 is then a serial hit;
        // scanning page 3 fetches page 1 behind it.
        let inl = [(0, S), (2, R), (1, S), (2, S), (3, S), (1, R), (0, R)];
        for cuts in [&[2][..], &[2, 3], &[3, 4], &[1, 2, 3, 4]] {
            assert_morsels_replay_serial(&inl, cuts);
        }
        // The same page id of two tables is two pages.
        let one_miss = IoStats {
            logical_reads: 1,
            seq_physical_reads: 1,
            ..Default::default()
        };
        let (a, b) = ([(T, PageId(0), S)], [(TableId(2), PageId(0), S)]);
        let merged = merge_morsel_stats([(&one_miss, &a[..]), (&one_miss, &b[..])]);
        assert_eq!(merged.seq_physical_reads, 2);
    }

    #[test]
    fn stats_add() {
        let mut a = IoStats {
            logical_reads: 1,
            rows_processed: 2,
            ..Default::default()
        };
        let b = IoStats {
            logical_reads: 3,
            hash_ops: 4,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.logical_reads, 4);
        assert_eq!(a.rows_processed, 2);
        assert_eq!(a.hash_ops, 4);
    }
}
