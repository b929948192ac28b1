//! Radix-partitioned open-addressing build table for hash joins.
//!
//! Keys are hashed once with the seeded [`hash_datum_ref`], the hash
//! routes the entry to a partition (high bits) and to a slot inside the
//! partition's open-addressing directory (low bits), and build rows are
//! chained off their entry in insertion order.
//!
//! **Key equality.** A probe key matches a stored key on full-hash
//! agreement *and* `Datum` equality, under which floats are equal
//! exactly when their bits are: `NaN` matches `NaN`, and `-0.0` and
//! `0.0` never match each other — the same keys an INL join's B+-tree
//! seek matches.
//!
//! In count mode no rows are stored, only per-key multiplicities: build
//! morsels each fill a table, `RadixTable::merge` adds them up, and
//! the table is `Sync` so probe morsels share one reference.

use pf_common::hash::hash_datum_ref;
use pf_common::{Datum, DatumRef, Row};

/// A no-row sentinel for chain heads in count mode.
const NIL: u32 = u32::MAX;

/// Partition count for an expected number of build rows: one partition
/// per ~4k keys, clamped to `[1, 256]` (always a power of two). The
/// layout is invisible in results and charges.
pub fn join_partitions(est_build_rows: f64) -> usize {
    let target = (est_build_rows.max(0.0) / 4096.0).ceil() as usize;
    target.clamp(1, 256).next_power_of_two()
}

#[derive(Debug)]
struct Entry {
    /// Full 64-bit key hash; compared before the key itself so probes
    /// touch `Datum`s only on hash agreement.
    hash: u64,
    key: Datum,
    /// Number of build rows with this key.
    count: u64,
    /// First/last index into the shared row-chain arrays (`NIL` in
    /// count mode).
    head: u32,
    tail: u32,
}

#[derive(Debug, Default)]
struct Partition {
    /// Open-addressing directory: `entry_index + 1`, `0` = empty.
    slots: Vec<u32>,
    entries: Vec<Entry>,
}

impl Partition {
    /// The index of the entry holding `key` (full hash `h`), or the
    /// empty directory slot a new entry for it belongs in. Grows the
    /// directory first when it is 7/8 full.
    fn locate(&mut self, h: u64, key: DatumRef<'_>) -> Result<usize, usize> {
        if self.entries.len() * 8 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut s = (h as usize) & mask;
        loop {
            match self.slots[s] {
                0 => return Err(s),
                e => {
                    let entry = &self.entries[(e - 1) as usize];
                    if entry.hash == h && DatumRef::from(&entry.key) == key {
                        return Ok((e - 1) as usize);
                    }
                    s = (s + 1) & mask;
                }
            }
        }
    }

    /// Stores a new entry at the empty directory slot `slot`.
    fn push(&mut self, slot: usize, entry: Entry) {
        self.entries.push(entry);
        self.slots[slot] = self.entries.len() as u32;
    }

    /// Doubles the slot directory and reinserts entry indices by their
    /// stored hashes.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(cap, 0);
        let mask = cap - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let mut s = (e.hash as usize) & mask;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = (i + 1) as u32;
        }
    }
}

/// The seeded, radix-partitioned build side of a hash join.
#[derive(Debug)]
pub struct RadixTable {
    seed: u64,
    /// `partitions.len() - 1`; partition of hash `h` is
    /// `(h >> 32) & part_mask`, disjoint from the low slot bits.
    part_mask: u64,
    parts: Vec<Partition>,
    /// Row storage shared across partitions; `next[i]` chains rows of
    /// one key in insertion order.
    rows: Vec<Row>,
    next: Vec<u32>,
    distinct: usize,
}

impl RadixTable {
    /// An empty table with `partitions` partitions (rounded up to a
    /// power of two) hashing with `seed`.
    pub fn new(partitions: usize, seed: u64) -> Self {
        let n = partitions.clamp(1, 256).next_power_of_two();
        RadixTable {
            seed,
            part_mask: (n - 1) as u64,
            parts: (0..n).map(|_| Partition::default()).collect(),
            rows: Vec::new(),
            next: Vec::new(),
            distinct: 0,
        }
    }

    /// Number of distinct keys stored.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Total number of inserted build rows.
    pub fn total_rows(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.entries.iter().map(|e| e.count).sum::<u64>())
            .sum()
    }

    /// Inserts one build key, optionally chaining its materialized row
    /// (row mode). The key is cloned to an owned `Datum` only on its
    /// first occurrence.
    pub fn insert(&mut self, key: DatumRef<'_>, row: Option<Row>) {
        let h = hash_datum_ref(key, self.seed);
        let row_idx = match row {
            Some(r) => {
                let i = self.rows.len() as u32;
                self.rows.push(r);
                self.next.push(NIL);
                i
            }
            None => NIL,
        };
        let part = &mut self.parts[((h >> 32) & self.part_mask) as usize];
        match part.locate(h, key) {
            Ok(e) => {
                let entry = &mut part.entries[e];
                entry.count += 1;
                if row_idx != NIL {
                    if entry.tail == NIL {
                        entry.head = row_idx;
                    } else {
                        self.next[entry.tail as usize] = row_idx;
                    }
                    entry.tail = row_idx;
                }
            }
            Err(slot) => {
                part.push(
                    slot,
                    Entry {
                        hash: h,
                        key: key.to_datum(),
                        count: 1,
                        head: row_idx,
                        tail: row_idx,
                    },
                );
                self.distinct += 1;
            }
        }
    }

    /// Folds `other` — a count-mode table with the same seed and
    /// partition count, such as another build morsel's — into this one:
    /// each key's multiplicity adds, so merging the build morsels of a
    /// partitioned build side in any order yields the serial counts.
    pub(crate) fn merge(&mut self, other: RadixTable) {
        assert!(
            self.seed == other.seed && self.part_mask == other.part_mask,
            "build tables of one join share their seed and partition count"
        );
        for entry in other.parts.into_iter().flat_map(|p| p.entries) {
            let part = &mut self.parts[((entry.hash >> 32) & self.part_mask) as usize];
            match part.locate(entry.hash, DatumRef::from(&entry.key)) {
                Ok(e) => part.entries[e].count += entry.count,
                Err(slot) => {
                    part.push(
                        slot,
                        Entry {
                            head: NIL,
                            tail: NIL,
                            ..entry
                        },
                    );
                    self.distinct += 1;
                }
            }
        }
    }

    fn find(&self, key: DatumRef<'_>) -> Option<&Entry> {
        let h = hash_datum_ref(key, self.seed);
        let part = &self.parts[((h >> 32) & self.part_mask) as usize];
        if part.slots.is_empty() {
            return None;
        }
        let mask = part.slots.len() - 1;
        let mut s = (h as usize) & mask;
        loop {
            match part.slots[s] {
                0 => return None,
                e => {
                    let entry = &part.entries[(e - 1) as usize];
                    if entry.hash == h && DatumRef::from(&entry.key) == key {
                        return Some(entry);
                    }
                    s = (s + 1) & mask;
                }
            }
        }
    }

    /// Number of build rows matching `key` (0 when absent).
    pub fn matches(&self, key: DatumRef<'_>) -> u64 {
        self.find(key).map_or(0, |e| e.count)
    }

    /// The build rows matching `key`, in insertion order (row mode).
    pub fn rows_for(&self, key: DatumRef<'_>) -> RowChain<'_> {
        RowChain {
            table: self,
            cursor: self.find(key).map_or(NIL, |e| e.head),
        }
    }
}

/// Iterator over one key's chained build rows in insertion order.
pub struct RowChain<'a> {
    table: &'a RadixTable,
    cursor: u32,
}

impl<'a> Iterator for RowChain<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        if self.cursor == NIL {
            return None;
        }
        let i = self.cursor as usize;
        self.cursor = self.table.next[i];
        Some(&self.table.rows[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicities_match_hashmap_semantics() {
        let mut t = RadixTable::new(4, 0xABCD);
        for i in 0..1_000i64 {
            let d = Datum::Int(i % 37);
            t.insert(DatumRef::from(&d), None);
        }
        assert_eq!(t.distinct_keys(), 37);
        assert_eq!(t.total_rows(), 1_000);
        // 1000 = 27·37 + 1 rows over 37 keys: key 0 gets 28, the rest 27.
        let k0 = Datum::Int(0);
        assert_eq!(t.matches(DatumRef::from(&k0)), 28);
        let k5 = Datum::Int(5);
        assert_eq!(t.matches(DatumRef::from(&k5)), 27);
        let missing = Datum::Int(99);
        assert_eq!(t.matches(DatumRef::from(&missing)), 0);
    }

    #[test]
    fn nan_keys_match_by_bits() {
        // Floats compare by bits, so both NaN build rows share one
        // entry and a NaN probe finds them.
        let mut t = RadixTable::new(1, 7);
        let nan = Datum::Float(f64::NAN);
        t.insert(DatumRef::from(&nan), None);
        t.insert(DatumRef::from(&nan), None);
        assert_eq!(t.distinct_keys(), 1, "NaN keys share an entry");
        assert_eq!(t.matches(DatumRef::from(&nan)), 2, "NaN probes match");
    }

    #[test]
    fn merge_adds_multiplicities() {
        let keys = |range: std::ops::Range<i64>| {
            let mut t = RadixTable::new(4, 11);
            for i in range {
                let d = Datum::Int(i % 50);
                t.insert(DatumRef::from(&d), None);
            }
            t
        };
        let serial = keys(0..300);
        let mut merged = keys(0..120);
        merged.merge(keys(120..210));
        merged.merge(keys(210..300));
        assert_eq!(merged.distinct_keys(), serial.distinct_keys());
        assert_eq!(merged.total_rows(), serial.total_rows());
        for k in -5..55i64 {
            let d = Datum::Int(k);
            assert_eq!(
                merged.matches(DatumRef::from(&d)),
                serial.matches(DatumRef::from(&d)),
                "key {k}"
            );
        }
    }

    #[test]
    fn signed_zero_hashes_apart() {
        let mut t = RadixTable::new(1, 7);
        let neg = Datum::Float(-0.0);
        t.insert(DatumRef::from(&neg), None);
        let pos = Datum::Float(0.0);
        // Different bits: different hashes, and unequal keys.
        assert_eq!(t.matches(DatumRef::from(&pos)), 0);
        assert_eq!(t.matches(DatumRef::from(&neg)), 1);
    }

    #[test]
    fn row_chains_preserve_insertion_order() {
        let mut t = RadixTable::new(2, 3);
        let k = Datum::Int(1);
        for i in 0..5i64 {
            t.insert(
                DatumRef::from(&k),
                Some(Row::new(vec![Datum::Int(1), Datum::Int(i)])),
            );
        }
        let tags: Vec<i64> = t
            .rows_for(DatumRef::from(&k))
            .map(|r| r.get(1).as_int().expect("int column"))
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn growth_keeps_all_entries_reachable() {
        let mut t = RadixTable::new(1, 99);
        for i in 0..10_000i64 {
            let d = Datum::Int(i);
            t.insert(DatumRef::from(&d), None);
        }
        assert_eq!(t.distinct_keys(), 10_000);
        for i in (0..10_000i64).step_by(97) {
            let d = Datum::Int(i);
            assert_eq!(t.matches(DatumRef::from(&d)), 1, "key {i}");
        }
    }
}
