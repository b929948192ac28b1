//! Bit-vector filters as *derived semi-join predicates* — Section IV, Fig 5.
//!
//! The Hash Join problem: the join predicate is evaluated in the
//! relational engine, where PIDs are invisible; the probe-side scan sees
//! PIDs but hasn't evaluated the join predicate yet. The fix: during the
//! build phase, hash each outer join-key into a bit vector; during the
//! probe-side *scan* (inside the storage engine), testing a row's key
//! against the vector approximates "would an INL join fetch this row's
//! page?". Pages with ≥1 bit-vector hit are exactly the pages an INL
//! join would touch — modulo hash collisions, which can only
//! **overestimate** (no false negatives), and the paper observes small
//! overestimation already at < 1 % of table size.

use pf_common::hash::{hash_datum, hash_datum_ref};
use pf_common::{Datum, DatumRef, Error, Result};

/// A Bloom-style single-hash bit vector over join-key values.
#[derive(Debug, Clone)]
pub struct BitVectorFilter {
    bits: Vec<u64>,
    numbits: u64,
    seed: u64,
    insertions: u64,
    degraded: bool,
    skipped_pages: u64,
}

impl BitVectorFilter {
    /// Creates a filter of `numbits` bits (rounded up to a multiple of
    /// 64, min 64), hashing with `seed`.
    pub fn new(numbits: usize, seed: u64) -> Self {
        let words = numbits.div_ceil(64).max(1);
        BitVectorFilter {
            bits: vec![0; words],
            numbits: (words * 64) as u64,
            seed,
            insertions: 0,
            degraded: false,
            skipped_pages: 0,
        }
    }

    /// Inserts a build-side join-key value (Fig 5, build phase).
    #[inline]
    pub fn insert(&mut self, key: &Datum) {
        let bit = hash_datum(key, self.seed) % self.numbits;
        self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        self.insertions += 1;
    }

    /// Inserts a *borrowed* build-side key — same bit as
    /// [`BitVectorFilter::insert`] on the owned value
    /// ([`hash_datum_ref`] is bit-identical to [`hash_datum`]).
    #[inline]
    pub fn insert_ref(&mut self, key: DatumRef<'_>) {
        let bit = hash_datum_ref(key, self.seed) % self.numbits;
        self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        self.insertions += 1;
    }

    /// Bulk-inserts a batch of borrowed build-side keys (one page's
    /// gathered join keys in the vectorized build), returning how many
    /// were inserted. The resulting bits, insertion count, and
    /// degradation state are identical to calling
    /// [`BitVectorFilter::insert_ref`] per key in order.
    pub fn insert_batch<'a, I>(&mut self, keys: I) -> u64
    where
        I: IntoIterator<Item = DatumRef<'a>>,
    {
        let mut n = 0;
        for key in keys {
            let bit = hash_datum_ref(key, self.seed) % self.numbits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            n += 1;
        }
        self.insertions += n;
        n
    }

    /// Tests a probe-side join-key value (the derived semi-join
    /// predicate). Never returns `false` for a key that was inserted.
    #[inline]
    pub fn may_contain(&self, key: &Datum) -> bool {
        self.may_contain_ref(DatumRef::from(key))
    }

    /// Tests a *borrowed* probe-side key, allocation-free; bit-identical
    /// to [`BitVectorFilter::may_contain`] on the owned value.
    #[inline]
    pub fn may_contain_ref(&self, key: DatumRef<'_>) -> bool {
        let bit = hash_datum_ref(key, self.seed) % self.numbits;
        self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
    }

    /// Unions `other` into `self` (bitwise OR), so per-worker filters
    /// built over a partitioned build side combine into the filter a
    /// serial build would have produced. Seeds and sizes must match.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.numbits != other.numbits || self.seed != other.seed {
            return Err(Error::InvalidArgument(format!(
                "cannot merge bit-vector filters: numbits {} vs {}, seed {} vs {}",
                self.numbits, other.numbits, self.seed, other.seed
            )));
        }
        crate::bitmap::or_into(&mut self.bits, &other.bits);
        self.insertions += other.insertions;
        self.degraded |= other.degraded;
        self.skipped_pages += other.skipped_pages;
        Ok(())
    }

    /// Records a build- or probe-side page the executor skipped: keys on
    /// it never reached the filter, so "no false negatives" no longer
    /// holds and downstream DPC estimates are degraded.
    pub fn note_skipped_page(&mut self) {
        self.degraded = true;
        self.skipped_pages += 1;
    }

    /// Whether skipped pages truncated the inserted key stream.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Number of pages skipped under this filter's watch.
    pub fn skipped_pages(&self) -> u64 {
        self.skipped_pages
    }

    /// Number of insert calls (not distinct keys).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Fraction of bits set — the collision (false-positive) probability
    /// for a random absent key.
    pub fn fill_ratio(&self) -> f64 {
        crate::bitmap::popcount(&self.bits) as f64 / self.numbits as f64
    }

    /// Size in bits.
    pub fn numbits(&self) -> u64 {
        self.numbits
    }
}

impl crate::sketch::Sketch for BitVectorFilter {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Datum {
        Datum::Int(v)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BitVectorFilter::new(256, 3);
        for v in 0..1_000 {
            f.insert(&int(v));
        }
        for v in 0..1_000 {
            assert!(f.may_contain(&int(v)), "false negative for {v}");
        }
    }

    #[test]
    fn absent_keys_mostly_rejected_when_sized_well() {
        // Two bits per expected distinct key.
        let mut f = BitVectorFilter::new(2_000, 5);
        for v in 0..1_000 {
            f.insert(&int(v));
        }
        let false_positives = (10_000..20_000).filter(|v| f.may_contain(&int(*v))).count();
        let rate = false_positives as f64 / 10_000.0;
        // Fill ratio ≈ 1 - e^(-1000/2048) ≈ 0.39; rate should track it.
        assert!(rate < 0.5, "false positive rate {rate}");
        assert!((f.fill_ratio() - rate).abs() < 0.05);
    }

    #[test]
    fn exact_when_bits_exceed_distinct_values_with_perfect_hash_room() {
        // Not guaranteed collision-free (single hash), but tiny build
        // sets in huge filters should have near-zero false positives.
        let mut f = BitVectorFilter::new(1 << 16, 1);
        for v in 0..10 {
            f.insert(&int(v));
        }
        let fp = (1_000..101_000).filter(|v| f.may_contain(&int(*v))).count();
        assert!(fp < 50, "unexpectedly many false positives: {fp}");
    }

    #[test]
    fn string_and_date_keys() {
        let mut f = BitVectorFilter::new(512, 2);
        f.insert(&Datum::Str("ca".into()));
        f.insert(&Datum::Date(12_345));
        assert!(f.may_contain(&Datum::Str("ca".into())));
        assert!(f.may_contain(&Datum::Date(12_345)));
    }

    #[test]
    fn borrowed_and_owned_keys_agree() {
        let mut f = BitVectorFilter::new(256, 11);
        f.insert_ref(DatumRef::Str("ca"));
        f.insert(&Datum::Int(7));
        for key in [Datum::Str("ca".into()), Datum::Int(7), Datum::Int(8)] {
            assert_eq!(f.may_contain(&key), f.may_contain_ref(DatumRef::from(&key)));
        }
        assert!(f.may_contain(&Datum::Str("ca".into())), "inserted via ref");
        assert!(f.may_contain_ref(DatumRef::Int(7)), "inserted via owned");
    }

    #[test]
    fn merge_unions_and_carries_degradation() {
        let mut a = BitVectorFilter::new(256, 3);
        let mut b = BitVectorFilter::new(256, 3);
        a.insert(&int(1));
        b.insert(&int(2));
        b.note_skipped_page();
        a.merge(&b).unwrap();
        assert!(a.may_contain(&int(1)) && a.may_contain(&int(2)));
        assert_eq!(a.insertions(), 2);
        assert!(a.is_degraded());
        assert_eq!(a.skipped_pages(), 1);
        // Mismatched parameters refuse to merge.
        let c = BitVectorFilter::new(512, 3);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn fill_ratio_monotone() {
        let mut f = BitVectorFilter::new(128, 9);
        let mut prev = f.fill_ratio();
        for v in 0..200 {
            f.insert(&int(v));
            let now = f.fill_ratio();
            assert!(now >= prev);
            prev = now;
        }
        assert!(prev <= 1.0);
    }

    #[test]
    fn size_accounting() {
        let f = BitVectorFilter::new(1000, 0);
        assert_eq!(f.numbits(), 1024);
        assert_eq!(f.bits.len() * 8, 128);
    }
}
