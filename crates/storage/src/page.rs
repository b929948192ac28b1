//! Slotted pages.
//!
//! Classic slotted-page layout: row payloads grow from the front of the
//! page, a slot directory of 2-byte offsets grows from the back. A page
//! is immutable once bulk-loaded (this engine, like the paper's
//! experiments, works over bulk-loaded read-mostly tables), which keeps
//! the layout free of tombstones and compaction.
//!
//! A page holds bytes only. The order keys a scan compares and each
//! page's zone (see [`ColumnZone`]) live in the table, one array per
//! column ([`crate::table`]).
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header | row0 | row1 | ...        free        ... | s1 | s0 |
//! +--------------------------------------------------------------+
//!   4 bytes                                    2-byte slot offsets
//! ```

use crate::codec;
use crate::fault::FaultKind;
use pf_common::{Datum, Error, Result, Row, Schema, SlotId};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default page size: 8 KB, matching SQL Server.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Bytes of page header — the four reserved bytes hold the CRC32 page
/// checksum once the page is [sealed](Page::seal).
const HEADER_SIZE: usize = 4;
/// Bytes per slot-directory entry.
const SLOT_SIZE: usize = 2;

/// CRC-32 (IEEE, reflected 0xEDB88320) lookup tables, built at compile
/// time. `CRC32_TABLES[0]` is the classic byte-at-a-time table; tables
/// 1..7 extend it for slice-by-8, which processes 8 input bytes per step
/// instead of 1. The computed checksum is identical — slicing only
/// reassociates the table lookups — but page verification is the hot
/// cost of every simulated disk read, so the ~6× throughput matters.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Folds `bytes` into a running (pre-inverted) CRC-32 state using
/// slice-by-8. Byte-serial semantics: feeding a stream in any sequence
/// of chunks yields the same state as one contiguous pass.
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Standard CRC-32 (the IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

/// The smallest and largest [order key](order_key) of one Int, Float
/// or Date column over the rows of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnZone {
    /// Smallest order key on the page.
    pub min: i64,
    /// Largest order key on the page.
    pub max: i64,
}

/// The integer whose signed order is [`f64::total_cmp`]'s order: the
/// sign bit kept, the other bits inverted for negative values (the
/// transform `total_cmp` itself compares by).
fn float_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The key a fixed-width value sorts by in a zone, `None` for `Str`.
/// Keys compare exactly as the values do: `Int` and `Date` as integers,
/// `Float` by `total_cmp` (so `-0.0 < 0.0` and NaNs sort by sign at the
/// ends).
pub fn order_key(value: &Datum) -> Option<i64> {
    match value {
        Datum::Int(v) => Some(*v),
        Datum::Float(v) => Some(float_order_key(*v)),
        Datum::Date(v) => Some(i64::from(*v)),
        Datum::Str(_) => None,
    }
}

/// A fixed-size slotted page holding encoded rows.
#[derive(Debug)]
pub struct Page {
    data: Box<[u8]>,
    slot_count: u16,
    free_start: usize,
    /// Memoized "body matches the sealed checksum" verdict. Sealed pages
    /// are immutable, so a successful verification stays valid for the
    /// life of the image; only successes are cached, so a damaged page
    /// always recomputes (and fails) on every checked read. Cleared by
    /// every mutator.
    verified: AtomicBool,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            data: self.data.clone(),
            slot_count: self.slot_count,
            free_start: self.free_start,
            verified: AtomicBool::new(self.verified.load(Ordering::Relaxed)),
        }
    }
}

impl Page {
    /// Creates an empty page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size > HEADER_SIZE + SLOT_SIZE,
            "page size too small: {page_size}"
        );
        assert!(
            page_size <= u16::MAX as usize,
            "page size exceeds u16 addressing"
        );
        Page {
            data: vec![0u8; page_size].into_boxed_slice(),
            slot_count: 0,
            free_start: HEADER_SIZE,
            verified: AtomicBool::new(false),
        }
    }

    /// Total size of the page in bytes.
    pub fn page_size(&self) -> usize {
        self.data.len()
    }

    /// Number of rows stored.
    pub fn slot_count(&self) -> u16 {
        self.slot_count
    }

    /// Bytes still available for one more row (payload + slot entry).
    pub fn free_space(&self) -> usize {
        let dir_start = self.data.len() - SLOT_SIZE * self.slot_count as usize;
        dir_start.saturating_sub(self.free_start)
    }

    /// Whether a row of `payload_bytes` fits.
    pub fn fits(&self, payload_bytes: usize) -> bool {
        self.free_space() >= payload_bytes + SLOT_SIZE
    }

    /// Appends a row; returns its slot, or an error if it does not fit.
    pub fn insert(&mut self, schema: &Schema, row: &Row) -> Result<SlotId> {
        self.verified.store(false, Ordering::Relaxed);
        let payload = codec::encoded_size(row);
        if !self.fits(payload) {
            return Err(Error::RowTooLarge {
                row_bytes: payload + SLOT_SIZE,
                page_capacity: self.free_space(),
            });
        }
        let mut buf = Vec::with_capacity(payload);
        codec::encode_row(schema, row, &mut buf)?;
        let offset = self.free_start;
        self.data[offset..offset + buf.len()].copy_from_slice(&buf);
        self.free_start += buf.len();

        let slot = self.slot_count;
        let dir_pos = self.data.len() - SLOT_SIZE * (slot as usize + 1);
        self.data[dir_pos..dir_pos + SLOT_SIZE].copy_from_slice(&(offset as u16).to_le_bytes());
        self.slot_count += 1;
        Ok(SlotId(slot))
    }

    /// Decodes the row in `slot` (owned path; see [`crate::view`] for the
    /// zero-copy equivalent).
    pub fn read(&self, schema: &Schema, slot: SlotId) -> Result<Row> {
        let (row, _) = codec::decode_row(schema, self.slot_bytes(slot)?)?;
        Ok(row)
    }

    /// The page bytes from `slot`'s payload offset to the end of the
    /// page (row encodings are self-delimiting), located directly via
    /// the slot directory.
    pub(crate) fn slot_bytes(&self, slot: SlotId) -> Result<&[u8]> {
        if slot.0 >= self.slot_count {
            return Err(Error::SlotOutOfBounds {
                slot: slot.0,
                slot_count: self.slot_count,
            });
        }
        let dir_pos = self.data.len() - SLOT_SIZE * (slot.0 as usize + 1);
        let offset = u16::from_le_bytes([self.data[dir_pos], self.data[dir_pos + 1]]) as usize;
        Ok(&self.data[offset..])
    }

    /// Read-only view of the raw page image (header, row payloads, free
    /// space, slot directory).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Decodes every row on the page, in slot order.
    pub fn read_all(&self, schema: &Schema) -> Result<Vec<Row>> {
        (0..self.slot_count)
            .map(|s| self.read(schema, SlotId(s)))
            .collect()
    }

    /// CRC32 over everything the checksum protects: the slot count plus
    /// the full page body (payload, free space, slot directory).
    fn compute_checksum(&self) -> u32 {
        let count = self.slot_count.to_le_bytes();
        let state = crc32_update(!0u32, &count);
        !crc32_update(state, &self.data[HEADER_SIZE..])
    }

    /// Writes the page checksum into the reserved header bytes. Called
    /// once per page at the end of bulk load and of every DML rewrite.
    pub fn seal(&mut self) {
        self.verified.store(false, Ordering::Relaxed);
        let c = self.compute_checksum();
        self.data[0..HEADER_SIZE].copy_from_slice(&c.to_le_bytes());
    }

    /// The checksum stored in the header at seal time.
    pub fn stored_checksum(&self) -> u32 {
        u32::from_le_bytes([self.data[0], self.data[1], self.data[2], self.data[3]])
    }

    /// Whether the page body still matches its sealed checksum.
    ///
    /// A passing verification is memoized: the simulator re-verifies on
    /// every buffer-pool miss (like a real pool verifying each physical
    /// read), but the page image is immutable once sealed, so recomputing
    /// the CRC per miss only re-proves the same fact. Failures are never
    /// cached — a damaged page recomputes (and fails) every time, keeping
    /// retry/skip/degraded behavior unchanged.
    pub fn checksum_ok(&self) -> bool {
        if self.verified.load(Ordering::Relaxed) {
            return true;
        }
        let ok = self.stored_checksum() == self.compute_checksum();
        if ok {
            self.verified.store(true, Ordering::Relaxed);
        }
        ok
    }

    /// Flips one bit of the page image (modulo the page size in bits).
    ///
    /// Public so fault-injection harnesses and property tests can model
    /// media bit rot; regular workloads never mutate a sealed page.
    pub fn flip_bit(&mut self, bit: u64) {
        self.verified.store(false, Ordering::Relaxed);
        let nbits = self.data.len() as u64 * 8;
        let pos = (bit % nbits) as usize;
        self.data[pos / 8] ^= 1 << (pos % 8);
    }

    /// Damages the page according to `kind`, placing the damage with
    /// `entropy`. The checksum header is left stale on purpose: the
    /// checked read path must discover the damage itself.
    pub(crate) fn inject_fault(&mut self, kind: FaultKind, entropy: u64) {
        self.verified.store(false, Ordering::Relaxed);
        let len = self.data.len();
        match kind {
            FaultKind::BitFlip => {
                // Only the body: flipping a header (checksum) bit is a
                // different failure (caught identically, less interesting).
                let body_bits = ((len - HEADER_SIZE) * 8) as u64;
                self.flip_bit(HEADER_SIZE as u64 * 8 + entropy % body_bits);
            }
            FaultKind::TruncatedPage => {
                // A short write: everything past the midpoint of the used
                // payload is lost (including the whole slot directory).
                let cut = HEADER_SIZE + (self.free_start - HEADER_SIZE) / 2;
                self.data[cut..].fill(0);
            }
            FaultKind::TornSlotDirectory => {
                // A torn sector under the slot directory.
                let dir_bytes = (SLOT_SIZE * self.slot_count.max(1) as usize).min(len);
                for b in &mut self.data[len - dir_bytes..] {
                    *b ^= 0x55;
                }
            }
            FaultKind::ReadStall => {} // latency, not damage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType, Datum};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Str),
        ])
    }

    fn row(id: i64, tag: &str) -> Row {
        Row::new(vec![Datum::Int(id), Datum::Str(tag.into())])
    }

    #[test]
    fn insert_and_read_back() {
        let s = schema();
        let mut p = Page::new(DEFAULT_PAGE_SIZE);
        let s0 = p.insert(&s, &row(1, "a")).unwrap();
        let s1 = p.insert(&s, &row(2, "bb")).unwrap();
        assert_eq!(s0, SlotId(0));
        assert_eq!(s1, SlotId(1));
        assert_eq!(p.read(&s, s0).unwrap(), row(1, "a"));
        assert_eq!(p.read(&s, s1).unwrap(), row(2, "bb"));
        assert_eq!(p.read_all(&s).unwrap().len(), 2);
    }

    #[test]
    fn read_bad_slot_errors() {
        let s = schema();
        let mut p = Page::new(256);
        p.insert(&s, &row(1, "a")).unwrap();
        assert!(matches!(
            p.read(&s, SlotId(5)),
            Err(Error::SlotOutOfBounds { .. })
        ));
    }

    #[test]
    fn page_fills_up_then_rejects() {
        let s = schema();
        let mut p = Page::new(128);
        let mut inserted = 0;
        loop {
            match p.insert(&s, &row(inserted, "xxxx")) {
                Ok(_) => inserted += 1,
                Err(Error::RowTooLarge { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(inserted > 0);
        // Everything written before the failure is still readable.
        assert_eq!(p.read_all(&s).unwrap().len(), inserted as usize);
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let s = schema();
        let mut p = Page::new(512);
        let mut prev = p.free_space();
        for i in 0..5 {
            p.insert(&s, &row(i, "tag")).unwrap();
            let now = p.free_space();
            assert!(now < prev);
            prev = now;
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The standard CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_page_verifies_and_any_bit_flip_is_caught() {
        let s = schema();
        let mut p = Page::new(512);
        for i in 0..8 {
            p.insert(&s, &row(i, "payload")).expect("row fits");
        }
        p.seal();
        assert!(p.checksum_ok());
        // Every single-bit flip across the whole image breaks the
        // checksum (CRC-32 detects all single-bit errors), including
        // flips inside the stored checksum itself.
        for bit in (0..512 * 8).step_by(37) {
            let mut damaged = p.clone();
            damaged.flip_bit(bit as u64);
            assert!(!damaged.checksum_ok(), "flip of bit {bit} undetected");
        }
    }

    #[test]
    fn injected_faults_break_the_checksum() {
        let s = schema();
        for kind in [
            FaultKind::BitFlip,
            FaultKind::TruncatedPage,
            FaultKind::TornSlotDirectory,
        ] {
            let mut p = Page::new(512);
            for i in 0..6 {
                p.insert(&s, &row(i, "abc")).expect("row fits");
            }
            p.seal();
            p.inject_fault(kind, 0xABCD_EF01_2345_6789);
            assert!(!p.checksum_ok(), "{kind} left the checksum valid");
        }
    }

    #[test]
    fn read_stall_fault_leaves_bytes_intact() {
        let s = schema();
        let mut p = Page::new(256);
        p.insert(&s, &row(1, "zz")).expect("row fits");
        p.seal();
        p.inject_fault(FaultKind::ReadStall, 42);
        assert!(p.checksum_ok(), "a stall must not damage the page");
    }

    /// Float specials in `total_cmp` order, negative NaN first.
    const FLOAT_ORDER: [f64; 9] = [
        -f64::NAN,
        f64::NEG_INFINITY,
        f64::MIN,
        -1.5,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NAN,
    ];

    #[test]
    fn float_order_key_sorts_like_total_cmp() {
        for a in FLOAT_ORDER {
            for b in FLOAT_ORDER {
                assert_eq!(
                    float_order_key(a).cmp(&float_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn rows_per_page_matches_arithmetic() {
        // 100-byte payload rows in an 8 KB page, like the paper's
        // synthetic table: expect floor((8192-4) / (100+2)) rows.
        let s = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let pad = "x".repeat(100 - 8 - 4); // total payload = 100 bytes
        let r = Row::new(vec![Datum::Int(0), Datum::Str(pad)]);
        assert_eq!(crate::codec::encoded_size(&r), 100);
        let mut p = Page::new(DEFAULT_PAGE_SIZE);
        let mut n = 0;
        while p.insert(&s, &r).is_ok() {
            n += 1;
        }
        assert_eq!(n, (DEFAULT_PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE));
    }
}
