//! Zero-copy row views over page bytes.
//!
//! The owned decode path ([`crate::codec::decode_row`]) allocates a
//! `Vec<Datum>` per row and a `String` per `Str` column — ruinous on the
//! scan hot path, where predicates reject most rows and the decoded
//! values are discarded immediately. This module provides the borrowed
//! alternative the executor scans with:
//!
//! * [`RowLayout`] — a schema-compiled decode plan: every column before
//!   the first `Str` has its byte offset precomputed once per table, so
//!   accessing it is a direct load; only columns at or after the first
//!   variable-width column need a cursor walk.
//! * [`RowView`] — a borrowed row: a byte slice into the page plus the
//!   layout. [`RowView::get`] yields [`DatumRef`]s without allocating;
//!   [`RowView::materialize`] produces an owned [`Row`] **bit-identical**
//!   to what `decode_row` returns (guaranteed by property tests).
//! * [`PageCursor`] — iterates a page's slots as `RowView`s, seeking
//!   each slot directly through the slot directory.
//!
//! A view is validated once at construction (`RowLayout::validate`):
//! bounds and UTF-8 are checked with exactly the same acceptance as the
//! owned decoder, so `get`/`materialize` cannot fail afterwards.

use crate::page::Page;
use pf_common::{DataType, Datum, DatumAccess, DatumRef, Error, Result, Row, Schema, SlotId};

/// Per-column decode metadata.
#[derive(Debug, Clone, Copy)]
struct ColInfo {
    ty: DataType,
    /// Precomputed byte offset from row start; valid only for columns in
    /// the fixed prefix (before the first `Str`).
    offset: usize,
}

/// A schema-compiled decode plan for one table's rows.
///
/// Compiled once per table at bulk-load; shared by every page cursor and
/// row view of that table.
#[derive(Debug, Clone)]
pub struct RowLayout {
    cols: Vec<ColInfo>,
    /// Number of leading columns whose offsets are precomputed (all
    /// columns strictly before the first variable-width column).
    fixed_prefix: usize,
    /// Byte offset where the variable-width tail begins (== encoded row
    /// size when the schema has no `Str` columns).
    prefix_bytes: usize,
}

/// Encoded width of a fixed-size column.
#[inline]
fn fixed_width(ty: DataType) -> usize {
    match ty {
        DataType::Int | DataType::Float => 8,
        DataType::Date => 4,
        DataType::Str => unreachable!("Str is variable-width"),
    }
}

impl RowLayout {
    /// Compiles the layout for `schema`.
    pub fn new(schema: &Schema) -> Self {
        let mut cols = Vec::with_capacity(schema.arity());
        let mut offset = 0usize;
        let mut fixed_prefix = schema.arity();
        for (i, c) in schema.columns().iter().enumerate() {
            cols.push(ColInfo { ty: c.ty, offset });
            if c.ty == DataType::Str {
                if fixed_prefix == schema.arity() {
                    fixed_prefix = i;
                }
            } else if fixed_prefix == schema.arity() {
                offset += fixed_width(c.ty);
            }
        }
        RowLayout {
            cols,
            fixed_prefix,
            prefix_bytes: offset,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Validates one encoded row at the start of `bytes`, with the same
    /// acceptance as [`crate::codec::decode_row`]: every fixed field in
    /// bounds, every string length in bounds and valid UTF-8. Returns
    /// the encoded row size.
    pub fn validate(&self, bytes: &[u8]) -> Result<usize> {
        let mut pos = self.prefix_bytes;
        if self.fixed_prefix == self.cols.len() {
            // Fully fixed-width row: one bounds check covers everything.
            if pos > bytes.len() {
                return Err(Error::SchemaMismatch("row truncated on page".into()));
            }
            return Ok(pos);
        }
        if pos > bytes.len() {
            return Err(Error::SchemaMismatch("row truncated on page".into()));
        }
        for col in &self.cols[self.fixed_prefix..] {
            match col.ty {
                DataType::Str => {
                    // Errors are constructed lazily: this runs once per
                    // row on the scan hot path, and `ok_or` would build
                    // (allocate) the message even when validation passes.
                    let Some(raw) = bytes.get(pos..pos + 4) else {
                        return Err(Error::SchemaMismatch("row truncated on page".into()));
                    };
                    let len = u32::from_le_bytes(raw.try_into().expect("4-byte slice")) as usize;
                    pos += 4;
                    let end = match pos.checked_add(len) {
                        Some(e) if e <= bytes.len() => e,
                        _ => {
                            return Err(Error::SchemaMismatch(
                                "string extends past page slot".into(),
                            ))
                        }
                    };
                    std::str::from_utf8(&bytes[pos..end]).map_err(|_| {
                        Error::SchemaMismatch("invalid utf-8 in stored string".into())
                    })?;
                    pos = end;
                }
                ty => {
                    let w = fixed_width(ty);
                    if pos + w > bytes.len() {
                        return Err(Error::SchemaMismatch("row truncated on page".into()));
                    }
                    pos += w;
                }
            }
        }
        Ok(pos)
    }

    /// Decodes column `idx` from a *validated* row encoding.
    #[inline]
    fn datum_at<'a>(&self, bytes: &'a [u8], idx: usize) -> DatumRef<'a> {
        let col = self.cols[idx];
        let pos = if idx < self.fixed_prefix {
            col.offset
        } else {
            self.walk_to(bytes, idx)
        };
        match col.ty {
            DataType::Int => DatumRef::Int(i64::from_le_bytes(
                bytes[pos..pos + 8].try_into().expect("validated"),
            )),
            DataType::Float => DatumRef::Float(f64::from_bits(u64::from_le_bytes(
                bytes[pos..pos + 8].try_into().expect("validated"),
            ))),
            DataType::Date => DatumRef::Date(i32::from_le_bytes(
                bytes[pos..pos + 4].try_into().expect("validated"),
            )),
            DataType::Str => {
                let len =
                    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("validated")) as usize;
                let start = pos + 4;
                debug_assert!(std::str::from_utf8(&bytes[start..start + len]).is_ok());
                // SAFETY-free fast path: re-check is cheap relative to
                // the owned decode and keeps this module `unsafe`-free.
                DatumRef::Str(
                    std::str::from_utf8(&bytes[start..start + len])
                        .expect("validated at view construction"),
                )
            }
        }
    }

    /// Walks the variable tail from its start to column `idx`'s offset.
    #[inline]
    fn walk_to(&self, bytes: &[u8], idx: usize) -> usize {
        let mut pos = self.prefix_bytes;
        for col in &self.cols[self.fixed_prefix..idx] {
            pos += match col.ty {
                DataType::Str => {
                    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("validated"))
                        as usize;
                    4 + len
                }
                ty => fixed_width(ty),
            };
        }
        pos
    }
}

/// A borrowed, validated row: page bytes + the table's [`RowLayout`].
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    bytes: &'a [u8],
    layout: &'a RowLayout,
}

impl<'a> RowView<'a> {
    /// Builds a view over the row encoded at the start of `bytes`,
    /// validating bounds and UTF-8 once (same acceptance as the owned
    /// decoder).
    pub fn new(layout: &'a RowLayout, bytes: &'a [u8]) -> Result<Self> {
        layout.validate(bytes)?;
        Ok(RowView { bytes, layout })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.layout.arity()
    }

    /// The value at column ordinal `idx`, borrowed — no allocation.
    #[inline]
    pub fn get(&self, idx: usize) -> DatumRef<'a> {
        self.layout.datum_at(self.bytes, idx)
    }

    /// Materializes an owned [`Row`], bit-identical to
    /// [`crate::codec::decode_row`] on the same bytes.
    pub fn materialize(&self) -> Row {
        let mut values = Vec::with_capacity(self.layout.arity());
        self.walk(|_, d| values.push(d.to_datum()));
        Row::new(values)
    }

    /// Overwrites `row` with this row's values — the same values
    /// [`RowView::materialize`] returns — reusing `row`'s vector and
    /// every `String` that lands on a `Str` column again, whatever the
    /// arity and types `row` held before. A loop that decodes many rows
    /// into one `Row` allocates only when a string outgrows its buffer.
    pub fn materialize_into(&self, row: &mut Row) {
        let values = &mut row.values;
        values.truncate(self.layout.arity());
        self.walk(|c, d| match (values.get_mut(c), d) {
            (Some(Datum::Str(buf)), DatumRef::Str(s)) => {
                buf.clear();
                buf.push_str(s);
            }
            (Some(slot), d) => *slot = d.to_datum(),
            (None, d) => values.push(d.to_datum()),
        });
    }

    /// Hands `f` every column's value in ordinal order, in one walk over
    /// the encoding.
    #[inline]
    fn walk(&self, mut f: impl FnMut(usize, DatumRef<'a>)) {
        let bytes = self.bytes;
        let mut pos = 0usize;
        for (c, col) in self.layout.cols.iter().enumerate() {
            let d = match col.ty {
                DataType::Int => {
                    pos += 8;
                    DatumRef::Int(i64::from_le_bytes(
                        bytes[pos - 8..pos].try_into().expect("validated"),
                    ))
                }
                DataType::Float => {
                    pos += 8;
                    DatumRef::Float(f64::from_bits(u64::from_le_bytes(
                        bytes[pos - 8..pos].try_into().expect("validated"),
                    )))
                }
                DataType::Date => {
                    pos += 4;
                    DatumRef::Date(i32::from_le_bytes(
                        bytes[pos - 4..pos].try_into().expect("validated"),
                    ))
                }
                DataType::Str => {
                    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("validated"))
                        as usize;
                    pos += 4 + len;
                    DatumRef::Str(
                        std::str::from_utf8(&bytes[pos - len..pos])
                            .expect("validated at view construction"),
                    )
                }
            };
            f(c, d);
        }
    }
}

impl DatumAccess for RowView<'_> {
    fn datum_ref(&self, idx: usize) -> DatumRef<'_> {
        self.get(idx)
    }
}

/// Iterates a page's slots as [`RowView`]s, in slot order, seeking each
/// slot directly through the slot directory. Yields `Err` for a slot
/// whose encoding fails validation (corrupt page), matching the owned
/// reader's behavior.
pub struct PageCursor<'a> {
    page: &'a Page,
    layout: &'a RowLayout,
    slot: u16,
}

impl<'a> PageCursor<'a> {
    /// Rows remaining.
    pub fn remaining(&self) -> u16 {
        self.page.slot_count() - self.slot
    }
}

impl<'a> Iterator for PageCursor<'a> {
    type Item = Result<RowView<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.slot >= self.page.slot_count() {
            return None;
        }
        let slot = SlotId(self.slot);
        self.slot += 1;
        Some(
            self.page
                .slot_bytes(slot)
                .and_then(|bytes| RowView::new(self.layout, bytes)),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.remaining());
        (n, Some(n))
    }
}

impl Page {
    /// A borrowed view of the row in `slot` (zero-copy counterpart of
    /// [`Page::read`]), landing on the slot directly via the slot
    /// directory.
    pub fn view<'a>(&'a self, layout: &'a RowLayout, slot: SlotId) -> Result<RowView<'a>> {
        RowView::new(layout, self.slot_bytes(slot)?)
    }

    /// A cursor over all rows on this page as borrowed views.
    pub fn cursor<'a>(&'a self, layout: &'a RowLayout) -> PageCursor<'a> {
        PageCursor {
            page: self,
            layout,
            slot: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use pf_common::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("price", DataType::Float),
            Column::new("ship", DataType::Date),
            Column::new("state", DataType::Str),
            Column::new("qty", DataType::Int),
            Column::new("note", DataType::Str),
        ])
    }

    fn row() -> Row {
        Row::new(vec![
            Datum::Int(-42),
            Datum::Float(3.25),
            Datum::Date(13_000),
            Datum::Str("CA".into()),
            Datum::Int(7),
            Datum::Str(String::new()),
        ])
    }

    fn encode(s: &Schema, r: &Row) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::encode_row(s, r, &mut buf).unwrap();
        buf
    }

    #[test]
    fn layout_precomputes_fixed_prefix() {
        let l = RowLayout::new(&schema());
        assert_eq!(l.arity(), 6);
        assert_eq!(l.fixed_prefix, 3, "columns before the first Str");
        assert_eq!(l.prefix_bytes, 8 + 8 + 4);
    }

    #[test]
    fn view_gets_match_owned_decode() {
        let s = schema();
        let r = row();
        let buf = encode(&s, &r);
        let l = RowLayout::new(&s);
        let v = RowView::new(&l, &buf).unwrap();
        assert_eq!(v.get(0), DatumRef::Int(-42));
        assert_eq!(v.get(1), DatumRef::Float(3.25));
        assert_eq!(v.get(2), DatumRef::Date(13_000));
        assert_eq!(v.get(3), DatumRef::Str("CA"));
        assert_eq!(v.get(4), DatumRef::Int(7), "fixed column after a Str");
        assert_eq!(v.get(5), DatumRef::Str(""));
        assert_eq!(v.materialize(), r);
    }

    #[test]
    fn validate_matches_decode_acceptance_on_truncation() {
        let s = schema();
        let buf = encode(&s, &row());
        let l = RowLayout::new(&s);
        for cut in 0..buf.len() {
            assert!(
                RowView::new(&l, &buf[..cut]).is_err(),
                "cut at {cut} accepted"
            );
            assert!(codec::decode_row(&s, &buf[..cut]).is_err());
        }
        assert!(RowView::new(&l, &buf).is_ok());
    }

    #[test]
    fn validate_rejects_overlong_string_and_bad_utf8() {
        let s = Schema::new(vec![Column::new("s", DataType::Str)]);
        let l = RowLayout::new(&s);
        let mut overlong = 1000u32.to_le_bytes().to_vec();
        overlong.extend_from_slice(b"ab");
        assert!(RowView::new(&l, &overlong).is_err());

        let mut bad = 2u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(RowView::new(&l, &bad).is_err());
        assert!(codec::decode_row(&s, &bad).is_err());
    }

    #[test]
    fn nan_float_survives_view_materialization_bitwise() {
        let s = Schema::new(vec![Column::new("f", DataType::Float)]);
        let r = Row::new(vec![Datum::Float(f64::from_bits(0x7FF8_DEAD_BEEF_0001))]);
        let buf = encode(&s, &r);
        let l = RowLayout::new(&s);
        let v = RowView::new(&l, &buf).unwrap();
        match (v.get(0), v.materialize().get(0)) {
            (DatumRef::Float(a), Datum::Float(b)) => {
                assert_eq!(a.to_bits(), 0x7FF8_DEAD_BEEF_0001);
                assert_eq!(b.to_bits(), 0x7FF8_DEAD_BEEF_0001);
            }
            other => panic!("expected floats, got {other:?}"),
        }
    }

    #[test]
    fn cursor_iterates_all_slots_in_order() {
        let s = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("tag", DataType::Str),
        ]);
        let l = RowLayout::new(&s);
        let mut p = Page::new(512);
        let mut n = 0i64;
        while p
            .insert(
                &s,
                &Row::new(vec![Datum::Int(n), Datum::Str(format!("t{n}"))]),
            )
            .is_ok()
        {
            n += 1;
        }
        assert!(n > 2);
        let cursor = p.cursor(&l);
        assert_eq!(cursor.remaining(), n as u16);
        for (i, v) in cursor.enumerate() {
            let v = v.unwrap();
            assert_eq!(v.get(0), DatumRef::Int(i as i64));
            assert_eq!(v.get(1), DatumRef::Str(&format!("t{i}")));
        }
    }

    #[test]
    fn fixed_only_schema_validates_with_single_bounds_check() {
        let s = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("d", DataType::Date),
        ]);
        let l = RowLayout::new(&s);
        let buf = encode(&s, &Row::new(vec![Datum::Int(1), Datum::Date(2)]));
        assert_eq!(l.validate(&buf).unwrap(), 12);
        assert!(l.validate(&buf[..11]).is_err());
    }
}
