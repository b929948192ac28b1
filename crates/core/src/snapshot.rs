//! Database snapshots: save/load the full database to a single file.
//!
//! A compact, versioned binary format so a tuned database — tables in
//! their physical (clustering) order, index definitions — can be saved
//! once and reopened instantly by tools, tests, and the CLI. Rows are
//! stored with the same schema-directed codec as the page layer; indexes
//! and statistics are rebuilt at load (they are derived state).
//!
//! ```text
//! "PAGEFEED\x01"                       magic + version
//! u32 table_count
//!   per table: name, clustering col?, page_size, fill_factor,
//!              schema (name + type tag per column),
//!              u64 row_count, rows (codec-encoded, physical order)
//! u32 index_count
//!   per index: name, table name, column name
//! ```
//!
//! The hint set is *not* persisted: it describes measurements of this
//! process's workload, and the paper's mechanisms re-derive them cheaply
//! from execution. Page zones are rebuilt with the pages, and the
//! zone-estimate switch is a setting of the opening process.

use crate::db::Database;
use pf_common::{Column, DataType, Datum, Error, PageId, Result, Row, Schema};
use pf_storage::codec;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 9] = b"PAGEFEED\x01";

fn io_err(e: std::io::Error) -> Error {
    Error::InvalidArgument(format!("snapshot I/O: {e}"))
}

fn write_str(w: &mut impl Write, s: &str) -> Result<()> {
    let len = u32::try_from(s.len())
        .map_err(|_| Error::InvalidArgument("string too long for snapshot".into()))?;
    w.write_all(&len.to_le_bytes()).map_err(io_err)?;
    w.write_all(s.as_bytes()).map_err(io_err)
}

fn read_exact(r: &mut impl Read, n: usize) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(buf)
}

/// Reads exactly `N` bytes as a fixed array — the typed-error form of
/// `read_exact(..).try_into().expect(..)`: a short read is an I/O error,
/// a length mismatch an internal invariant violation, never a panic.
fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(buf)
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

fn read_str(r: &mut impl Read) -> Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(Error::InvalidArgument(
            "snapshot string length implausible — corrupt file?".into(),
        ));
    }
    String::from_utf8(read_exact(r, len)?)
        .map_err(|_| Error::InvalidArgument("snapshot string is not UTF-8".into()))
}

fn type_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    }
}

fn tag_type(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Date,
        other => {
            return Err(Error::InvalidArgument(format!(
                "unknown column type tag {other} — corrupt snapshot?"
            )))
        }
    })
}

impl Database {
    /// Writes every table and index definition to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = std::fs::File::create(path).map_err(io_err)?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC).map_err(io_err)?;

        let tables = self.catalog().tables();
        w.write_all(&(tables.len() as u32).to_le_bytes())
            .map_err(io_err)?;
        for t in tables {
            write_str(&mut w, &t.name)?;
            match t.storage.clustering_column() {
                Some(c) => {
                    w.write_all(&[1]).map_err(io_err)?;
                    w.write_all(&(c as u16).to_le_bytes()).map_err(io_err)?;
                }
                None => w.write_all(&[0, 0, 0]).map_err(io_err)?,
            }
            w.write_all(&(t.storage.page_size() as u32).to_le_bytes())
                .map_err(io_err)?;
            w.write_all(&t.storage.fill_factor().to_le_bytes())
                .map_err(io_err)?;

            let schema = t.schema();
            w.write_all(&(schema.arity() as u16).to_le_bytes())
                .map_err(io_err)?;
            for col in schema.columns() {
                write_str(&mut w, &col.name)?;
                w.write_all(&[type_tag(col.ty)]).map_err(io_err)?;
            }

            w.write_all(&t.stats.rows.to_le_bytes()).map_err(io_err)?;
            let mut buf = Vec::new();
            for p in 0..t.stats.pages {
                for row in t.storage.rows_on_page(PageId(p))? {
                    buf.clear();
                    codec::encode_row(schema, &row, &mut buf)?;
                    w.write_all(&buf).map_err(io_err)?;
                }
            }
        }

        let indexes = self.catalog().indexes();
        w.write_all(&(indexes.len() as u32).to_le_bytes())
            .map_err(io_err)?;
        for ix in indexes {
            let table = self.catalog().table(ix.table)?;
            write_str(&mut w, &ix.name)?;
            write_str(&mut w, &table.name)?;
            write_str(&mut w, &table.schema().column(ix.key_column).name)?;
        }
        w.flush().map_err(io_err)
    }

    /// Loads a database saved by [`Database::save`]; statistics are
    /// rebuilt (`analyze`) so the result is immediately optimizable.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        let file = std::fs::File::open(path).map_err(io_err)?;
        let mut r = BufReader::new(file);
        let magic = read_exact(&mut r, MAGIC.len())?;
        if magic != *MAGIC {
            return Err(Error::InvalidArgument(
                "not a pagefeed snapshot (bad magic/version)".into(),
            ));
        }

        let mut db = Database::new();
        let table_count = read_u32(&mut r)?;
        for _ in 0..table_count {
            let name = read_str(&mut r)?;
            let has_clustering = read_exact(&mut r, 1)?[0] != 0;
            let clustering = u16::from_le_bytes(read_array(&mut r)?) as usize;
            let page_size = read_u32(&mut r)? as usize;
            let fill = f64::from_le_bytes(read_array(&mut r)?);

            let arity = u16::from_le_bytes(read_array(&mut r)?);
            let mut cols = Vec::with_capacity(usize::from(arity));
            for _ in 0..arity {
                let cname = read_str(&mut r)?;
                let tag = read_exact(&mut r, 1)?[0];
                cols.push(Column::new(cname, tag_type(tag)?));
            }
            let schema = Schema::new(cols);

            let row_count = read_u64(&mut r)?;
            // Cap the pre-allocation: a corrupt count must not OOM before
            // the (inevitable) short read surfaces as an error.
            let mut rows = Vec::with_capacity(row_count.min(1 << 20) as usize);
            for _ in 0..row_count {
                rows.push(read_row(&mut r, &schema)?);
            }

            if has_clustering && clustering >= schema.arity() {
                return Err(Error::InvalidArgument(format!(
                    "snapshot clustering column {clustering} out of range — corrupt file?"
                )));
            }
            let clustering_name = has_clustering.then(|| schema.column(clustering).name.clone());
            let mut builder = pf_storage::TableBuilder::new(&name, schema)
                .rows(rows)
                .page_size(page_size);
            builder = builder.fill_factor(fill);
            if let Some(c) = &clustering_name {
                builder = builder.clustered_on(c);
            }
            db.create_table_with(builder)?;
        }

        let index_count = read_u32(&mut r)?;
        for _ in 0..index_count {
            let name = read_str(&mut r)?;
            let table = read_str(&mut r)?;
            let column = read_str(&mut r)?;
            db.create_index(&name, &table, &column)?;
        }
        db.analyze()?;
        Ok(db)
    }
}

/// Decodes one codec-encoded row from a stream, using the schema to know
/// each field's width.
fn read_row(r: &mut impl Read, schema: &Schema) -> Result<Row> {
    let mut values = Vec::with_capacity(schema.arity());
    for col in schema.columns() {
        let v = match col.ty {
            DataType::Int => Datum::Int(i64::from_le_bytes(read_array(r)?)),
            DataType::Float => Datum::Float(f64::from_bits(u64::from_le_bytes(read_array(r)?))),
            DataType::Date => Datum::Date(i32::from_le_bytes(read_array(r)?)),
            DataType::Str => {
                let len = read_u32(r)? as usize;
                if len > 1 << 24 {
                    return Err(Error::InvalidArgument(
                        "snapshot row string implausibly long — corrupt file?".into(),
                    ));
                }
                let bytes = read_exact(r, len)?;
                Datum::Str(String::from_utf8(bytes).map_err(|_| {
                    Error::InvalidArgument("snapshot row string is not UTF-8".into())
                })?)
            }
        };
        values.push(v);
    }
    Ok(Row::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::MonitorConfig;
    use crate::query::{PredSpec, Query};
    use pf_exec::CompareOp;

    fn demo_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("d", DataType::Date),
            Column::new("s", DataType::Str),
            Column::new("f", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..5_000)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Date((i / 40) as i32),
                    Datum::Str(format!("tag{}", i % 7)),
                    Datum::Float(i as f64 / 3.0),
                ])
            })
            .collect();
        db.create_table("events", schema, rows, Some("id")).unwrap();
        db.create_index("ix_d", "events", "d").unwrap();
        db.create_index("ix_s", "events", "s").unwrap();
        db.analyze().unwrap();
        db
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pagefeed-snap-{name}-{}", std::process::id()))
    }

    #[test]
    fn save_open_round_trip() {
        let db = demo_db();
        let path = tmp("roundtrip");
        db.save(&path).unwrap();
        let reopened = Database::open(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Shapes match.
        let a = db.catalog().table_by_name("events").unwrap();
        let b = reopened.catalog().table_by_name("events").unwrap();
        assert_eq!(a.stats.rows, b.stats.rows);
        assert_eq!(a.stats.pages, b.stats.pages);
        assert_eq!(a.schema(), b.schema());
        assert_eq!(reopened.catalog().indexes().len(), 2);

        // Every row survives byte-identically (physical order preserved).
        for p in 0..a.stats.pages {
            assert_eq!(
                a.storage.rows_on_page(PageId(p)).unwrap(),
                b.storage.rows_on_page(PageId(p)).unwrap(),
                "page {p}"
            );
        }

        // And the reopened database answers queries identically.
        let q = Query::count(
            "events",
            vec![PredSpec::new("d", CompareOp::Lt, Datum::Date(20))],
        );
        let x = db.run(&q, &MonitorConfig::default()).unwrap();
        let y = reopened.run(&q, &MonitorConfig::default()).unwrap();
        assert_eq!(x.count, y.count);
        assert_eq!(x.stats, y.stats);
        assert_eq!(x.report, y.report);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let err = match Database::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("garbage accepted as a snapshot"),
        };
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn open_rejects_truncation() {
        let db = demo_db();
        let path = tmp("trunc");
        db.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let result = Database::open(&path);
        std::fs::remove_file(&path).ok();
        assert!(result.is_err());
    }

    /// Byte-level fuzz: flipping any single byte (or truncating at any
    /// point) of a valid snapshot must yield `Err` or a well-formed
    /// database — never a panic, never an OOM from a corrupt length.
    #[test]
    fn open_survives_byte_corruption() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("f", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Str(format!("r{i}")),
                    Datum::Float(i as f64),
                ])
            })
            .collect();
        db.create_table("t", schema, rows, Some("id")).unwrap();
        let path = tmp("fuzz");
        db.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Deterministic LCG so failures reproduce without a rand dep.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };

        for trial in 0..200 {
            let mut bytes = pristine.clone();
            if trial % 4 == 0 {
                bytes.truncate(next(bytes.len()));
            } else {
                let at = next(bytes.len());
                bytes[at] ^= 1 << next(8);
            }
            std::fs::write(&path, &bytes).unwrap();
            // Ok (corruption hit a don't-care byte) and Err are both
            // acceptable; reaching the next iteration proves no panic.
            let _ = Database::open(&path);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_tables_round_trip() {
        let mut db = Database::new();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        // Deliberately unsorted heap.
        let rows: Vec<Row> = [5i64, 1, 9, 3]
            .iter()
            .map(|v| Row::new(vec![Datum::Int(*v)]))
            .collect();
        db.create_table("h", schema, rows.clone(), None).unwrap();
        let path = tmp("heap");
        db.save(&path).unwrap();
        let reopened = Database::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let t = reopened.catalog().table_by_name("h").unwrap();
        assert!(t.storage.clustering_column().is_none());
        let got: Vec<Row> = t
            .storage
            .all_rids()
            .map(|rid| t.storage.read_row(rid).unwrap())
            .collect();
        assert_eq!(got, rows, "heap order preserved");
    }
}
