//! Scan hot-path microbench: owned-decode baseline vs the zero-copy
//! borrowed-view pipeline, over the three access shapes the executor
//! actually runs — full scan, clustered range scan, and index fetch.
//!
//! Reports rows/sec and *allocations per row* for both paths (a counting
//! global allocator wraps the system allocator), and writes
//! `BENCH_scan_hot_path.json` at the workspace root for the CI bench
//! trajectory: per case the median of the shim's timing windows, with
//! the slowest and fastest window and the window count beside it. The
//! acceptance bar for the zero-copy pipeline is ≥ 2× median rows/sec on
//! the full-scan shape.
//!
//! The real `SeqScan` runs five times over the same table:
//! `full_scan/operator` filters the scrambled `val`, whose every page
//! spans the whole key range, so page zones settle almost nothing and
//! the kernel compares every row's key in `val`'s key array;
//! `full_scan/operator_clustered` filters
//! the clustering key `id`, so zones settle all but a page or two. The
//! other three add a Str atom, `pad < 'y'`, which every row passes and
//! the kernel evaluates on row views: alone (`operator_str`, a view per
//! row), behind the `val` atom (`operator_fixed_then_str`, a view only
//! for the ~1% of rows `val` passes) and before it
//! (`operator_str_then_fixed`).
//!
//! Run with `cargo bench --bench scan_hot_path`; set
//! `PF_BENCH_BUDGET_MS` (e.g. 25) and `PF_BENCH_QUICK=1` for the CI
//! smoke configuration.

use criterion::{black_box, Bencher, Criterion, Rate};
use pf_common::{Column, DataType, Datum, PageId, Rid, Row, Schema, TableId};
use pf_exec::scan::SeqScan;
use pf_exec::{AtomicPredicate, CompareOp, Conjunction, ExecContext, Operator};
use pf_storage::TableStorage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Rows mimicking the paper's synthetic table: int key, scrambled int,
/// and a string payload (the column whose owned decode allocates).
fn table(rows: i64) -> Arc<TableStorage> {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("val", DataType::Int),
        Column::new("pad", DataType::Str),
    ]);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Datum::Int(i),
                Datum::Int((i * 7919) % rows),
                Datum::Str("x".repeat(64)),
            ])
        })
        .collect();
    Arc::new(TableStorage::load_default(schema, &data, Some(0)).unwrap())
}

fn lt(t: &TableStorage, col: &str, v: Datum) -> AtomicPredicate {
    AtomicPredicate::new(t.schema(), col, CompareOp::Lt, v).unwrap()
}

fn pred(t: &TableStorage, col: &str, lt_value: i64) -> Conjunction {
    Conjunction::new(vec![lt(t, col, Datum::Int(lt_value))])
}

/// Owned baseline: decode every row on every page, then evaluate.
fn full_scan_owned(t: &TableStorage, p: &Conjunction) -> u64 {
    let mut hits = 0u64;
    for pid in 0..t.page_count() {
        for row in t.rows_on_page(PageId(pid)).unwrap() {
            if p.eval_short_circuit(&row).0 {
                hits += 1;
            }
        }
    }
    hits
}

/// Zero-copy pipeline: evaluate borrowed views; materialize only hits.
fn full_scan_view(t: &TableStorage, p: &Conjunction) -> u64 {
    let mut hits = 0u64;
    for pid in 0..t.page_count() {
        for view in t.page_cursor(PageId(pid)).unwrap() {
            let view = view.unwrap();
            if p.eval_short_circuit(&view).0 {
                black_box(view.materialize());
                hits += 1;
            }
        }
    }
    hits
}

fn range_pages(t: &TableStorage, lo: i64, hi: i64) -> (u32, u32) {
    t.locate_range(Some(&Datum::Int(lo)), Some(&Datum::Int(hi)))
        .unwrap()
}

fn range_scan_owned(t: &TableStorage, p: &Conjunction, pages: (u32, u32)) -> u64 {
    let mut hits = 0u64;
    for pid in pages.0..pages.1 {
        for row in t.rows_on_page(PageId(pid)).unwrap() {
            if p.eval_short_circuit(&row).0 {
                hits += 1;
            }
        }
    }
    hits
}

fn range_scan_view(t: &TableStorage, p: &Conjunction, pages: (u32, u32)) -> u64 {
    let mut hits = 0u64;
    for pid in pages.0..pages.1 {
        for view in t.page_cursor(PageId(pid)).unwrap() {
            let view = view.unwrap();
            if p.eval_short_circuit(&view).0 {
                black_box(view.materialize());
                hits += 1;
            }
        }
    }
    hits
}

fn index_fetch_owned(t: &TableStorage, rids: &[Rid], residual: &Conjunction) -> u64 {
    let mut hits = 0u64;
    for &rid in rids {
        let row = t.read_row(rid).unwrap();
        if residual.eval_short_circuit(&row).0 {
            hits += 1;
        }
    }
    hits
}

fn index_fetch_view(t: &TableStorage, rids: &[Rid], residual: &Conjunction) -> u64 {
    let mut hits = 0u64;
    for &rid in rids {
        let view = t.read_row_view(rid).unwrap();
        if residual.eval_short_circuit(&view).0 {
            black_box(view.materialize());
            hits += 1;
        }
    }
    hits
}

/// The real `SeqScan`, counted as every query counts it: page kernels
/// over the same table, no row decoded into owned values.
fn operator_scan(t: &Arc<TableStorage>, p: &Conjunction) -> u64 {
    let mut scan = SeqScan::full(Arc::clone(t), TableId(0), p.clone(), None);
    let mut ctx = ExecContext::new(1 << 14);
    scan.count(&mut ctx).unwrap()
}

struct Measurement {
    name: &'static str,
    rows_per_iter: u64,
    rows_per_sec: Rate,
    allocs_per_row: f64,
}

fn measure(
    c: &mut Criterion,
    out: &mut Vec<Measurement>,
    name: &'static str,
    rows_per_iter: u64,
    mut routine: impl FnMut() -> u64,
) {
    let mut rows_per_sec = Rate::default();
    c.bench_function(name, |b: &mut Bencher| {
        b.iter(&mut routine);
        rows_per_sec = b.rate(rows_per_iter);
    });
    let allocs = allocations_during(|| {
        black_box(routine());
    });
    out.push(Measurement {
        name,
        rows_per_iter,
        rows_per_sec,
        allocs_per_row: allocs as f64 / rows_per_iter as f64,
    });
}

fn main() {
    let quick = std::env::var("PF_BENCH_QUICK").is_ok();
    let nrows: i64 = if quick { 10_000 } else { 100_000 };
    let t = table(nrows);
    let total = t.row_count();

    // ~1% selectivity on the scrambled column: scans reject most rows,
    // which is exactly where borrowed evaluation pays.
    let scan_pred = pred(&t, "val", nrows / 100);
    // The same selectivity on the clustering key.
    let clustered_pred = pred(&t, "id", nrows / 100);
    // A Str atom every row passes: alone, after and before `val`'s.
    let str_atom = lt(&t, "pad", Datum::Str("y".into()));
    let val_atom = lt(&t, "val", Datum::Int(nrows / 100));
    let str_pred = Conjunction::new(vec![str_atom.clone()]);
    let fixed_then_str = Conjunction::new(vec![val_atom.clone(), str_atom.clone()]);
    let str_then_fixed = Conjunction::new(vec![str_atom, val_atom]);
    // Range covering ~10% of the clustered key space.
    let pages = range_pages(&t, nrows / 4, nrows / 4 + nrows / 10);
    let range_rows: u64 = (pages.0..pages.1)
        .map(|p| u64::from(t.page(PageId(p)).unwrap().slot_count()))
        .sum();
    // Index fetch: every 37th row in scrambled order, half passing the
    // residual.
    let rids: Vec<Rid> = t.all_rids().step_by(37).collect();
    let residual = pred(&t, "val", nrows / 2);

    let expected_hits = full_scan_owned(&t, &scan_pred);
    assert_eq!(expected_hits, full_scan_view(&t, &scan_pred), "path parity");
    assert_eq!(
        expected_hits,
        operator_scan(&t, &scan_pred),
        "operator parity"
    );
    assert_eq!(
        full_scan_owned(&t, &clustered_pred),
        operator_scan(&t, &clustered_pred),
        "clustered operator parity"
    );
    for p in [&str_pred, &fixed_then_str, &str_then_fixed] {
        assert_eq!(
            full_scan_owned(&t, p),
            operator_scan(&t, p),
            "{p}: operator parity"
        );
    }
    assert_eq!(
        index_fetch_owned(&t, &rids, &residual),
        index_fetch_view(&t, &rids, &residual),
        "fetch parity"
    );

    let mut c = Criterion::default();
    let mut out: Vec<Measurement> = Vec::new();

    measure(&mut c, &mut out, "full_scan/owned", total, || {
        full_scan_owned(&t, &scan_pred)
    });
    measure(&mut c, &mut out, "full_scan/view", total, || {
        full_scan_view(&t, &scan_pred)
    });
    measure(&mut c, &mut out, "full_scan/operator", total, || {
        operator_scan(&t, &scan_pred)
    });
    measure(
        &mut c,
        &mut out,
        "full_scan/operator_clustered",
        total,
        || operator_scan(&t, &clustered_pred),
    );
    measure(&mut c, &mut out, "full_scan/operator_str", total, || {
        operator_scan(&t, &str_pred)
    });
    measure(
        &mut c,
        &mut out,
        "full_scan/operator_fixed_then_str",
        total,
        || operator_scan(&t, &fixed_then_str),
    );
    measure(
        &mut c,
        &mut out,
        "full_scan/operator_str_then_fixed",
        total,
        || operator_scan(&t, &str_then_fixed),
    );
    measure(&mut c, &mut out, "range_scan/owned", range_rows, || {
        range_scan_owned(&t, &scan_pred, pages)
    });
    measure(&mut c, &mut out, "range_scan/view", range_rows, || {
        range_scan_view(&t, &scan_pred, pages)
    });
    measure(
        &mut c,
        &mut out,
        "index_fetch/owned",
        rids.len() as u64,
        || index_fetch_owned(&t, &rids, &residual),
    );
    measure(
        &mut c,
        &mut out,
        "index_fetch/view",
        rids.len() as u64,
        || index_fetch_view(&t, &rids, &residual),
    );

    let speedup = |a: &str, b: &str| {
        let f = |n: &str| {
            out.iter()
                .find(|m| m.name == n)
                .unwrap()
                .rows_per_sec
                .median
        };
        f(b) / f(a)
    };
    let full_speedup = speedup("full_scan/owned", "full_scan/view");
    let range_speedup = speedup("range_scan/owned", "range_scan/view");
    let fetch_speedup = speedup("index_fetch/owned", "index_fetch/view");
    println!(
        "speedups: full_scan {full_speedup:.2}x  range_scan {range_speedup:.2}x  \
         index_fetch {fetch_speedup:.2}x"
    );
    if !quick {
        assert!(
            full_speedup >= 2.0,
            "zero-copy full scan must be >= 2x owned decode, got {full_speedup:.2}x"
        );
    }

    let rows: Vec<String> = out
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"rows_per_iter\": {}, {}, \"samples\": {}, \
                 \"allocs_per_row\": {:.4}}}",
                m.name,
                m.rows_per_iter,
                m.rows_per_sec.json_fields("rows_per_sec"),
                m.rows_per_sec.samples,
                m.allocs_per_row
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"scan_hot_path\",\n  \"table_rows\": {total},\n  \
         \"hardware_threads\": {},\n  \
         \"full_scan_speedup\": {full_speedup:.3},\n  \"range_scan_speedup\": {range_speedup:.3},\n  \
         \"index_fetch_speedup\": {fetch_speedup:.3},\n  \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n")
    );
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scan_hot_path.json");
    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {}", out_path.display());
}
