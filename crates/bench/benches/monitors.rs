//! Monitoring-overhead bench: the real `SeqScan` operator with DPC
//! monitors attached, counted through `Operator::count` as every query
//! runs it, versus the bare zero-copy view pipeline over the same pages
//! and predicate, and versus the same `SeqScan` with no monitors.
//!
//! The page-at-a-time pipeline batches sketch observation (one
//! `observe_page` per monitor per page) and evaluates fixed-width
//! predicate atoms with word-level kernels, so the *monitored* operator
//! should sit within a small constant factor of the unmonitored view
//! scan. This bench measures that factor per shape, plus the monitors'
//! own cost on the operator (`monitor_overhead_pct`: monitored against
//! unmonitored `SeqScan`, the wall-clock twin of Fig 7), and writes
//! `BENCH_monitor_overhead.json` at the workspace root: each rate is the
//! median of the shim's timing windows, with the slowest and fastest
//! window and the window count beside it, and the overheads compare
//! medians. Under `PF_BENCH_ENFORCE` the full-scan shapes must show
//! < 15% operator overhead against the view scan.
//!
//! Run with `cargo bench -p pf-bench --bench monitors`; set
//! `PF_BENCH_QUICK=1` for the CI smoke configuration.

use criterion::{black_box, Bencher, Criterion, Rate};
use pf_common::{Column, DataType, Datum, PageId, Row, Schema, TableId};
use pf_exec::scan::SeqScan;
use pf_exec::{
    AtomicPredicate, CompareOp, Conjunction, ExecContext, Operator, ScanExprMonitor, ScanMonitorSet,
};
use pf_storage::TableStorage;
use std::sync::Arc;

/// The scan-shape table: two int columns (kernel-eligible) and a string
/// payload so pages look like the paper's synthetic workload.
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

fn atom(t: &TableStorage, col: &str, op: CompareOp, v: i64) -> AtomicPredicate {
    AtomicPredicate::new(t.schema(), col, op, Datum::Int(v)).unwrap()
}

/// Bare view pipeline: evaluate borrowed views, materialize only hits —
/// the floor the monitored operator is compared against.
fn view_scan(t: &TableStorage, p: &Conjunction) -> u64 {
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

/// One ScanExprMonitor per atom plus the full conjunction — the monitor
/// population the planner attaches to a multi-atom scan.
fn monitor_set(pred: &Conjunction, fraction: f64) -> ScanMonitorSet {
    let mut exprs: Vec<ScanExprMonitor> = (0..pred.len())
        .map(|i| ScanExprMonitor::atoms(pred, vec![i], None))
        .collect();
    if pred.len() > 1 {
        exprs.push(ScanExprMonitor::atoms(
            pred,
            (0..pred.len()).collect(),
            None,
        ));
    }
    ScanMonitorSet::new("t", exprs, fraction, 0xFEED)
}

/// The real operator's count, with monitors sampling at `fraction`
/// attached, or none; a fresh monitor set per iteration so sketch state
/// never accumulates across iterations.
fn operator_scan(t: &Arc<TableStorage>, p: &Conjunction, fraction: Option<f64>) -> u64 {
    let monitors = fraction.map(|f| monitor_set(p, f));
    let mut scan = SeqScan::full(Arc::clone(t), TableId(0), p.clone(), monitors);
    let mut ctx = ExecContext::new(1 << 14);
    scan.count(&mut ctx).unwrap()
}

struct Shape {
    name: &'static str,
    view_rows_per_sec: Rate,
    unmonitored_rows_per_sec: Rate,
    operator_rows_per_sec: Rate,
    /// Monitored operator against the view scan (the gated figure).
    overhead_pct: f64,
    /// Monitored operator against the same operator unmonitored.
    monitor_overhead_pct: f64,
}

fn rows_per_sec(
    c: &mut Criterion,
    name: &str,
    rows: u64,
    mut routine: impl FnMut() -> u64,
) -> Rate {
    let mut rps = Rate::default();
    c.bench_function(name, |b: &mut Bencher| {
        b.iter(&mut routine);
        rps = b.rate(rows);
    });
    rps
}

fn main() {
    let quick = std::env::var("PF_BENCH_QUICK").is_ok();
    let enforce = std::env::var("PF_BENCH_ENFORCE").is_ok();
    let nrows: i64 = if quick { 10_000 } else { 100_000 };
    let t = table(nrows);
    let total = t.row_count();

    // ~1% selectivity, like the hot-path bench: almost every row is
    // observed by monitors but never delivered.
    let one_atom = Conjunction::new(vec![atom(&t, "val", CompareOp::Lt, nrows / 100)]);
    // Two atoms: the second stripe only applies to prefix survivors.
    let two_atom = Conjunction::new(vec![
        atom(&t, "val", CompareOp::Lt, nrows / 100),
        atom(&t, "id", CompareOp::Ge, nrows / 2),
    ]);

    for (pred, frac) in [(&one_atom, 1.0), (&two_atom, 1.0), (&two_atom, 0.5)] {
        let hits = view_scan(&t, pred);
        assert_eq!(hits, operator_scan(&t, pred, Some(frac)), "operator parity");
        assert_eq!(hits, operator_scan(&t, pred, None), "unmonitored parity");
    }

    let mut c = Criterion::default();
    let mut shapes: Vec<Shape> = Vec::new();
    let measure = |c: &mut Criterion, name: &'static str, pred: &Conjunction, frac: f64| {
        let view = rows_per_sec(c, &format!("{name}/view"), total, || view_scan(&t, pred));
        let bare = rows_per_sec(c, &format!("{name}/unmonitored"), total, || {
            operator_scan(&t, pred, None)
        });
        let op = rows_per_sec(c, &format!("{name}/operator"), total, || {
            operator_scan(&t, pred, Some(frac))
        });
        Shape {
            name,
            view_rows_per_sec: view,
            unmonitored_rows_per_sec: bare,
            operator_rows_per_sec: op,
            overhead_pct: (view.median / op.median - 1.0) * 100.0,
            monitor_overhead_pct: (bare.median / op.median - 1.0) * 100.0,
        }
    };
    let s = measure(&mut c, "full_scan_one_atom", &one_atom, 1.0);
    shapes.push(s);
    let s = measure(&mut c, "full_scan_two_atom", &two_atom, 1.0);
    shapes.push(s);
    let s = measure(&mut c, "full_scan_sampled", &two_atom, 0.5);
    shapes.push(s);

    for s in &shapes {
        println!(
            "{}: view {:.1}M rows/s, unmonitored operator {:.1}M rows/s, \
             monitored operator {:.1}M rows/s, overhead {:.1}% (view), {:.1}% (unmonitored)",
            s.name,
            s.view_rows_per_sec.median / 1e6,
            s.unmonitored_rows_per_sec.median / 1e6,
            s.operator_rows_per_sec.median / 1e6,
            s.overhead_pct,
            s.monitor_overhead_pct
        );
    }

    if enforce && !quick {
        for s in &shapes {
            assert!(
                s.overhead_pct < 15.0,
                "{}: monitored operator overhead must stay < 15% of the view scan, got {:.1}%",
                s.name,
                s.overhead_pct
            );
        }
    }

    let rows: Vec<String> = shapes
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", {}, {}, {}, \"samples\": {}, \
                 \"overhead_pct\": {:.2}, \"monitor_overhead_pct\": {:.2}}}",
                s.name,
                s.view_rows_per_sec.json_fields("view_rows_per_sec"),
                s.unmonitored_rows_per_sec
                    .json_fields("unmonitored_rows_per_sec"),
                s.operator_rows_per_sec.json_fields("operator_rows_per_sec"),
                s.operator_rows_per_sec.samples,
                s.overhead_pct,
                s.monitor_overhead_pct
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"monitor_overhead\",\n  \"table_rows\": {total},\n  \
         \"hardware_threads\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n")
    );
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_monitor_overhead.json");
    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {}", out_path.display());
}
