//! Join hot-path microbench: the hash join (radix-partitioned build,
//! page-batched probe, semi-join filter pushdown) over the four shapes
//! the executor actually runs — build-dominated, probe-dominated,
//! filtered probe (bit-vector built and pushed into the probe scan), and
//! the monitored probe (semi-join sketch observation on every page).
//!
//! Reports rows/sec per shape and writes `BENCH_join_hot_path.json` at
//! the workspace root for the CI bench trajectory.
//!
//! Run with `cargo bench --bench join_hot_path`; set
//! `PF_BENCH_BUDGET_MS` (e.g. 25) and `PF_BENCH_QUICK=1` for the CI
//! smoke configuration.

use criterion::{black_box, Bencher, Criterion};
use pf_common::{Column, DataType, Datum, Row, Schema, TableId};
use pf_exec::join::{BitVectorConfig, HashJoin};
use pf_exec::monitor::{semi_join_slot, ScanExprMonitor, ScanMonitorSet};
use pf_exec::{run_count, Conjunction, ExecContext, SeqScan};
use pf_storage::TableStorage;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A join-key table: `k = (i * 7919) % key_mod` scrambles the key order
/// (every page mixes the whole key domain) and a short string payload
/// keeps pages realistically sized.
fn table(rows: i64, key_mod: i64) -> Arc<TableStorage> {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("pad", DataType::Str),
    ]);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Datum::Int((i * 7919) % key_mod),
                Datum::Str("x".repeat(32)),
            ])
        })
        .collect();
    Arc::new(TableStorage::load_default(schema, &data, None).unwrap())
}

fn scan(t: &Arc<TableStorage>, id: u32) -> SeqScan {
    SeqScan::full(Arc::clone(t), TableId(id), Conjunction::always_true(), None)
}

/// Plain hash join, counting driver.
fn join_count(build: &Arc<TableStorage>, probe: &Arc<TableStorage>) -> u64 {
    let mut hj = HashJoin::new(
        Box::new(scan(build, 0)),
        Box::new(scan(probe, 1)),
        0,
        0,
        None,
    );
    let mut ctx = ExecContext::new(1 << 14);
    run_count(&mut hj, &mut ctx).unwrap()
}

/// Hash join with a bit-vector filter and pushdown requested: the
/// completed filter is installed as a probe-scan pre-filter.
fn join_count_filtered(build: &Arc<TableStorage>, probe: &Arc<TableStorage>) -> u64 {
    let slot = semi_join_slot(0);
    let mut hj = HashJoin::new(
        Box::new(scan(build, 0)),
        Box::new(scan(probe, 1)),
        0,
        0,
        Some(BitVectorConfig {
            slot,
            numbits: 1 << 16,
            seed: 17,
            pushdown: true,
        }),
    );
    let mut ctx = ExecContext::new(1 << 14);
    run_count(&mut hj, &mut ctx).unwrap()
}

/// Hash join whose probe scan carries a semi-join monitor: the sketch
/// observes every page (DPSample fraction 1.0), the shape Fig 8 runs.
fn join_count_monitored(build: &Arc<TableStorage>, probe: &Arc<TableStorage>) -> u64 {
    let slot = semi_join_slot(0);
    let monitors = Rc::new(RefCell::new(ScanMonitorSet::new(
        vec![ScanExprMonitor::semi_join("jp", Rc::clone(&slot), None)],
        1.0,
        7,
    )));
    let probe_scan = SeqScan::full(
        Arc::clone(probe),
        TableId(1),
        Conjunction::always_true(),
        Some(monitors),
    );
    let mut hj = HashJoin::new(
        Box::new(scan(build, 0)),
        Box::new(probe_scan),
        0,
        0,
        Some(BitVectorConfig {
            slot,
            numbits: 1 << 16,
            seed: 17,
            pushdown: false,
        }),
    );
    let mut ctx = ExecContext::new(1 << 14);
    run_count(&mut hj, &mut ctx).unwrap()
}

struct Measurement {
    name: String,
    rows_per_iter: u64,
    rows_per_sec: f64,
}

fn measure(
    c: &mut Criterion,
    out: &mut Vec<Measurement>,
    name: &str,
    rows_per_iter: u64,
    mut routine: impl FnMut() -> u64,
) {
    let mut rows_per_sec = 0.0;
    c.bench_function(name, |b: &mut Bencher| {
        b.iter(|| black_box(routine()));
        rows_per_sec = rows_per_iter as f64 / b.ns_per_iter() * 1e9;
    });
    out.push(Measurement {
        name: name.to_string(),
        rows_per_iter,
        rows_per_sec,
    });
}

fn main() {
    let quick = std::env::var("PF_BENCH_QUICK").is_ok();
    let nrows: i64 = if quick { 10_000 } else { 100_000 };

    // Build side: nrows/4 rows over nrows/8 distinct keys (multiplicity
    // 2). Probe side: nrows rows over nrows/4 keys — half the probe key
    // domain misses the build side, which is what the filter culls.
    let build = table(nrows / 4, nrows / 8);
    let probe = table(nrows, nrows / 4);
    let empty = table(0, 1);

    // Every shape counts the same join before anything is timed.
    let plain = join_count(&build, &probe);
    assert_eq!(join_count_filtered(&build, &probe), plain, "filtered count");
    assert_eq!(
        join_count_monitored(&build, &probe),
        plain,
        "monitored count"
    );

    let mut c = Criterion::default();
    let mut out: Vec<Measurement> = Vec::new();
    let build_rows = nrows as u64 / 4;
    let probe_rows = nrows as u64;

    // Build-dominated: empty probe side isolates the build phase.
    measure(&mut c, &mut out, "build", build_rows, || {
        join_count(&build, &empty)
    });
    measure(&mut c, &mut out, "probe", probe_rows, || {
        join_count(&build, &probe)
    });
    measure(&mut c, &mut out, "filtered_probe", probe_rows, || {
        join_count_filtered(&build, &probe)
    });
    measure(&mut c, &mut out, "monitored_probe", probe_rows, || {
        join_count_monitored(&build, &probe)
    });

    let rows: Vec<String> = out
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"rows_per_iter\": {}, \"rows_per_sec\": {:.0}}}",
                m.name, m.rows_per_iter, m.rows_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"join_hot_path\",\n  \"build_rows\": {build_rows},\n  \
         \"probe_rows\": {probe_rows},\n  \"hardware_threads\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n")
    );
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_join_hot_path.json");
    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {}", out_path.display());
}
