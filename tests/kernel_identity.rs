//! Full-query identity of the scan pipeline: the seeded count workloads
//! of the differential harness (page kernels over Int, Float and Date
//! atoms, the row loop for Str atoms, index seeks and fetches) at 1, 2
//! and 8 workers, with and without an injected fault plan, checked for
//! byte-identical outcomes and against brute force. The executable form
//! of the batched-observation contract in DESIGN.md §5h.

mod harness;

use std::sync::Arc;

use harness::{differential_runs, resolved_pred, Fixture, SEEDS, TABLE};
use pagefeed::Query;
use pf_common::{PageId, Row};
use pf_exec::{Operator, SeqScan};

fn is_count(query: &Query) -> bool {
    matches!(query, Query::Count { .. })
}

/// Also the coverage guard: across the seeds' fault-free runs,
/// [`pagefeed::Database::morsel_plan`] splits queries into every morsel
/// shape this workload can take, and the deadline reruns both abort
/// and complete queries.
#[test]
fn kernel_identity_fault_free() {
    let coverage = differential_runs(0.0, is_count);
    for shape in ["Scan", "Fetch"] {
        assert!(
            coverage.shapes.contains(shape),
            "no {shape} morsel plan in {:?}",
            coverage.shapes
        );
    }
    let (aborted, completed) = coverage.deadline_runs;
    assert!(
        aborted > 0 && completed > 0,
        "deadline runs: {aborted} aborted, {completed} completed"
    );
}

/// Checksum faults, retries, skipped pages and degraded sketches
/// reproduce exactly at every worker count.
#[test]
fn kernel_identity_under_faults() {
    assert!(
        differential_runs(0.01, is_count).fired,
        "fault plan must fire (retries or degraded outcomes)"
    );
}

/// An unmonitored full scan over every generated count predicate reads
/// each page once, sequentially, and charges exactly the evaluations a
/// per-row short-circuit loop performs — whether a page kernel or the
/// row loop ran.
#[test]
fn unmonitored_full_scan_charges_match_row_loop() {
    for seed in SEEDS {
        let fx = Fixture::new(seed);
        let db = fx.database(0.0);
        let meta = db.catalog().table_by_name(TABLE).expect("table");
        let pages = u64::from(meta.storage.page_count());
        let rows: Vec<Row> = (0..meta.storage.page_count())
            .flat_map(|p| meta.storage.rows_on_page(PageId(p)).expect("page"))
            .collect();
        for query in &fx.queries {
            if !is_count(query) {
                continue;
            }
            let pred = resolved_pred(query);
            let mut scan = SeqScan::full(Arc::clone(&meta.storage), meta.id, pred.clone(), None);
            let mut ctx = db.make_context();
            let count = scan.count(&mut ctx).expect("scan runs");
            let s = ctx.stats();
            let what = format!("seed {seed}, {pred}");
            assert_eq!(s.logical_reads, pages, "{what}: logical reads");
            assert_eq!(s.seq_physical_reads, pages, "{what}: sequential reads");
            assert_eq!(s.rand_physical_reads, 0, "{what}: random reads");
            assert_eq!(s.rows_processed, rows.len() as u64, "{what}: rows");
            let evals: u64 = rows
                .iter()
                .map(|r| pred.eval_short_circuit(r).1 as u64)
                .sum();
            assert_eq!(s.pred_evals, evals, "{what}: predicate evaluations");
            assert_eq!(s.extra_pred_evals, 0, "{what}: extra evaluations");
            let passing = rows
                .iter()
                .filter(|r| pred.eval_short_circuit(*r).0)
                .count();
            assert_eq!(count, passing as u64, "{what}: count");
        }
    }
}
