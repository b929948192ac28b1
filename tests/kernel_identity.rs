//! Full-query identity of the scan pipeline: the seeded count workloads
//! of the differential harness (page kernels over Int, Float and Date
//! atoms, pages their min/max zone settles without reading a row, Str
//! atoms the kernel evaluates on row views, index seeks and fetches) at
//! 1, 2 and 8 workers, with and without an injected fault plan, checked
//! for byte-identical outcomes and against brute force. The executable
//! form of the batched-observation contract in DESIGN.md §5h.

mod harness;

use std::cmp::Ordering;
use std::sync::Arc;

use harness::{differential_runs, resolved_pred, Fixture, SEEDS, TABLE};
use pagefeed::Query;
use pf_common::{Datum, PageId, Row};
use pf_exec::{AtomicPredicate, CompareOp, Operator, SeqScan};

fn is_count(query: &Query) -> bool {
    matches!(query, Query::Count { .. })
}

/// Also the coverage guard: across the seeds' fault-free runs,
/// [`pagefeed::Database::morsel_plan`] splits queries into every morsel
/// shape this workload can take, the memory budget sheds monitors, and
/// the deadline reruns both abort and complete queries.
#[test]
fn kernel_identity_fault_free() {
    let coverage = differential_runs(0.0, is_count);
    for shape in ["Scan", "RangeScan", "Fetch"] {
        assert!(
            coverage.shapes.contains(shape),
            "no {shape} morsel plan in {:?}",
            coverage.shapes
        );
    }
    assert!(coverage.shed, "the memory budget must shed a monitor");
    let (split, moved) = coverage.zone_runs;
    assert!(
        split > 0 && moved > 0,
        "zone estimates: {split} queries split, {moved} plans moved"
    );
    let (aborted, completed) = coverage.deadline_runs;
    assert!(
        aborted > 0 && completed > 0,
        "deadline runs: {aborted} aborted, {completed} completed"
    );
}

/// Checksum faults, retries, skipped pages and degraded sketches
/// reproduce exactly at every worker count. Scans still split into
/// morsels under the fault plan; the harness refuses any other shape.
#[test]
fn kernel_identity_under_faults() {
    let coverage = differential_runs(0.01, is_count);
    assert!(
        coverage.fired,
        "fault plan must fire (retries or degraded outcomes)"
    );
    assert!(
        coverage.shapes.contains("Scan"),
        "faulted scans must still split: {:?}",
        coverage.shapes
    );
}

/// An unmonitored full scan over every generated count predicate reads
/// each page once, sequentially, and charges exactly the evaluations a
/// per-row short-circuit loop performs — whether its atoms read the
/// page bytes or row views.
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

/// Whether `atom` gives one verdict for every value between its column's
/// values in rows `lo` and `hi` (in the column's total order) — exactly
/// when a page whose values span that range can be answered from its
/// min/max alone.
fn constant_between(atom: &AtomicPredicate, lo: &Row, hi: &Row) -> bool {
    let cmp = |row: &Row| row.get(atom.column).cmp_same_type(&atom.value);
    match atom.op {
        CompareOp::Eq | CompareOp::Ne => {
            lo.get(atom.column).cmp_same_type(hi.get(atom.column)) == Some(Ordering::Equal)
                || cmp(lo) == Some(Ordering::Greater)
                || cmp(hi) == Some(Ordering::Less)
        }
        // A monotone comparison is constant on an interval iff it
        // agrees at both ends.
        _ => atom.eval(lo) == atom.eval(hi),
    }
}

/// Coverage guard for the page-zone shortcut, computed from the rows
/// alone: across the seeds, the scans of the kernel-only count queries
/// meet both pages whose every atom is settled by the page's min/max
/// and pages where some atom straddles its literal — so the
/// brute-force comparisons above exercise both.
#[test]
fn seeded_scans_meet_settled_and_unsettled_pages() {
    let mut pages = [0u32; 2]; // unsettled, settled
    for seed in SEEDS {
        let fx = Fixture::new(seed);
        let db = fx.database(0.0);
        let storage = &db.catalog().table_by_name(TABLE).expect("table").storage;
        for query in fx.queries.iter().filter(|q| is_count(q)) {
            let pred = resolved_pred(query);
            let zoned = pred.atoms.iter().all(|a| !matches!(a.value, Datum::Str(_)));
            if pred.is_empty() || !zoned {
                continue;
            }
            for p in 0..storage.page_count() {
                let rows = storage.rows_on_page(PageId(p)).expect("page");
                let settled = pred.atoms.iter().all(|atom| {
                    let mut sorted: Vec<&Row> = rows.iter().collect();
                    sorted.sort_by(|a, b| {
                        let (a, b) = (a.get(atom.column), b.get(atom.column));
                        a.cmp_same_type(b).expect("one column type")
                    });
                    constant_between(atom, sorted[0], sorted[sorted.len() - 1])
                });
                pages[usize::from(settled)] += 1;
            }
        }
    }
    assert!(
        pages.iter().all(|&n| n > 0),
        "unsettled/settled pages {pages:?}"
    );
}
