//! Full-query identity of the hash-join pipeline: the seeded self-join
//! workloads of the differential harness (radix build, page-batched
//! probe, semi-join filter pushdown, bit-vector monitoring) at 1, 2 and
//! 8 workers, with and without an injected fault plan, checked for
//! byte-identical outcomes and against brute force. The executable form
//! of the batching contract in DESIGN.md §5k.

mod harness;

use harness::differential_runs;
use pagefeed::Query;

fn is_join(query: &Query) -> bool {
    matches!(query, Query::JoinCount { .. })
}

/// Also the coverage guard: across the seeds' fault-free runs,
/// [`pagefeed::Database::morsel_plan`] splits queries into every morsel
/// shape this workload can take, and the deadline reruns both abort
/// and complete queries.
#[test]
fn join_identity_fault_free() {
    let coverage = differential_runs(0.0, is_join);
    for shape in ["HashJoin", "InlJoin"] {
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

/// The vectorized probe refuses pages that fail verification, so
/// retries, skipped pages and degraded sketches reproduce exactly at
/// every worker count.
#[test]
fn join_identity_under_faults() {
    assert!(
        differential_runs(0.01, is_join).fired,
        "fault plan must fire (retries or degraded outcomes)"
    );
}
