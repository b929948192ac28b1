//! Allocation guard for the write path. A one-row delete decodes the
//! table into one reused row, not into an owned row per table row, and
//! the `analyze` after it builds statistics from the column values the
//! catalog keeps, without rescanning or sorting the table. Allocation
//! counts, unlike timings, are the same on every host.
//!
//! The counting allocator sees every thread of the process, so this
//! binary holds a single test: no other test can allocate while the
//! counts are taken.

use pagefeed::Database;
use pf_common::{Column, DataType, Datum, Row, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocations and bytes allocated.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result with the allocations and bytes it allocated.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocs, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// A table shaped like the paper's synthetic `T (c1..c5, pad)`: 40 000
/// rows of ~100 bytes (~80 per 8 KB page), clustered on `c1`, `c2` a
/// copy of it and `c3`–`c5` permutations of it, with an index on each of
/// `c2`–`c5`; analyzed.
fn database() -> Database {
    const N: i64 = 40_000;
    let schema = Schema::new(
        ["c1", "c2", "c3", "c4", "c5"]
            .iter()
            .map(|c| Column::new(*c, DataType::Int))
            .chain([Column::new("pad", DataType::Str)])
            .collect(),
    );
    let rows = (0..N)
        .map(|i| {
            let mut values: Vec<Datum> = [i, i, i * 7919 % N, i * 7907 % N, i * 7901 % N]
                .into_iter()
                .map(Datum::Int)
                .collect();
            values.push(Datum::Str("x".repeat(54)));
            Row::new(values)
        })
        .collect();
    let mut db = Database::new();
    db.create_table("T", schema, rows, Some("c1"))
        .expect("load T");
    for c in ["c2", "c3", "c4", "c5"] {
        db.create_index(&format!("ix_T_{c}"), "T", c)
            .expect("index over a column of T");
    }
    db.analyze().expect("analyze");
    db
}

#[test]
fn one_row_delete_and_reanalyze_allocate_little() {
    let mut db = database();
    let victim = Datum::Int(20_000);
    let (deleted, allocs, _) = counted(|| db.delete_where("T", |r| r.values[0] == victim));
    assert_eq!(deleted.expect("delete succeeds"), 1);
    assert!(allocs < 5_000, "a one-row delete made {allocs} allocations");
    let (analyzed, _, bytes) = counted(|| db.analyze());
    analyzed.expect("analyze");
    assert!(
        bytes < 64 * 1024,
        "analyze after a one-row delete allocated {bytes} bytes"
    );
}
