//! Table storage: bulk-loaded, then changed in place by DML.
//!
//! A [`TableStorage`] is an ordered sequence of slotted pages. The *load
//! order is the physical order*: loading rows sorted by a column makes
//! that column the clustering key (SQL Server's clustered index); loading
//! in arrival order makes a heap. This is exactly the degree of freedom
//! Example 1 of the paper turns on — whether `Shipdate` is correlated
//! with the load order decides whether 50 K qualifying rows live on
//! 1 K pages or 50 K pages.
//!
//! For clustered tables we keep a sparse key index (first key of each
//! page), the leaf level of a clustered B+-tree, enabling range seeks
//! without scanning.

use crate::fault::{FaultKind, FaultPlan};
use crate::page::{Page, DEFAULT_PAGE_SIZE};
use crate::view::{PageCursor, RowLayout, RowView};
use pf_common::{Datum, Error, PageId, Result, Rid, Row, Schema, SlotId, TableId};
use std::collections::HashMap;

/// Table storage: bulk-loaded, then changed in place one DML statement
/// at a time ([`TableStorage::insert_row`], [`TableStorage::delete_where`]).
#[derive(Debug)]
pub struct TableStorage {
    schema: Schema,
    /// Schema-compiled decode plan, built once at load; shared by every
    /// zero-copy cursor and view over this table.
    layout: RowLayout,
    pages: Vec<Page>,
    row_count: u64,
    /// Ordinal of the clustering column, if rows were loaded sorted.
    clustering_column: Option<usize>,
    /// First clustering-key value on each page (parallel to `pages`);
    /// empty for heaps.
    sparse_index: Vec<Datum>,
    /// Fill factor the table was loaded with (fraction of page used).
    fill_factor: f64,
    /// Catalog identity, attached at registration; used by the checked
    /// read path so checksum/stall errors name their fault site.
    table_id: TableId,
    /// The active fault plan (None in normal operation).
    fault_plan: Option<FaultPlan>,
    /// Deterministically damaged copies of faulted pages, keyed by page
    /// number. The pristine originals stay in `pages` so derived state
    /// (index builds, oracle counts) sees the true data; only the
    /// *checked* read path — what query execution uses — sees damage.
    injected: HashMap<u32, Page>,
    /// Modification epoch: 0 at bulk load, bumped by every DML statement
    /// ([`TableStorage::insert_row`] / [`TableStorage::delete_where`]).
    /// Execution feedback is stamped with the epoch it was measured at,
    /// so the optimizer can tell fresh measurements from stale ones.
    epoch: u64,
    /// Cumulative count of pages rewritten by DML since bulk load. The
    /// staleness policy compares a measurement's stamp against this to
    /// estimate what fraction of the table drifted underneath it.
    dirty_pages: u64,
}

/// A table's modification state at a point in time, as seen by the
/// feedback staleness policy: which epoch it is at, how many pages DML
/// has rewritten since load, and how many pages it currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochState {
    /// Current modification epoch (0 = untouched since bulk load).
    pub epoch: u64,
    /// Cumulative pages rewritten by DML since bulk load.
    pub dirty_pages: u64,
    /// Current page count.
    pub pages: u32,
}

/// The RID changes one DML statement caused — what index maintenance
/// needs to follow the rows. A page the statement did not rewrite keeps
/// its rows in their slots; at most its page number shifts.
#[derive(Debug, Clone, Default)]
pub struct RidDelta {
    /// Every row of each rewritten page, under its old RID.
    pub removed: Vec<(Rid, Row)>,
    /// Every row of the pages that replaced them, under its new RID.
    pub added: Vec<(Rid, Row)>,
    /// New page number of each old page, indexed by old page number
    /// (the entries of rewritten pages are unused). Present only when
    /// some untouched page moved: a split in the middle of a clustered
    /// table, or a page a delete emptied. Monotone, so RID order among
    /// untouched rows survives the remap.
    pub page_map: Option<Vec<u32>>,
}

impl RidDelta {
    /// Whether the statement changed no RID at all.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty() && self.page_map.is_none()
    }
}

/// The RIDs of `pages`, numbered from page `first`, in physical order.
fn rids_from(first: usize, pages: &[Page]) -> impl Iterator<Item = Rid> + '_ {
    pages.iter().zip(first as u32..).flat_map(|(page, p)| {
        (0..page.slot_count()).map(move |s| Rid {
            page: PageId(p),
            slot: SlotId(s),
        })
    })
}

impl TableStorage {
    /// Bulk-loads `rows` into pages of `page_size` bytes, in the given
    /// order, filling each page up to `fill_factor` (0 < f ≤ 1) of its
    /// capacity before starting the next.
    ///
    /// If `clustering_column` is set, rows must already be sorted by that
    /// column (checked) and seeks via [`TableStorage::locate_range`]
    /// become available.
    pub fn bulk_load(
        schema: Schema,
        rows: &[Row],
        clustering_column: Option<usize>,
        page_size: usize,
        fill_factor: f64,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&fill_factor) || fill_factor == 0.0 {
            return Err(Error::InvalidArgument(format!(
                "fill factor must be in (0, 1], got {fill_factor}"
            )));
        }
        if let Some(col) = clustering_column {
            if col >= schema.arity() {
                return Err(Error::UnknownColumn(format!("clustering ordinal {col}")));
            }
            for pair in rows.windows(2) {
                let ord = pair[0].get(col).cmp_same_type(pair[1].get(col)).ok_or(
                    Error::SchemaMismatch("mixed types in clustering column".into()),
                )?;
                if ord == std::cmp::Ordering::Greater {
                    return Err(Error::SchemaMismatch(
                        "rows not sorted by clustering column".into(),
                    ));
                }
            }
        }

        let budget = (page_size as f64 * fill_factor) as usize;
        let mut pages = Vec::new();
        let mut sparse_index = Vec::new();
        let mut current = Page::new(page_size);
        let mut first_key_of_page: Option<Datum> = None;

        for row in rows {
            let used = page_size - current.free_space();
            let needs = crate::codec::encoded_size(row) + 2;
            let over_budget = used + needs > budget;
            // Rotate to a fresh page only if the current one holds rows;
            // a row that cannot fit even an empty page must surface as
            // RowTooLarge from the insert below, not spin forever.
            if current.slot_count() > 0
                && (over_budget || !current.fits(crate::codec::encoded_size(row)))
            {
                current.seal();
                pages.push(current);
                if let Some(col) = clustering_column {
                    sparse_index.push(first_key_of_page.take().ok_or_else(|| {
                        Error::Internal("page closed without a recorded first key".into())
                    })?);
                    first_key_of_page = Some(row.get(col).clone());
                }
                current = Page::new(page_size);
            }
            if current.slot_count() == 0 {
                if let Some(col) = clustering_column {
                    if first_key_of_page.is_none() {
                        first_key_of_page = Some(row.get(col).clone());
                    }
                }
            }
            current.insert(&schema, row)?;
        }
        if current.slot_count() > 0 {
            current.seal();
            pages.push(current);
            if clustering_column.is_some() {
                sparse_index.push(first_key_of_page.take().ok_or_else(|| {
                    Error::Internal("final page closed without a recorded first key".into())
                })?);
            }
        }

        Ok(TableStorage {
            layout: RowLayout::new(&schema),
            schema,
            row_count: rows.len() as u64,
            pages,
            clustering_column,
            sparse_index,
            fill_factor,
            table_id: TableId(0),
            fault_plan: None,
            injected: HashMap::new(),
            epoch: 0,
            dirty_pages: 0,
        })
    }

    /// Convenience: bulk-load with the default 8 KB page, full fill.
    pub fn load_default(
        schema: Schema,
        rows: &[Row],
        clustering_column: Option<usize>,
    ) -> Result<Self> {
        Self::bulk_load(schema, rows, clustering_column, DEFAULT_PAGE_SIZE, 1.0)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Average rows per page (0 for an empty table).
    pub fn avg_rows_per_page(&self) -> f64 {
        if self.pages.is_empty() {
            0.0
        } else {
            self.row_count as f64 / self.pages.len() as f64
        }
    }

    /// Clustering column ordinal, if the table is a clustered index.
    pub fn clustering_column(&self) -> Option<usize> {
        self.clustering_column
    }

    /// Fill factor used at load time.
    pub fn fill_factor(&self) -> f64 {
        self.fill_factor
    }

    /// Page size in bytes the table was loaded with (default size for an
    /// empty table).
    pub fn page_size(&self) -> usize {
        self.pages
            .first()
            .map_or(DEFAULT_PAGE_SIZE, crate::page::Page::page_size)
    }

    /// The *pristine* page `pid`, or an error if out of range.
    ///
    /// This is the oracle view: injected faults are invisible here, so
    /// derived state (index builds, true-DPC counts, snapshots) is
    /// always computed from the true data. Query execution must go
    /// through [`TableStorage::checked_page`] instead.
    pub fn page(&self, pid: PageId) -> Result<&Page> {
        self.pages
            .get(pid.0 as usize)
            .ok_or(Error::PageOutOfBounds {
                page: pid.0,
                page_count: self.pages.len() as u32,
            })
    }

    /// Attaches the table's catalog identity and (optionally) a fault
    /// plan, materializing damaged copies of every page the plan marks
    /// with a corrupting fault. Called once at catalog registration,
    /// before the storage is shared.
    pub fn attach_fault_plan(&mut self, table: TableId, plan: Option<FaultPlan>) {
        self.table_id = table;
        self.fault_plan = plan;
        self.rematerialize_faults();
    }

    /// Rebuilds the injected-damage map from the current fault plan over
    /// the current page set. DML rewrites pages, so the damaged copies
    /// must be re-derived — the plan is a pure function of
    /// `(seed, table, page)`, so the same sites fault after a rewrite.
    fn rematerialize_faults(&mut self) {
        self.injected.clear();
        let Some(plan) = self.fault_plan else { return };
        for pid in 0..self.pages.len() as u32 {
            if let Some(kind) = plan.fault_for(self.table_id, PageId(pid)) {
                if kind.corrupts() {
                    let mut damaged = self.pages[pid as usize].clone();
                    damaged.inject_fault(kind, plan.entropy_for(self.table_id, PageId(pid)));
                    self.injected.insert(pid, damaged);
                }
            }
        }
    }

    /// Current modification epoch (0 = untouched since bulk load).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative count of pages rewritten by DML since bulk load.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_pages
    }

    /// The table's modification state, for feedback staleness decisions.
    pub fn epoch_state(&self) -> EpochState {
        EpochState {
            epoch: self.epoch,
            dirty_pages: self.dirty_pages,
            pages: self.pages.len() as u32,
        }
    }

    /// Packs `rows` into freshly sealed pages using the table's page
    /// size and fill factor, returning the pages and (for clustered
    /// tables) the first clustering key of each page.
    fn pack_rows(&self, rows: &[Row]) -> Result<(Vec<Page>, Vec<Datum>)> {
        let page_size = self.page_size();
        let budget = (page_size as f64 * self.fill_factor) as usize;
        let mut pages = Vec::new();
        let mut keys = Vec::new();
        let mut current = Page::new(page_size);
        for row in rows {
            let used = page_size - current.free_space();
            let needs = crate::codec::encoded_size(row) + 2;
            if current.slot_count() > 0
                && (used + needs > budget || !current.fits(crate::codec::encoded_size(row)))
            {
                current.seal();
                pages.push(current);
                current = Page::new(page_size);
            }
            if current.slot_count() == 0 {
                if let Some(col) = self.clustering_column {
                    keys.push(row.get(col).clone());
                }
            }
            current.insert(&self.schema, row)?;
        }
        if current.slot_count() > 0 {
            current.seal();
            pages.push(current);
        }
        Ok((pages, keys))
    }

    /// Inserts one row, preserving the physical invariants bulk load
    /// established: clustered tables keep the row sorted into the page
    /// bracketing its key (splitting the page when it overflows), heaps
    /// append to the tail. Every rewritten page is re-sealed with a
    /// fresh CRC, the sparse index is respliced, injected fault copies
    /// are re-derived, and the modification epoch advances. Returns the
    /// RIDs the insert moved.
    pub fn insert_row(&mut self, row: Row) -> Result<RidDelta> {
        // Validate the row against the schema up front (and learn its
        // encoded size) so a malformed row cannot half-apply.
        let mut scratch = Vec::new();
        crate::codec::encode_row(&self.schema, &row, &mut scratch)?;
        if !Page::new(self.page_size()).fits(scratch.len()) {
            return Err(Error::RowTooLarge {
                row_bytes: scratch.len() + 2,
                page_capacity: Page::new(self.page_size()).free_space(),
            });
        }
        if let Some(col) = self.clustering_column {
            if let Some(first) = self.sparse_index.first() {
                if first.cmp_same_type(row.get(col)).is_none() {
                    return Err(Error::SchemaMismatch(
                        "insert key type differs from clustering key".into(),
                    ));
                }
            }
        }

        if self.pages.is_empty() {
            let rows = vec![row];
            let (pages, keys) = self.pack_rows(&rows)?;
            let added = rids_from(0, &pages).zip(rows).collect();
            self.dirty_pages += pages.len() as u64;
            self.pages = pages;
            self.sparse_index = keys;
            self.row_count += 1;
            self.epoch += 1;
            self.rematerialize_faults();
            return Ok(RidDelta {
                added,
                ..RidDelta::default()
            });
        }

        let cmp = |a: &Datum, b: &Datum| a.cmp_same_type(b).unwrap_or(std::cmp::Ordering::Equal);
        // The page this row belongs on: for clustered tables the last
        // page whose first key is ≤ the new key (mirroring
        // `locate_range`), for heaps the tail page.
        let target = match self.clustering_column {
            Some(col) => self
                .sparse_index
                .partition_point(|k| cmp(k, row.get(col)) != std::cmp::Ordering::Greater)
                .saturating_sub(1),
            None => self.pages.len() - 1,
        };

        let old_rows = self.pages[target].read_all(&self.schema)?;
        let pos = match self.clustering_column {
            Some(col) => old_rows
                .partition_point(|r| cmp(r.get(col), row.get(col)) != std::cmp::Ordering::Greater),
            None => old_rows.len(),
        };
        let mut rows = old_rows.clone();
        rows.insert(pos, row);

        let (new_pages, new_keys) = self.pack_rows(&rows)?;
        // Pages after the target shift by however many pages the split
        // added.
        let grown = new_pages.len() - 1;
        let page_map = (grown > 0 && target + 1 < self.pages.len()).then(|| {
            (0..self.pages.len() as u32)
                .map(|p| {
                    if p as usize > target {
                        p + grown as u32
                    } else {
                        p
                    }
                })
                .collect()
        });
        let delta = RidDelta {
            removed: rids_from(target, std::slice::from_ref(&self.pages[target]))
                .zip(old_rows)
                .collect(),
            added: rids_from(target, &new_pages).zip(rows).collect(),
            page_map,
        };
        self.dirty_pages += new_pages.len() as u64;
        self.pages.splice(target..=target, new_pages);
        if self.clustering_column.is_some() {
            self.sparse_index.splice(target..=target, new_keys);
        }
        self.row_count += 1;
        self.epoch += 1;
        self.rematerialize_faults();
        Ok(delta)
    }

    /// Deletes every row matching `pred`, rewriting (and re-sealing)
    /// only the pages that held a match and dropping pages left empty.
    /// `pred` sees every row once, in physical order, decoded into one
    /// reused [`Row`]; only the pages that hold a match are decoded into
    /// owned rows. Returns the number of rows deleted and the RIDs the
    /// delete moved; the epoch advances only if at least one row was
    /// deleted.
    pub fn delete_where<F>(&mut self, mut pred: F) -> Result<(u64, RidDelta)>
    where
        F: FnMut(&Row) -> bool,
    {
        /// One page that held a match: its old rows and what replaces it.
        struct Rewrite {
            page: usize,
            old_rows: Vec<Row>,
            kept: Vec<Row>,
            pages: Vec<Page>,
            keys: Vec<Datum>,
        }
        // Decide every page before changing any, so that a failure
        // leaves the table as it was.
        let mut rewrites = Vec::new();
        let mut keep = Vec::new();
        let mut row = Row::new(Vec::new());
        let mut deleted = 0u64;
        for (p, page) in self.pages.iter().enumerate() {
            keep.clear();
            for view in page.cursor(&self.layout) {
                view?.materialize_into(&mut row);
                keep.push(!pred(&row));
            }
            let kept_count = keep.iter().filter(|k| **k).count();
            if kept_count == keep.len() {
                continue;
            }
            deleted += (keep.len() - kept_count) as u64;
            let rows = page.read_all(&self.schema)?;
            let kept: Vec<Row> = rows
                .iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(r, _)| r.clone())
                .collect();
            // An emptied page packs to no page at all and drops out.
            let (pages, keys) = self.pack_rows(&kept)?;
            rewrites.push(Rewrite {
                page: p,
                old_rows: rows,
                kept,
                pages,
                keys,
            });
        }
        if deleted == 0 {
            return Ok((0, RidDelta::default()));
        }

        let touched = rewrites.len() as u64;
        let old_pages = std::mem::take(&mut self.pages);
        let mut old_keys = std::mem::take(&mut self.sparse_index).into_iter();
        let clustered = self.clustering_column.is_some();
        let mut page_map = Vec::with_capacity(old_pages.len());
        let mut shifted = false;
        let mut delta = RidDelta::default();
        let mut rewrites = rewrites.into_iter().peekable();
        for (p, page) in old_pages.into_iter().enumerate() {
            let at = self.pages.len();
            page_map.push(at as u32);
            let key = if clustered { old_keys.next() } else { None };
            match rewrites.next_if(|r| r.page == p) {
                None => {
                    shifted |= at != p;
                    self.pages.push(page);
                    self.sparse_index.extend(key);
                }
                Some(r) => {
                    let old = rids_from(p, std::slice::from_ref(&page)).zip(r.old_rows);
                    delta.removed.extend(old);
                    delta.added.extend(rids_from(at, &r.pages).zip(r.kept));
                    self.pages.extend(r.pages);
                    self.sparse_index.extend(r.keys);
                }
            }
        }
        delta.page_map = shifted.then_some(page_map);
        self.row_count -= deleted;
        self.dirty_pages += touched;
        self.epoch += 1;
        self.rematerialize_faults();
        Ok((deleted, delta))
    }

    /// The fault plan this table was registered under, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Number of pages carrying injected corruption.
    pub fn injected_fault_count(&self) -> usize {
        self.injected.len()
    }

    /// The page `pid` as the execution engine sees it: stall faults
    /// fire while `attempt` is below the site's stall budget, injected
    /// damage is visible, and — when `verify` is set, i.e. the access
    /// missed the buffer pool and "came from disk" — the page checksum
    /// is validated before any row is decoded.
    pub fn checked_page(&self, pid: PageId, attempt: u32, verify: bool) -> Result<&Page> {
        let idx = pid.0 as usize;
        if idx >= self.pages.len() {
            return Err(Error::PageOutOfBounds {
                page: pid.0,
                page_count: self.pages.len() as u32,
            });
        }
        if verify {
            if let Some(plan) = &self.fault_plan {
                if plan.fault_for(self.table_id, pid) == Some(FaultKind::ReadStall)
                    && attempt < plan.stall_attempts(self.table_id, pid)
                {
                    return Err(Error::ReadStalled {
                        table: self.table_id,
                        page: pid,
                    });
                }
                // Error-return injection: the read syscall itself fails
                // once (no byte damage). Transient by construction —
                // the retry path's next attempt re-reads it fine.
                if attempt == 0
                    && plan.error_fault_for(self.table_id, pid)
                        == Some(crate::ErrorFault::ReadError)
                {
                    return Err(Error::ReadStalled {
                        table: self.table_id,
                        page: pid,
                    });
                }
            }
        }
        let page = self.injected.get(&pid.0).unwrap_or(&self.pages[idx]);
        if verify && !page.checksum_ok() {
            return Err(Error::ChecksumMismatch {
                table: self.table_id,
                page: pid,
            });
        }
        Ok(page)
    }

    /// Zero-copy view of the row at `rid` via the checked read path.
    pub fn checked_row_view(&self, rid: Rid, attempt: u32, verify: bool) -> Result<RowView<'_>> {
        self.checked_page(rid.page, attempt, verify)?
            .view(&self.layout, rid.slot)
    }

    /// The table's compiled row layout.
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Zero-copy cursor over the rows of page `pid` (the scan hot path;
    /// see [`TableStorage::rows_on_page`] for the owned equivalent).
    pub fn page_cursor(&self, pid: PageId) -> Result<PageCursor<'_>> {
        Ok(self.page(pid)?.cursor(&self.layout))
    }

    /// Zero-copy view of the row at `rid`, landing directly on its slot
    /// via the slot directory (the index-fetch hot path).
    pub fn read_row_view(&self, rid: Rid) -> Result<RowView<'_>> {
        self.page(rid.page)?.view(&self.layout, rid.slot)
    }

    /// Decodes every row on page `pid`.
    pub fn rows_on_page(&self, pid: PageId) -> Result<Vec<Row>> {
        self.page(pid)?.read_all(&self.schema)
    }

    /// Decodes the row at `rid`, seeking directly to its slot and
    /// materializing through the table's compiled layout.
    pub fn read_row(&self, rid: Rid) -> Result<Row> {
        Ok(self.read_row_view(rid)?.materialize())
    }

    /// All RIDs of the table in physical order (used for index builds).
    pub fn all_rids(&self) -> impl Iterator<Item = Rid> + '_ {
        rids_from(0, &self.pages)
    }

    /// For a clustered table, the contiguous page range that may contain
    /// clustering-key values in `[lo, hi]` (either bound optional).
    ///
    /// Returns `(first_page, last_page_exclusive)`. Errors if the table
    /// is a heap.
    pub fn locate_range(&self, lo: Option<&Datum>, hi: Option<&Datum>) -> Result<(u32, u32)> {
        if self.clustering_column.is_none() {
            return Err(Error::InvalidArgument(
                "locate_range on a heap (no clustering column)".into(),
            ));
        }
        if self.pages.is_empty() {
            return Ok((0, 0));
        }
        // Validate bound types once against the sparse index, so the
        // comparison closure below can stay infallible.
        for bound in [lo, hi].into_iter().flatten() {
            if let Some(key) = self.sparse_index.first() {
                if key.cmp_same_type(bound).is_none() {
                    return Err(Error::InvalidArgument(
                        "locate_range bound type differs from clustering key".into(),
                    ));
                }
            }
        }
        let cmp = |a: &Datum, b: &Datum| a.cmp_same_type(b).unwrap_or(std::cmp::Ordering::Equal);
        // A page may contain keys ≥ lo unless it ends before lo. The
        // first candidate is the page *before* the first page whose
        // first key is ≥ lo (its tail may still reach lo) — note strict
        // `<` so duplicate keys spanning several pages are all kept.
        let start = match lo {
            None => 0,
            Some(lo) => {
                let idx = self
                    .sparse_index
                    .partition_point(|k| cmp(k, lo) == std::cmp::Ordering::Less);
                idx.saturating_sub(1)
            }
        };
        let end = match hi {
            None => self.pages.len(),
            Some(hi) => self
                .sparse_index
                .partition_point(|k| cmp(k, hi) != std::cmp::Ordering::Greater),
        };
        Ok((start as u32, end.max(start) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("pad", DataType::Str),
        ])
    }

    fn rows(n: i64, pad: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Datum::Int(i), Datum::Str("x".repeat(pad))]))
            .collect()
    }

    #[test]
    fn bulk_load_preserves_order_and_counts() {
        let t = TableStorage::bulk_load(schema(), &rows(1000, 50), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        assert_eq!(t.row_count(), 1000);
        assert!(t.page_count() > 1);
        // Physical order == load order.
        let mut seen = Vec::new();
        for p in 0..t.page_count() {
            for r in t.rows_on_page(PageId(p)).expect("page id within table") {
                seen.push(r.get(0).as_int().expect("int column"));
            }
        }
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn unsorted_clustered_load_is_rejected() {
        let mut rs = rows(10, 4);
        rs.swap(3, 7);
        assert!(TableStorage::bulk_load(schema(), &rs, Some(0), 1024, 1.0).is_err());
    }

    #[test]
    fn heap_accepts_any_order() {
        let mut rs = rows(10, 4);
        rs.swap(3, 7);
        let t =
            TableStorage::bulk_load(schema(), &rs, None, 1024, 1.0).expect("bulk load test table");
        assert_eq!(t.row_count(), 10);
        assert!(t.locate_range(None, None).is_err());
    }

    #[test]
    fn fill_factor_spreads_rows_over_more_pages() {
        let full = TableStorage::bulk_load(schema(), &rows(500, 50), Some(0), 2048, 1.0)
            .expect("bulk load test table");
        let half = TableStorage::bulk_load(schema(), &rows(500, 50), Some(0), 2048, 0.5)
            .expect("bulk load test table");
        assert!(half.page_count() > full.page_count());
        assert_eq!(half.row_count(), full.row_count());
    }

    #[test]
    fn read_row_round_trip() {
        let t = TableStorage::bulk_load(schema(), &rows(100, 10), Some(0), 512, 1.0)
            .expect("bulk load test table");
        let rids: Vec<Rid> = t.all_rids().collect();
        assert_eq!(rids.len(), 100);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(
                t.read_row(*rid)
                    .expect("int column")
                    .get(0)
                    .as_int()
                    .expect("int column"),
                i as i64
            );
        }
    }

    #[test]
    fn view_path_matches_owned_path() {
        let t = TableStorage::bulk_load(schema(), &rows(200, 10), Some(0), 512, 1.0)
            .expect("bulk load test table");
        for p in 0..t.page_count() {
            let owned = t.rows_on_page(PageId(p)).expect("page id within table");
            let viewed: Vec<Row> = t
                .page_cursor(PageId(p))
                .expect("test value is well-formed")
                .map(|v| v.expect("test value is well-formed").materialize())
                .collect();
            assert_eq!(owned, viewed);
        }
        for rid in t.all_rids() {
            let view = t.read_row_view(rid).expect("rid points at a loaded row");
            assert_eq!(
                t.read_row(rid).expect("rid points at a loaded row"),
                view.materialize()
            );
        }
    }

    #[test]
    fn locate_range_brackets_keys() {
        let t = TableStorage::bulk_load(schema(), &rows(1000, 50), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        // Keys 100..=200 must all fall inside the located page range.
        let (lo_p, hi_p) = t
            .locate_range(Some(&Datum::Int(100)), Some(&Datum::Int(200)))
            .expect("test value is well-formed");
        assert!(lo_p < hi_p);
        let mut found = Vec::new();
        for p in lo_p..hi_p {
            for r in t.rows_on_page(PageId(p)).expect("page id within table") {
                let k = r.get(0).as_int().expect("int column");
                if (100..=200).contains(&k) {
                    found.push(k);
                }
            }
        }
        assert_eq!(found, (100..=200).collect::<Vec<_>>());
        // Range below all keys locates an empty-ish prefix.
        let (a, b) = t
            .locate_range(Some(&Datum::Int(-50)), Some(&Datum::Int(-10)))
            .expect("test value is well-formed");
        assert!(b <= a + 1, "negative range should touch at most one page");
    }

    #[test]
    fn locate_range_open_ends() {
        let t = TableStorage::bulk_load(schema(), &rows(300, 50), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        assert_eq!(
            t.locate_range(None, None)
                .expect("bounds typed like the clustering key"),
            (0, t.page_count())
        );
        let (s, _) = t
            .locate_range(Some(&Datum::Int(299)), None)
            .expect("bounds typed like the clustering key");
        assert_eq!(s + 1, t.page_count());
    }

    #[test]
    fn empty_table() {
        let t =
            TableStorage::load_default(schema(), &[], Some(0)).expect("test value is well-formed");
        assert_eq!(t.page_count(), 0);
        assert_eq!(t.row_count(), 0);
        assert_eq!(
            t.locate_range(Some(&Datum::Int(5)), None)
                .expect("bounds typed like the clustering key"),
            (0, 0)
        );
        assert_eq!(t.avg_rows_per_page(), 0.0);
    }

    #[test]
    fn checked_page_matches_pristine_without_faults() {
        let t = TableStorage::bulk_load(schema(), &rows(500, 20), Some(0), 1024, 1.0)
            .expect("bulk load");
        for p in 0..t.page_count() {
            let checked = t.checked_page(PageId(p), 0, true).expect("clean page");
            assert!(checked.checksum_ok());
            assert_eq!(
                checked.slot_count(),
                t.page(PageId(p)).expect("page").slot_count()
            );
        }
        assert!(t.checked_page(PageId(t.page_count()), 0, true).is_err());
    }

    #[test]
    fn fault_plan_damages_only_checked_reads() {
        let mut t = TableStorage::bulk_load(schema(), &rows(2000, 30), Some(0), 1024, 1.0)
            .expect("bulk load");
        let plan = FaultPlan::new(0xBEEF, 1.0).expect("valid plan");
        t.attach_fault_plan(TableId(3), Some(plan));
        assert!(t.injected_fault_count() > 0, "rate 1.0 must damage pages");

        let mut checksum_failures = 0;
        let mut stalls = 0;
        for p in 0..t.page_count() {
            // The oracle view never sees damage.
            assert!(t.page(PageId(p)).expect("pristine page").checksum_ok());
            match t.checked_page(PageId(p), 0, true) {
                Err(Error::ChecksumMismatch { table, page }) => {
                    assert_eq!(table, TableId(3));
                    assert_eq!(page, PageId(p));
                    checksum_failures += 1;
                }
                Err(Error::ReadStalled { .. }) => stalls += 1,
                other => panic!("rate-1.0 page read unexpectedly returned {other:?}"),
            }
        }
        assert!(checksum_failures > 0);
        assert!(stalls > 0);
    }

    #[test]
    fn read_stalls_clear_after_bounded_attempts() {
        let mut t = TableStorage::bulk_load(schema(), &rows(2000, 30), Some(0), 1024, 1.0)
            .expect("bulk load");
        let plan = FaultPlan::new(7, 1.0).expect("valid plan");
        t.attach_fault_plan(TableId(0), Some(plan));
        for p in 0..t.page_count() {
            if !matches!(
                t.checked_page(PageId(p), 0, true),
                Err(Error::ReadStalled { .. })
            ) {
                continue;
            }
            let budget = plan.stall_attempts(TableId(0), PageId(p));
            for a in 0..budget {
                assert!(
                    matches!(
                        t.checked_page(PageId(p), a, true),
                        Err(Error::ReadStalled { .. })
                    ),
                    "attempt {a} under budget {budget} must still stall"
                );
            }
            let ok = t
                .checked_page(PageId(p), budget, true)
                .expect("stall clears");
            assert!(ok.checksum_ok(), "stalled pages are undamaged");
        }
    }

    #[test]
    fn unverified_reads_skip_fault_checks() {
        let mut t = TableStorage::bulk_load(schema(), &rows(500, 30), Some(0), 1024, 1.0)
            .expect("bulk load");
        t.attach_fault_plan(
            TableId(0),
            Some(FaultPlan::new(7, 1.0).expect("valid plan")),
        );
        // verify=false models a buffer-pool hit: the page was verified
        // when it entered the pool, so no fault fires on re-access.
        for p in 0..t.page_count() {
            assert!(t.checked_page(PageId(p), 0, false).is_ok());
        }
    }

    #[test]
    fn insert_preserves_clustered_order_and_bumps_epoch() {
        let mut t = TableStorage::bulk_load(schema(), &rows(500, 30), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.dirty_pages(), 0);
        // Insert keys that land in the middle, at the front, and past
        // the end of the key space.
        for (i, k) in [250, -5, 10_000, 123, 123].iter().enumerate() {
            t.insert_row(Row::new(vec![Datum::Int(*k), Datum::Str("new".into())]))
                .expect("insert fits");
            assert_eq!(t.epoch(), i as u64 + 1, "each insert bumps the epoch");
        }
        assert!(t.dirty_pages() >= 5, "each insert rewrites >= 1 page");
        assert_eq!(t.row_count(), 505);
        // Physical order must still be globally sorted, and every page
        // must carry a valid seal.
        let mut seen = Vec::new();
        for p in 0..t.page_count() {
            assert!(t.page(PageId(p)).expect("page").checksum_ok());
            for r in t.rows_on_page(PageId(p)).expect("page id within table") {
                seen.push(r.get(0).as_int().expect("int column"));
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "clustered order survives inserts");
        assert_eq!(seen.len(), 505);
        // The sparse index still brackets seeks correctly.
        let (lo, hi) = t
            .locate_range(Some(&Datum::Int(123)), Some(&Datum::Int(123)))
            .expect("range over ints");
        let mut found = 0;
        for p in lo..hi {
            found += t
                .rows_on_page(PageId(p))
                .expect("page id within table")
                .iter()
                .filter(|r| r.get(0) == &Datum::Int(123))
                .count();
        }
        assert_eq!(found, 3, "original key 123 plus two inserted duplicates");
    }

    #[test]
    fn insert_splits_full_page() {
        let mut t = TableStorage::bulk_load(schema(), &rows(200, 30), Some(0), 512, 1.0)
            .expect("bulk load test table");
        let before = t.page_count();
        // Pages were loaded at fill factor 1.0, so inserting into one
        // must overflow it into a split somewhere along the way.
        for k in 0..20 {
            t.insert_row(Row::new(vec![
                Datum::Int(k * 10),
                Datum::Str("x".repeat(30)),
            ]))
            .expect("insert fits");
        }
        assert!(t.page_count() > before, "splits must add pages");
        assert_eq!(t.row_count(), 220);
    }

    #[test]
    fn insert_into_heap_appends() {
        let mut t = TableStorage::bulk_load(schema(), &rows(50, 10), None, 512, 1.0)
            .expect("bulk load test table");
        t.insert_row(Row::new(vec![Datum::Int(-999), Datum::Str("tail".into())]))
            .expect("insert fits");
        let last = t
            .rows_on_page(PageId(t.page_count() - 1))
            .expect("last page");
        assert_eq!(
            last.last().expect("nonempty page").get(0),
            &Datum::Int(-999),
            "heap insert appends at the physical tail"
        );
    }

    #[test]
    fn insert_into_empty_table() {
        let mut t =
            TableStorage::load_default(schema(), &[], Some(0)).expect("empty load succeeds");
        t.insert_row(Row::new(vec![Datum::Int(7), Datum::Str("only".into())]))
            .expect("insert fits");
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.page_count(), 1);
        let (lo, hi) = t
            .locate_range(Some(&Datum::Int(7)), Some(&Datum::Int(7)))
            .expect("range over ints");
        assert_eq!((lo, hi), (0, 1));
    }

    #[test]
    fn insert_rejects_wrong_key_type() {
        let mut t = TableStorage::bulk_load(schema(), &rows(10, 4), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        let bad = Row::new(vec![
            Datum::Str("not-an-int".into()),
            Datum::Str("p".into()),
        ]);
        assert!(t.insert_row(bad).is_err());
        assert_eq!(t.epoch(), 0, "failed insert must not bump the epoch");
    }

    #[test]
    fn delete_where_rewrites_matching_pages_only() {
        let mut t = TableStorage::bulk_load(schema(), &rows(500, 30), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        let pages_before = t.page_count();
        let (deleted, _) = t
            .delete_where(|r| {
                let k = r.get(0).as_int().unwrap_or(0);
                (100..200).contains(&k)
            })
            .expect("delete succeeds");
        assert_eq!(deleted, 100);
        assert_eq!(t.row_count(), 400);
        assert_eq!(t.epoch(), 1);
        assert!(t.dirty_pages() > 0);
        assert!(
            t.dirty_pages() < u64::from(pages_before),
            "untouched pages stay"
        );
        for p in 0..t.page_count() {
            assert!(t.page(PageId(p)).expect("page").checksum_ok());
            for r in t.rows_on_page(PageId(p)).expect("page id within table") {
                let k = r.get(0).as_int().expect("int column");
                assert!(!(100..200).contains(&k), "deleted key {k} survived");
            }
        }
        // Seeks still work over the respliced sparse index.
        let (lo, hi) = t
            .locate_range(Some(&Datum::Int(300)), Some(&Datum::Int(310)))
            .expect("range over ints");
        let mut found = 0;
        for p in lo..hi {
            found += t
                .rows_on_page(PageId(p))
                .expect("page id within table")
                .iter()
                .filter(|r| (300..=310).contains(&r.get(0).as_int().expect("int column")))
                .count();
        }
        assert_eq!(found, 11);
    }

    #[test]
    fn delete_everything_empties_the_table() {
        let mut t = TableStorage::bulk_load(schema(), &rows(100, 10), Some(0), 512, 1.0)
            .expect("bulk load test table");
        assert_eq!(t.delete_where(|_| true).expect("delete succeeds").0, 100);
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.page_count(), 0);
        assert_eq!(
            t.locate_range(Some(&Datum::Int(5)), None)
                .expect("range on empty table"),
            (0, 0)
        );
    }

    #[test]
    fn delete_matching_nothing_keeps_epoch() {
        let mut t = TableStorage::bulk_load(schema(), &rows(100, 10), Some(0), 512, 1.0)
            .expect("bulk load test table");
        let (deleted, delta) = t.delete_where(|_| false).expect("delete succeeds");
        assert_eq!(deleted, 0);
        assert!(delta.is_empty());
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.dirty_pages(), 0);
    }

    #[test]
    fn dml_rematerializes_fault_damage() {
        let mut t = TableStorage::bulk_load(schema(), &rows(2000, 30), Some(0), 1024, 1.0)
            .expect("bulk load test table");
        let plan = FaultPlan::new(0xD31, 0.5).expect("valid plan");
        t.attach_fault_plan(TableId(2), Some(plan));
        let before = t.injected_fault_count();
        assert!(before > 0);
        t.delete_where(|r| r.get(0).as_int().unwrap_or(0) % 2 == 0)
            .expect("delete succeeds");
        // The damage set is re-derived over the rewritten (smaller)
        // page set: every injected copy matches a live page, and the
        // checked read path still reports the damage.
        let live = t.page_count();
        let mut caught = 0;
        for p in 0..live {
            // Oracle stays pristine.
            assert!(t.page(PageId(p)).expect("pristine page").checksum_ok());
            if matches!(
                t.checked_page(PageId(p), 0, true),
                Err(Error::ChecksumMismatch { .. })
            ) {
                caught += 1;
            }
        }
        assert_eq!(caught, t.injected_fault_count());
        assert!(caught > 0, "rate-0.5 plan must damage some live page");
    }

    /// Every row of `t` under its RID.
    fn snapshot(t: &TableStorage) -> Vec<(Rid, Row)> {
        t.all_rids()
            .map(|rid| (rid, t.read_row(rid).expect("live rid")))
            .collect()
    }

    /// `before` with `delta` applied: the rewritten rows leave, the
    /// untouched ones follow the page map, the new ones arrive.
    fn follow(before: Vec<(Rid, Row)>, delta: &RidDelta) -> Vec<(Rid, Row)> {
        let mut rows: Vec<(Rid, Row)> = before
            .into_iter()
            .filter(|entry| !delta.removed.contains(entry))
            .map(|(rid, row)| match &delta.page_map {
                Some(map) => (Rid::new(map[rid.page.0 as usize], rid.slot.0), row),
                None => (rid, row),
            })
            .chain(delta.added.iter().cloned())
            .collect();
        rows.sort_by_key(|(rid, _)| *rid);
        rows
    }

    #[test]
    fn rid_delta_accounts_for_every_move() {
        for clustered in [Some(0), None] {
            let mut t = TableStorage::bulk_load(schema(), &rows(400, 30), clustered, 1024, 1.0)
                .expect("bulk load test table");
            let mut rng = pf_common::rng::Rng::new(11);
            let (mut splits, mut emptied) = (0, 0);
            for step in 0..60 {
                let before = snapshot(&t);
                let pages = t.page_count();
                let delta = if step % 3 == 2 {
                    // Delete the whole of one page's key range.
                    let page = t
                        .rows_on_page(PageId(rng.gen_range(u64::from(pages)) as u32))
                        .expect("live page");
                    let keys: Vec<Datum> = page.iter().map(|r| r.get(0).clone()).collect();
                    let (n, delta) = t
                        .delete_where(|r| keys.contains(r.get(0)))
                        .expect("delete succeeds");
                    assert!(n >= keys.len() as u64);
                    delta
                } else {
                    let k = rng.gen_range(400) as i64;
                    t.insert_row(Row::new(vec![Datum::Int(k), Datum::Str("y".repeat(30))]))
                        .expect("insert fits")
                };
                if delta.page_map.is_some() {
                    if t.page_count() > pages {
                        splits += 1;
                    } else {
                        emptied += 1;
                    }
                }
                assert_eq!(follow(before, &delta), snapshot(&t), "step {step}");
            }
            if clustered.is_some() {
                assert!(splits > 0, "no insert split a page mid-table");
            }
            assert!(emptied > 0, "no delete emptied a page mid-table");
        }
    }

    #[test]
    fn duplicate_clustering_keys_allowed() {
        let rs: Vec<Row> = (0..100)
            .map(|i| Row::new(vec![Datum::Int(i / 10), Datum::Str("p".into())]))
            .collect();
        let t = TableStorage::bulk_load(schema(), &rs, Some(0), 256, 1.0)
            .expect("bulk load test table");
        let (lo, hi) = t
            .locate_range(Some(&Datum::Int(5)), Some(&Datum::Int(5)))
            .expect("test value is well-formed");
        let mut count = 0;
        for p in lo..hi {
            count += t
                .rows_on_page(PageId(p))
                .expect("test value is well-formed")
                .iter()
                .filter(|r| r.get(0) == &Datum::Int(5))
                .count();
        }
        assert_eq!(count, 10);
    }
}
