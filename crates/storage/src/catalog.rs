//! The catalog: tables, nonclustered indexes, and their statistics.

use crate::btree::BPlusTree;
use crate::fault::FaultPlan;
use crate::page::DEFAULT_PAGE_SIZE;
use crate::table::{RidDelta, TableStorage};
use pf_common::{Error, IndexId, PageId, Result, Row, Schema, TableId};
use std::sync::Arc;

/// Catalog-level statistics for a table (what `sys.dm_db_partition_stats`
/// would expose): the inputs to both the analytical DPC models and the
/// cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Page count.
    pub pages: u32,
    /// Average rows per page.
    pub rows_per_page: f64,
}

/// A table registered in the catalog.
#[derive(Debug)]
pub struct TableMeta {
    /// Catalog id.
    pub id: TableId,
    /// Unique name.
    pub name: String,
    /// Physical storage (pages).
    pub storage: Arc<TableStorage>,
    /// Statistics captured at load time.
    pub stats: TableStats,
}

impl TableMeta {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.storage.schema()
    }
}

/// A nonclustered index registered in the catalog.
#[derive(Debug)]
pub struct IndexMeta {
    /// Catalog id.
    pub id: IndexId,
    /// Unique name.
    pub name: String,
    /// Table the index belongs to.
    pub table: TableId,
    /// Ordinal of the key column in the table schema.
    pub key_column: usize,
    /// The B+-tree (`key -> RIDs`).
    pub tree: Arc<BPlusTree>,
    /// Estimated leaf pages (for index I/O costing).
    pub leaf_pages: u32,
    /// Tree height (root to leaf).
    pub height: u32,
    /// Stored bytes of every key in the tree, kept current by DML so
    /// that `leaf_pages` follows the same formula as a fresh build.
    key_bytes: usize,
}

impl IndexMeta {
    /// Follows one DML statement's RID changes in place: drops the
    /// entries of the rewritten pages, remaps the pages that shifted,
    /// then adds the entries of the replacement pages. A plan that holds
    /// the tree keeps its snapshot (the tree is copied on write).
    fn apply(&mut self, delta: &RidDelta) {
        let col = self.key_column;
        let tree = Arc::make_mut(&mut self.tree);
        for (rid, row) in &delta.removed {
            let key = row.get(col);
            let found = tree.remove(key, *rid);
            assert!(found, "index {} lacks {key} -> {rid}", self.name);
            self.key_bytes -= key.stored_size();
        }
        if let Some(map) = &delta.page_map {
            tree.remap_pages(|p| PageId(map[p.0 as usize]));
        }
        for (rid, row) in &delta.added {
            let key = row.get(col);
            self.key_bytes += key.stored_size();
            tree.insert(key.clone(), *rid);
        }
        self.leaf_pages = leaf_pages(tree.entry_count(), self.key_bytes);
        self.height = tree.height();
    }
}

/// Estimated leaf pages of an index with `entries` entries whose keys
/// total `key_bytes`: a leaf entry is its key plus a 6-byte RID, at the
/// ~70 % leaf fill of a real engine.
fn leaf_pages(entries: usize, key_bytes: usize) -> u32 {
    let entries = entries.max(1);
    let avg_entry = key_bytes / entries + 6;
    let leaf_bytes = entries * avg_entry;
    ((leaf_bytes as f64 / (DEFAULT_PAGE_SIZE as f64 * 0.7)).ceil() as u32).max(1)
}

/// The catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    indexes: Vec<IndexMeta>,
    /// Fault plan installed into every table registered from now on.
    fault_plan: Option<FaultPlan>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The catalog's active fault plan.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Installs `plan` retroactively on every registered table as well
    /// as prospectively for tables registered later. Damage is a pure
    /// function of `(seed, table, page)` over the pristine bytes, so
    /// this is byte-identical to having set the plan before loading.
    /// Fails if any table's storage is currently shared (a query or
    /// index build holds a reference) — installation must not race the
    /// read path.
    pub fn install_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<()> {
        for t in &mut self.tables {
            if Arc::get_mut(&mut t.storage).is_none() {
                return Err(Error::InvalidArgument(format!(
                    "cannot change the fault plan while table {} is in use",
                    t.name
                )));
            }
        }
        for t in &mut self.tables {
            if let Some(storage) = Arc::get_mut(&mut t.storage) {
                storage.attach_fault_plan(t.id, plan);
            }
        }
        self.fault_plan = plan;
        Ok(())
    }

    /// Registers a loaded table under `name`. Fails on duplicate names.
    /// The table receives its catalog identity and, if a fault plan is
    /// set, its deterministic share of injected page damage.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        mut storage: TableStorage,
    ) -> Result<TableId> {
        let name = name.into();
        if self.tables.iter().any(|t| t.name == name) {
            return Err(Error::InvalidArgument(format!(
                "table {name} already exists"
            )));
        }
        let id = TableId(self.tables.len() as u32);
        storage.attach_fault_plan(id, self.fault_plan);
        let stats = TableStats {
            rows: storage.row_count(),
            pages: storage.page_count(),
            rows_per_page: storage.avg_rows_per_page(),
        };
        self.tables.push(TableMeta {
            id,
            name,
            storage: Arc::new(storage),
            stats,
        });
        Ok(id)
    }

    /// Builds and registers a nonclustered index on `column` of `table`.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        table: TableId,
        column: &str,
    ) -> Result<IndexId> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(Error::InvalidArgument(format!(
                "index {name} already exists"
            )));
        }
        let meta = self.table(table)?;
        let col = meta.schema().index_of(column)?;
        let (tree, key_bytes) = Self::build_index_tree(&meta.storage, col)?;

        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(IndexMeta {
            id,
            name,
            table,
            key_column: col,
            leaf_pages: leaf_pages(tree.entry_count(), key_bytes),
            height: tree.height(),
            tree: Arc::new(tree),
            key_bytes,
        });
        Ok(id)
    }

    /// Builds the B+-tree for an index keyed on column ordinal `col` of
    /// `storage`, in RID order and decoding only the key column; returns
    /// it with the stored bytes of its keys. DML maintains the tree in
    /// place afterwards ([`Catalog::insert_row`], [`Catalog::delete_where`]).
    fn build_index_tree(storage: &TableStorage, col: usize) -> Result<(BPlusTree, usize)> {
        let mut tree = BPlusTree::new();
        let mut key_bytes = 0usize;
        for rid in storage.all_rids() {
            let key = storage.read_row_view(rid)?.get(col).to_datum();
            key_bytes += key.stored_size();
            tree.insert(key, rid);
        }
        Ok((tree, key_bytes))
    }

    /// Applies `mutate` to the storage of `table` — the single entry
    /// point for DML. Requires exclusive ownership of the storage (no
    /// concurrent query or index build may hold a reference), then
    /// refreshes the table's statistics and carries the RID changes the
    /// statement reports into every index on the table, in place.
    fn mutate_table<R>(
        &mut self,
        table: TableId,
        mutate: impl FnOnce(&mut TableStorage) -> Result<(R, RidDelta)>,
    ) -> Result<R> {
        let meta = self
            .tables
            .get_mut(table.0 as usize)
            .ok_or_else(|| Error::UnknownTable(format!("{table}")))?;
        let storage = Arc::get_mut(&mut meta.storage).ok_or_else(|| {
            Error::InvalidArgument(format!(
                "cannot mutate table {} while it is in use",
                meta.name
            ))
        })?;
        let (out, delta) = mutate(storage)?;
        meta.stats = TableStats {
            rows: storage.row_count(),
            pages: storage.page_count(),
            rows_per_page: storage.avg_rows_per_page(),
        };
        if !delta.is_empty() {
            for ix in self.indexes.iter_mut().filter(|i| i.table == table) {
                ix.apply(&delta);
            }
        }
        Ok(out)
    }

    /// Inserts `row` into `table`, keeping stats and indexes consistent.
    pub fn insert_row(&mut self, table: TableId, row: Row) -> Result<()> {
        self.mutate_table(table, |s| Ok(((), s.insert_row(row)?)))
    }

    /// Deletes every row of `table` matching `pred`; returns the count.
    pub fn delete_where<F>(&mut self, table: TableId, pred: F) -> Result<u64>
    where
        F: FnMut(&Row) -> bool,
    {
        self.mutate_table(table, |s| s.delete_where(pred))
    }

    /// The modification state of `table` (epoch, dirty pages, pages).
    pub fn epoch_state(&self, table: TableId) -> Result<crate::table::EpochState> {
        Ok(self.table(table)?.storage.epoch_state())
    }

    /// Table metadata by id.
    pub fn table(&self, id: TableId) -> Result<&TableMeta> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::UnknownTable(format!("{id}")))
    }

    /// Table metadata by name.
    pub fn table_by_name(&self, name: &str) -> Result<&TableMeta> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Index metadata by id.
    pub fn index(&self, id: IndexId) -> Result<&IndexMeta> {
        self.indexes
            .get(id.0 as usize)
            .ok_or_else(|| Error::UnknownIndex(format!("{id}")))
    }

    /// Index metadata by name.
    pub fn index_by_name(&self, name: &str) -> Result<&IndexMeta> {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| Error::UnknownIndex(name.to_string()))
    }

    /// All indexes on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &IndexMeta> {
        self.indexes.iter().filter(move |i| i.table == table)
    }

    /// The index on `table` whose key is column ordinal `col`, if any.
    pub fn index_on_column(&self, table: TableId, col: usize) -> Option<&IndexMeta> {
        self.indexes
            .iter()
            .find(|i| i.table == table && i.key_column == col)
    }

    /// All tables.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// All indexes.
    pub fn indexes(&self) -> &[IndexMeta] {
        &self.indexes
    }
}

/// Fluent builder: collect rows, pick a clustering column, load, register.
///
/// ```
/// use pf_common::{Column, DataType, Datum, Row, Schema};
/// use pf_storage::{Catalog, TableBuilder};
///
/// let mut catalog = Catalog::new();
/// let schema = Schema::new(vec![
///     Column::new("id", DataType::Int),
///     Column::new("state", DataType::Str),
/// ]);
/// let rows: Vec<Row> = (0..100)
///     .map(|i| Row::new(vec![Datum::Int(i), Datum::Str("CA".into())]))
///     .collect();
/// let id = TableBuilder::new("sales", schema)
///     .rows(rows)
///     .clustered_on("id")
///     .register(&mut catalog)
///     .expect("test value is well-formed");
/// catalog.create_index("ix_state", id, "state").expect("index over known column");
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    clustering: Option<String>,
    page_size: usize,
    fill_factor: f64,
}

impl TableBuilder {
    /// Starts a builder for table `name` with `schema`.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema,
            rows: Vec::new(),
            clustering: None,
            page_size: DEFAULT_PAGE_SIZE,
            fill_factor: 1.0,
        }
    }

    /// Supplies the rows (replacing any previously supplied).
    pub fn rows(mut self, rows: Vec<Row>) -> Self {
        self.rows = rows;
        self
    }

    /// Declares `column` as the clustering key; rows are sorted by it
    /// during [`TableBuilder::register`].
    pub fn clustered_on(mut self, column: impl Into<String>) -> Self {
        self.clustering = Some(column.into());
        self
    }

    /// Overrides the page size (default 8 KB).
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Overrides the fill factor (default 1.0).
    pub fn fill_factor(mut self, f: f64) -> Self {
        self.fill_factor = f;
        self
    }

    /// Sorts (if clustered), bulk-loads, and registers the table.
    pub fn register(self, catalog: &mut Catalog) -> Result<TableId> {
        let TableBuilder {
            name,
            schema,
            mut rows,
            clustering,
            page_size,
            fill_factor,
        } = self;
        let clustering_col = match clustering {
            Some(c) => {
                let col = schema.index_of(&c)?;
                // Mixed-typed keys sort as equal here; bulk_load's sorted
                // check below reports them as a SchemaMismatch.
                rows.sort_by(|a, b| {
                    a.get(col)
                        .cmp_same_type(b.get(col))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                Some(col)
            }
            None => None,
        };
        let storage =
            TableStorage::bulk_load(schema, &rows, clustering_col, page_size, fill_factor)?;
        catalog.add_table(name, storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType, Datum};

    fn sample_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int((i * 7) % n), // a permuted column
                    Datum::Str(if i % 3 == 0 { "CA" } else { "WA" }.into()),
                ])
            })
            .collect()
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("perm", DataType::Int),
            Column::new("state", DataType::Str),
        ])
    }

    #[test]
    fn build_register_and_lookup() {
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(sample_rows(500))
            .clustered_on("id")
            .page_size(1024)
            .register(&mut cat)
            .expect("test value is well-formed");
        let meta = cat.table(id).expect("test value is well-formed");
        assert_eq!(meta.stats.rows, 500);
        assert!(meta.stats.pages > 1);
        assert!(cat.table_by_name("t").is_ok());
        assert!(cat.table_by_name("missing").is_err());
    }

    #[test]
    fn duplicate_table_name_rejected() {
        let mut cat = Catalog::new();
        TableBuilder::new("t", schema())
            .rows(sample_rows(10))
            .register(&mut cat)
            .expect("test value is well-formed");
        let dup = TableBuilder::new("t", schema())
            .rows(sample_rows(10))
            .register(&mut cat);
        assert!(dup.is_err());
    }

    #[test]
    fn index_build_covers_all_rows() {
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(sample_rows(500))
            .clustered_on("id")
            .page_size(1024)
            .register(&mut cat)
            .expect("test value is well-formed");
        let ix = cat
            .create_index("ix_perm", id, "perm")
            .expect("index over known column");
        let meta = cat.index(ix).expect("test value is well-formed");
        assert_eq!(meta.tree.entry_count(), 500);
        assert_eq!(meta.key_column, 1);
        assert!(meta.leaf_pages >= 1);
        // Every key is findable and its RIDs point at matching rows.
        let table = cat.table(id).expect("test value is well-formed");
        for k in 0..500 {
            let rids = meta
                .tree
                .get(&Datum::Int(k))
                .expect("test value is well-formed");
            for rid in rids {
                let row = table
                    .storage
                    .read_row(*rid)
                    .expect("rid points at a loaded row");
                assert_eq!(row.get(1), &Datum::Int(k));
            }
        }
    }

    #[test]
    fn index_on_string_column() {
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(sample_rows(90))
            .register(&mut cat)
            .expect("test value is well-formed");
        let ix = cat
            .create_index("ix_state", id, "state")
            .expect("index over known column");
        let meta = cat.index(ix).expect("test value is well-formed");
        let ca = meta
            .tree
            .get(&Datum::Str("CA".into()))
            .expect("test value is well-formed");
        assert_eq!(ca.len(), 30);
    }

    #[test]
    fn index_lookup_helpers() {
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(sample_rows(50))
            .register(&mut cat)
            .expect("test value is well-formed");
        cat.create_index("a", id, "perm")
            .expect("index over known column");
        cat.create_index("b", id, "state")
            .expect("index over known column");
        assert_eq!(cat.indexes_on(id).count(), 2);
        assert!(cat.index_on_column(id, 1).is_some());
        assert!(cat.index_on_column(id, 0).is_none());
        assert!(cat.index_by_name("a").is_ok());
        assert!(cat.index_by_name("zz").is_err());
        assert!(
            cat.create_index("a", id, "perm").is_err(),
            "duplicate index name"
        );
    }

    #[test]
    fn dml_refreshes_stats_and_rebuilds_indexes() {
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(sample_rows(500))
            .clustered_on("id")
            .page_size(1024)
            .register(&mut cat)
            .expect("register test table");
        let ix = cat
            .create_index("ix_perm", id, "perm")
            .expect("index over known column");

        let deleted = cat
            .delete_where(id, |r| r.get(0).as_int().unwrap_or(0) < 100)
            .expect("delete succeeds");
        assert_eq!(deleted, 100);
        let meta = cat.table(id).expect("table exists");
        assert_eq!(meta.stats.rows, 400, "stats refresh after delete");
        assert_eq!(meta.stats.pages, meta.storage.page_count());
        let state = cat.epoch_state(id).expect("table exists");
        assert_eq!(state.epoch, 1);
        assert!(state.dirty_pages > 0);

        // The index followed the delete: entry count matches, and every
        // RID it holds points at a row with the indexed key.
        let ixm = cat.index(ix).expect("index exists");
        assert_eq!(ixm.tree.entry_count(), 400);
        let table = cat.table(id).expect("table exists");
        for k in 0..500 {
            if let Some(rids) = ixm.tree.get(&Datum::Int((k * 7) % 500)) {
                for rid in rids {
                    let row = table
                        .storage
                        .read_row(*rid)
                        .expect("rid valid after the delete");
                    assert_eq!(row.get(1), &Datum::Int((k * 7) % 500));
                }
            }
        }

        cat.insert_row(
            id,
            Row::new(vec![Datum::Int(42), Datum::Int(7), Datum::Str("CA".into())]),
        )
        .expect("insert succeeds");
        assert_eq!(cat.table(id).expect("table exists").stats.rows, 401);
        assert_eq!(cat.index(ix).expect("index exists").tree.entry_count(), 401);
        assert_eq!(cat.epoch_state(id).expect("table exists").epoch, 2);
    }

    #[test]
    fn dml_refused_while_storage_is_shared() {
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(sample_rows(20))
            .register(&mut cat)
            .expect("register test table");
        let hold = Arc::clone(&cat.table(id).expect("table exists").storage);
        assert!(cat
            .insert_row(
                id,
                Row::new(vec![Datum::Int(1), Datum::Int(1), Datum::Str("CA".into())]),
            )
            .is_err());
        drop(hold);
        assert!(cat
            .insert_row(
                id,
                Row::new(vec![Datum::Int(1), Datum::Int(1), Datum::Str("CA".into())]),
            )
            .is_ok());
    }

    /// Every `(key, RIDs)` entry of `tree`, in key order.
    fn entries(tree: &BPlusTree) -> Vec<(Datum, Vec<pf_common::Rid>)> {
        tree.iter().map(|(k, r)| (k.clone(), r.to_vec())).collect()
    }

    /// Random DML over 1 KiB pages, clustered and heap: after every
    /// statement each maintained index must equal a fresh build over the
    /// current table — the same key → RID sequence (posting lists in RID
    /// order included), the same `leaf_pages` and the same `height`.
    /// Inserts split pages mid-table and deletes empty whole pages, so
    /// the page map is exercised; heap tables shrink far enough that
    /// their `k` index falls back to one leaf.
    #[test]
    fn maintained_indexes_equal_a_fresh_build() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("pad", DataType::Str),
        ]);
        let row = |rng: &mut pf_common::rng::Rng, id: i64| {
            Row::new(vec![
                Datum::Int(id),
                Datum::Int(rng.gen_range(150) as i64),
                Datum::Str(format!("s{:03}", rng.gen_range(400))),
                Datum::Str("p".repeat(20 + rng.gen_range(40) as usize)),
            ])
        };
        for seed in 0..20u64 {
            for clustered in [true, false] {
                let mut rng = pf_common::rng::Rng::new(seed);
                let rows: Vec<Row> = (0..300).map(|i| row(&mut rng, i * 4)).collect();
                let mut table = TableBuilder::new("t", schema.clone())
                    .rows(rows)
                    .page_size(1024);
                if clustered {
                    table = table.clustered_on("id");
                }
                let mut cat = Catalog::new();
                let id = table.register(&mut cat).expect("register test table");
                for c in ["id", "k", "s"] {
                    cat.create_index(format!("ix_{c}"), id, c)
                        .expect("index over known column");
                }
                let (mut splits, mut emptied) = (0, 0);
                for step in 0..60 {
                    let storage = Arc::clone(&cat.table(id).expect("table").storage);
                    let pages = storage.page_count();
                    let last_id = storage
                        .read_row(storage.all_rids().last().expect("nonempty table"))
                        .expect("live rid")
                        .get(0)
                        .as_int()
                        .expect("int id");
                    let r = rng.gen_range(10);
                    let page_rows = storage
                        .rows_on_page(PageId(rng.gen_range(u64::from(pages)) as u32))
                        .expect("live page");
                    drop(storage);
                    if r < 6 {
                        let new_id = rng.gen_range(1_250) as i64;
                        cat.insert_row(id, row(&mut rng, new_id))
                            .expect("insert succeeds");
                        let now = cat.table(id).expect("table").storage.page_count();
                        if now > pages && new_id < last_id {
                            splits += 1;
                        }
                    } else if r < 8 {
                        // Empty one whole page: delete every row sharing
                        // an id with it.
                        let ids: Vec<Datum> = page_rows.iter().map(|r| r.get(0).clone()).collect();
                        cat.delete_where(id, |r| ids.contains(r.get(0)))
                            .expect("delete succeeds");
                        let now = cat.table(id).expect("table").storage.page_count();
                        if now < pages {
                            emptied += 1;
                        }
                    } else {
                        let k = Datum::Int(rng.gen_range(150) as i64);
                        cat.delete_where(id, |r| r.get(1) == &k)
                            .expect("delete succeeds");
                    }
                    let storage = &cat.table(id).expect("table").storage;
                    for ix in cat.indexes_on(id) {
                        let (fresh, key_bytes) =
                            Catalog::build_index_tree(storage, ix.key_column).expect("build");
                        let at =
                            format!("seed {seed} clustered {clustered} step {step} {}", ix.name);
                        assert!(ix.tree.check_invariants().is_empty(), "{at}");
                        assert_eq!(entries(&ix.tree), entries(&fresh), "{at}");
                        assert_eq!(ix.key_bytes, key_bytes, "{at}");
                        assert_eq!(
                            ix.leaf_pages,
                            leaf_pages(fresh.entry_count(), key_bytes),
                            "{at}"
                        );
                        assert_eq!(ix.height, fresh.height(), "{at}");
                        assert_eq!(ix.height, ix.tree.height(), "{at}");
                    }
                }
                if clustered {
                    assert!(splits > 0, "seed {seed}: no insert split a page mid-table");
                }
                assert!(emptied > 0, "seed {seed}: no delete emptied a page");
            }
        }
    }

    #[test]
    fn builder_sorts_for_clustering() {
        let mut rows = sample_rows(100);
        rows.reverse(); // builder must sort them back
        let mut cat = Catalog::new();
        let id = TableBuilder::new("t", schema())
            .rows(rows)
            .clustered_on("id")
            .register(&mut cat)
            .expect("test value is well-formed");
        let st = &cat.table(id).expect("test value is well-formed").storage;
        let first = st
            .rows_on_page(pf_common::PageId(0))
            .expect("page id within table");
        assert_eq!(first[0].get(0), &Datum::Int(0));
    }
}
