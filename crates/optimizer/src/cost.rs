//! The cost model.
//!
//! Mirrors the executor's charging (same [`DiskModel`] constants), so
//! that *when the optimizer is given accurate inputs — cardinality and
//! distinct page count — its cost prediction matches the executor's
//! simulated time*: within 0.1 % for index seeks, index intersections,
//! hash and INL joins, 1 % for clustered range scans and 5 % for table
//! scans (`tests/differential.rs`). That property is what makes
//! injection experiments meaningful: any remaining plan-quality gap is
//! attributable to estimation error, not cost-model divergence.

use pf_storage::DiskModel;

/// Cost formulas over a [`DiskModel`]; all results in simulated ms.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// The underlying constants.
    pub disk: DiskModel,
}

impl CostModel {
    /// A model with the default constants.
    pub fn new() -> Self {
        CostModel {
            disk: DiskModel::default(),
        }
    }

    /// A model with explicit constants.
    pub fn with_disk(disk: DiskModel) -> Self {
        CostModel { disk }
    }

    /// Full sequential scan: every page read sequentially, every row
    /// surfaced, roughly one conjunct evaluated per row (short-circuit).
    pub fn table_scan(&self, pages: f64, rows: f64, atoms: usize) -> f64 {
        let d = &self.disk;
        pages * (d.seq_read_ms + d.logical_read_ms)
            + rows * d.cpu_row_ms
            + rows * (atoms.min(1) as f64) * d.cpu_pred_ms
    }

    /// Clustered range scan: one positioning seek, then `pages_touched`
    /// sequential reads of `rows_scanned` rows.
    pub fn clustered_range(&self, pages_touched: f64, rows_scanned: f64, atoms: usize) -> f64 {
        let d = &self.disk;
        d.rand_read_ms
            + (pages_touched - 1.0).max(0.0) * (d.seq_read_ms + d.logical_read_ms)
            + d.logical_read_ms
            + rows_scanned * d.cpu_row_ms
            + rows_scanned * (atoms.min(1) as f64) * d.cpu_pred_ms
    }

    /// Index seek + Fetch: B+-tree descent and leaf walk, then one
    /// logical read per matching row of which `dpc` are physical random
    /// reads, plus residual predicate CPU.
    pub fn index_seek(
        &self,
        height: u32,
        matching_rows: f64,
        dpc: f64,
        residual_atoms: usize,
    ) -> f64 {
        let d = &self.disk;
        (f64::from(height) + matching_rows / 64.0) * d.index_node_ms
            + matching_rows * (d.logical_read_ms + d.cpu_row_ms)
            + matching_rows * residual_atoms as f64 * d.cpu_pred_ms
            + dpc * d.rand_read_ms
    }

    /// Covering index-only scan: descend once, walk `entries` leaf
    /// entries — index pages are hot and there is no base-table I/O.
    pub fn index_only_scan(&self, height: u32, entries: f64) -> f64 {
        let d = &self.disk;
        (f64::from(height) + entries / 64.0) * d.index_node_ms + entries * d.cpu_row_ms
    }

    /// Index intersection: two seeks, RID-merge CPU, then a Fetch of the
    /// intersected rows over `dpc` distinct pages.
    #[allow(clippy::too_many_arguments)]
    pub fn index_intersection(
        &self,
        height_a: u32,
        rows_a: f64,
        height_b: u32,
        rows_b: f64,
        inter_rows: f64,
        dpc: f64,
        residual_atoms: usize,
    ) -> f64 {
        let d = &self.disk;
        (f64::from(height_a) + rows_a / 64.0 + f64::from(height_b) + rows_b / 64.0)
            * d.index_node_ms
            + (rows_a + rows_b) * d.cpu_hash_ms // RID sort-merge
            + inter_rows * (d.logical_read_ms + d.cpu_row_ms)
            + inter_rows * residual_atoms as f64 * d.cpu_pred_ms
            + dpc * d.rand_read_ms
    }

    /// Hash join: outer (build) access cost + inner probe access cost +
    /// one hash per build and probe row.
    pub fn hash_join(
        &self,
        outer_cost: f64,
        outer_rows: f64,
        probe_cost: f64,
        probe_rows: f64,
    ) -> f64 {
        outer_cost + probe_cost + (outer_rows + probe_rows) * self.disk.cpu_hash_ms
    }

    /// INL join: outer access + one index descent per outer row + fetch
    /// of `matched_rows` rows over `dpc` distinct inner pages.
    pub fn inl_join(
        &self,
        outer_cost: f64,
        outer_rows: f64,
        inner_height: u32,
        matched_rows: f64,
        dpc: f64,
    ) -> f64 {
        let d = &self.disk;
        outer_cost
            + outer_rows * (f64::from(inner_height) + 1.0) * d.index_node_ms
            + matched_rows * (d.logical_read_ms + d.cpu_row_ms)
            + dpc * d.rand_read_ms
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_seek_cost_is_monotone_in_dpc() {
        let m = CostModel::new();
        let lo = m.index_seek(3, 1_000.0, 20.0, 0);
        let hi = m.index_seek(3, 1_000.0, 900.0, 0);
        assert!(hi > lo);
        // The DPC term dominates: 880 extra random reads ≈ 3.5 s.
        assert!(hi - lo > 3_000.0);
    }

    #[test]
    fn scan_vs_seek_crossover_driven_by_dpc() {
        // A 6 250-page, 500 K-row table (the scaled synthetic database).
        let m = CostModel::new();
        let scan = m.table_scan(6_250.0, 500_000.0, 1);
        // 5 000 matching rows on 63 pages (fully correlated): seek wins.
        assert!(m.index_seek(3, 5_000.0, 63.0, 0) < scan);
        // Same rows on 3 400 pages (uncorrelated): scan wins.
        assert!(m.index_seek(3, 5_000.0, 3_400.0, 0) > scan);
    }

    #[test]
    fn clustered_range_cheaper_than_full_scan() {
        let m = CostModel::new();
        let full = m.table_scan(6_250.0, 500_000.0, 1);
        let range = m.clustered_range(63.0, 5_000.0, 1);
        assert!(range < full / 10.0);
    }

    #[test]
    fn hash_vs_inl_crossover_driven_by_dpc() {
        let m = CostModel::new();
        let outer_cost = m.clustered_range(63.0, 5_000.0, 1);
        let probe_cost = m.table_scan(6_250.0, 500_000.0, 0);
        let hash = m.hash_join(outer_cost, 5_000.0, probe_cost, 500_000.0);
        // Clustered join column: 63 distinct inner pages ⇒ INL wins.
        let inl_clustered = m.inl_join(outer_cost, 5_000.0, 3, 5_000.0, 63.0);
        assert!(inl_clustered < hash);
        // Scattered join column: ~3 400 pages ⇒ hash wins.
        let inl_scattered = m.inl_join(outer_cost, 5_000.0, 3, 5_000.0, 3_400.0);
        assert!(inl_scattered > hash);
    }

    #[test]
    fn zero_row_plans_cost_almost_nothing() {
        let m = CostModel::new();
        assert!(m.index_seek(3, 0.0, 0.0, 2) < 0.1);
        assert!(m.clustered_range(0.0, 0.0, 1) < 5.0);
    }
}
