//! Plan enumeration and choice.
//!
//! Two decision problems, exactly the ones the paper's experiments flip
//! with injected page counts:
//!
//! * **single table** — Table Scan vs Clustered Range Scan vs Index Seek
//!   vs Index Intersection (Section III), and
//! * **two-table equijoin** — Hash vs Index Nested Loops (Section IV).
//!
//! Every candidate whose cost involves fetching scattered pages carries a
//! `DPC` estimate: injected (execution feedback) when present in the
//! [`HintSet`], else the analytical Cardenas model — which, like the
//! shipping SQL Server estimator, "assumes independence between the
//! clustering column and the index column". With zone estimates on
//! ([`Optimizer::with_zone_estimates`]), a selection's DPC that no hint
//! covers is capped by the pages whose zones admit a match
//! ([`zone_dpc_bound`]).

use crate::cardinality::CardinalityEstimator;
use crate::cost::CostModel;
use crate::dpc_model::cardenas;
use crate::hints::{join_dpc_key, HintSet};
use crate::plan::{AccessPath, DpcSource, JoinMethod, JoinPlan, JoinSpec, SingleTablePlan};
use crate::stats::DbStats;
use pf_common::{Error, Result, TableId};
use pf_exec::{CompareOp, Conjunction};
use pf_storage::{Catalog, TableMeta, TableStorage};

/// The cost-based optimizer.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    stats: &'a DbStats,
    cost: CostModel,
    hints: &'a HintSet,
    zone_estimates: bool,
}

impl<'a> Optimizer<'a> {
    /// Builds an optimizer over the catalog, statistics, and hints, with
    /// zone estimates off.
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a DbStats,
        cost: CostModel,
        hints: &'a HintSet,
    ) -> Self {
        Optimizer {
            catalog,
            stats,
            cost,
            hints,
            zone_estimates: false,
        }
    }

    /// Whether a selection's DPC that no hint covers is estimated as
    /// `min(`[`zone_dpc_bound`]`, Cardenas)` ([`DpcSource::Zones`])
    /// rather than by Cardenas alone. Join DPCs keep Cardenas.
    pub fn with_zone_estimates(mut self, on: bool) -> Self {
        self.zone_estimates = on;
        self
    }

    /// All costed single-table candidates (diagnostics; the best is
    /// [`Optimizer::optimize_single_table`]). Assumes the whole row is
    /// needed (no covering plans); see
    /// [`Optimizer::candidate_plans_with_projection`].
    pub fn candidate_single_table_plans(
        &self,
        table: TableId,
        pred: &Conjunction,
    ) -> Result<Vec<SingleTablePlan>> {
        self.candidate_plans_with_projection(table, pred, None)
    }

    /// Candidates when only `needed` column ordinals must be produced
    /// (`None` = the whole row). With a narrow projection, a covering
    /// **index-only scan** joins the candidate set: when every predicate
    /// atom and every needed column is one index's key, the leaf level
    /// answers the query with no base-table I/O — and therefore no
    /// distinct-page-count exposure at all.
    pub fn candidate_plans_with_projection(
        &self,
        table: TableId,
        pred: &Conjunction,
        needed: Option<&[usize]>,
    ) -> Result<Vec<SingleTablePlan>> {
        let meta = self.catalog.table(table)?;
        let pages = f64::from(meta.stats.pages);
        let rows = meta.stats.rows;
        let est = CardinalityEstimator::new(self.stats, self.hints, table, &meta.name, rows);
        let out_rows = est.rows(pred);
        let natoms = pred.len();
        let mut plans = Vec::new();

        // 1. Full scan — always available.
        plans.push(SingleTablePlan {
            table,
            path: AccessPath::FullScan,
            cost_ms: self.cost.table_scan(pages, rows as f64, natoms),
            est_rows: out_rows,
            est_dpc: None,
            dpc_source: DpcSource::NotApplicable,
        });

        // Group the seekable atoms by column: a seek (or range scan) on
        // a column uses the *combined* range of all its atoms (e.g.
        // `d >= lo AND d < hi` is one two-sided seek).
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (column, atom indices)
        for (i, atom) in pred.atoms.iter().enumerate() {
            if !seekable(atom.op) {
                continue;
            }
            match groups.iter_mut().find(|(c, _)| *c == atom.column) {
                Some((_, idx)) => idx.push(i),
                None => groups.push((atom.column, vec![i])),
            }
        }

        // 2. Clustered range scan on clustering-key atoms.
        if let Some(ck) = meta.storage.clustering_column() {
            if let Some((_, idx)) = groups.iter().find(|(c, _)| *c == ck) {
                let n = est.rows_of(pred, idx);
                let pages_touched = (n / meta.stats.rows_per_page.max(1.0)).ceil().max(1.0);
                plans.push(SingleTablePlan {
                    table,
                    path: AccessPath::ClusteredRange { atoms: idx.clone() },
                    cost_ms: self.cost.clustered_range(pages_touched, n, natoms),
                    est_rows: out_rows,
                    est_dpc: None,
                    dpc_source: DpcSource::NotApplicable,
                });
            }
        }

        // 3. Index seeks, one candidate per indexed column group.
        let indexed: Vec<(&Vec<usize>, &pf_storage::IndexMeta)> = groups
            .iter()
            .filter_map(|(c, idx)| self.catalog.index_on_column(table, *c).map(|ix| (idx, ix)))
            .collect();
        for (idx, ix) in &indexed {
            let n = est.rows_of(pred, idx);
            let (dpc, src) = self.selection_dpc(meta, pred, idx, n, pages);
            plans.push(SingleTablePlan {
                table,
                path: AccessPath::IndexSeek {
                    index: ix.id,
                    atoms: (*idx).clone(),
                },
                cost_ms: self.cost.index_seek(ix.height, n, dpc, natoms - idx.len()),
                est_rows: out_rows,
                est_dpc: Some(dpc),
                dpc_source: src,
            });
        }

        // 3b. Covering index-only scan: all atoms on one indexed column
        // and the projection within that column.
        if let Some(needed) = needed {
            if groups.len() == 1 && groups[0].1.len() == natoms {
                let (col, idx) = &groups[0];
                if needed.iter().all(|c| c == col) {
                    if let Some(ix) = self.catalog.index_on_column(table, *col) {
                        let n = est.rows_of(pred, idx);
                        plans.push(SingleTablePlan {
                            table,
                            path: AccessPath::IndexOnlyScan {
                                index: ix.id,
                                atoms: idx.clone(),
                            },
                            cost_ms: self.cost.index_only_scan(ix.height, n),
                            est_rows: out_rows,
                            est_dpc: None,
                            dpc_source: DpcSource::NotApplicable,
                        });
                    }
                }
            }
        }

        // 4. Index intersections of every pair of indexed column groups.
        for (x, (idx_a, ix_a)) in indexed.iter().enumerate() {
            for (idx_b, ix_b) in indexed.iter().skip(x + 1) {
                let rows_a = est.rows_of(pred, idx_a);
                let rows_b = est.rows_of(pred, idx_b);
                let mut both: Vec<usize> = idx_a.iter().chain(idx_b.iter()).copied().collect();
                both.sort_unstable();
                let inter = est.rows_of(pred, &both);
                let (dpc, src) = self.selection_dpc(meta, pred, &both, inter, pages);
                plans.push(SingleTablePlan {
                    table,
                    path: AccessPath::IndexIntersection {
                        a: (ix_a.id, (*idx_a).clone()),
                        b: (ix_b.id, (*idx_b).clone()),
                    },
                    cost_ms: self.cost.index_intersection(
                        ix_a.height,
                        rows_a,
                        ix_b.height,
                        rows_b,
                        inter,
                        dpc,
                        natoms - both.len(),
                    ),
                    est_rows: out_rows,
                    est_dpc: Some(dpc),
                    dpc_source: src,
                });
            }
        }
        Ok(plans)
    }

    /// The cheapest single-table plan (whole row needed).
    pub fn optimize_single_table(
        &self,
        table: TableId,
        pred: &Conjunction,
    ) -> Result<SingleTablePlan> {
        self.optimize_with_projection(table, pred, None)
    }

    /// The cheapest single-table plan producing only `needed` columns.
    pub fn optimize_with_projection(
        &self,
        table: TableId,
        pred: &Conjunction,
        needed: Option<&[usize]>,
    ) -> Result<SingleTablePlan> {
        self.candidate_plans_with_projection(table, pred, needed)?
            .into_iter()
            .min_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms))
            .ok_or_else(|| Error::NoPlanFound("no single-table candidates".into()))
    }

    /// All costed join candidates.
    pub fn candidate_join_plans(&self, spec: &JoinSpec) -> Result<Vec<JoinPlan>> {
        let outer_meta = self.catalog.table(spec.outer)?;
        let inner_meta = self.catalog.table(spec.inner)?;
        let inner_pages = f64::from(inner_meta.stats.pages);
        let inner_rows = inner_meta.stats.rows as f64;

        let outer_plan = self.optimize_single_table(spec.outer, &spec.outer_pred)?;
        let outer_rows = outer_plan.est_rows;

        // |R ⋈ S| ≈ |σ(R)|·|S| / max(V(R.a), V(S.b)).
        let v_outer = self
            .stats
            .column(spec.outer, spec.outer_join_col)
            .distinct
            .max(1) as f64;
        let v_inner = self
            .stats
            .column(spec.inner, spec.inner_join_col)
            .distinct
            .max(1) as f64;
        let matched = (outer_rows * inner_rows / v_outer.max(v_inner)).max(0.0);

        let mut plans = Vec::new();

        // Hash join: probe = full scan of the inner.
        let probe_cost = self.cost.table_scan(inner_pages, inner_rows, 0);
        plans.push(JoinPlan {
            method: JoinMethod::Hash,
            outer_plan: outer_plan.clone(),
            cost_ms: self
                .cost
                .hash_join(outer_plan.cost_ms, outer_rows, probe_cost, inner_rows),
            est_dpc: None,
            dpc_source: DpcSource::NotApplicable,
            est_rows: matched,
        });

        // INL join: requires an index on the inner join column.
        if let Some(ix) = self
            .catalog
            .index_on_column(spec.inner, spec.inner_join_col)
        {
            let jkey = join_dpc_key(
                &outer_meta.name,
                &outer_meta.schema().column(spec.outer_join_col).name,
                &inner_meta.name,
                &inner_meta.schema().column(spec.inner_join_col).name,
                spec.outer_pred.key(),
            );
            let (dpc, src) = self.join_dpc(&inner_meta.name, &jkey, matched, inner_pages);
            plans.push(JoinPlan {
                method: JoinMethod::IndexNestedLoops,
                outer_plan: outer_plan.clone(),
                cost_ms: self.cost.inl_join(
                    outer_plan.cost_ms,
                    outer_rows,
                    ix.height,
                    matched,
                    dpc,
                ),
                est_dpc: Some(dpc),
                dpc_source: src,
                est_rows: matched,
            });
        }

        Ok(plans)
    }

    /// The cheapest join plan.
    pub fn optimize_join(&self, spec: &JoinSpec) -> Result<JoinPlan> {
        self.candidate_join_plans(spec)?
            .into_iter()
            .min_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms))
            .ok_or_else(|| Error::NoPlanFound("no join candidates".into()))
    }

    /// The DPC of a join expression `key` on `table` matching `n` rows
    /// over `pages` pages: an injected hint, else Cardenas. The
    /// estimate the optimizer prices an INL join with, and the one the
    /// join's monitors report against.
    pub fn join_dpc(&self, table: &str, key: &str, n: f64, pages: f64) -> (f64, DpcSource) {
        match self.hints.dpc(table, key) {
            Some(v) => (v, DpcSource::Injected),
            None => (cardenas(n, pages), DpcSource::Analytical),
        }
    }

    /// The DPC of fetching the `n` rows that match `atoms` of `pred`
    /// from a table of `pages` pages: an injected hint, else — with zone
    /// estimates on — Cardenas capped by the zone bound, else Cardenas.
    /// The estimate the optimizer prices index plans with, and the one
    /// a plan's monitors report against.
    pub fn selection_dpc(
        &self,
        meta: &TableMeta,
        pred: &Conjunction,
        atoms: &[usize],
        n: f64,
        pages: f64,
    ) -> (f64, DpcSource) {
        match self.join_dpc(&meta.name, &pred.key_of(atoms), n, pages) {
            (analytic, DpcSource::Analytical) if self.zone_estimates => {
                let bound = zone_dpc_bound(&meta.storage, pred, atoms) as f64;
                (bound.min(analytic), DpcSource::Zones)
            }
            hinted_or_analytic => hinted_or_analytic,
        }
    }
}

/// The pages of `storage` whose zone settles no atom of `atoms` (indices
/// into `pred`) false: the pages a scan of those atoms cannot skip, by
/// the same [`pf_exec::AtomicPredicate::decide`] call the scan makes on
/// the table's zone arrays. An upper bound on their DPC, exact for one
/// one-sided Int, Float or Date atom; a `Str` atom settles nothing, so
/// it gives every page. Reads the pristine zones, so a fault plan never
/// moves it.
pub fn zone_dpc_bound(storage: &TableStorage, pred: &Conjunction, atoms: &[usize]) -> u64 {
    let zoned: Vec<_> = atoms
        .iter()
        .filter_map(|&i| {
            let atom = &pred.atoms[i];
            Some((atom, storage.zones(atom.column)?))
        })
        .collect();
    (0..storage.page_count() as usize)
        .filter(|&p| {
            zoned
                .iter()
                .all(|(atom, zones)| atom.decide(zones[p]) != Some(false))
        })
        .count() as u64
}

fn seekable(op: CompareOp) -> bool {
    !matches!(op, CompareOp::Ne)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType, Datum, Row, Schema};
    use pf_exec::AtomicPredicate;
    use pf_storage::TableBuilder;

    /// The scaled synthetic table: 20 000 rows clustered on c1, with c2
    /// identical to c1 (fully correlated) and c5 a scrambled permutation.
    fn setup() -> (Catalog, DbStats, TableId) {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("c1", DataType::Int),
            Column::new("c2", DataType::Int),
            Column::new("c5", DataType::Int),
            Column::new("pad", DataType::Str),
        ]);
        let n = 20_000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str("x".repeat(60)),
                ])
            })
            .collect();
        let id = TableBuilder::new("T", schema)
            .rows(rows)
            .clustered_on("c1")
            .register(&mut cat)
            .unwrap();
        cat.create_index("ix_c2", id, "c2").unwrap();
        cat.create_index("ix_c5", id, "c5").unwrap();
        let stats = DbStats::build(&cat);
        (cat, stats, id)
    }

    fn lt(cat: &Catalog, id: TableId, col: &str, v: i64) -> Conjunction {
        Conjunction::new(vec![AtomicPredicate::new(
            cat.table(id).unwrap().schema(),
            col,
            CompareOp::Lt,
            Datum::Int(v),
        )
        .unwrap()])
    }

    #[test]
    fn analytical_model_picks_scan_on_correlated_column() {
        // 2% selectivity on c2 (== clustering order). The analytical
        // model *thinks* the pages are scattered, so Table Scan looks
        // cheaper — the paper's canonical mistake.
        let (cat, stats, id) = setup();
        let hints = HintSet::new();
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        let pred = lt(&cat, id, "c2", 400);
        let plan = opt.optimize_single_table(id, &pred).unwrap();
        assert_eq!(plan.path, AccessPath::FullScan, "got {:?}", plan.path);
    }

    #[test]
    fn injected_dpc_flips_scan_to_seek() {
        let (cat, stats, id) = setup();
        let pred = lt(&cat, id, "c2", 400);
        // Truth: 400 correlated rows sit on ~400/rows_per_page pages.
        let meta = cat.table(id).unwrap();
        let true_dpc = (400.0 / meta.stats.rows_per_page).ceil();
        let mut hints = HintSet::new();
        hints.inject_dpc("T", pred.key_of(&[0]), true_dpc);
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        let plan = opt.optimize_single_table(id, &pred).unwrap();
        assert!(
            matches!(plan.path, AccessPath::IndexSeek { .. }),
            "got {:?}",
            plan.path
        );
        assert_eq!(plan.dpc_source, DpcSource::Injected);
        assert_eq!(plan.est_dpc, Some(true_dpc));
    }

    /// The zone arm: on the correlated `c2` the bound is the true DPC
    /// and flips the scan to a seek; on the scrambled `c5` nearly every
    /// page admits a match, so Cardenas is the lower and the estimate.
    #[test]
    fn zone_estimates_are_exact_on_correlated_and_cardenas_on_scattered() {
        let (cat, stats, id) = setup();
        let meta = cat.table(id).unwrap();
        let pages = f64::from(meta.stats.pages);
        let hints = HintSet::new();
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints).with_zone_estimates(true);

        let c2 = lt(&cat, id, "c2", 400);
        assert_eq!(
            zone_dpc_bound(&meta.storage, &c2, &[0]),
            (400.0 / meta.stats.rows_per_page).ceil() as u64
        );
        let plan = opt.optimize_single_table(id, &c2).unwrap();
        assert!(
            matches!(plan.path, AccessPath::IndexSeek { .. }),
            "got {:?}",
            plan.path
        );
        assert_eq!(plan.dpc_source, DpcSource::Zones);

        let c5 = lt(&cat, id, "c5", 400);
        let rows = CardinalityEstimator::new(&stats, &hints, id, "T", meta.stats.rows).rows(&c5);
        let analytic = cardenas(rows, pages);
        assert!(zone_dpc_bound(&meta.storage, &c5, &[0]) as f64 > analytic);
        let seek = opt
            .candidate_single_table_plans(id, &c5)
            .unwrap()
            .into_iter()
            .find(|p| matches!(p.path, AccessPath::IndexSeek { .. }))
            .unwrap();
        assert_eq!(seek.est_dpc, Some(analytic));
    }

    #[test]
    fn uncorrelated_column_keeps_scan_even_with_accurate_dpc() {
        // On c5 the analytical estimate is roughly right — feedback
        // should NOT change the plan (paper: C5 queries see no benefit).
        let (cat, stats, id) = setup();
        let pred = lt(&cat, id, "c5", 400);
        let meta = cat.table(id).unwrap();
        let pages = f64::from(meta.stats.pages);
        let mut hints = HintSet::new();
        // Truth for a scrambled permutation ≈ Cardenas.
        hints.inject_dpc("T", pred.key_of(&[0]), cardenas(400.0, pages));
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        let with_feedback = opt.optimize_single_table(id, &pred).unwrap();
        let no_hints = HintSet::new();
        let opt2 = Optimizer::new(&cat, &stats, CostModel::new(), &no_hints);
        let without = opt2.optimize_single_table(id, &pred).unwrap();
        assert_eq!(with_feedback.path, without.path);
    }

    #[test]
    fn clustering_key_predicate_uses_range_scan() {
        let (cat, stats, id) = setup();
        let hints = HintSet::new();
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        let pred = lt(&cat, id, "c1", 400);
        let plan = opt.optimize_single_table(id, &pred).unwrap();
        assert!(
            matches!(plan.path, AccessPath::ClusteredRange { .. }),
            "got {:?}",
            plan.path
        );
    }

    #[test]
    fn candidates_include_intersection_for_two_indexed_atoms() {
        let (cat, stats, id) = setup();
        let schema = cat.table(id).unwrap().schema();
        let pred = Conjunction::new(vec![
            AtomicPredicate::new(schema, "c2", CompareOp::Lt, Datum::Int(1_000)).unwrap(),
            AtomicPredicate::new(schema, "c5", CompareOp::Lt, Datum::Int(1_000)).unwrap(),
        ]);
        let hints = HintSet::new();
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        let plans = opt.candidate_single_table_plans(id, &pred).unwrap();
        assert!(plans
            .iter()
            .any(|p| matches!(p.path, AccessPath::IndexIntersection { .. })));
        // 1 scan + 2 seeks + 1 intersection.
        assert_eq!(plans.len(), 4);
    }

    #[test]
    fn join_method_flips_with_injected_dpc() {
        let (mut cat, _, id) = setup();
        // Outer: a copy of T clustered on c1 (the paper's T1).
        let schema = cat.table(id).unwrap().schema().clone();
        let n = 20_000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Datum::Int(i),
                    Datum::Int(i),
                    Datum::Int((i * 7919) % n),
                    Datum::Str("x".repeat(60)),
                ])
            })
            .collect();
        let t1 = TableBuilder::new("T1", schema)
            .rows(rows)
            .clustered_on("c1")
            .register(&mut cat)
            .unwrap();
        let stats = DbStats::build(&cat);

        let spec = JoinSpec {
            outer: t1,
            inner: id,
            outer_pred: lt(&cat, t1, "c1", 400),
            outer_join_col: 1, // T1.c2
            inner_join_col: 1, // T.c2 (indexed)
        };
        // Analytical: scattered pages ⇒ Hash wins.
        let hints = HintSet::new();
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        let plan = opt.optimize_join(&spec).unwrap();
        assert_eq!(plan.method, JoinMethod::Hash, "analytical should pick hash");

        // Feedback: the join keys are clustered ⇒ tiny DPC ⇒ INL wins.
        let mut hints2 = HintSet::new();
        hints2.inject_dpc(
            "T",
            join_dpc_key("T1", "c2", "T", "c2", spec.outer_pred.key()),
            6.0,
        );
        let opt2 = Optimizer::new(&cat, &stats, CostModel::new(), &hints2);
        let plan2 = opt2.optimize_join(&spec).unwrap();
        assert_eq!(plan2.method, JoinMethod::IndexNestedLoops);
        assert_eq!(plan2.dpc_source, DpcSource::Injected);
    }

    #[test]
    fn unknown_table_errors() {
        let (cat, stats, _) = setup();
        let hints = HintSet::new();
        let opt = Optimizer::new(&cat, &stats, CostModel::new(), &hints);
        assert!(opt
            .optimize_single_table(TableId(99), &Conjunction::always_true())
            .is_err());
    }
}
