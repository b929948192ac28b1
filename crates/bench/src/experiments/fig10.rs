//! Fig 10 — Page clustering for real datasets.
//!
//! For predicates of selectivity < 10 % across the five non-synthetic
//! databases, compute the Clustering Ratio `CR = (N − LB)/(UB − LB)`.
//! The paper's finding: CR varies widely (mean 0.56, σ 0.4) — "simple
//! analytical formulas may be insufficient".

use crate::util::{mean, section, std_dev, ExperimentConfig};
use pagefeed::{Database, PredSpec, Query};
use pf_common::{Datum, Result};
use pf_exec::CompareOp;
use pf_feedback::clustering_ratio::{summarize, ClusteringObservation};
use pf_workloads::queries::ColumnSampler;
use pf_workloads::{realworld, tpch};

/// One `(database, column, predicate)` clustering observation.
#[derive(Debug, Clone)]
pub struct CrPoint {
    /// Database name.
    pub database: String,
    /// Predicate text.
    pub predicate: String,
    /// Rows matched.
    pub rows: u64,
    /// Distinct pages touched.
    pub pages: u64,
    /// The clustering ratio.
    pub cr: f64,
}

fn observe(
    db: &Database,
    dbname: &str,
    table: &str,
    col: &str,
    op: CompareOp,
    value: Datum,
    out: &mut Vec<CrPoint>,
) -> Result<()> {
    let meta = db.catalog().table_by_name(table)?;
    let schema = meta.schema().clone();
    let pred = Query::resolve_predicates(&[PredSpec::new(col, op, value.clone())], &schema)?;
    let n = db.true_cardinality(table, &pred)?;
    // Selectivity filter, as in the paper (< 10%).
    if n == 0 || n as f64 > meta.stats.rows as f64 * 0.10 {
        return Ok(());
    }
    let pages = db.true_dpc(table, &pred)?;
    let obs = ClusteringObservation {
        rows: n,
        pages_touched: pages,
        table_pages: u64::from(meta.stats.pages),
        rows_per_page: meta.stats.rows_per_page,
    };
    if let Some(cr) = obs.ratio() {
        out.push(CrPoint {
            database: dbname.to_string(),
            predicate: pred.key().to_string(),
            rows: n,
            pages,
            cr,
        });
    }
    Ok(())
}

/// Runs the Fig 10 experiment: several predicates per indexed column of
/// each of the five databases.
pub fn run_fig10(cfg: &ExperimentConfig) -> Result<Vec<CrPoint>> {
    section("Fig 10: Page Clustering for Real Datasets");
    let mut points = Vec::new();

    let dbs: Vec<(&str, &str, Database, Vec<&str>)> = vec![
        (
            "Book Retailer",
            "book_retailer",
            cfg.with_faults(realworld::book_retailer(101)?)?,
            vec!["order_date", "ship_date", "cust_id", "book_cat"],
        ),
        (
            "Yellow Pages",
            "yellow_pages",
            cfg.with_faults(realworld::yellow_pages(102)?)?,
            vec!["zip", "category", "phone"],
        ),
        (
            "TPC-H",
            "lineitem",
            cfg.with_faults(tpch::build_lineitem(103)?)?,
            vec!["l_shipdate", "l_commitdate", "l_receiptdate", "l_suppkey"],
        ),
        (
            "Voter data",
            "voter",
            cfg.with_faults(realworld::voter(104)?)?,
            vec!["reg_date", "precinct", "birth_year"],
        ),
        (
            "Products",
            "products",
            cfg.with_faults(realworld::products(105)?)?,
            vec!["category", "supplier", "list_price"],
        ),
    ];

    for (dbname, table, db, cols) in &dbs {
        for col in cols {
            let sampler = ColumnSampler::build(db, table, col)?;
            // Range predicates at three selectivities, plus one equality
            // at the 30th percentile value.
            for q in [0.02, 0.05, 0.09] {
                observe(
                    db,
                    dbname,
                    table,
                    col,
                    CompareOp::Lt,
                    sampler.quantile(q),
                    &mut points,
                )?;
            }
            observe(
                db,
                dbname,
                table,
                col,
                CompareOp::Eq,
                sampler.quantile(0.3),
                &mut points,
            )?;
        }
    }

    println!(
        "{:<14} {:<42} {:>7} {:>7} {:>6}",
        "database", "predicate", "rows", "pages", "CR"
    );
    for p in &points {
        println!(
            "{:<14} {:<42} {:>7} {:>7} {:>6.2}",
            p.database, p.predicate, p.rows, p.pages, p.cr
        );
    }
    let crs: Vec<f64> = points.iter().map(|p| p.cr).collect();
    let (m, s) = summarize(&crs);
    println!("mean CR {m:.2}  std dev {s:.2}   (paper: mean 0.56, std dev 0.4)");
    debug_assert!((mean(&crs) - m).abs() < 1e-12 && std_dev(&crs) >= 0.0);
    Ok(points)
}
