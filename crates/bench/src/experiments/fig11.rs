//! Fig 11 — SpeedUp for real-world databases.
//!
//! 80 queries across the five non-synthetic databases (for TPC-H, the
//! three `lineitem` date columns), selectivity < 10 %, run through the
//! feedback loop. Expected shape: substantial speedups on columns whose
//! clustering the analytical model misjudges, ≈0 on scattered columns.

use crate::util::{mean, section, ExperimentConfig};
use pagefeed::{Database, MonitorConfig, ParallelRunner};
use pf_common::Result;
use pf_workloads::{realworld, single_table_workload, tpch};

/// One query's outcome.
#[derive(Debug, Clone)]
pub struct RealWorldPoint {
    /// Database name.
    pub database: String,
    /// Query index within the whole experiment.
    pub query: usize,
    /// `(T − T′)/T`.
    pub speedup: f64,
    /// Whether the plan changed.
    pub plan_changed: bool,
}

/// Runs the Fig 11 experiment with `per_column` queries per column,
/// each database's workload dispatched across `cfg.jobs` worker threads.
pub fn run_fig11(per_column: usize, cfg: &ExperimentConfig) -> Result<Vec<RealWorldPoint>> {
    section("Fig 11: SpeedUp for Real World Databases");
    let mut dbs: Vec<(&str, &str, Database, Vec<&str>)> = vec![
        (
            "Book Retailer",
            "book_retailer",
            cfg.with_faults(realworld::book_retailer(111)?)?,
            vec!["order_date", "ship_date", "cust_id"],
        ),
        (
            "Yellow Pages",
            "yellow_pages",
            cfg.with_faults(realworld::yellow_pages(112)?)?,
            vec!["zip", "phone"],
        ),
        (
            "TPC-H",
            "lineitem",
            cfg.with_faults(tpch::build_lineitem(113)?)?,
            vec!["l_shipdate", "l_commitdate", "l_receiptdate"],
        ),
        (
            "Voter data",
            "voter",
            cfg.with_faults(realworld::voter(114)?)?,
            vec!["reg_date", "precinct", "birth_year"],
        ),
        (
            "Products",
            "products",
            cfg.with_faults(realworld::products(115)?)?,
            vec!["category", "supplier"],
        ),
    ];

    let runner = ParallelRunner::new(cfg.jobs);
    let mut points = Vec::new();
    let mut all_outcomes = Vec::new();
    let mut qid = 0;
    for (dbname, table, db, cols) in &mut dbs {
        cfg.attach_feedback(db, &format!("fig11-{table}"))?;
        let queries =
            single_table_workload(db, table, cols, per_column, (0.01, 0.10), 116 + qid as u64)?;
        let outcomes = runner.run_feedback(db, &queries, &MonitorConfig::default())?;
        for out in &outcomes {
            points.push(RealWorldPoint {
                database: dbname.to_string(),
                query: qid,
                speedup: out.speedup(),
                plan_changed: out.plan_changed(),
            });
            qid += 1;
        }
        all_outcomes.extend(outcomes);
    }

    println!(
        "{:>5} {:<14} {:>9} {:>8}",
        "query", "database", "speedup", "changed"
    );
    for p in &points {
        println!(
            "{:>5} {:<14} {:>8.1}% {:>8}",
            p.query,
            p.database,
            p.speedup * 100.0,
            p.plan_changed
        );
    }
    for dbname in [
        "Book Retailer",
        "Yellow Pages",
        "TPC-H",
        "Voter data",
        "Products",
    ] {
        let s: Vec<f64> = points
            .iter()
            .filter(|p| p.database == dbname)
            .map(|p| p.speedup)
            .collect();
        println!("mean speedup {dbname}: {:.1}%", mean(&s) * 100.0);
    }
    crate::util::report_degraded(&all_outcomes);
    Ok(points)
}
