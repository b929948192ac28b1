//! Fig 7 — Monitoring overheads for single-table queries.
//!
//! The same 100-query workload as Fig 6; for each query the overhead is
//! `(T_monitored − T)/T` on the simulated clock (both runs cold-cache).
//! The paper reports < 2 % for most queries.

use crate::util::{max, mean, section, ExperimentConfig};
use pagefeed::{MonitorConfig, ParallelRunner};
use pf_common::Result;
use pf_workloads::{single_table_workload, synthetic};

/// One query's monitoring overhead.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Query index.
    pub query: usize,
    /// Relative overhead (0.02 = 2 %).
    pub overhead: f64,
}

/// Runs the Fig 7 experiment across `cfg.jobs` worker threads.
pub fn run_fig7(
    rows: usize,
    per_column: usize,
    cfg: &ExperimentConfig,
) -> Result<Vec<OverheadPoint>> {
    section("Fig 7: Overheads for single table queries");
    let mut db = cfg.with_faults(synthetic::build(&synthetic::SyntheticConfig {
        rows,
        with_t1: false,
        seed: 71,
    })?)?;
    cfg.attach_feedback(&mut db, "fig7")?;
    let queries = single_table_workload(
        &db,
        "T",
        &["c2", "c3", "c4", "c5"],
        per_column,
        (0.01, 0.10),
        72,
    )?;

    let runner = ParallelRunner::new(cfg.jobs);
    let outcomes = runner.run_feedback(&mut db, &queries, &MonitorConfig::default())?;
    let points: Vec<OverheadPoint> = outcomes
        .iter()
        .enumerate()
        .map(|(i, out)| OverheadPoint {
            query: i,
            overhead: out.overhead(),
        })
        .collect();
    println!("{:>5} {:>9}", "query", "overhead");
    for p in &points {
        println!("{:>5} {:>8.2}%", p.query, p.overhead * 100.0);
    }
    let os: Vec<f64> = points.iter().map(|p| p.overhead).collect();
    println!(
        "mean {:.2}%  max {:.2}%",
        mean(&os) * 100.0,
        max(&os) * 100.0
    );
    crate::util::report_degraded(&outcomes);
    Ok(points)
}
