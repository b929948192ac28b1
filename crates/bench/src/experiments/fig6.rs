//! Fig 6 — SpeedUp for single-table queries on the synthetic database.
//!
//! 100 queries `select count(pad) from T where Ci < val` (25 per column
//! C2–C5, selectivity 1–10 %), exact cardinalities injected, plans
//! re-optimized with the DPCs measured from execution feedback.
//! Expected shape: large speedups on C2–C4 (the analytical model
//! over-estimates their page counts, so feedback flips Table Scan →
//! Index Seek), ≈0 on C5 (the analytical estimate is already right).

use crate::util::{mean, section, ExperimentConfig};
use pagefeed::{MonitorConfig, ParallelRunner};
use pf_common::Result;
use pf_workloads::{single_table_workload, synthetic};

/// One query's outcome.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Query index in the workload (paper's x-axis).
    pub query: usize,
    /// Column the predicate is on.
    pub column: String,
    /// `(T − T′)/T`.
    pub speedup: f64,
    /// Whether the plan changed.
    pub plan_changed: bool,
}

/// Runs the Fig 6 experiment; `per_column` queries per column, feedback
/// cells dispatched across `cfg.jobs` worker threads (results are
/// identical for any worker count).
pub fn run_fig6(
    rows: usize,
    per_column: usize,
    cfg: &ExperimentConfig,
) -> Result<Vec<SpeedupPoint>> {
    section("Fig 6: SpeedUp for single table queries");
    let mut db = cfg.with_faults(synthetic::build(&synthetic::SyntheticConfig {
        rows,
        with_t1: false,
        seed: 61,
    })?)?;
    cfg.attach_feedback(&mut db, "fig6")?;
    let columns = ["c2", "c3", "c4", "c5"];
    let queries = single_table_workload(&db, "T", &columns, per_column, (0.01, 0.10), 62)?;

    let runner = ParallelRunner::new(cfg.jobs);
    let outcomes = runner.run_feedback(&mut db, &queries, &MonitorConfig::default())?;
    let mut points = Vec::new();
    for (i, (q, out)) in queries.iter().zip(&outcomes).enumerate() {
        let (_, predicate, _) = q.as_count()?;
        points.push(SpeedupPoint {
            query: i,
            column: predicate[0].column.clone(),
            speedup: out.speedup(),
            plan_changed: out.plan_changed(),
        });
    }

    println!(
        "{:>5} {:>6} {:>9} {:>8}",
        "query", "col", "speedup", "changed"
    );
    for p in &points {
        println!(
            "{:>5} {:>6} {:>8.1}% {:>8}",
            p.query,
            p.column,
            p.speedup * 100.0,
            p.plan_changed
        );
    }
    for col in columns {
        let s: Vec<f64> = points
            .iter()
            .filter(|p| p.column == col)
            .map(|p| p.speedup)
            .collect();
        println!("mean speedup {col}: {:.1}%", mean(&s) * 100.0);
    }
    crate::util::report_degraded(&outcomes);
    Ok(points)
}
