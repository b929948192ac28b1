//! Fig 8 — SpeedUp for join queries.
//!
//! 40 queries `select count(T.pad) from T, T1 where T1.c1 < val and
//! T1.Ci = T.Ci` (10 per join column C2–C5), outer selectivities chosen
//! where the page count can influence the Hash-vs-INL choice (below the
//! ≈7 % crossover). Bit-vector filtering on the probe scan measures the
//! INL DPC from the Hash Join execution; feedback flips Hash → INL when
//! the join column is clustered.

use crate::util::{max, mean, section, ExperimentConfig};
use pagefeed::{MonitorConfig, ParallelRunner};
use pf_common::Result;
use pf_workloads::{join_workload, synthetic};

/// One join query's outcome.
#[derive(Debug, Clone)]
pub struct JoinPoint {
    /// Query index.
    pub query: usize,
    /// Join column.
    pub column: String,
    /// `(T − T′)/T`.
    pub speedup: f64,
    /// Monitoring overhead of the bit-vector + sampling run.
    pub overhead: f64,
    /// Plans before/after.
    pub before: String,
    /// Plan after injection.
    pub after: String,
}

/// Runs the Fig 8 experiment; `per_column` queries per join column,
/// dispatched across `cfg.jobs` worker threads.
pub fn run_fig8(rows: usize, per_column: usize, cfg: &ExperimentConfig) -> Result<Vec<JoinPoint>> {
    section("Fig 8: SpeedUp for join queries");
    let mut db = cfg.with_faults(synthetic::build(&synthetic::SyntheticConfig {
        rows,
        with_t1: true,
        seed: 81,
    })?)?;
    cfg.attach_feedback(&mut db, "fig8")?;
    let columns = ["c2", "c3", "c4", "c5"];
    let queries = join_workload(
        &db,
        "T1",
        "T",
        "c1",
        &columns,
        per_column,
        (0.002, 0.05),
        82,
    )?;

    // DPSample at 50 % on the probe scan keeps the semi-join hashing
    // cost ≈ 2 % (the paper's bit-vector overhead bound) while halving
    // the estimator variance relative to sparser sampling.
    let monitor = MonitorConfig::sampled(0.5);
    let runner = ParallelRunner::new(cfg.jobs);
    let outcomes = runner.run_feedback(&mut db, &queries, &monitor)?;
    let mut points = Vec::new();
    for (i, (q, out)) in queries.iter().zip(&outcomes).enumerate() {
        let (_, _, _, outer_col, _) = q.as_join()?;
        points.push(JoinPoint {
            query: i,
            column: outer_col.to_string(),
            speedup: out.speedup(),
            overhead: out.overhead(),
            before: out.before.description.clone(),
            after: out.after.description.clone(),
        });
    }

    println!(
        "{:>5} {:>6} {:>9} {:>9}  plan change",
        "query", "col", "speedup", "overhead"
    );
    for p in &points {
        let change = if p.before == p.after {
            "-".to_string()
        } else {
            format!(
                "{} -> {}",
                p.before.split('(').next().unwrap_or(""),
                p.after.split('(').next().unwrap_or("")
            )
        };
        println!(
            "{:>5} {:>6} {:>8.1}% {:>8.2}%  {}",
            p.query,
            p.column,
            p.speedup * 100.0,
            p.overhead * 100.0,
            change
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
    let os: Vec<f64> = points.iter().map(|p| p.overhead).collect();
    println!("max bit-vector overhead: {:.2}%", max(&os) * 100.0);
    // Chosen hash-join strategy. Partition count and filter pushdown
    // are pure functions of the plan, so this line is byte-identical
    // across job counts.
    let mut hash_n = 0usize;
    let mut push_n = 0usize;
    let mut parts = std::collections::BTreeSet::new();
    for out in &outcomes {
        if let pagefeed::PlanChoice::Join(jp) = &out.before.choice {
            if jp.method == pf_optimizer::JoinMethod::Hash {
                hash_n += 1;
                parts.insert(pf_exec::join_partitions(jp.outer_plan.est_rows));
                if jp.est_rows < 0.5 * rows as f64 {
                    push_n += 1;
                }
            }
        }
    }
    if hash_n > 0 {
        let parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        println!(
            "join strategy: {hash_n} hash joins, parts={{{}}}, pushdown on {push_n}",
            parts.join(",")
        );
    }
    crate::util::report_degraded(&outcomes);
    Ok(points)
}
