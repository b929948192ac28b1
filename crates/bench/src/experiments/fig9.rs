//! Fig 9 — Effectiveness of page sampling.
//!
//! Queries with an increasing number of predicates on a Table Scan plan;
//! monitoring all the relevant DPC expressions (atoms, indexed pairs,
//! full conjunction) requires turning predicate short-circuiting off —
//! at page-sample rates 1 %, 10 %, and 100 %. The paper's finding: the
//! 100 % (exact) line is impractical as predicates grow, while 1 %
//! sampling holds ≈2 % overhead with ≤0.5 % DPC error.

use crate::util::{max, section, ExperimentConfig};
use pagefeed::{MonitorConfig, Query};
use pf_common::Result;
use pf_workloads::{multi_predicate_workload, synthetic};

/// Overhead/error at one (predicate count, sampling rate) cell.
#[derive(Debug, Clone)]
pub struct SamplingPoint {
    /// Number of conjuncts in the query.
    pub predicates: usize,
    /// Page-sampling fraction.
    pub fraction: f64,
    /// Relative monitoring overhead.
    pub overhead: f64,
    /// Worst relative DPC error across the monitored expressions.
    pub max_error: f64,
}

/// Runs the Fig 9 experiment.
pub fn run_fig9(rows: usize, cfg: &ExperimentConfig) -> Result<Vec<SamplingPoint>> {
    section("Fig 9: Effectiveness of Page Sampling");
    let mut db = cfg.with_faults(synthetic::build(&synthetic::SyntheticConfig {
        rows,
        with_t1: false,
        seed: 91,
    })?)?;
    // Moderate per-atom selectivity so short-circuiting matters.
    let queries = multi_predicate_workload(&db, "T", &["c2", "c3", "c4", "c5"], 0.5, 92)?;
    let fractions = [0.01, 0.10, 1.0];

    let mut points = Vec::new();
    for q in &queries {
        let (table, predicate, _) = q.as_count()?;
        let k = predicate.len();
        let schema = db.catalog().table_by_name(table)?.schema().clone();
        let pred = Query::resolve_predicates(predicate, &schema)?;
        for &f in &fractions {
            let out = db.feedback_loop(q, &MonitorConfig::sampled(f))?;
            // Per-expression relative error against brute-force truth.
            let mut errors = Vec::new();
            for m in &out.report.measurements {
                // Recover the expression's atoms by matching labels.
                let mut indices: Vec<usize> = Vec::new();
                for (i, a) in pred.atoms.iter().enumerate() {
                    if m.expression.contains(&a.to_string()) {
                        indices.push(i);
                    }
                }
                if indices.is_empty() {
                    continue;
                }
                let sub = pf_exec::Conjunction::new(
                    indices.iter().map(|&i| pred.atoms[i].clone()).collect(),
                );
                let truth = db.true_dpc(table, &sub)? as f64;
                if truth > 0.0 {
                    errors.push((m.actual - truth).abs() / truth);
                }
            }
            points.push(SamplingPoint {
                predicates: k,
                fraction: f,
                overhead: out.overhead(),
                max_error: max(&errors),
            });
        }
    }

    println!(
        "{:>6} {:>9} {:>9} {:>10}",
        "preds", "sample", "overhead", "max error"
    );
    for p in &points {
        println!(
            "{:>6} {:>8.0}% {:>8.2}% {:>9.2}%",
            p.predicates,
            p.fraction * 100.0,
            p.overhead * 100.0,
            p.max_error * 100.0
        );
    }
    Ok(points)
}
