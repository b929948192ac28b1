//! The experiments' configuration and small shared helpers for their
//! output.

use pagefeed::{Database, FaultPlan};
use pf_common::Result;
use std::path::PathBuf;

/// What `repro`'s flags set for every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Worker threads of the feedback-loop experiments; their output is
    /// identical for any count.
    pub jobs: usize,
    /// Fault plan installed on every database an experiment builds.
    pub fault_plan: Option<FaultPlan>,
    /// Directory under which the feedback-loop experiments keep durable
    /// feedback stores (`None`: in-memory hints only).
    pub feedback_root: Option<PathBuf>,
}

impl ExperimentConfig {
    /// `jobs` workers, no fault injection, no durable feedback.
    pub fn new(jobs: usize) -> Self {
        ExperimentConfig {
            jobs,
            fault_plan: None,
            feedback_root: None,
        }
    }

    /// A freshly built `db` with the fault plan installed. Damage is a
    /// pure function of `(seed, table, page)` and index builds and
    /// statistics read the pristine pages, so installing after the build
    /// equals installing before it.
    pub fn with_faults(&self, mut db: Database) -> Result<Database> {
        db.set_fault_plan(self.fault_plan)?;
        Ok(db)
    }

    /// Attaches a durable feedback store under `<feedback_root>/<name>`,
    /// when a root is set. Recovered measurements are replayed into the
    /// hint set before the workload runs, so a repro restarted after a
    /// crash re-optimizes from persisted feedback — the re-optimized
    /// plans are byte-identical to the uninterrupted run's — and every
    /// measurement the workload harvests is WAL-durable before it is
    /// used. Returns the recovered-report count (0 when persistence is
    /// off).
    pub fn attach_feedback(&self, db: &mut Database, name: &str) -> Result<usize> {
        let Some(root) = &self.feedback_root else {
            return Ok(0);
        };
        let dir = root.join(name);
        let recovered = db.attach_feedback_store(&dir)?;
        println!(
            "feedback store {}: {recovered} report(s) recovered",
            dir.display()
        );
        Ok(recovered)
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Maximum (0 for empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Prints a header line for an experiment section.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints which queries of a feedback workload ran degraded (skipped
/// corrupt pages) — silent when the run was fault-free, so the tables
/// above stay byte-identical to a run without injection.
pub fn report_degraded(outcomes: &[pagefeed::FeedbackOutcome]) {
    let degraded: Vec<String> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.degraded())
        .map(|(i, o)| format!("{i} ({} pages)", o.skipped_pages()))
        .collect();
    if !degraded.is_empty() {
        println!(
            "degraded queries ({} of {} skipped corrupt pages): {}",
            degraded.len(),
            outcomes.len(),
            degraded.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(std_dev(&[1.0, 3.0]), 1.0);
        assert_eq!(max(&[1.0, -2.0, 0.5]), 1.0);
    }
}
