//! The paper's evaluation methodology — Section V-B.
//!
//! *"Consider a query Q. Let the current execution plan be P. … we run
//! the plan P and obtain the distinct page counts using the appropriate
//! monitoring mechanisms for the plan. We optimize the query by injecting
//! the distinct page count values obtained from execution feedback. Let
//! the new plan obtained be P′. … We report the SpeedUp achieved as
//! (T − T′)/T."* Cardinalities are injected exactly first, and every
//! timed run is cold-cache.

use crate::db::{Database, QueryOutcome};
use crate::planner::MonitorConfig;
use crate::query::Query;
use pf_common::Result;
use pf_feedback::FeedbackReport;

/// Everything one feedback-loop experiment produced.
#[derive(Debug)]
pub struct FeedbackOutcome {
    /// The original plan `P`, run *without* monitoring (time `T`).
    pub before: QueryOutcome,
    /// The re-optimized plan `P′`, run without monitoring (time `T′`).
    pub after: QueryOutcome,
    /// Simulated time of the monitored run of `P` (overhead numerator).
    pub monitored_elapsed_ms: f64,
    /// The DPC measurements harvested from the monitored run.
    pub report: FeedbackReport,
}

impl FeedbackOutcome {
    /// `(T − T′)/T` — positive when feedback helped; 0 when the plan did
    /// not change (T measured on the identical plan). Degenerate timings
    /// (a zero, negative, or non-finite `T`, or a non-finite `T′`, as a
    /// degraded run that skipped every page can produce) yield 0 rather
    /// than `NaN`/`±inf`, so workload aggregates stay finite.
    pub fn speedup(&self) -> f64 {
        Self::relative_delta(self.before.elapsed_ms, self.after.elapsed_ms)
    }

    /// Monitoring overhead relative to the unmonitored run:
    /// `(T_monitored − T)/T`. Degenerate timings yield 0, as with
    /// [`FeedbackOutcome::speedup`].
    pub fn overhead(&self) -> f64 {
        -Self::relative_delta(self.before.elapsed_ms, self.monitored_elapsed_ms)
    }

    /// `(base − other)/base`, defined as 0 whenever the ratio would not
    /// be a finite number.
    fn relative_delta(base: f64, other: f64) -> f64 {
        if !base.is_finite() || !other.is_finite() || base <= 0.0 {
            return 0.0;
        }
        (base - other) / base
    }

    /// Whether injection changed the plan.
    pub fn plan_changed(&self) -> bool {
        self.before.description != self.after.description
    }

    /// Whether any run of this experiment skipped corrupt pages — its
    /// measurements and timings are then lower bounds, not exact.
    pub fn degraded(&self) -> bool {
        self.report.is_degraded() || self.before.degraded() || self.after.degraded()
    }

    /// Corrupt pages skipped across the runs of this experiment.
    pub fn skipped_pages(&self) -> u64 {
        self.before.stats.pages_skipped
            + self.after.stats.pages_skipped
            + self
                .report
                .measurements
                .iter()
                .map(|m| m.skipped_pages)
                .sum::<u64>()
    }
}

impl Database {
    /// Runs the full methodology for one query:
    ///
    /// 1. inject exact cardinalities (isolating the page-count effect),
    /// 2. optimize → plan `P`; run `P` monitored (harvest DPCs) and
    ///    unmonitored (time `T`), both cold-cache,
    /// 3. inject the measured DPCs; re-optimize → `P′`; run unmonitored
    ///    (time `T′`).
    ///
    /// Each plan is one decision: both runs of `P` lower the same one.
    /// The injected DPCs stay in the database's hint set afterwards (the
    /// feedback cache), so subsequent similar queries benefit.
    pub fn feedback_loop(&mut self, query: &Query, cfg: &MonitorConfig) -> Result<FeedbackOutcome> {
        self.inject_accurate_cardinalities(query)?;
        let mut ctx = self.make_context();

        // Plan P: monitored run (feedback) + unmonitored run (T).
        let (monitored, before) = {
            let plan = self.decide(query, None, cfg.deadline_ms.is_none())?;
            (
                self.run_decision(&plan, cfg, &mut ctx)?,
                self.run_decision(&plan, &MonitorConfig::off(), &mut ctx)?,
            )
        };

        // Inject DPC feedback, then re-optimize.
        let report = monitored.report;
        self.absorb_feedback(&report)?;
        let after = self.run_in(query, &MonitorConfig::off(), &mut ctx)?;

        Ok(FeedbackOutcome {
            monitored_elapsed_ms: monitored.elapsed_ms,
            before,
            after,
            report,
        })
    }

    /// The same methodology as [`Database::feedback_loop`], run
    /// hermetically against a private overlay of the hint set (`&self`,
    /// no shared-state writes). This is the unit of work of
    /// [`crate::parallel::ParallelRunner`]: cells for different queries
    /// run concurrently over the shared read-only storage snapshot, and
    /// the harvested reports are absorbed into the database serially (in
    /// query order) afterwards — so results and final state do not depend
    /// on worker count or scheduling.
    pub fn feedback_cell(&self, query: &Query, cfg: &MonitorConfig) -> Result<FeedbackOutcome> {
        let mut hints = self.hints().clone();
        self.inject_cardinalities_into(query, &mut hints)?;
        let mut ctx = self.make_context();

        // Plan P: monitored run (feedback) + unmonitored run (T). Each
        // run retries transient injected faults, so a faulted run still
        // completes the methodology.
        let plan = self.decide(query, Some(&hints), false)?;
        let monitored = self.run_decision(&plan, cfg, &mut ctx)?;
        let before = self.run_decision(&plan, &MonitorConfig::off(), &mut ctx)?;

        // Inject the DPC feedback into the overlay and re-optimize.
        let report = monitored.report;
        hints.absorb_report(&report);
        let replanned = self.decide(query, Some(&hints), false)?;
        let after = self.run_decision(&replanned, &MonitorConfig::off(), &mut ctx)?;

        Ok(FeedbackOutcome {
            monitored_elapsed_ms: monitored.elapsed_ms,
            before,
            after,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PredSpec;
    use pf_common::{Column, DataType, Datum, Row, Schema};
    use pf_exec::CompareOp;

    fn demo_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("corr", DataType::Int),
            Column::new("scat", DataType::Int),
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
        db.create_table("t", schema, rows, Some("id")).unwrap();
        db.create_index("ix_corr", "t", "corr").unwrap();
        db.create_index("ix_scat", "t", "scat").unwrap();
        db.analyze().unwrap();
        db
    }

    #[test]
    fn correlated_query_speeds_up() {
        let mut db = demo_db();
        let q = Query::count(
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(400))],
        );
        let out = db.feedback_loop(&q, &MonitorConfig::default()).unwrap();
        assert!(
            out.plan_changed(),
            "{} -> {}",
            out.before.description,
            out.after.description
        );
        assert!(out.speedup() > 0.5, "speedup {}", out.speedup());
        assert_eq!(out.before.count, out.after.count);
        assert!(out.overhead() >= 0.0);
    }

    #[test]
    fn uncorrelated_query_keeps_plan() {
        let mut db = demo_db();
        let q = Query::count(
            "t",
            vec![PredSpec::new("scat", CompareOp::Lt, Datum::Int(400))],
        );
        let out = db.feedback_loop(&q, &MonitorConfig::default()).unwrap();
        assert!(
            !out.plan_changed(),
            "{} -> {}",
            out.before.description,
            out.after.description
        );
        assert!(out.speedup().abs() < 1e-9);
    }

    #[test]
    fn monitoring_overhead_is_small() {
        let mut db = demo_db();
        let q = Query::count(
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(400))],
        );
        let out = db.feedback_loop(&q, &MonitorConfig::default()).unwrap();
        // Single-atom monitoring on a scan plan is nearly free (< 5%)
        // but not literally zero: per-row bookkeeping is charged.
        assert!(out.overhead() < 0.05, "overhead {}", out.overhead());
        assert!(out.overhead() > 0.0, "monitoring must cost something");
    }

    /// A synthetic outcome with the given elapsed time (everything else
    /// inert), for pinning the degenerate-timing arithmetic.
    fn outcome_with_elapsed(elapsed_ms: f64) -> QueryOutcome {
        use pf_common::TableId;
        use pf_optimizer::plan::{AccessPath, DpcSource, SingleTablePlan};
        QueryOutcome {
            count: 0,
            stats: pf_storage::IoStats::default(),
            elapsed_ms,
            report: FeedbackReport::new(),
            description: "synthetic".into(),
            choice: crate::planner::PlanChoice::Single(SingleTablePlan {
                table: TableId(0),
                path: AccessPath::FullScan,
                cost_ms: 0.0,
                est_rows: 0.0,
                est_dpc: None,
                dpc_source: DpcSource::NotApplicable,
            }),
            fault_retries: 0,
            monitor_bytes: 0,
        }
    }

    fn synthetic(before_ms: f64, after_ms: f64, monitored_ms: f64) -> FeedbackOutcome {
        FeedbackOutcome {
            before: outcome_with_elapsed(before_ms),
            after: outcome_with_elapsed(after_ms),
            monitored_elapsed_ms: monitored_ms,
            report: FeedbackReport::new(),
        }
    }

    #[test]
    fn degenerate_timings_never_produce_nan() {
        // A fully-degraded run (every page skipped) can report a zero
        // elapsed time; injected-fault bookkeeping bugs could even go
        // negative or non-finite. The ratios must stay defined: 0, not
        // NaN/±inf, so workload-level aggregation never poisons a mean.
        for (before, after, monitored) in [
            (0.0, 10.0, 12.0),
            (-3.0, 10.0, 12.0),
            (f64::NAN, 10.0, 12.0),
            (f64::INFINITY, 10.0, 12.0),
            (10.0, f64::NAN, f64::NAN),
            (10.0, f64::INFINITY, f64::NEG_INFINITY),
            (0.0, 0.0, 0.0),
        ] {
            let out = synthetic(before, after, monitored);
            assert_eq!(out.speedup(), 0.0, "speedup({before}, {after})");
            assert_eq!(out.overhead(), 0.0, "overhead({before}, {monitored})");
        }
        // Healthy timings keep the paper's definitions exactly.
        let out = synthetic(10.0, 5.0, 11.0);
        assert!((out.speedup() - 0.5).abs() < 1e-12);
        assert!((out.overhead() - 0.1).abs() < 1e-12);
        // A degraded "after" slower than "before" is a *negative*
        // speedup, not an error — regressions must stay visible.
        let out = synthetic(10.0, 15.0, 10.0);
        assert!((out.speedup() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn feedback_cache_benefits_second_query() {
        let mut db = demo_db();
        let q = Query::count(
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(400))],
        );
        db.feedback_loop(&q, &MonitorConfig::default()).unwrap();
        // Same expression again: the cached DPC applies immediately.
        let out = db.run(&q, &MonitorConfig::off()).unwrap();
        assert_eq!(out.choice.name(), "IndexSeek");
    }
}
