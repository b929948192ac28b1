//! The `statistics xml`-style feedback report — Section V-A.
//!
//! SQL Server's *statistics xml* mode returns the executed plan annotated
//! with per-operator actual-vs-estimated counters; the paper's prototype
//! extends it with the estimated and actual distinct page count of every
//! requested expression. [`FeedbackReport`] is our equivalent: the
//! executor fills in one [`DpcMeasurement`] per monitored expression, and
//! `Display` renders the XML-ish document a DBA (or the feedback loop in
//! `pagefeed`) consumes.

use std::fmt;

/// Which monitoring mechanism produced a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Exact grouped-page counting on a scan plan (Section III-B).
    ExactScan,
    /// Probabilistic (linear) counting on an index plan (Fig 3).
    LinearCounting,
    /// Bernoulli page sampling with the given fraction (Fig 4).
    PageSampling(f64),
    /// Bit-vector filtering during a hash join with the given
    /// filter size in bits (Fig 5), combined with page sampling.
    BitVector(u64),
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mechanism::ExactScan => write!(f, "exact-scan"),
            Mechanism::LinearCounting => write!(f, "linear-counting"),
            Mechanism::PageSampling(frac) => write!(f, "page-sampling(f={frac})"),
            Mechanism::BitVector(bits) => write!(f, "bit-vector({bits} bits)"),
        }
    }
}

/// One monitored expression's estimated-vs-actual distinct page count.
#[derive(Debug, Clone, PartialEq)]
pub struct DpcMeasurement {
    /// Table whose pages were counted.
    pub table: String,
    /// Canonical text of the predicate expression `p` of `DPC(T, p)`.
    pub expression: String,
    /// The DPC the optimizer priced the plan with (if one was
    /// computed): an injected hint, else a zone estimate when those are
    /// on, else the analytical (Cardenas) one.
    pub estimated: Option<f64>,
    /// The value observed from execution feedback.
    pub actual: f64,
    /// How it was observed.
    pub mechanism: Mechanism,
    /// `true` when the executor skipped corrupt pages under this
    /// monitor's watch: the actual is then a lower bound over the
    /// readable fraction of the table, not the full DPC.
    pub degraded: bool,
    /// How many pages were skipped (0 unless `degraded`).
    pub skipped_pages: u64,
    /// `true` when the query's monitor memory budget shed this monitor
    /// at lowering: the actual is a partial count and must not be fed
    /// back to the optimizer.
    pub budget_shed: bool,
}

impl DpcMeasurement {
    /// Ratio `max(est, act) / min(est, act)` — the paper's notion of a
    /// "significantly different" page count a DBA should act on.
    /// `None` when no estimate exists or either side is ~0.
    pub fn discrepancy_factor(&self) -> Option<f64> {
        let est = self.estimated?;
        let (lo, hi) = if est < self.actual {
            (est, self.actual)
        } else {
            (self.actual, est)
        };
        if lo <= f64::EPSILON {
            return None;
        }
        Some(hi / lo)
    }
}

/// The full per-query report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackReport {
    /// One entry per monitored expression.
    pub measurements: Vec<DpcMeasurement>,
}

impl FeedbackReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a measurement.
    pub fn push(&mut self, m: DpcMeasurement) {
        self.measurements.push(m);
    }

    /// Looks up the measured DPC for an expression on a table.
    pub fn actual_for(&self, table: &str, expression: &str) -> Option<f64> {
        self.measurements
            .iter()
            .find(|m| m.table == table && m.expression == expression)
            .map(|m| m.actual)
    }

    /// Measurements whose estimate is off by at least `factor`× — what a
    /// DBA would page through first.
    pub fn significant(&self, factor: f64) -> impl Iterator<Item = &DpcMeasurement> {
        self.measurements
            .iter()
            .filter(move |m| m.discrepancy_factor().is_some_and(|d| d >= factor))
    }

    /// Whether any measurement came from a degraded monitor (corrupt
    /// pages were skipped while it watched).
    pub fn is_degraded(&self) -> bool {
        self.measurements.iter().any(|m| m.degraded)
    }

    /// Measurements whose monitors saw skipped pages.
    pub fn degraded(&self) -> impl Iterator<Item = &DpcMeasurement> {
        self.measurements.iter().filter(|m| m.degraded)
    }

    /// Whether any monitor was shed by the memory budget.
    pub fn is_budget_shed(&self) -> bool {
        self.measurements.iter().any(|m| m.budget_shed)
    }

    /// Measurements whose monitors were shed by the memory budget.
    pub fn budget_shed(&self) -> impl Iterator<Item = &DpcMeasurement> {
        self.measurements.iter().filter(|m| m.budget_shed)
    }

    /// Merges another report's measurements into this one.
    pub fn extend(&mut self, other: FeedbackReport) {
        self.measurements.extend(other.measurements);
    }
}

impl fmt::Display for FeedbackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "<ShowPlanStatistics>")?;
        for m in &self.measurements {
            write!(
                f,
                "  <DistinctPageCount Table=\"{}\" Expression=\"{}\" Actual=\"{:.1}\"",
                m.table, m.expression, m.actual
            )?;
            if let Some(est) = m.estimated {
                write!(f, " Estimated=\"{est:.1}\"")?;
            }
            write!(f, " Mechanism=\"{}\"", m.mechanism)?;
            if m.degraded {
                write!(f, " Degraded=\"true\" SkippedPages=\"{}\"", m.skipped_pages)?;
            }
            if m.budget_shed {
                write!(f, " BudgetShed=\"true\"")?;
            }
            writeln!(f, " />")?;
        }
        write!(f, "</ShowPlanStatistics>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(expr: &str, est: Option<f64>, act: f64) -> DpcMeasurement {
        DpcMeasurement {
            table: "sales".into(),
            expression: expr.into(),
            estimated: est,
            actual: act,
            mechanism: Mechanism::ExactScan,
            degraded: false,
            skipped_pages: 0,
            budget_shed: false,
        }
    }

    #[test]
    fn budget_shed_measurements_are_labelled() {
        let mut r = FeedbackReport::new();
        r.push(m("kept", Some(10.0), 12.0));
        let mut shed = m("shed", Some(10.0), 2.0);
        shed.budget_shed = true;
        r.push(shed);
        assert!(r.is_budget_shed());
        assert_eq!(r.budget_shed().count(), 1);
        let text = r.to_string();
        assert!(text.contains("BudgetShed=\"true\""));
        let kept_line = text.lines().find(|l| l.contains("kept")).unwrap();
        assert!(!kept_line.contains("BudgetShed"));
    }

    #[test]
    fn discrepancy_factor_symmetric() {
        assert_eq!(
            m("p", Some(100.0), 1_000.0).discrepancy_factor(),
            Some(10.0)
        );
        assert_eq!(
            m("p", Some(1_000.0), 100.0).discrepancy_factor(),
            Some(10.0)
        );
        assert_eq!(m("p", None, 100.0).discrepancy_factor(), None);
        assert_eq!(m("p", Some(0.0), 100.0).discrepancy_factor(), None);
    }

    #[test]
    fn lookup_and_significance() {
        let mut r = FeedbackReport::new();
        r.push(m("state='CA'", Some(50.0), 500.0));
        r.push(m("ship<100", Some(90.0), 100.0));
        assert_eq!(r.actual_for("sales", "state='CA'"), Some(500.0));
        assert_eq!(r.actual_for("sales", "nope"), None);
        assert_eq!(r.significant(5.0).count(), 1);
        assert_eq!(r.significant(1.01).count(), 2);
    }

    #[test]
    fn display_is_xmlish() {
        let mut r = FeedbackReport::new();
        r.push(m("state='CA'", Some(50.0), 500.0));
        let text = r.to_string();
        assert!(text.starts_with("<ShowPlanStatistics>"));
        assert!(text.contains("Actual=\"500.0\""));
        assert!(text.contains("Estimated=\"50.0\""));
        assert!(text.contains("Mechanism=\"exact-scan\""));
        assert!(text.ends_with("</ShowPlanStatistics>"));
    }

    #[test]
    fn degraded_measurements_are_labelled() {
        let mut r = FeedbackReport::new();
        r.push(m("clean", Some(10.0), 12.0));
        let mut bad = m("hurt", Some(10.0), 4.0);
        bad.degraded = true;
        bad.skipped_pages = 3;
        r.push(bad);
        assert!(r.is_degraded());
        assert_eq!(r.degraded().count(), 1);
        let text = r.to_string();
        assert!(text.contains("Degraded=\"true\" SkippedPages=\"3\""));
        // The clean line carries no degradation attributes.
        let clean_line = text.lines().find(|l| l.contains("clean")).unwrap();
        assert!(!clean_line.contains("Degraded"));
    }

    #[test]
    fn mechanism_display() {
        assert_eq!(
            Mechanism::PageSampling(0.01).to_string(),
            "page-sampling(f=0.01)"
        );
        assert_eq!(
            Mechanism::BitVector(4096).to_string(),
            "bit-vector(4096 bits)"
        );
        assert_eq!(Mechanism::LinearCounting.to_string(), "linear-counting");
    }

    #[test]
    fn extend_merges() {
        let mut a = FeedbackReport::new();
        a.push(m("x", None, 1.0));
        let mut b = FeedbackReport::new();
        b.push(m("y", None, 2.0));
        a.extend(b);
        assert_eq!(a.measurements.len(), 2);
    }
}
