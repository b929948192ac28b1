//! The injection API — Section V-A.
//!
//! *"We have also implemented a method by which the distinct page count
//! for a given expression can be input to the query optimizer."* A
//! [`HintSet`] carries `(table, expression) → value` overrides for both
//! cardinalities (used by the paper's methodology to hand the optimizer
//! exact row counts, isolating the page-count effect) and distinct page
//! counts (the execution feedback being studied). Expressions are keyed
//! by their canonical text — [`pf_exec::Conjunction::key`] for
//! selections, [`join_expr_key`] for join predicates — so measurements
//! harvested from a [`pf_feedback::FeedbackReport`] round-trip directly
//! into the optimizer.

use pf_feedback::FeedbackReport;
use std::collections::HashMap;

/// Canonical key for a join predicate `outer.oc = inner.ic`.
pub fn join_expr_key(
    outer_table: &str,
    outer_col: &str,
    inner_table: &str,
    inner_col: &str,
) -> String {
    format!("{outer_table}.{outer_col}={inner_table}.{inner_col}")
}

/// Canonical key for the DPC of a join under an outer selection. The
/// selection is part of the expression identity: `DPC(inner, join-pred)`
/// depends on *which* outer rows survive, so a measurement taken at one
/// outer selectivity must not be reused at another (the LEO-style
/// `(expression, …)` match is on the full expression).
pub fn join_dpc_key(
    outer_table: &str,
    outer_col: &str,
    inner_table: &str,
    inner_col: &str,
    outer_pred_key: &str,
) -> String {
    let base = join_expr_key(outer_table, outer_col, inner_table, inner_col);
    if outer_pred_key.is_empty() || outer_pred_key == "TRUE" {
        base
    } else {
        format!("{base} | {outer_pred_key}")
    }
}

/// The modification state of a table at the moment a measurement was
/// harvested. Mirrors `pf_storage::EpochState` without a crate
/// dependency: the optimizer only compares stamps, it never reads pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStamp {
    /// The table's modification epoch at measurement time.
    pub epoch: u64,
    /// The table's cumulative DML-rewritten page count at measurement
    /// time.
    pub dirty_pages: u64,
}

/// A table's *current* modification state, supplied by the storage
/// layer when the staleness policy is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableEpochState {
    /// Current modification epoch.
    pub epoch: u64,
    /// Cumulative DML-rewritten page count.
    pub dirty_pages: u64,
    /// Current page count.
    pub pages: u32,
}

/// One injected distinct-page-count value with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpcHint {
    /// The value the optimizer sees (possibly staleness-discounted).
    pub value: f64,
    /// The raw measured DPC at harvest time.
    pub measured: f64,
    /// The optimizer's analytical estimate at harvest time, if known —
    /// the value a discounted hint widens back toward.
    pub estimated: Option<f64>,
    /// The table's modification state at harvest time. `None` means
    /// the hint is unstamped (hand-injected) and never goes stale.
    pub stamp: Option<EpochStamp>,
}

/// How measurements are aged as DML drifts the table underneath them —
/// the paper's Section VI caveat that feedback must be invalidated once
/// inserts/deletes reshuffle pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// Maximum fraction of the table's pages that may have been
    /// rewritten since harvest before the measurement is evicted.
    /// Below this, measurements are used with a widening discount.
    pub max_drift: f64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy { max_drift: 0.10 }
    }
}

/// The policy's verdict for one stamped measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StalenessDecision {
    /// Same epoch: the measurement is exact, use it as-is.
    Fresh,
    /// Some drift, within tolerance: blend the measured value toward
    /// the analytical estimate by the given weight in (0, 1].
    Discounted(f64),
    /// Too much drift: drop the measurement and fall back to the
    /// analytical model.
    Evicted,
}

impl StalenessPolicy {
    /// Judges a measurement stamped at `stamp` against the table's
    /// current `state`.
    pub fn decide(&self, stamp: EpochStamp, state: TableEpochState) -> StalenessDecision {
        if stamp.epoch == state.epoch {
            return StalenessDecision::Fresh;
        }
        let rewritten = state.dirty_pages.saturating_sub(stamp.dirty_pages) as f64;
        let drift = rewritten / f64::from(state.pages.max(1));
        if drift <= self.max_drift {
            // Weight grows linearly with drift: barely-drifted hints
            // stay close to the measurement, hints near the eviction
            // threshold are mostly analytical.
            StalenessDecision::Discounted((drift / self.max_drift).clamp(0.0, 1.0))
        } else {
            StalenessDecision::Evicted
        }
    }
}

/// Cardinality and distinct-page-count overrides for the optimizer.
#[derive(Debug, Clone, Default)]
pub struct HintSet {
    cardinalities: HashMap<(String, String), f64>,
    dpcs: HashMap<(String, String), DpcHint>,
}

impl HintSet {
    /// An empty hint set (pure analytical optimization).
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects the row count of `expression` on `table`.
    pub fn inject_cardinality(
        &mut self,
        table: impl Into<String>,
        expression: impl Into<String>,
        rows: f64,
    ) {
        self.cardinalities
            .insert((table.into(), expression.into()), rows);
    }

    /// Injects the distinct page count of `expression` on `table` as an
    /// unstamped hint (never aged by the staleness policy).
    pub fn inject_dpc(
        &mut self,
        table: impl Into<String>,
        expression: impl Into<String>,
        pages: f64,
    ) {
        self.dpcs.insert(
            (table.into(), expression.into()),
            DpcHint {
                value: pages,
                measured: pages,
                estimated: None,
                stamp: None,
            },
        );
    }

    /// Injects a DPC hint with full provenance (measurement, estimate,
    /// epoch stamp).
    pub fn inject_dpc_hint(
        &mut self,
        table: impl Into<String>,
        expression: impl Into<String>,
        hint: DpcHint,
    ) {
        self.dpcs.insert((table.into(), expression.into()), hint);
    }

    /// Looks up an injected cardinality.
    pub fn cardinality(&self, table: &str, expression: &str) -> Option<f64> {
        self.cardinalities
            .get(&(table.to_string(), expression.to_string()))
            .copied()
    }

    /// Looks up an injected distinct page count.
    pub fn dpc(&self, table: &str, expression: &str) -> Option<f64> {
        self.dpcs
            .get(&(table.to_string(), expression.to_string()))
            .map(|h| h.value)
    }

    /// Looks up the full DPC hint (value + provenance).
    pub fn dpc_hint(&self, table: &str, expression: &str) -> Option<&DpcHint> {
        self.dpcs.get(&(table.to_string(), expression.to_string()))
    }

    /// Iterates over every DPC hint as `((table, expression), hint)`.
    pub fn dpc_entries(&self) -> impl Iterator<Item = (&(String, String), &DpcHint)> {
        self.dpcs.iter()
    }

    /// Number of injected values (cardinalities + DPCs).
    pub fn len(&self) -> usize {
        self.cardinalities.len() + self.dpcs.len()
    }

    /// Whether nothing is injected.
    pub fn is_empty(&self) -> bool {
        self.cardinalities.is_empty() && self.dpcs.is_empty()
    }

    /// Absorbs every measurement of a feedback report as a DPC hint —
    /// the "DBA pipes `statistics xml` back into the optimizer" loop.
    /// Measurements of monitors the memory budget shed (`budget_shed`)
    /// are partial counts and are skipped.
    pub fn absorb_report(&mut self, report: &FeedbackReport) {
        self.absorb_report_stamped(report, &HashMap::new());
    }

    /// Absorbs a report, stamping each measurement with the harvest-time
    /// modification state of its table (`stamps` keyed by table name).
    /// Tables without a stamp absorb unstamped, as with
    /// [`HintSet::absorb_report`].
    pub fn absorb_report_stamped(
        &mut self,
        report: &FeedbackReport,
        stamps: &HashMap<String, EpochStamp>,
    ) {
        for m in &report.measurements {
            if m.budget_shed {
                continue;
            }
            self.inject_dpc_hint(
                m.table.clone(),
                m.expression.clone(),
                DpcHint {
                    value: m.actual,
                    measured: m.actual,
                    estimated: m.estimated,
                    stamp: stamps.get(&m.table).copied(),
                },
            );
        }
    }

    /// Ages every stamped DPC hint against the tables' current
    /// modification state: fresh hints stay, drifted hints are blended
    /// toward the analytical estimate, dead hints are evicted. Returns
    /// the number of evicted hints. Hints whose table has no entry in
    /// `states` (or that are unstamped) are left untouched.
    pub fn apply_staleness(
        &mut self,
        policy: StalenessPolicy,
        states: &HashMap<String, TableEpochState>,
    ) -> usize {
        let mut evicted = 0;
        self.dpcs.retain(|(table, _), hint| {
            let (Some(stamp), Some(state)) = (hint.stamp, states.get(table)) else {
                return true;
            };
            match policy.decide(stamp, *state) {
                StalenessDecision::Fresh => {
                    hint.value = hint.measured;
                    true
                }
                StalenessDecision::Discounted(w) => {
                    // Widen toward the analytical estimate; with no
                    // estimate recorded, widen toward the table's page
                    // count (the conservative DPC upper bound).
                    let target = hint.estimated.unwrap_or(f64::from(state.pages));
                    hint.value = hint.measured + (target - hint.measured) * w;
                    true
                }
                StalenessDecision::Evicted => {
                    evicted += 1;
                    false
                }
            }
        });
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_feedback::{DpcMeasurement, Mechanism};

    #[test]
    fn inject_and_lookup() {
        let mut h = HintSet::new();
        assert!(h.is_empty());
        h.inject_cardinality("t", "C2<100", 99.0);
        h.inject_dpc("t", "C2<100", 3.0);
        assert_eq!(h.cardinality("t", "C2<100"), Some(99.0));
        assert_eq!(h.dpc("t", "C2<100"), Some(3.0));
        assert_eq!(h.cardinality("t", "C3<100"), None);
        assert_eq!(h.dpc("u", "C2<100"), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn join_keys_are_canonical() {
        assert_eq!(join_expr_key("T1", "C1", "T", "C2"), "T1.C1=T.C2");
    }

    #[test]
    fn absorb_report_round_trip() {
        let mut rep = FeedbackReport::new();
        rep.push(DpcMeasurement {
            table: "sales".into(),
            expression: "state='CA'".into(),
            estimated: Some(4_000.0),
            actual: 120.0,
            mechanism: Mechanism::ExactScan,
            degraded: false,
            skipped_pages: 0,
            budget_shed: false,
        });
        let mut h = HintSet::new();
        h.absorb_report(&rep);
        assert_eq!(h.dpc("sales", "state='CA'"), Some(120.0));
    }

    #[test]
    fn budget_shed_measurements_are_not_absorbed() {
        let mut rep = FeedbackReport::new();
        rep.push(DpcMeasurement {
            table: "sales".into(),
            expression: "state='CA'".into(),
            estimated: Some(4_000.0),
            actual: 7.0, // partial count: the memory budget shed the monitor
            mechanism: Mechanism::ExactScan,
            degraded: false,
            skipped_pages: 0,
            budget_shed: true,
        });
        let mut h = HintSet::new();
        h.absorb_report(&rep);
        assert_eq!(h.dpc("sales", "state='CA'"), None);
        assert!(h.is_empty());
    }

    #[test]
    fn later_injection_wins() {
        let mut h = HintSet::new();
        h.inject_dpc("t", "p", 10.0);
        h.inject_dpc("t", "p", 20.0);
        assert_eq!(h.dpc("t", "p"), Some(20.0));
        assert_eq!(h.len(), 1);
    }

    fn stamped_hint(measured: f64, estimated: f64, stamp: EpochStamp) -> DpcHint {
        DpcHint {
            value: measured,
            measured,
            estimated: Some(estimated),
            stamp: Some(stamp),
        }
    }

    #[test]
    fn staleness_policy_decisions() {
        let p = StalenessPolicy::default(); // max_drift = 0.10
        let stamp = EpochStamp {
            epoch: 1,
            dirty_pages: 10,
        };
        let same_epoch = TableEpochState {
            epoch: 1,
            dirty_pages: 10,
            pages: 100,
        };
        assert_eq!(p.decide(stamp, same_epoch), StalenessDecision::Fresh);
        // 5 of 100 pages rewritten since harvest → half-weight discount.
        let drifted = TableEpochState {
            epoch: 3,
            dirty_pages: 15,
            pages: 100,
        };
        match p.decide(stamp, drifted) {
            StalenessDecision::Discounted(w) => assert!((w - 0.5).abs() < 1e-9),
            other => panic!("expected a discount, got {other:?}"),
        }
        // 50 of 100 pages rewritten → beyond tolerance, evict.
        let dead = TableEpochState {
            epoch: 9,
            dirty_pages: 60,
            pages: 100,
        };
        assert_eq!(p.decide(stamp, dead), StalenessDecision::Evicted);
    }

    #[test]
    fn apply_staleness_discounts_and_evicts() {
        let mut h = HintSet::new();
        let stamp = EpochStamp {
            epoch: 0,
            dirty_pages: 0,
        };
        h.inject_dpc_hint("t", "fresh", stamped_hint(10.0, 90.0, stamp));
        h.inject_dpc_hint(
            "t",
            "unstamped",
            DpcHint {
                value: 5.0,
                measured: 5.0,
                estimated: None,
                stamp: None,
            },
        );
        h.inject_dpc_hint("other", "elsewhere", stamped_hint(3.0, 30.0, stamp));

        // No drift yet: everything survives unchanged.
        let mut states = HashMap::new();
        states.insert(
            "t".to_string(),
            TableEpochState {
                epoch: 0,
                dirty_pages: 0,
                pages: 100,
            },
        );
        assert_eq!(h.apply_staleness(StalenessPolicy::default(), &states), 0);
        assert_eq!(h.dpc("t", "fresh"), Some(10.0));

        // 5% drift: measured 10 widens halfway toward the estimate 90.
        states.insert(
            "t".to_string(),
            TableEpochState {
                epoch: 2,
                dirty_pages: 5,
                pages: 100,
            },
        );
        assert_eq!(h.apply_staleness(StalenessPolicy::default(), &states), 0);
        let v = h.dpc("t", "fresh").expect("hint survives a discount");
        assert!((v - 50.0).abs() < 1e-9, "got {v}");
        // Unstamped hints and tables without state are untouched.
        assert_eq!(h.dpc("t", "unstamped"), Some(5.0));
        assert_eq!(h.dpc("other", "elsewhere"), Some(3.0));

        // 40% drift: evicted; the analytical model takes over.
        states.insert(
            "t".to_string(),
            TableEpochState {
                epoch: 7,
                dirty_pages: 40,
                pages: 100,
            },
        );
        assert_eq!(h.apply_staleness(StalenessPolicy::default(), &states), 1);
        assert_eq!(h.dpc("t", "fresh"), None);
        assert_eq!(h.dpc("t", "unstamped"), Some(5.0));
    }

    #[test]
    fn discount_is_idempotent_from_raw_measurement() {
        // Applying the same policy twice at the same state must not
        // compound the discount: the blend always starts from the raw
        // measured value.
        let mut h = HintSet::new();
        h.inject_dpc_hint(
            "t",
            "p",
            stamped_hint(
                20.0,
                100.0,
                EpochStamp {
                    epoch: 0,
                    dirty_pages: 0,
                },
            ),
        );
        let mut states = HashMap::new();
        states.insert(
            "t".to_string(),
            TableEpochState {
                epoch: 1,
                dirty_pages: 2,
                pages: 100,
            },
        );
        h.apply_staleness(StalenessPolicy::default(), &states);
        let once = h.dpc("t", "p").expect("survives");
        h.apply_staleness(StalenessPolicy::default(), &states);
        let twice = h.dpc("t", "p").expect("survives");
        assert_eq!(once, twice);
    }
}
