//! The monitor governor: one query's monitor memory budget, applied
//! once, at lowering.
//!
//! The paper's monitors are "low overhead" by construction, but a
//! production engine still bounds them: a monitored run must not hold
//! unbounded sketch memory. Lowering walks the plan's operator tree
//! ([`pf_exec::monitor::costs`]) for every monitor's byte cost (via
//! [`pf_feedback::Sketch::approx_bytes`]) and [`ShedClass`],
//! [`shed_over_budget`] decides which of them the budget sheds, and
//! [`pf_exec::monitor::shed`] marks them in the operators. Shed
//! monitors stay in the plan and still harvest, but their measurements
//! carry `budget_shed = true` — partial counts the feedback loop never
//! absorbs. The decision depends only on the plan and the config, so it
//! is identical across repeat runs, morsels and worker counts. Time is
//! not the governor's business: a query deadline aborts the query.

use pf_exec::ShedClass;

/// Which monitors `budget` bytes shed, given each monitor's `(class,
/// bytes)` in report order: monitors are charged most valuable
/// class first (report order breaks ties), and each one that does
/// not fit in what is left is shed — a later, smaller one may still
/// fit. Returns the shed flags in report order.
pub(crate) fn shed_over_budget(budget: usize, costs: &[(ShedClass, usize)]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // Stable: equal classes keep report order.
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i].0));
    let mut left = budget;
    let mut shed = vec![false; costs.len()];
    for i in order {
        match left.checked_sub(costs[i].1) {
            Some(rest) => left = rest,
            None => shed[i] = true,
        }
    }
    shed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, MonitorConfig, PredSpec, Query};
    use pf_common::{Column, DataType, Datum, Row, Schema};
    use pf_exec::CompareOp;
    use ShedClass::{Exact, LinearCounting, PageSampled, SemiJoin};

    #[test]
    fn shed_class_order_is_cheapest_first() {
        assert!(PageSampled < SemiJoin);
        assert!(SemiJoin < LinearCounting);
        assert!(LinearCounting < Exact);
        // Room for one: the most valuable survives wherever it is
        // declared.
        let costs = [
            (PageSampled, 8),
            (SemiJoin, 8),
            (Exact, 8),
            (LinearCounting, 8),
        ];
        assert_eq!(shed_over_budget(8, &costs), [true, true, false, true]);
    }

    #[test]
    fn charges_until_budget_then_refuses() {
        let exact = |bytes: &[usize]| bytes.iter().map(|&b| (Exact, b)).collect::<Vec<_>>();
        assert_eq!(
            shed_over_budget(100, &exact(&[60, 40, 1])),
            [false, false, true],
            "101st byte must be refused"
        );
        // A smaller later charge can still fit a fragmented budget.
        assert_eq!(
            shed_over_budget(100, &exact(&[90, 20, 10])),
            [false, true, false]
        );
    }

    #[test]
    fn unlimited_budget_always_charges() {
        // An unlimited budget is `usize::MAX` bytes: every realistic
        // plan's monitors fit, and a maximal charge never overflows.
        let costs = vec![(SemiJoin, 1 << 30); 1 << 10];
        assert!(shed_over_budget(usize::MAX, &costs).iter().all(|&s| !s));
        assert_eq!(
            shed_over_budget(usize::MAX, &[(Exact, usize::MAX)]),
            [false]
        );
    }

    /// The governor has no clock: a config deadline, even one already
    /// past, changes no shed decision, and without a budget nothing is
    /// shed at all.
    #[test]
    fn no_deadline_never_fires() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let rows = (0..2_000i64)
            .map(|i| Row::new(vec![Datum::Int(i), Datum::Int(i % 37)]))
            .collect();
        db.create_table("t", schema, rows, None).unwrap();
        db.create_index("ix_a", "t", "a").unwrap();
        db.create_index("ix_b", "t", "b").unwrap();
        db.analyze().unwrap();
        let query = Query::count(
            "t",
            vec![
                PredSpec::new("a", CompareOp::Lt, Datum::Int(1_500)),
                PredSpec::new("b", CompareOp::Lt, Datum::Int(20)),
            ],
        );
        // Bytes of the monitors the lowering keeps observing.
        let kept = |memory_budget, deadline_ms| {
            let cfg = MonitorConfig {
                memory_budget,
                deadline_ms,
                ..MonitorConfig::default()
            };
            db.lower(&query, &cfg).unwrap().monitor_bytes()
        };
        let (full, budgeted) = (kept(None, None), kept(Some(64), None));
        assert!(budgeted < full, "a 64-byte budget sheds");
        assert_eq!(kept(Some(64), Some(0)), budgeted);
        assert_eq!(kept(None, Some(0)), full);
    }
}
