//! Plan cache: query → optimizer decision.
//!
//! `Database::run` pays resolve + optimize on every call even when a
//! workload repeats the same handful of query shapes — the dominant
//! pattern in the figure reproductions and the parallel driver. The
//! cache memoizes the [`OptimizedQuery`] (plans and resolved
//! predicates, *no monitors*) keyed by the [`Query`] value itself, so
//! repeated queries skip straight to lowering. Literals compare as
//! [`pf_common::Datum`]s do, floats by their bits: `f < NaN` and
//! `f < -NaN` are different queries with different entries. The key
//! holds no monitor configuration, because the optimizer reads none:
//! a monitored and an unmonitored run of one query share its decision.
//! Lowering still runs per execution, which is what keeps
//! per-query-index monitor seeding — and therefore jobs-invariant
//! sketches — intact.
//!
//! Invalidation is coarse and conservative: anything that can change an
//! optimizer decision (feedback absorption, DML, `analyze`, schema or
//! index changes, direct hint mutation) clears the whole map and bumps
//! the invalidation counter. Correctness never depends on a hit.

use crate::planner::OptimizedQuery;
use crate::query::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Counters describing cache effectiveness, cheap to snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Times the whole cache was cleared.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hit fraction of all lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shared, invalidate-on-write cache of optimizer decisions.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: RwLock<HashMap<Query, Arc<OptimizedQuery>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// Looks up a cached decision, counting a hit or miss.
    pub fn get(&self, query: &Query) -> Option<Arc<OptimizedQuery>> {
        let found = self
            .map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(query)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a freshly optimized decision.
    pub fn insert(&self, query: Query, plan: Arc<OptimizedQuery>) {
        self.map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(query, plan);
    }

    /// Drops every entry (feedback absorption, DML, schema change).
    pub fn invalidate(&self) {
        self.map.write().unwrap_or_else(|e| e.into_inner()).clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.map.read().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PredSpec;
    use pf_common::{Datum, TableId};
    use pf_exec::{CompareOp, Conjunction};
    use pf_optimizer::plan::{AccessPath, DpcSource, SingleTablePlan};

    fn q(v: Datum) -> Query {
        Query::count("t", vec![PredSpec::new("a", CompareOp::Lt, v)])
    }

    fn decision() -> Arc<OptimizedQuery> {
        Arc::new(OptimizedQuery::Single {
            plan: SingleTablePlan {
                table: TableId(0),
                path: AccessPath::FullScan,
                cost_ms: 0.0,
                est_rows: 0.0,
                est_dpc: None,
                dpc_source: DpcSource::NotApplicable,
            },
            pred: Conjunction::always_true(),
        })
    }

    /// The key is the query value: equal queries hit, and literals that
    /// differ in any bit — another integer, the sign of a zero or of a
    /// NaN — are other queries.
    #[test]
    fn keys_by_query_value_down_to_float_bits() {
        let cache = PlanCache::default();
        cache.insert(q(Datum::Int(10)), decision());
        cache.insert(q(Datum::Float(f64::NAN)), decision());
        cache.insert(q(Datum::Float(0.0)), decision());
        assert!(cache.get(&q(Datum::Int(10))).is_some());
        assert!(cache.get(&q(Datum::Float(f64::NAN))).is_some());
        assert!(cache.get(&q(Datum::Int(11))).is_none(), "literal ignored");
        assert!(cache.get(&q(Datum::Float(-f64::NAN))).is_none(), "NaN sign");
        assert!(cache.get(&q(Datum::Float(-0.0))).is_none(), "zero sign");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 3, 3));
        cache.invalidate();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidations), (0, 1));
        assert!((stats.hit_rate() - 0.4).abs() < 1e-12);
    }
}
