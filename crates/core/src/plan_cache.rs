//! Plan cache: canonical query shape → optimizer decision.
//!
//! `Database::run` pays resolve + optimize on every call even when a
//! workload repeats the same handful of query shapes — the dominant
//! pattern in the figure reproductions and the parallel driver. The
//! cache memoizes the [`OptimizedQuery`] (plans and resolved
//! predicates, *no monitors*) keyed by the query's canonical text plus
//! the monitor-config shape, so repeated shapes skip straight to
//! lowering. Lowering still runs per execution, which is what keeps
//! per-query-index monitor seeding — and therefore jobs-invariant
//! sketches — intact.
//!
//! Invalidation is coarse and conservative: anything that can change an
//! optimizer decision (feedback absorption, DML, `analyze`, schema or
//! index changes, direct hint mutation) clears the whole map and bumps
//! the invalidation counter. Correctness never depends on a hit.
//!
//! `Database::set_plan_cache_enabled(false)` turns it off — the
//! reference path tests compare the cache against.

use crate::planner::{MonitorConfig, OptimizedQuery};
use crate::query::{CountArg, PredSpec, Query};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Counters describing cache effectiveness, cheap to snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that missed (and populated the cache).
    pub misses: u64,
    /// Times the whole cache was cleared.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Whether caching is active.
    pub enabled: bool,
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
#[derive(Debug)]
pub struct PlanCache {
    map: RwLock<HashMap<String, Arc<OptimizedQuery>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    enabled: bool,
}

impl PlanCache {
    /// A cache that is explicitly on or off (off = every lookup misses
    /// without recording or storing anything).
    pub fn new(enabled: bool) -> Self {
        PlanCache {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            enabled,
        }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Canonical cache key: the query's full shape (tables, atoms with
    /// operators and literal values, count argument) plus the
    /// plan-relevant `MonitorConfig` shape. The seed and the deadline
    /// are deliberately excluded — plans depend on neither, and
    /// including the seed would turn the per-query-index seeding of
    /// parallel runs into a 100% miss workload.
    pub fn key_for(query: &Query, cfg: &MonitorConfig) -> String {
        let mut key = String::with_capacity(96);
        let push_pred = |key: &mut String, pred: &[PredSpec]| {
            for p in pred {
                let _ = write!(key, "{}{:?}{:?}&", p.column, p.op, p.value);
            }
        };
        match query {
            Query::Count {
                table,
                predicate,
                count_arg,
            } => {
                let _ = write!(key, "C|{table}|");
                push_pred(&mut key, predicate);
                match count_arg {
                    CountArg::Star => key.push_str("|*"),
                    CountArg::BaseRow => key.push_str("|base"),
                    CountArg::Column(c) => {
                        let _ = write!(key, "|col:{c}");
                    }
                }
            }
            Query::JoinCount {
                outer,
                inner,
                outer_pred,
                outer_col,
                inner_col,
            } => {
                let _ = write!(key, "J|{outer}|{inner}|{outer_col}={inner_col}|");
                push_pred(&mut key, outer_pred);
            }
        }
        let _ = write!(
            key,
            "#m{}f{}b{:?}p{}B{:?}",
            u8::from(cfg.enabled),
            cfg.sampling_fraction,
            cfg.bitvector_bits,
            u8::from(cfg.monitor_pairs),
            cfg.memory_budget,
        );
        key
    }

    /// Looks up a cached decision, counting a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<OptimizedQuery>> {
        if !self.enabled {
            return None;
        }
        let found = self
            .map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a freshly optimized decision.
    pub fn insert(&self, key: String, plan: Arc<OptimizedQuery>) {
        if !self.enabled {
            return;
        }
        self.map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, plan);
    }

    /// Drops every entry (feedback absorption, DML, schema change).
    pub fn invalidate(&self) {
        if !self.enabled {
            return;
        }
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
            enabled: self.enabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::Datum;
    use pf_exec::CompareOp;

    fn q(hi: i64) -> Query {
        Query::count("t", vec![PredSpec::new("a", CompareOp::Lt, Datum::Int(hi))])
    }

    #[test]
    fn key_distinguishes_literals_and_cfg_shape_but_not_seed() {
        let cfg = MonitorConfig::default();
        let base = PlanCache::key_for(&q(10), &cfg);
        assert_ne!(base, PlanCache::key_for(&q(11), &cfg), "literal ignored");
        let mut reseeded = cfg.clone();
        reseeded.seed ^= 0xDEAD_BEEF;
        assert_eq!(
            base,
            PlanCache::key_for(&q(10), &reseeded),
            "seed must not shape the key"
        );
        let mut deadline = cfg.clone();
        deadline.deadline_ms = Some(5);
        assert_eq!(
            base,
            PlanCache::key_for(&q(10), &deadline),
            "a deadline run reads the plan a plain run cached"
        );
        let mut sampled = cfg.clone();
        sampled.sampling_fraction = 0.25;
        assert_ne!(base, PlanCache::key_for(&q(10), &sampled));
        assert_ne!(base, PlanCache::key_for(&q(10), &MonitorConfig::off()));
    }

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        let cache = PlanCache::new(false);
        let key = PlanCache::key_for(&q(1), &MonitorConfig::default());
        assert!(cache.get(&key).is_none());
        cache.invalidate();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (0, 0, 0));
        assert!(!stats.enabled);
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
