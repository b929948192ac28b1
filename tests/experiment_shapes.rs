//! Shape tests for the experiment harness: at reduced scale, each
//! table/figure must reproduce the *qualitative* findings of the paper
//! (who wins, where the spread lies). These run the same code paths as
//! the `repro` binary.

use pf_bench::util::{max, mean, ExperimentConfig};
use pf_bench::*;

/// Fig 6 shape: correlated columns (c2, c3) benefit substantially from
/// page-count feedback; the uncorrelated column (c5) does not.
#[test]
fn fig6_correlated_columns_benefit() {
    let points = run_fig6(40_000, 6, &ExperimentConfig::new(2)).unwrap();
    let mean_of = |col: &str| {
        mean(
            &points
                .iter()
                .filter(|p| p.column == col)
                .map(|p| p.speedup)
                .collect::<Vec<_>>(),
        )
    };
    assert!(mean_of("c2") > 0.10, "c2 mean {}", mean_of("c2"));
    assert!(mean_of("c3") > 0.05, "c3 mean {}", mean_of("c3"));
    assert!(mean_of("c5").abs() < 0.02, "c5 mean {}", mean_of("c5"));
    assert!(
        points
            .iter()
            .filter(|p| p.column == "c5")
            .all(|p| !p.plan_changed),
        "feedback must not change plans on the uncorrelated column"
    );
}

/// Fig 7 shape: monitoring overhead stays small (paper: < 2 % for most
/// queries).
#[test]
fn fig7_overheads_are_small() {
    let points = run_fig7(40_000, 6, &ExperimentConfig::new(2)).unwrap();
    let os: Vec<f64> = points.iter().map(|p| p.overhead).collect();
    assert!(mean(&os) < 0.02, "mean overhead {}", mean(&os));
    assert!(max(&os) < 0.06, "max overhead {}", max(&os));
}

/// Fig 8 shape: clustered join columns see speedups via Hash→INL flips;
/// the scattered column sees none; bit-vector overhead stays small.
#[test]
fn fig8_join_feedback_shape() {
    let points = run_fig8(60_000, 5, &ExperimentConfig::new(2)).unwrap();
    let speeds = |col: &str| {
        points
            .iter()
            .filter(|p| p.column == col)
            .map(|p| p.speedup)
            .collect::<Vec<_>>()
    };
    assert!(
        mean(&speeds("c2")) > 0.10,
        "c2 mean {}",
        mean(&speeds("c2"))
    );
    assert!(
        mean(&speeds("c5")).abs() < 0.02,
        "c5 mean {}",
        mean(&speeds("c5"))
    );
    let overheads: Vec<f64> = points.iter().map(|p| p.overhead).collect();
    assert!(max(&overheads) < 0.06, "max overhead {}", max(&overheads));
}

/// Fig 9 shape: at 100 % sampling the overhead grows with the number of
/// predicates and far exceeds the 1 % line; at 1 % sampling the overhead
/// stays small while errors remain bounded.
#[test]
fn fig9_sampling_tames_shortcircuit_cost() {
    let points = run_fig9(40_000, &ExperimentConfig::new(1)).unwrap();
    let cell = |k: usize, f: f64| {
        points
            .iter()
            .find(|p| p.predicates == k && (p.fraction - f).abs() < 1e-9)
            .unwrap()
    };
    let k = points.iter().map(|p| p.predicates).max().unwrap();
    // Exact monitoring costs far more than 1% sampling at max arity.
    assert!(
        cell(k, 1.0).overhead > 4.0 * cell(k, 0.01).overhead,
        "full {} vs sampled {}",
        cell(k, 1.0).overhead,
        cell(k, 0.01).overhead
    );
    // Full-eval overhead grows with predicate count.
    assert!(cell(k, 1.0).overhead > cell(1, 1.0).overhead);
    // Exact monitoring has zero error; sampled error stays bounded.
    // (Error scales ~1/√(sampled pages): the paper's 0.5 % at 1 % was on
    // a 1.45 M-page table; our 40 K-row table has only ~500 pages, so
    // the 1 % line is statistically starved here — see EXPERIMENTS.md.)
    assert!(cell(k, 1.0).max_error < 1e-9);
    assert!(
        cell(k, 0.10).max_error < 0.30,
        "err {}",
        cell(k, 0.10).max_error
    );
    // At 1 % of ~500 pages the sample is ~5 pages: which 5 depends on
    // the page-keyed Bernoulli draw, so the error bound is loose by
    // construction (any statistically equivalent sampling scheme lands
    // somewhere under ~1.0 at this starved scale).
    assert!(
        cell(k, 0.01).max_error < 0.95,
        "err {}",
        cell(k, 0.01).max_error
    );
}

/// Fig 10 shape: clustering ratios spread widely across real-world-like
/// databases (the paper: mean 0.56, σ 0.4 — "no single formula fits").
#[test]
fn fig10_clustering_ratio_spread() {
    let points = run_fig10(&ExperimentConfig::new(1)).unwrap();
    assert!(points.len() > 30, "only {} observations", points.len());
    let crs: Vec<f64> = points.iter().map(|p| p.cr).collect();
    let spread =
        crs.iter().cloned().fold(f64::INFINITY, f64::min)..crs.iter().cloned().fold(0.0, f64::max);
    assert!(spread.start < 0.1, "no well-clustered columns: {spread:?}");
    assert!(spread.end > 0.7, "no scattered columns: {spread:?}");
    let m = mean(&crs);
    assert!((0.2..0.8).contains(&m), "mean CR {m}");
}

/// Fig 11 shape: real-world databases see positive mean speedups, driven
/// by plan changes on clustered columns.
#[test]
fn fig11_real_world_speedups() {
    let points = run_fig11(2, &ExperimentConfig::new(2)).unwrap();
    let all: Vec<f64> = points.iter().map(|p| p.speedup).collect();
    assert!(mean(&all) > 0.05, "mean speedup {}", mean(&all));
    assert!(points.iter().any(|p| p.plan_changed));
    // No severe regressions.
    assert!(
        all.iter().all(|s| *s > -0.25),
        "severe regression: {:?}",
        all.iter().cloned().fold(f64::INFINITY, f64::min)
    );
}

/// Table I shape: the scaled databases keep the paper's rows-per-page.
#[test]
fn table1_shapes_match() {
    let shapes = run_table1(40_000, &ExperimentConfig::new(1)).unwrap();
    assert_eq!(shapes.len(), 6);
    for s in &shapes {
        let rel = (s.rows_per_page - s.paper_rows_per_page).abs() / s.paper_rows_per_page;
        assert!(
            rel < 0.2,
            "{}: rows/page {} vs paper {}",
            s.name,
            s.rows_per_page,
            s.paper_rows_per_page
        );
    }
}

/// Ablation shapes: linear counting beats sampling estimators at equal
/// memory; bit-vector overestimation shrinks toward 1× as size grows;
/// analytical models' error grows as clustering increases, while the
/// one-sided zone bound is the true DPC at every scatter.
#[test]
fn ablation_shapes() {
    let counters = ablation_counters().unwrap();
    for row in &counters {
        assert!(
            row.linear_err < row.gee_err && row.linear_err < row.chao_err,
            "linear counting should win at {} bits",
            row.bits
        );
        assert!(
            row.fm_err < row.gee_err,
            "FM/PCSA should beat sampling estimators at {} bits",
            row.bits
        );
    }

    let bv = ablation_bitvector().unwrap();
    let first = bv.first().unwrap();
    let last = bv.last().unwrap();
    assert!(last.overestimate < first.overestimate);
    assert!(
        last.overestimate < 1.2,
        "1% of table size should be accurate"
    );

    let models = ablation_models().unwrap();
    let err = |r: &ablations::ModelRow| (r.cardenas - r.truth).abs() / r.truth;
    let clustered = models.iter().find(|r| r.scatter == 0.0).unwrap();
    let scattered = models.iter().find(|r| r.scatter == 1.0).unwrap();
    assert!(err(clustered) > 10.0, "clustered err {}", err(clustered));
    assert!(err(scattered) < 0.1, "scattered err {}", err(scattered));
    for r in &models {
        assert_eq!(
            r.zones, r.truth,
            "one-sided zone bound at scatter {}",
            r.scatter
        );
    }

    let dps = ablation_dpsample().unwrap();
    let exact = dps.iter().find(|r| r.fraction >= 1.0).unwrap();
    assert_eq!(exact.mean_error, 0.0);
    // Error decreases with the sampling fraction (allowing noise).
    let sparse = dps.first().unwrap();
    assert!(sparse.mean_error > exact.mean_error);
}

/// Buffer-pressure ablation: fetches equal the DPC with a roomy pool and
/// track the Mackert–Lohman prediction once the pool thrashes.
#[test]
fn ablation_buffer_shape() {
    let rows = ablation_buffer(&ExperimentConfig::new(1)).unwrap();
    let roomy = rows.iter().max_by_key(|r| r.buffer_pages).unwrap();
    assert_eq!(roomy.physical_reads, roomy.dpc, "no refetches with room");
    let tight = rows.iter().min_by_key(|r| r.buffer_pages).unwrap();
    assert!(tight.physical_reads > 3 * tight.dpc, "thrashing expected");
    for r in &rows {
        let rel = (r.physical_reads as f64 - r.ml_prediction).abs() / r.ml_prediction.max(1.0);
        assert!(rel < 0.10, "M-L off by {rel} at {} pages", r.buffer_pages);
    }
}

/// Zone ablation: on the clustered `c2` the zone estimate is exact and
/// always picks the exact-DPC plan, which Cardenas misses; on the
/// scattered `c5` it equals Cardenas; on `c4`, whose 2 % scattered rows
/// widen the zones, it is still far off somewhere — where feedback is
/// needed. The estimate is capped by Cardenas and the bound never
/// undercounts, so it is never further off than Cardenas.
#[test]
fn ablation_zones_shape() {
    let rows = ablation_zones(20_000, &ExperimentConfig::new(1)).unwrap();
    assert_eq!(rows.len(), 18);
    for r in &rows {
        assert!(r.zone_error <= r.analytic_error, "{r:?}");
        match r.column {
            "c2" => {
                assert_eq!(r.zone_error, 0.0, "{r:?}");
                assert!(r.zone_plan_exact && r.analytic_error > 5.0, "{r:?}");
            }
            "c5" => assert_eq!(r.zone_error, r.analytic_error, "{r:?}"),
            _ => {}
        }
    }
    assert!(rows.iter().any(|r| r.column == "c4" && r.zone_error > 1.0));
    assert!(rows
        .iter()
        .any(|r| r.column == "c2" && !r.analytic_plan_exact));
}
