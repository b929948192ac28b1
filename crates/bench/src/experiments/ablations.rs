//! Ablations beyond the paper's plots (DESIGN.md §4).

use crate::util::{mean, section, ExperimentConfig};
use pf_common::rng::Rng;
use pf_common::{Datum, Result};
use pf_feedback::distinct_estimators::{estimate_chao, estimate_gee, ReservoirSampler};
use pf_feedback::{BitVectorFilter, DpSampler, FmSketch, LinearCounter};
use pf_optimizer::dpc_model::{cardenas, mackert_lohman, yao};
use pf_workloads::perm::scattered_permutation;
use std::collections::HashSet;

/// One row of the counter-comparison table.
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Memory given to each estimator, in bits (reservoir gets bits/64
    /// samples, matching footprint).
    pub bits: usize,
    /// Relative error of linear counting.
    pub linear_err: f64,
    /// Relative error of a Flajolet–Martin PCSA sketch (the paper's ref 8).
    pub fm_err: f64,
    /// Relative error of reservoir + GEE.
    pub gee_err: f64,
    /// Relative error of reservoir + Chao.
    pub chao_err: f64,
}

/// Probabilistic counting vs sampling-based distinct estimation — the
/// comparison Section III-A defers to future work. A simulated
/// index-plan PID stream (rows in key order, pages revisited) feeds all
/// estimators at equal memory budgets.
pub fn ablation_counters() -> Result<Vec<CounterRow>> {
    section("Ablation: linear counting vs sampling estimators (equal memory)");
    let pages = 8_192u32;
    let distinct = 3_000usize;
    // A key-ordered fetch stream: ~4 rows per qualifying page, shuffled.
    let mut rng = Rng::new(7);
    let mut stream = Vec::new();
    let qualifying = scattered_permutation(pages as usize, 1.0, 8);
    for &p in qualifying.iter().take(distinct) {
        for _ in 0..4 {
            stream.push(p as u32);
        }
    }
    rng.shuffle(&mut stream);

    let mut rows = Vec::new();
    for bits in [512usize, 1_024, 4_096, 16_384] {
        let mut lc = LinearCounter::new(bits, 1);
        // Equal footprint: a PID sample entry / FM bitmap is 64 bits.
        let mut fm = FmSketch::new((bits / 64).max(8), 3);
        let mut rs = ReservoirSampler::new((bits / 64).max(4), 2);
        for &p in &stream {
            lc.observe(p);
            fm.observe(p);
            rs.offer(p);
        }
        let rel = |e: f64| (e - distinct as f64).abs() / distinct as f64;
        rows.push(CounterRow {
            bits,
            linear_err: rel(lc.estimate()),
            fm_err: rel(fm.estimate()),
            gee_err: rel(estimate_gee(rs.sample(), rs.seen())),
            chao_err: rel(estimate_chao(rs.sample())),
        });
    }
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10}",
        "bits", "linear", "FM/PCSA", "GEE", "Chao"
    );
    for r in &rows {
        println!(
            "{:>7} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            r.bits,
            r.linear_err * 100.0,
            r.fm_err * 100.0,
            r.gee_err * 100.0,
            r.chao_err * 100.0
        );
    }
    Ok(rows)
}

/// One row of the bit-vector sizing sweep.
#[derive(Debug, Clone)]
pub struct BitVectorRow {
    /// Filter size as a fraction of the probed table's size.
    pub table_fraction: f64,
    /// Overestimation factor of the derived semi-join page count
    /// (collisions can only overestimate — never undercount).
    pub overestimate: f64,
    /// Filter fill ratio.
    pub fill: f64,
}

/// Bit-vector size vs DPC overestimation. The paper: a filter "of a
/// modest size (less than 1 % of the table size) was sufficient to yield
/// high accuracy", and collisions only overestimate. We use a *selective*
/// join (0.5 % of the key domain on the build side) where false positives
/// have room to inflate the count, and sweep the filter from 10⁻⁶ to
/// 10⁻² of the table size.
pub fn ablation_bitvector() -> Result<Vec<BitVectorRow>> {
    section("Ablation: bit-vector size vs page-count overestimation");
    let n_pages = 4_000usize;
    let rows_per_page = 50usize;
    let n_rows = n_pages * rows_per_page;
    let table_bits = n_pages as f64 * 8_192.0 * 8.0;
    // Inner join keys: a random permutation of 0..n_rows; build side
    // holds the 0.5 % smallest keys.
    let inner = scattered_permutation(n_rows, 1.0, 3);
    let build_max = (n_rows / 200) as i64;
    let build_keys: Vec<i64> = (0..build_max).collect();

    let key_set: HashSet<i64> = build_keys.iter().copied().collect();
    let truth = (0..n_pages)
        .filter(|p| {
            inner[p * rows_per_page..(p + 1) * rows_per_page]
                .iter()
                .any(|k| key_set.contains(k))
        })
        .count() as f64;

    let mut out = Vec::new();
    for frac in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
        let bits = (table_bits * frac) as usize;
        let mut f = BitVectorFilter::new(bits, 9);
        for k in &build_keys {
            f.insert(&Datum::Int(*k));
        }
        let measured = (0..n_pages)
            .filter(|p| {
                inner[p * rows_per_page..(p + 1) * rows_per_page]
                    .iter()
                    .any(|k| f.may_contain(&Datum::Int(*k)))
            })
            .count() as f64;
        out.push(BitVectorRow {
            table_fraction: frac,
            overestimate: measured / truth,
            fill: f.fill_ratio(),
        });
    }
    println!("{:>16} {:>13} {:>7}", "size/table", "overestimate", "fill");
    for r in &out {
        println!(
            "{:>15.4}% {:>12.3}x {:>6.3}",
            r.table_fraction * 100.0,
            r.overestimate,
            r.fill
        );
    }
    Ok(out)
}

/// One row of the sampling-rate sweep.
#[derive(Debug, Clone)]
pub struct DpSampleRow {
    /// Sampling fraction.
    pub fraction: f64,
    /// Mean relative error over trials.
    pub mean_error: f64,
    /// Fraction of pages whose rows paid full predicate evaluation.
    pub work_fraction: f64,
}

/// DPSample rate sweep — the error/overhead trade-off between Fig 9's
/// three operating points.
pub fn ablation_dpsample() -> Result<Vec<DpSampleRow>> {
    section("Ablation: DPSample rate sweep");
    let pages = 20_000u32;
    let satisfying = 5_500u32;
    let mut out = Vec::new();
    for fraction in [0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0] {
        let mut errs = Vec::new();
        let mut sampled_frac = 0.0;
        for seed in 0..20 {
            let mut s = DpSampler::new(fraction, seed)?;
            for p in 0..pages {
                if s.start_page() {
                    s.observe_row(p < satisfying);
                }
            }
            s.finish();
            errs.push((s.estimate() - f64::from(satisfying)).abs() / f64::from(satisfying));
            sampled_frac = s.pages_sampled() as f64 / s.pages_seen() as f64;
        }
        out.push(DpSampleRow {
            fraction,
            mean_error: mean(&errs),
            work_fraction: sampled_frac,
        });
    }
    println!("{:>9} {:>11} {:>10}", "fraction", "mean error", "work");
    for r in &out {
        println!(
            "{:>8.1}% {:>10.2}% {:>9.1}%",
            r.fraction * 100.0,
            r.mean_error * 100.0,
            r.work_fraction * 100.0
        );
    }
    Ok(out)
}

/// One row of the disk-parameter sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Random-read : sequential-read cost ratio.
    pub seek_ratio: f64,
    /// Mean feedback speedup over the workload at this ratio.
    pub mean_speedup: f64,
    /// Queries whose plan changed after injection.
    pub plans_changed: usize,
}

/// Storage-parameter sensitivity (the paper's related work \[15\],
/// Reiss & Kanungo): how much the page-count feedback matters as the
/// random-vs-sequential cost ratio varies. At ratio 1 (an SSD-like
/// device) scattered fetches are cheap, the scan/seek decision barely
/// depends on the DPC, and feedback changes little; as seeks get
/// relatively costlier the mis-estimated DPC becomes the dominant error
/// and feedback speedups grow.
pub fn ablation_sensitivity(rows: usize, cfg: &ExperimentConfig) -> Result<Vec<SensitivityRow>> {
    use pagefeed::MonitorConfig;
    use pf_storage::DiskModel;
    use pf_workloads::synthetic::{build, SyntheticConfig};
    section("Ablation: disk-parameter sensitivity of feedback benefit");

    let mut out = Vec::new();
    for ratio in [1.0, 5.0, 20.0, 80.0] {
        let mut db = cfg.with_faults(build(&SyntheticConfig {
            rows,
            with_t1: false,
            seed: 151,
        })?)?;
        db.disk = DiskModel {
            rand_read_ms: DiskModel::default().seq_read_ms * ratio,
            ..DiskModel::default()
        };
        let queries =
            pf_workloads::single_table_workload(&db, "T", &["c2", "c3"], 8, (0.01, 0.10), 152)?;
        let mut speedups = Vec::new();
        let mut changed = 0;
        for q in &queries {
            let fb = db.feedback_loop(q, &MonitorConfig::default())?;
            speedups.push(fb.speedup());
            changed += usize::from(fb.plan_changed());
        }
        out.push(SensitivityRow {
            seek_ratio: ratio,
            mean_speedup: mean(&speedups),
            plans_changed: changed,
        });
    }
    println!(
        "{:>11} {:>13} {:>14}",
        "seek ratio", "mean speedup", "plans changed"
    );
    for r in &out {
        println!(
            "{:>10.0}x {:>12.1}% {:>14}",
            r.seek_ratio,
            r.mean_speedup * 100.0,
            r.plans_changed
        );
    }
    Ok(out)
}

/// One row of the buffer-pressure sweep.
#[derive(Debug, Clone)]
pub struct BufferRow {
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Distinct pages the plan needs (the DPC).
    pub dpc: u64,
    /// Physical reads actually performed (≥ DPC once the pool thrashes).
    pub physical_reads: u64,
    /// The Mackert–Lohman prediction for this buffer size.
    pub ml_prediction: f64,
}

/// Buffer pressure: execute one index plan under shrinking buffer pools
/// and compare actual physical reads against the Mackert–Lohman model.
/// With a large pool, fetches == DPC (the paper's setting); once the
/// pool is smaller than the working set, re-fetches appear — the regime
/// M-L models and DPC alone does not.
pub fn ablation_buffer(cfg: &ExperimentConfig) -> Result<Vec<BufferRow>> {
    use pagefeed::{Database, MonitorConfig, PredSpec, Query};
    use pf_common::{Column, DataType, Row, Schema};
    use pf_exec::CompareOp;
    section("Ablation: buffer pressure vs Mackert-Lohman");

    // A table whose index column is fully scattered, so an index seek
    // revisits pages in random order — the worst case for a small pool.
    let n = 60_000usize;
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("scat", DataType::Int),
        Column::new("pad", DataType::Str),
    ]);
    let scat = scattered_permutation(n, 1.0, 31);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Datum::Int(i as i64),
                Datum::Int(scat[i]),
                Datum::Str("x".repeat(60)),
            ])
        })
        .collect();
    db.create_table("t", schema, rows, Some("id"))?;
    db.create_index("ix", "t", "scat")?;
    db.analyze()?;
    db.set_fault_plan(cfg.fault_plan)?;

    let select = (n / 10) as i64;
    let query = Query::count(
        "t",
        vec![PredSpec::new("scat", CompareOp::Lt, Datum::Int(select))],
    );
    // Force the index plan regardless of cost: inject the true (large)
    // cardinality but a tiny DPC so the seek always wins.
    db.inject_accurate_cardinalities(&query)?;
    db.hints_mut()
        .inject_dpc("t", format!("scat<{select}"), 1.0);

    let meta = db.catalog().table_by_name("t")?;
    let pages = f64::from(meta.stats.pages);
    let schema2 = meta.schema().clone();
    let pred = Query::resolve_predicates(
        &[PredSpec::new("scat", CompareOp::Lt, Datum::Int(select))],
        &schema2,
    )?;
    let dpc = db.true_dpc("t", &pred)?;

    let mut out = Vec::new();
    for buffer in [16_384usize, 2_048, 512, 128, 32] {
        db.pool_pages = buffer;
        let run = db.run(&query, &MonitorConfig::off())?;
        assert!(run.description.contains("IndexSeek"), "{}", run.description);
        out.push(BufferRow {
            buffer_pages: buffer,
            dpc,
            physical_reads: run.stats.rand_physical_reads,
            ml_prediction: mackert_lohman(select as f64, pages, buffer as f64),
        });
    }
    println!(
        "{:>8} {:>7} {:>15} {:>9}",
        "buffer", "DPC", "physical reads", "M-L"
    );
    for r in &out {
        println!(
            "{:>8} {:>7} {:>15} {:>9.0}",
            r.buffer_pages, r.dpc, r.physical_reads, r.ml_prediction
        );
    }
    Ok(out)
}

/// One row of the self-tuning histogram evaluation.
#[derive(Debug, Clone)]
pub struct HistogramRow {
    /// Number of training queries absorbed before this test query.
    pub trained_on: usize,
    /// Relative DPC error of the pure analytical model.
    pub analytic_error: f64,
    /// Relative DPC error of the histogram prediction (analytical when
    /// the histogram declines).
    pub histogram_error: f64,
    /// Whether the histogram-driven plan matched the feedback-driven one.
    pub plan_matches_oracle: bool,
}

/// Self-tuning DPC histograms (Section VI future work): train the cache
/// on one workload, then measure DPC-prediction error and plan quality
/// on *unseen* queries over the same columns — no per-query feedback.
pub fn ablation_histogram(rows: usize, cfg: &ExperimentConfig) -> Result<Vec<HistogramRow>> {
    use pagefeed::{MonitorConfig, PredSpec, Query};
    use pf_exec::CompareOp;
    use pf_workloads::synthetic::{build, SyntheticConfig};
    section("Ablation: self-tuning DPC histograms on unseen queries");

    let mut db = cfg.with_faults(build(&SyntheticConfig {
        rows,
        with_t1: false,
        seed: 202,
    })?)?;
    db.enable_dpc_histograms(32);
    let n = rows as i64;
    let q = |col: &str, lo: i64, hi: i64| {
        Query::count(
            "T",
            vec![
                PredSpec::new(col, CompareOp::Ge, Datum::Int(lo)),
                PredSpec::new(col, CompareOp::Lt, Datum::Int(hi)),
            ],
        )
    };

    // Training workload: ranges tiling ~the whole domain of c2 and c5.
    let mut rng = Rng::new(203);
    let mut trained = 0usize;
    let mut out = Vec::new();
    for round in 0..6i64 {
        // Test on unseen queries BEFORE this round's training.
        for col in ["c2", "c5"] {
            let lo = (rng.gen_range((n as u64) / 2) + 1) as i64;
            let width = 1 + (n / 100) + rng.gen_range((n as u64) / 50) as i64;
            let test = q(col, lo, lo + width);

            let schema = db.catalog().table_by_name("T")?.schema().clone();
            let pred = pagefeed::Query::resolve_predicates(
                &[
                    PredSpec::new(col, CompareOp::Ge, Datum::Int(lo)),
                    PredSpec::new(col, CompareOp::Lt, Datum::Int(lo + width)),
                ],
                &schema,
            )?;
            let truth = db.true_dpc("T", &pred)? as f64;
            let pages = f64::from(db.catalog().table_by_name("T")?.stats.pages);
            let true_rows = db.true_cardinality("T", &pred)? as f64;
            let analytic = pf_optimizer::dpc_model::cardenas(true_rows, pages);

            let key = pred.key();
            let eff = db.effective_hints(&test)?;
            let predicted = eff.dpc("T", key).unwrap_or(analytic);

            // Oracle plan: exact DPC injected.
            let mut oracle_hints = db.hints().clone();
            oracle_hints.inject_dpc("T", key, truth);
            let oracle = {
                let saved = db.hints().clone();
                *db.hints_mut() = oracle_hints;
                db.inject_accurate_cardinalities(&test)?;
                let plan = db.lower(&test, &MonitorConfig::off())?;
                *db.hints_mut() = saved;
                plan.description
            };
            db.inject_accurate_cardinalities(&test)?;
            let chosen = db.lower(&test, &MonitorConfig::off())?.description;

            let rel = |e: f64| (e - truth).abs() / truth.max(1.0);
            out.push(HistogramRow {
                trained_on: trained,
                analytic_error: rel(analytic),
                histogram_error: rel(predicted),
                plan_matches_oracle: chosen == oracle,
            });
        }
        // Train on two adjacent domain slices per column this round, so
        // six rounds tile the whole column domain and coverage grows
        // monotonically.
        let slice = n / 12;
        for col in ["c2", "c5"] {
            for half in 0..2i64 {
                let lo = (2 * round + half) * slice;
                db.feedback_loop(&q(col, lo, lo + slice), &MonitorConfig::default())?;
                trained += 1;
            }
        }
    }

    println!(
        "{:>9} {:>13} {:>14} {:>12}",
        "trained", "analytic err", "histogram err", "plan=oracle"
    );
    for r in &out {
        println!(
            "{:>9} {:>12.1}% {:>13.1}% {:>12}",
            r.trained_on,
            r.analytic_error * 100.0,
            r.histogram_error * 100.0,
            r.plan_matches_oracle
        );
    }
    let early: Vec<f64> = out
        .iter()
        .filter(|r| r.trained_on == 0)
        .map(|r| r.histogram_error)
        .collect();
    let late: Vec<f64> = out
        .iter()
        .filter(|r| r.trained_on >= 16)
        .map(|r| r.histogram_error)
        .collect();
    println!(
        "mean histogram error: untrained {:.1}% -> trained {:.1}%",
        mean(&early) * 100.0,
        mean(&late) * 100.0
    );
    Ok(out)
}

/// One row of the analytical-model comparison.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Scatter fraction of the column layout.
    pub scatter: f64,
    /// Predicate cardinality.
    pub rows: u64,
    /// Ground-truth distinct pages.
    pub truth: f64,
    /// Cardenas estimate.
    pub cardenas: f64,
    /// Yao estimate.
    pub yao: f64,
    /// Mackert–Lohman estimate (large buffer).
    pub mackert_lohman: f64,
}

/// Where the analytical formulas break: sweep the on-disk correlation and
/// compare each model's estimate against ground truth. All three models
/// ignore clustering, so their error grows as scatter → 0.
pub fn ablation_models() -> Result<Vec<ModelRow>> {
    section("Ablation: analytical DPC models vs clustering");
    let n_rows = 200_000usize;
    let rows_per_page = 50usize;
    let pages = (n_rows / rows_per_page) as u64;
    let select = 4_000u64;

    let mut out = Vec::new();
    for scatter in [0.0, 0.15, 0.5, 1.0] {
        let layout = scattered_permutation(n_rows, scatter, 21);
        // Predicate: column value < select; find distinct pages.
        let mut touched = HashSet::new();
        for (pos, &v) in layout.iter().enumerate() {
            if (v as u64) < select {
                touched.insert(pos / rows_per_page);
            }
        }
        out.push(ModelRow {
            scatter,
            rows: select,
            truth: touched.len() as f64,
            cardenas: cardenas(select as f64, pages as f64),
            yao: yao(select, n_rows as u64, pages),
            mackert_lohman: mackert_lohman(select as f64, pages as f64, 1e9),
        });
    }
    println!(
        "{:>8} {:>7} {:>8} {:>10} {:>10} {:>10}",
        "scatter", "rows", "truth", "Cardenas", "Yao", "M-L"
    );
    for r in &out {
        println!(
            "{:>8.2} {:>7} {:>8.0} {:>10.0} {:>10.0} {:>10.0}",
            r.scatter, r.rows, r.truth, r.cardenas, r.yao, r.mackert_lohman
        );
    }
    Ok(out)
}
