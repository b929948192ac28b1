//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--jobs N] [--fault-seed N] [--fault-rate P] [--fault-error-rate E]
//!       [--feedback-dir D]
//!       table1 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11
//!       | ablation-counters | ablation-bitvector | ablation-dpsample | ablation-models
//!       | ablation-histogram | ablation-buffer | ablation-sensitivity
//!       | all | quick
//! ```
//!
//! `quick` runs everything at reduced scale (useful for smoke testing);
//! `PF_ROWS=<n>` overrides the synthetic table size for any subcommand.
//! `--jobs N` (default: all cores) sets how many worker threads the
//! feedback-loop experiments use — output is identical for any worker
//! count.
//!
//! `--fault-seed N --fault-rate P` turn on deterministic storage fault
//! injection: every database an experiment builds has a fraction `P` of
//! its pages damaged, chosen purely by `(seed, table, page)` (the seed
//! defaults to `0xFA17`). The run must still complete — corrupt pages
//! are skipped and the affected estimates labelled degraded.
//! `--fault-error-rate E` additionally makes a fraction `E` of storage
//! operations *return typed errors* (failed reads, writes, fsyncs,
//! renames) on their first attempt; retries make the run transparent,
//! so output stays byte-identical to a clean run.
//!
//! `--feedback-dir D` makes the feedback-loop figures (6, 7, 8, 11)
//! persist every harvested measurement to a crash-safe store under `D`
//! (one subdirectory per experiment) and recover whatever an earlier —
//! possibly crashed — run persisted before re-optimizing. Kill a run
//! mid-figure, rerun it, and the re-optimized plans come out
//! byte-identical to an uninterrupted run.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use pagefeed::{FaultPlan, ParallelRunner};
use pf_bench::util::ExperimentConfig;
use pf_bench::*;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--jobs N] [--fault-seed N] [--fault-rate P] [--fault-error-rate E] \
         [--feedback-dir D] [table1|fig6|fig7|fig8|fig9|fig10|fig11|ablation-*|all|quick]"
    );
    std::process::exit(2);
}

/// Parses `--name V` / `--name=V`, exiting with usage on a malformed
/// value. Returns `None` when `arg` is not this flag at all.
fn flag_value<T: std::str::FromStr>(
    arg: &str,
    name: &str,
    args: &mut impl Iterator<Item = String>,
) -> Option<T> {
    let raw = if arg == name {
        args.next()
    } else {
        arg.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
            .map(str::to_string)
    }?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("{name} expects a valid value, got {raw:?}");
            usage();
        }
    }
}

fn main() {
    let mut jobs = ParallelRunner::default().jobs();
    let mut fault_seed: Option<u64> = None;
    let mut fault_rate: Option<f64> = None;
    let mut fault_error_rate: Option<f64> = None;
    let mut feedback_dir: Option<String> = None;
    let mut cmd: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let a = arg.as_str();
        if a == "-j" || a.starts_with("--jobs") {
            let name = if a == "-j" { "-j" } else { "--jobs" };
            if let Some(n) = flag_value(a, name, &mut args) {
                jobs = n;
                continue;
            }
        }
        if a.starts_with("--fault-seed") {
            if let Some(n) = flag_value(a, "--fault-seed", &mut args) {
                fault_seed = Some(n);
                continue;
            }
        }
        if a.starts_with("--fault-error-rate") {
            if let Some(p) = flag_value(a, "--fault-error-rate", &mut args) {
                fault_error_rate = Some(p);
                continue;
            }
        }
        if a.starts_with("--fault-rate") {
            if let Some(p) = flag_value(a, "--fault-rate", &mut args) {
                fault_rate = Some(p);
                continue;
            }
        }
        if a.starts_with("--feedback-dir") {
            if let Some(d) = flag_value(a, "--feedback-dir", &mut args) {
                feedback_dir = Some(d);
                continue;
            }
        }
        match a {
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                usage();
            }
        }
    }
    let (rate, error_rate) = (fault_rate.unwrap_or(0.0), fault_error_rate.unwrap_or(0.0));
    let fault_plan = if rate == 0.0 && error_rate == 0.0 {
        None
    } else {
        match FaultPlan::new(fault_seed.unwrap_or(0xFA17), rate)
            .and_then(|p| p.with_error_returns(error_rate))
        {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("{e}");
                usage();
            }
        }
    };
    let cfg = ExperimentConfig {
        jobs,
        fault_plan,
        feedback_root: feedback_dir.filter(|d| !d.is_empty()).map(PathBuf::from),
    };
    let cmd = cmd.unwrap_or_else(|| "all".to_string());
    let rows = std::env::var("PF_ROWS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(320_000);
    let result = match cmd.as_str() {
        "table1" => run_table1(rows, &cfg).map(|_| ()),
        "fig6" => run_fig6(rows, 25, &cfg).map(|_| ()),
        "fig7" => run_fig7(rows, 25, &cfg).map(|_| ()),
        "fig8" => run_fig8(rows, 10, &cfg).map(|_| ()),
        "fig9" => run_fig9(rows, &cfg).map(|_| ()),
        "fig10" => run_fig10(&cfg).map(|_| ()),
        "fig11" => run_fig11(5, &cfg).map(|_| ()),
        "ablation-counters" => ablation_counters().map(|_| ()),
        "ablation-bitvector" => ablation_bitvector().map(|_| ()),
        "ablation-dpsample" => ablation_dpsample().map(|_| ()),
        "ablation-models" => ablation_models().map(|_| ()),
        "ablation-histogram" => ablation_histogram(rows, &cfg).map(|_| ()),
        "ablation-buffer" => ablation_buffer(&cfg).map(|_| ()),
        "ablation-sensitivity" => ablation_sensitivity(rows.min(80_000), &cfg).map(|_| ()),
        "all" => run_all(rows, 25, 10, 5, &cfg),
        "quick" => run_all(40_000, 4, 3, 2, &cfg),
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    };
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

fn run_all(
    rows: usize,
    single_per_col: usize,
    join_per_col: usize,
    real_per_col: usize,
    cfg: &ExperimentConfig,
) -> pf_common::Result<()> {
    run_table1(rows, cfg)?;
    run_fig6(rows, single_per_col, cfg)?;
    run_fig7(rows, single_per_col, cfg)?;
    run_fig8(rows, join_per_col, cfg)?;
    run_fig9(rows, cfg)?;
    run_fig10(cfg)?;
    run_fig11(real_per_col, cfg)?;
    ablation_counters()?;
    ablation_bitvector()?;
    ablation_dpsample()?;
    ablation_models()?;
    ablation_histogram(rows, cfg)?;
    ablation_buffer(cfg)?;
    ablation_sensitivity(rows.min(80_000), cfg)?;
    Ok(())
}
