//! `ab` — interleaved A/B runs of two perfbench executables.
//!
//! ```text
//! ab --parent EXE --change EXE --workload W [--pairs K] [--seconds S]
//!    [--seed N] [--benchmark PATH]
//! ```
//!
//! Runs `K` pairs, one process at a time: pair `i` runs both
//! executables on seed `N + i` (`--seconds S --trace 0`), the parent
//! first in even pairs and the change first in odd ones, so a drift in
//! host speed lands on both sides alike. It then prints, for every
//! end-to-end metric that `BENCHMARK.json` (`--benchmark`, default
//! `BENCHMARK.json`) declares, each side's median and quartiles and the
//! number of pairs the change won (strictly better, in the metric's
//! declared direction), and per seed whether the two runs agree on
//! `# digest`, `sim_ms`, `correct` and `failed`. It only reads the
//! benchmark's output.
//!
//! Exits 1 when some seed's runs disagree, report a failed operation or
//! an incorrect answer, and 2 on a usage error or a run that does not
//! complete. Run against itself (`--parent X --change X`), it checks
//! that a build's digests are a function of the seed alone.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

fn usage() -> ! {
    eprintln!(
        "usage: ab --parent EXE --change EXE --workload W [--pairs K] [--seconds S] \
         [--seed N] [--benchmark PATH]"
    );
    std::process::exit(2);
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
}

/// What one perfbench run printed.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    digest: String,
    sim_ms: String,
    correct: bool,
    failed: u64,
    metrics: HashMap<String, f64>,
}

/// The string value of `"key": "…"` in `obj`.
fn json_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// The `end_to_end` list of a `BENCHMARK.json`: one flat object per
/// metric with string fields `name`, `unit` and `better`.
fn declared_metrics(benchmark: &str) -> Option<Vec<Declared>> {
    let at = benchmark.find("\"end_to_end\"")?;
    let list = &benchmark[at..];
    let list = &list[list.find('[')? + 1..list.find(']')?];
    list.split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| {
            Some(Declared {
                name: json_str(obj, "name")?.to_string(),
                unit: json_str(obj, "unit")?.to_string(),
                higher_is_better: match json_str(obj, "better")? {
                    "higher" => true,
                    "lower" => false,
                    _ => return None,
                },
            })
        })
        .collect()
}

/// Parses perfbench's `--trace 0` output: the `# digest D sim_ms S (w)`
/// line, every `metric NAME VALUE UNIT (note)` line and the closing
/// JSON line's `correct` and `failed`.
fn parse_run(out: &str) -> Option<Run> {
    let mut fields = out
        .lines()
        .find_map(|l| l.strip_prefix("# digest "))?
        .split_whitespace();
    let digest = fields.next()?.to_string();
    let sim_ms = match (fields.next(), fields.next()) {
        (Some("sim_ms"), Some(v)) => v.to_string(),
        _ => return None,
    };
    let metrics = out
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric ")?.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect();
    let json = out.lines().find(|l| l.starts_with("{\"correct\": "))?;
    let correct = json.starts_with("{\"correct\": true,");
    let failed = json
        .split("\"failed\": ")
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    Some(Run {
        digest,
        sim_ms,
        correct,
        failed,
        metrics,
    })
}

/// The `q` quantile of `values`, interpolated linearly between ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `median [q1–q3]` of `values`.
fn summary(values: &[f64]) -> String {
    format!(
        "{} [{}–{}]",
        short(quantile(values, 0.5)),
        short(quantile(values, 0.25)),
        short(quantile(values, 0.75))
    )
}

/// Four significant digits.
fn short(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// Per-seed agreement of the two sides: `None` when everything agrees
/// and no run failed an operation or answered wrongly, else what
/// differs.
fn disagreement(parent: &Run, change: &Run) -> Option<String> {
    let mut diffs = Vec::new();
    if parent.digest != change.digest {
        diffs.push(format!("digest {} vs {}", parent.digest, change.digest));
    }
    if parent.sim_ms != change.sim_ms {
        diffs.push(format!("sim_ms {} vs {}", parent.sim_ms, change.sim_ms));
    }
    if !(parent.correct && change.correct) {
        diffs.push(format!("correct {} vs {}", parent.correct, change.correct));
    }
    if parent.failed + change.failed > 0 {
        diffs.push(format!("failed {} vs {}", parent.failed, change.failed));
    }
    (!diffs.is_empty()).then(|| diffs.join(", "))
}

/// Runs one perfbench executable; exits 2 if it does not complete.
fn run(exe: &str, workload: &str, seed: u64, seconds: &str) -> Run {
    let seed = seed.to_string();
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        seconds,
        "--trace",
        "0",
    ];
    let out = match Command::new(exe).args(args).output() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ab: cannot run {exe}: {e}");
            std::process::exit(2);
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    match parse_run(&stdout) {
        Some(r) if out.status.success() => r,
        _ => {
            eprintln!(
                "ab: {exe} {} exited {} without a report:\n{}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let (mut parent, mut change, mut workload) = (None, None, None);
    let (mut pairs, mut seconds, mut seed) = (10u64, "25".to_string(), 1u64);
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        let number = |v: &str| v.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--parent" => parent = Some(value),
            "--change" => change = Some(value),
            "--workload" => workload = Some(value),
            "--pairs" => pairs = number(&value).max(1),
            "--seconds" => seconds = value,
            "--seed" => seed = number(&value),
            "--benchmark" => benchmark = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(parent), Some(change), Some(workload)) = (parent, change, workload) else {
        usage()
    };
    let declared = std::fs::read_to_string(&benchmark)
        .ok()
        .and_then(|text| declared_metrics(&text));
    let Some(declared) = declared else {
        eprintln!("ab: no end_to_end metrics in {}", benchmark.display());
        std::process::exit(2);
    };

    println!(
        "# ab workload={workload} pairs={pairs} seconds={seconds} seeds={seed}..{}",
        seed + pairs - 1
    );
    let mut runs = Vec::new();
    let mut agree = true;
    for i in 0..pairs {
        let s = seed + i;
        let parent_first = i % 2 == 0;
        let (p, c) = if parent_first {
            let p = run(&parent, &workload, s, &seconds);
            (p, run(&change, &workload, s, &seconds))
        } else {
            let c = run(&change, &workload, s, &seconds);
            (run(&parent, &workload, s, &seconds), c)
        };
        let first = if parent_first { "parent" } else { "change" };
        let verdict = match disagreement(&p, &c) {
            None => format!(
                "digest {}, sim_ms {}, correct, failed 0: agree",
                p.digest, p.sim_ms
            ),
            Some(diff) => {
                agree = false;
                format!("DISAGREE: {diff}")
            }
        };
        println!("seed {s} ({first} first): {verdict}");
        runs.push((p, c));
    }

    println!("metric | unit | parent median [q1–q3] | change median [q1–q3] | change won");
    for m in &declared {
        let side = |pick: fn(&(Run, Run)) -> &Run| -> Option<Vec<f64>> {
            runs.iter()
                .map(|r| pick(r).metrics.get(&m.name).copied())
                .collect()
        };
        let (Some(p), Some(c)) = (side(|r| &r.0), side(|r| &r.1)) else {
            println!("{} | {} | missing | missing | -", m.name, m.unit);
            continue;
        };
        let won = p
            .iter()
            .zip(&c)
            .filter(|(p, c)| if m.higher_is_better { c > p } else { c < p })
            .count();
        println!(
            "{} | {} | {} | {} | {won}/{pairs}",
            m.name,
            m.unit,
            summary(&p),
            summary(&c)
        );
    }
    if !agree {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &str = "# perfbench workload=scan_feedback seed=3 seconds=1 trace=0
# cleared_env=[]
# digest 8a508adbbe1a310c sim_ms 1234.5 (scan_feedback)
metric setup_s 0.8 s (1 set-up)
metric ops_per_s 1180.5 1/s (1200 ops)
metric op_p95_ms 1.61 ms (1190 reads)
metric failed_frac 0 ratio (0 failed of 1200 attempted)
# run.steal_frac 0
{\"correct\": true, \"attempted\": 1200, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8, \"unit\": \"s\"}}}
";

    #[test]
    fn parses_a_perfbench_report() {
        let run = parse_run(OUT).expect("a complete report");
        assert_eq!(run.digest, "8a508adbbe1a310c");
        assert_eq!(run.sim_ms, "1234.5");
        assert!(run.correct);
        assert_eq!(run.failed, 0);
        assert_eq!(run.metrics["ops_per_s"], 1180.5);
        assert_eq!(run.metrics["op_p95_ms"], 1.61);
        assert!(parse_run("# digest abc\n").is_none(), "no sim_ms");
        let failing = OUT.replace("\"failed\": 0,", "\"failed\": 3,");
        let failing = parse_run(&failing).expect("a complete report");
        assert_eq!(failing.failed, 3);
        let other = Run {
            sim_ms: "1234.6".into(),
            ..run.clone()
        };
        assert_eq!(disagreement(&run, &run), None);
        let diff = disagreement(&run, &other).expect("sim_ms differs");
        assert!(diff.contains("sim_ms"), "{diff}");
        assert!(disagreement(&failing, &failing).is_some(), "a failed op");
    }

    #[test]
    fn reads_the_declared_end_to_end_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("the repository's BENCHMARK.json");
        let declared = declared_metrics(&text).expect("an end_to_end list");
        let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"op_p95_ms") && names.contains(&"peak_rss_mb"));
        let ops = declared
            .iter()
            .find(|d| d.name == "ops_per_s")
            .expect("ops_per_s");
        assert!(ops.higher_is_better);
        assert!(declared
            .iter()
            .filter(|d| d.name != "ops_per_s")
            .all(|d| !d.higher_is_better));
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(summary(&[5.0]), "5.000 [5.000–5.000]");
        assert_eq!(short(1234.4), "1234");
        assert_eq!(short(0.01618), "0.01618");
    }
}
