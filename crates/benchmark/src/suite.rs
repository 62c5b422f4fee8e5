//! The two multi-process commands: the full suite (`run.sh` with no
//! `--workload`) and the A/A comparison (`aa.sh`). Both start one OS
//! process per workload run, so no run inherits another's heap, threads
//! or peak RSS, and both read results back from the child's result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// What the suite passes down to each workload process.
#[derive(Debug, Clone)]
pub struct ChildOptions {
    pub exe: PathBuf,
    pub seconds: f64,
    pub out_dir: PathBuf,
    /// Extra flags handed through unchanged (`--transport`, `--points-per-cluster`).
    pub passthrough: Vec<String>,
}

/// A child's parsed result line.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

fn parse_result(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let json = Json::parse(line)?;
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line lacks `{key}`"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line lacks `metrics`")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: json.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Run one workload in its own process. With `echo` its report is passed
/// through to our stdout.
pub fn run_child(
    child: &ChildOptions,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let output = Command::new(&child.exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &child.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&child.out_dir)
        .args(&child.passthrough)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", child.exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_result(&stdout)
}

/// Every workload, end to end and then per layer, each in its own
/// process. Returns the process exit code: non-zero if any wave failed.
pub fn suite(child: &ChildOptions, seed: u64) -> i32 {
    let mut failures = 0u64;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            match run_child(child, w.name, seed, trace, true) {
                Ok(r) => {
                    failures += r.failed + u64::from(!r.correct);
                    if !trace {
                        rows.push((w.name, r));
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failures += 1;
                }
            }
            println!();
        }
    }
    println!("== summary (seed {seed}, {} s per run) ==", child.seconds);
    print!("{:<20}", "workload");
    for m in &END_TO_END {
        print!(" {:>24}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>12}", "failed_share");
    for (name, r) in &rows {
        print!("{name:<20}");
        for m in &END_TO_END {
            print!(
                " {:>24.3}",
                r.metrics.get(m.name).copied().unwrap_or(f64::NAN)
            );
        }
        println!(" {:>12.6}", r.failed as f64 / r.attempted.max(1) as f64);
    }
    println!("\"claim\": null");
    i32::from(failures > 0)
}

/// How much worse `b` is than `a`, as a share of `a`; negative if better.
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Counts from `perf_snapshot` that should repeat from run to run.
const REPEATING_COUNTS: [&str; 2] = ["codec.encodes_per_wave", "process.frames_per_wave"];

/// Runs per workload in each of the two A/A sets, as in the driver.
const AA_RUNS: usize = 10;

/// The driver's acceptance check, run here first: two sets of
/// [`AA_RUNS`] runs per workload, every run on its own seed, the second
/// set in reverse workload order. Per (metric, workload): both medians,
/// both quartile spreads, and pass/fail against the metric's bound
/// (`spec.rs` and `BENCHMARK.json` carry the same bounds; `tests/contract.rs`
/// fails when they differ).
pub fn aa(child: &ChildOptions) -> i32 {
    // values[set][workload][metric] = one value per run
    let mut values: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    let mut counts: [BTreeMap<&str, BTreeMap<String, f64>>; 2] = Default::default();
    let mut failures = 0u64;
    for set in 0..2 {
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if set == 1 {
            order.reverse();
        }
        for run in 0..AA_RUNS {
            let seed = (set * AA_RUNS + run + 1) as u64;
            for &w in &order {
                match run_child(child, w, seed, false, false) {
                    Ok(r) => {
                        failures += r.failed + u64::from(!r.correct);
                        for (name, v) in r.metrics {
                            values[set]
                                .entry(w)
                                .or_default()
                                .entry(name)
                                .or_default()
                                .push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        failures += 1;
                    }
                }
                eprintln!(
                    "set {} run {}/{} {w} done",
                    ["A", "B"][set],
                    run + 1,
                    AA_RUNS
                );
            }
        }
        for &w in &order {
            let seed = (set * AA_RUNS + 1) as u64;
            match run_child(child, w, seed, true, false) {
                Ok(r) => {
                    failures += r.failed + u64::from(!r.correct);
                    counts[set].insert(w, r.metrics.into_iter().collect());
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failures += 1;
                }
            }
        }
    }

    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound"
    );
    let mut rejected = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            let of = |set: usize| {
                values[set]
                    .get(w.name)
                    .and_then(|ms| ms.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (of(0), of(1));
            let (Some(ma), Some(mb)) = (median(&a), median(&b)) else {
                println!("{:<20} {:<18} no samples", w.name, m.name);
                rejected += 1;
                continue;
            };
            let (sa, sb) = (spread(&a).unwrap_or(0.0), spread(&b).unwrap_or(0.0));
            let worse = worse_by(ma, mb, m.higher_is_better);
            // The driver exempts set-up time from the spread check only.
            let steady = m.name == "setup_s" || (sa <= bound && sb <= bound);
            let ok = steady && worse <= bound;
            rejected += i32::from(!ok);
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound * 100.0,
                if ok { "pass" } else { "FAIL" }
            );
        }
    }
    println!();
    for w in &WORKLOADS {
        for name in REPEATING_COUNTS {
            let of = |set: usize| counts[set].get(w.name).and_then(|m| m.get(name)).copied();
            let (Some(a), Some(b)) = (of(0), of(1)) else {
                continue;
            };
            let diff = if a == 0.0 {
                b.abs()
            } else {
                ((b - a) / a).abs()
            };
            let ok = diff <= 0.01;
            rejected += i32::from(!ok);
            println!(
                "{:<20} {:<28} {:>12.4} {:>12.4} {:>8.3}%  {}",
                w.name,
                name,
                a,
                b,
                diff * 100.0,
                if ok {
                    "pass (within 1 %)"
                } else {
                    "FAIL (over 1 %)"
                }
            );
        }
    }
    println!(
        "\n{} waves failed; {} (metric, workload) pairs outside their bound",
        failures, rejected
    );
    i32::from(failures > 0 || rejected > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_read_from_the_last_line() {
        let out =
            "== x ==\nmetrics:\n  a 1\n{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
                   \"metrics\": {\"waves_per_s\": {\"value\": 2.5, \"unit\": \"waves/s\"}}}\n\n";
        let r = parse_result(out).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert_eq!(r.metrics["waves_per_s"], 2.5);
        assert!(parse_result("no json here").is_err());
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }
}
