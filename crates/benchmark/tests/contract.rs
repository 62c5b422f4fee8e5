//! The benchmark against its own declaration: `BENCHMARK.json` says what
//! `spec.rs` says, and the binary emits exactly the declared names on
//! every workload. A later change to a public API the harness calls
//! breaks compilation or this test, not the benchmark.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use tbon_benchmark::json::Json;
use tbon_benchmark::spec::{MetricDecl, DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks string `{key}`: {entry:?}"))
}

fn assert_metrics_match(declared: &[Json], spec: &[MetricDecl]) {
    assert_eq!(declared.len(), spec.len());
    for (entry, decl) in declared.iter().zip(spec) {
        assert_eq!(text(entry, "name"), decl.name);
        assert_eq!(text(entry, "unit"), decl.unit, "{}", decl.name);
        let better = if decl.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(entry, "better"), better, "{}", decl.name);
        let keys = entry.as_object().expect("metric entry is an object").len();
        assert_eq!(keys, 3 + usize::from(decl.bound.is_some()), "{}", decl.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            decl.bound,
            "{}",
            decl.name
        );
    }
}

#[test]
fn benchmark_json_declares_what_spec_rs_declares() {
    let json = benchmark_json();
    let keys: Vec<&str> = json
        .as_object()
        .expect("top level is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        json.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths = json.get("paths").and_then(Json::as_array).expect("paths");
    assert_eq!(paths, [Json::Str("crates/benchmark".into())]);

    let workloads = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why, "{}", w.name);
    }

    let e2e = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_metrics_match(e2e, &END_TO_END);
    // The issue's bounds on the tail, memory and set-up (which must be the
    // widest). Throughput and the p50s stand at 15 %, not the issue's
    // 10 %: the driver wants every A/A spread inside its bound, and this
    // host alone spreads them by up to 11 % (README, "Noise floor"). A
    // change to any of these is a change to the gate: make it on purpose.
    let bounds: Vec<f64> = END_TO_END.iter().filter_map(|m| m.bound).collect();
    assert_eq!(bounds, [0.15, 0.15, 0.15, 0.20, 0.15, 0.25, 0.15]);
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let widest = e2e
        .iter()
        .filter_map(|m| m.get("bound")?.as_f64())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(widest));

    let layers = json
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    assert_metrics_match(layers, &PER_LAYER);
}

struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name -> (value, unit)
    metrics: Vec<(String, f64, String)>,
}

fn quick_run(workload: &str, trace: bool, out: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_tbon-benchmark"))
        .args(["--workload", workload, "--quick", "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("start tbon-benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let json = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
    let keys: Vec<&str> = json
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    Run {
        correct: json
            .get("correct")
            .and_then(Json::as_bool)
            .expect("correct"),
        attempted: json
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted"),
        failed: json.get("failed").and_then(Json::as_f64).expect("failed"),
        metrics: json
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics")
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value"),
                    text(m, "unit").to_string(),
                )
            })
            .collect(),
    }
}

fn assert_emits(run: &Run, declared: &[MetricDecl], what: &str) {
    let emitted: BTreeSet<&str> = run.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let expected: BTreeSet<&str> = declared.iter().map(|d| d.name).collect();
    assert_eq!(emitted, expected, "{what}");
    for (name, value, unit) in &run.metrics {
        let decl = declared.iter().find(|d| d.name == name).expect("declared");
        assert_eq!(unit, decl.unit, "{what}: {name}");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

/// One short run of every workload (local and TCP), end to end and per
/// layer: no wave fails, and the names emitted are the names declared.
#[test]
fn quick_run_of_every_workload_emits_the_declared_metrics() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contract-out");
    for w in &WORKLOADS {
        let run = quick_run(w.name, false, &out);
        assert!(
            run.correct && run.failed == 0.0,
            "{}: {} failed",
            w.name,
            run.failed
        );
        assert!(run.attempted >= 1.0, "{}", w.name);
        assert_emits(&run, &END_TO_END, w.name);
        for (name, value, _) in &run.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end {name} must never be 0",
                w.name
            );
        }

        let run = quick_run(w.name, true, &out);
        assert!(
            run.correct && run.failed == 0.0,
            "{}: {} failed",
            w.name,
            run.failed
        );
        assert_emits(&run, &PER_LAYER, w.name);

        let trace = out.join(format!("{}.trace.json", w.name));
        let text =
            std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        let json = Json::parse(&text).expect("trace file is JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let pids: BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid")?.as_f64())
            .map(|p| p as u64)
            .collect();
        assert!(pids.contains(&1), "{}: harness spans missing", w.name);
        assert!(
            pids.iter().any(|p| *p >= 1000),
            "{}: trace-plane spans missing",
            w.name
        );
    }
}
