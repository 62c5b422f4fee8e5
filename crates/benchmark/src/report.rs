//! One workload, one process: run the reps, reduce them to the declared
//! metrics, print every metric by name with its unit, and end with the
//! one-line JSON result the driver reads.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::harness::peak_rss_mb;
use crate::json::quote;
use crate::layers::time_layers;
use crate::spec::{MetricDecl, TransportKind, Workload, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile, quartiles};
use crate::traced::{chrome_trace_json, summarize, MIN_ASSEMBLED_SHARE};
use crate::workloads::{run_rep, Inputs, Rep, RepMode};

/// Timed reps of one run. Many short reps rather than a few long ones:
/// this box has interference bursts of a few seconds, and a median over
/// fifteen reps shrugs off one that spoils four of them.
pub const TIMED_REPS: usize = 15;
/// The tail latency is read on thirds of the run (five reps pooled) and
/// the median third reported, so that one burst cannot own the tail.
const TAIL_GROUPS: usize = 3;
/// Share of `--seconds` spent on unloaded launches, in either mode.
const LAUNCH_SHARE: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: &'static Workload,
    pub transport: TransportKind,
    pub seed: u64,
    /// How long the process measures, warm-up included.
    pub seconds: f64,
    /// `false`: the end-to-end metrics, nothing else running.
    /// `true`: the per-layer ledger (microtimings, a probed rep, a rep
    /// with the trace plane at 1-in-1) and the Chrome trace file.
    pub trace: bool,
    pub points_per_cluster: Option<usize>,
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub decl: &'static MetricDecl,
    /// `None` prints as `null` with the note as its reason.
    pub value: Option<f64>,
    pub note: String,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of a workload process's output. A metric that does
    /// not apply reads 0 here (the contract wants a number for every
    /// name); the table above the line says `null` and why.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                quote(m.decl.name),
                m.value.unwrap_or(0.0),
                quote(m.decl.unit)
            );
        }
        out.push_str("}}");
        out
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let value = match m.value {
                Some(v) => format!("{v:.6}"),
                None => "null".into(),
            };
            let _ = writeln!(
                out,
                "  {:<34} {:>18} {:<8} {}",
                m.decl.name, value, m.decl.unit, m.note
            );
        }
        out
    }
}

struct Ledger {
    decls: &'static [MetricDecl],
    metrics: Vec<Metric>,
}

impl Ledger {
    fn set(&mut self, name: &str, value: Option<f64>, note: impl Into<String>) {
        let decl = self
            .decls
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        self.metrics.push(Metric {
            decl,
            value: value.filter(|v| v.is_finite()),
            note: note.into(),
        });
    }
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// What the numbers were measured on; printed next to every result.
pub fn environment_block(opts: &RunOptions, phases: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let mut row = |k: &str, v: String| {
        let _ = writeln!(out, "  {k:<14} {v}");
    };
    row("nproc", nproc.to_string());
    row("rustc", env_or_unknown("TBON_BENCH_RUSTC"));
    row("commit", env_or_unknown("TBON_BENCH_COMMIT"));
    row(
        "channel_impl",
        format!(
            "{} (stub = Mutex+Condvar channel whose select! polls at ~200 us)",
            env_or_unknown("TBON_BENCH_CHANNEL_IMPL")
        ),
    );
    row(
        "malloc arenas",
        format!(
            "MALLOC_ARENA_MAX={} (run.sh sets 256: one arena per thread; unset, glibc shares 8 per core)",
            std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into())
        ),
    );
    row("link", "loopback, not a real link".into());
    row("seed", opts.seed.to_string());
    row("transport", opts.transport.name().into());
    row("load", "closed loop, one front-end client thread".into());
    row("reps", phases.into());
    out
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn rep_spread_note(per_rep: &[f64]) -> String {
    match quartiles(per_rep) {
        Some((q1, q3)) => format!("median of {} reps, q1 {q1:.3} q3 {q3:.3}", per_rep.len()),
        None => format!("{} rep", per_rep.len()),
    }
}

/// Median over the reps of each rep's own median.
fn median_of_rep_medians<'a>(reps: &'a [Rep], f: impl Fn(&'a Rep) -> &'a [f64]) -> Option<f64> {
    let per_rep: Vec<f64> = reps.iter().filter_map(|r| median(f(r))).collect();
    median(&per_rep)
}

/// The tail percentile a sample supports, at most p99, with its label.
fn tail(samples: &[f64]) -> (Option<f64>, String) {
    match highest_supported_percentile(samples.len(), 99) {
        Some(p) => (
            percentile(samples, p as f64),
            format!("p{p} of {} samples", samples.len()),
        ),
        None => (
            percentile(samples, 50.0),
            format!("only {} samples: the median stands in", samples.len()),
        ),
    }
}

/// Tail of the round-trip times at the workload's declared percentile:
/// reps pooled in [`TAIL_GROUPS`] groups, one reading per group, the
/// median group reported. The note says whether the smallest group still
/// had ten samples beyond the percentile.
fn grouped_tail(reps: &[Rep], p: u32) -> (Option<f64>, String) {
    let groups: Vec<Vec<f64>> = reps
        .chunks(reps.len().div_ceil(TAIL_GROUPS).max(1))
        .map(|g| g.iter().flat_map(|r| r.rtt_us.iter().copied()).collect())
        .collect();
    let tails: Vec<f64> = groups
        .iter()
        .filter_map(|g| percentile(g, p as f64))
        .collect();
    let smallest = groups.iter().map(Vec::len).min().unwrap_or(0);
    let support = match highest_supported_percentile(smallest, 99) {
        Some(supported) if supported >= p => "",
        _ => " (TOO FEW: under 10 samples beyond it)",
    };
    (
        median(&tails),
        format!(
            "p{p}, median of {} groups of >= {smallest} samples{support}",
            tails.len()
        ),
    )
}

/// Launch, open the stream, shut down, with nothing sent in between: the
/// one measurement behind `setup_s` and the `network.*_ms` metrics. As
/// many launches as fit in `budget`, at least five.
fn unloaded_launches(inputs: &Inputs, budget: Duration) -> Vec<Rep> {
    let until = Instant::now() + budget;
    let mut launches = Vec::new();
    while launches.len() < 5 || Instant::now() < until {
        launches.push(run_rep(inputs, Duration::ZERO, RepMode::default()));
    }
    launches
}

fn end_to_end(opts: &RunOptions, inputs: &Inputs) -> Outcome {
    let rep_len = secs(opts.seconds * (1.0 - LAUNCH_SHARE) / (TIMED_REPS + 1) as f64);
    let mode = RepMode::default();
    let warmup = run_rep(inputs, rep_len, mode);
    // Set-up is milliseconds, so the reps' own launches are too few to
    // pin its median: unloaded launches are added, after the warm-up so
    // that they meet the processor in the state the reps leave it in.
    let launches = unloaded_launches(inputs, secs(opts.seconds * LAUNCH_SHARE));
    let reps: Vec<Rep> = (0..TIMED_REPS)
        .map(|_| run_rep(inputs, rep_len, mode))
        .collect();
    let setup: Vec<f64> = launches.iter().chain(&reps).map(Rep::setup_s).collect();

    let attempted = warmup.attempted + reps.iter().map(|r| r.attempted).sum::<u64>();
    let failed = warmup.failed + reps.iter().map(|r| r.failed).sum::<u64>();

    let rates: Vec<f64> = reps.iter().map(Rep::waves_per_s).collect();
    let bytes_per_wave = opts
        .workload
        .payload_bytes_per_wave(inputs.points_per_leaf());
    let mb_rates: Vec<f64> = rates.iter().map(|r| r * bytes_per_wave / 1e6).collect();
    let (rtt_tail, tail_note) = grouped_tail(&reps, opts.workload.tail_percentile);
    let samples: usize = reps.iter().map(|r| r.rtt_us.len()).sum();
    let per_rep_note = format!("median of per-rep medians, {samples} samples in all");

    let mut ledger = Ledger {
        decls: &END_TO_END,
        metrics: Vec::new(),
    };
    ledger.set("waves_per_s", median(&rates), rep_spread_note(&rates));
    ledger.set(
        "payload_mb_per_s",
        median(&mb_rates),
        format!("{bytes_per_wave} leaf payload bytes per wave"),
    );
    ledger.set(
        "rtt_p50_us",
        median_of_rep_medians(&reps, |r| &r.rtt_us),
        &per_rep_note,
    );
    ledger.set("rtt_p99_us", rtt_tail, tail_note);
    ledger.set(
        "solve_p50_ms",
        median_of_rep_medians(&reps, |r| &r.completion_us).map(|us| us / 1e3),
        &per_rep_note,
    );
    ledger.set(
        "setup_s",
        median(&setup),
        format!("launch + new_stream, median of {} launches", setup.len()),
    );
    ledger.set("peak_rss_mb", peak_rss_mb(), "VmHWM of this process");
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: ledger.metrics,
    }
}

fn per_layer(opts: &RunOptions, inputs: &Inputs) -> Outcome {
    let mut ledger = Ledger {
        decls: &PER_LAYER,
        metrics: Vec::new(),
    };
    let mode = RepMode::default();

    // Source A.
    let layers = time_layers(inputs, secs(opts.seconds * (0.3 - LAUNCH_SHARE)));

    let lifecycle = unloaded_launches(inputs, secs(opts.seconds * LAUNCH_SHARE));
    let warmup = run_rep(inputs, secs(opts.seconds * 0.1), mode);
    // Sources B and C: harness spans and counter deltas, trace plane off.
    let probed = run_rep(
        inputs,
        secs(opts.seconds * 0.3),
        RepMode {
            probe: true,
            trace_plane: false,
        },
    );
    // Source D: the same again with the runtime's trace plane at 1-in-1.
    let traced = run_rep(
        inputs,
        secs(opts.seconds * 0.3),
        RepMode {
            probe: true,
            trace_plane: true,
        },
    );
    let attempted = warmup.attempted + probed.attempted + traced.attempted;
    let failed = warmup.failed + probed.failed + traced.failed;

    let micro = "harness microtiming, median of 5 batches";
    ledger.set("codec.encode_ns", Some(layers.encode_ns), micro);
    ledger.set("codec.decode_ns", Some(layers.decode_ns), micro);

    let probe = probed.probe.as_ref().expect("probed rep carries a probe");
    let c = &probe.counters;
    let waves = probed.waves.max(1) as f64;
    let per_wave = |n: u64| Some(n as f64 / waves);
    let per_kwave = |n: u64| Some(n as f64 * 1e3 / waves);
    let counted = format!("perf_snapshot delta over {} waves", probed.waves);
    ledger.set(
        "codec.encodes_per_wave",
        per_wave(c.encodes_performed),
        &counted,
    );
    ledger.set("framing.write_ns", Some(layers.frame_write_ns), micro);
    ledger.set("framing.read_ns", Some(layers.frame_read_ns), micro);
    let pingpong = format!("{} two-node ping-pong", opts.transport.name());
    ledger.set(
        "transport.send_call_ns",
        Some(layers.send_call_ns),
        &pingpong,
    );
    ledger.set("transport.hop_us", Some(layers.hop_us), &pingpong);
    ledger.set(
        "writer.frames_per_batch",
        (c.batches_sent > 0).then(|| c.frames_batched as f64 / c.batches_sent as f64),
        if c.batches_sent > 0 {
            counted.as_str()
        } else {
            "no wire writer on this transport"
        },
    );
    ledger.set("filter.sync_push_ns", Some(layers.sync_push_ns), micro);
    ledger.set("filters.transform_us", Some(layers.transform_us), micro);
    let not_meanshift = "this workload runs no mean-shift";
    ledger.set(
        "meanshift.leaf_compute_ms",
        layers.leaf_compute_ms,
        if layers.leaf_compute_ms.is_some() {
            micro
        } else {
            not_meanshift
        },
    );
    ledger.set(
        "meanshift.single_solve_ms",
        inputs.meanshift.as_ref().map(|m| m.single_solve_ms),
        if inputs.meanshift.is_some() {
            "run_single_equivalent over every leaf's partition, once"
        } else {
            not_meanshift
        },
    );
    ledger.set(
        "executor.pooled_share",
        (c.waves > 0).then(|| c.waves_executed as f64 / c.waves as f64),
        "waves_executed / waves released by sync",
    );
    ledger.set(
        "executor.filter_busy_us_per_wave",
        per_wave(c.filter_busy_us),
        &counted,
    );
    ledger.set(
        "flow.window_closed_per_kwave",
        per_kwave(c.window_closed),
        &counted,
    );
    ledger.set("flow.grants_per_kwave", per_kwave(c.grants_sent), &counted);
    ledger.set(
        "flow.stalled_us_per_wave",
        per_wave(c.credits_stalled_us),
        &counted,
    );
    ledger.set("process.frames_per_wave", per_wave(c.frames_sent), &counted);
    ledger.set("process.bytes_per_wave", per_wave(c.bytes_sent), &counted);
    ledger.set("process.control_per_kwave", per_kwave(c.control), &counted);
    ledger.set(
        "process.sends_dropped",
        Some(c.sends_dropped as f64),
        &counted,
    );

    let ms_of = |f: fn(&Rep) -> f64| {
        let v: Vec<f64> = lifecycle.iter().map(|r| f(r) * 1e3).collect();
        median(&v)
    };
    let cycles = format!("median of {} unloaded launches", lifecycle.len());
    ledger.set("network.launch_ms", ms_of(|r| r.launch_s), &cycles);
    ledger.set("network.new_stream_ms", ms_of(|r| r.new_stream_s), &cycles);
    ledger.set("network.shutdown_ms", ms_of(|r| r.shutdown_s), &cycles);
    let broadcasts = probe.frontend.durations("broadcast");
    ledger.set(
        "network.broadcast_call_us_p50",
        median(&broadcasts),
        format!("{} harness spans", broadcasts.len()),
    );
    ledger.set(
        "network.recv_wait_share",
        Some(probe.recv_wait_s / probed.wall_s.max(f64::MIN_POSITIVE)),
        "front-end time blocked in recv_within / rep wall time",
    );
    let sends: Vec<f64> = probe
        .backends
        .iter()
        .flat_map(|(_, log)| log.durations("send"))
        .collect();
    let (send_tail, send_tail_note) = tail(&sends);
    ledger.set(
        "backend.send_call_us_p50",
        median(&sends),
        format!("{} harness spans", sends.len()),
    );
    ledger.set("backend.send_call_us_p99", send_tail, send_tail_note);
    ledger.set(
        "os.cpu_ms_per_kwave",
        Some(probe.os.cpu_ms * 1e3 / waves),
        "utime + stime of the process over the rep",
    );
    ledger.set(
        "os.threads",
        Some(probe.os.threads as f64),
        "live threads at the end of the rep",
    );
    ledger.set(
        "os.ctx_switches_per_wave",
        per_wave(probe.os.ctx_switches),
        "voluntary + involuntary, summed over live threads",
    );

    let summary = summarize(&traced, &inputs.topology).expect("traced rep carries a trace");
    let covered = summary.assembled_share >= MIN_ASSEMBLED_SHARE;
    let stage_note = if covered {
        "mean us per span (one span per hop), trace plane at 1-in-1".to_string()
    } else {
        format!(
            "trace plane delivered {:.1} % of waves, under {:.0} %",
            summary.assembled_share * 100.0,
            MIN_ASSEMBLED_SHARE * 100.0
        )
    };
    for (stage, us) in tbon_core::TraceStage::ALL.iter().zip(summary.stage_us) {
        ledger.set(
            &format!("trace.{}_us", stage.name()),
            covered.then_some(us),
            &stage_note,
        );
    }
    ledger.set(
        "trace.unattributed_us",
        summary.unattributed_us.filter(|_| covered),
        if covered {
            "last back-end send -> front-end recv, minus critical-path stage spans"
        } else {
            stage_note.as_str()
        },
    );
    ledger.set(
        "trace.overhead_pct",
        Some((1.0 - traced.waves_per_s() / probed.waves_per_s()) * 100.0),
        format!(
            "waves/s traced {:.1} vs untraced {:.1}",
            traced.waves_per_s(),
            probed.waves_per_s()
        ),
    );
    ledger.set(
        "trace.waves_assembled_share",
        Some(summary.assembled_share),
        format!("of {} waves in the traced rep", traced.waves),
    );

    let trace_path = opts
        .out_dir
        .join(format!("{}.trace.json", opts.workload.name));
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| {
        std::fs::write(
            &trace_path,
            chrome_trace_json(
                traced.probe.as_ref().expect("traced rep carries a probe"),
                traced.trace.as_ref().expect("traced rep carries a trace"),
                opts.workload.name,
            ),
        )
    });
    match written {
        Ok(()) => println!("trace file: {}", trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }

    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: ledger.metrics,
    }
}

/// Run one workload in this process and print its report; the caller
/// prints nothing after it, so the result line stays last.
pub fn run(opts: &RunOptions) -> Outcome {
    let phases = if opts.trace {
        format!(
            "layer microtimings, 1 warm-up, 1 probed and 1 traced rep in {} s",
            opts.seconds
        )
    } else {
        format!(
            "1 warm-up + {TIMED_REPS} timed of {:.2} s, unloaded launches for {:.2} s",
            opts.seconds * (1.0 - LAUNCH_SHARE) / (TIMED_REPS + 1) as f64,
            opts.seconds * LAUNCH_SHARE
        )
    };
    println!(
        "== {} ({}) ==\n{}\nenvironment:\n{}",
        opts.workload.name,
        if opts.trace {
            "per-layer ledger"
        } else {
            "end to end"
        },
        opts.workload.why,
        environment_block(opts, &phases)
    );
    let inputs = Inputs::new(
        opts.workload,
        opts.transport,
        opts.seed,
        opts.points_per_cluster,
        &opts.out_dir,
    );
    let outcome = if opts.trace {
        per_layer(opts, &inputs)
    } else {
        end_to_end(opts, &inputs)
    };
    println!("metrics:\n{}", outcome.table());
    println!(
        "  {:<34} {:>18.6} {:<8} {} failed of {} attempted",
        "failed_share",
        outcome.failed_share(),
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.result_line());
    outcome
}
