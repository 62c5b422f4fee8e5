//! `tbon` — the overlay's command-line front end.
//!
//! One binary, five subcommands. Every live subcommand launches a
//! demonstration overlay whose back-ends answer each broadcast with a
//! synthetic metric, drives a reduction workload through it, and shows the
//! tree through one of its own instruments:
//!
//! ```text
//! tbon run    --topology 8x8 --filter builtin::avg --rounds 3   # what the front end receives
//! tbon stat   --topology 8x8 --interval-ms 250 --watch          # the metrics plane
//! tbon top    16x16 [--dot | --levels | --live]                 # shape stats, live counters
//! tbon trace  --topology 4x4 --sample-every 8 --out trace.json  # the trace plane
//! tbon doctor --topology 8x8 --fault kill-leaf [--save bb.bin]  # the incident plane
//! tbon doctor --replay bb.bin --json                            # offline diagnosis
//! ```
//!
//! `tbon <subcommand> --help` prints the subcommand's flags.

use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use tbon::core::PerfCounters;
use tbon::prelude::*;
use tbon::topology::{to_dot, NodeId, Role, TopologySpec, TopologyStats};

/// Why a subcommand stopped early.
enum Failure {
    /// Bad command line: print the subcommand's usage, exit 2.
    Usage(String),
    /// Something went wrong at run time: print it, exit 1.
    Runtime(String),
}

type Outcome = Result<(), Failure>;

/// Adapter for `map_err`: `op(..).map_err(failed("launch"))?`.
fn failed<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Failure {
    move |e| Failure::Runtime(format!("{what} failed: {e}"))
}

// ---------------------------------------------------------------------------
// The one argument parser.
// ---------------------------------------------------------------------------

/// One subcommand's parsed command line.
struct Args {
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Args {
    /// Split `argv` into `--flag value` pairs (flags named in `valued`),
    /// bare `--switch`es (named in `switches`) and positionals. Unknown
    /// flags, missing values and `--help` are usage errors.
    fn parse(
        argv: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, Failure> {
        let mut args = Args {
            values: HashMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = valued.iter().find(|f| *f == arg) {
                let value = it
                    .next()
                    .ok_or_else(|| Failure::Usage(format!("{flag} wants a value")))?;
                args.values.insert(flag, value.clone());
            } else if let Some(&flag) = switches.iter().find(|f| *f == arg) {
                args.switches.push(flag);
            } else if arg.starts_with("--") || arg == "-h" {
                return Err(Failure::Usage(match arg.as_str() {
                    "--help" | "-h" => String::new(),
                    other => format!("unknown flag {other}"),
                }));
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A parsed flag value, or `default` when the flag is absent.
    fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, Failure> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Failure::Usage(format!("{flag} wants a number, got '{v}'"))),
        }
    }

    /// The topology named by `--topology` (default 4x4).
    fn topology(&self) -> Result<TopologySpec, Failure> {
        parse_spec(self.get("--topology").unwrap_or("4x4"))
    }

    fn tcp(&self) -> bool {
        self.get("--transport") == Some("tcp")
    }
}

fn parse_spec(spec: &str) -> Result<TopologySpec, Failure> {
    TopologySpec::parse(spec).map_err(|e| Failure::Usage(format!("bad topology: {e}")))
}

// ---------------------------------------------------------------------------
// The one launch helper and the shared workload loop.
// ---------------------------------------------------------------------------

/// The metric every back-end reports unless the subcommand says otherwise.
fn sine_metric(rank: u32, _round: u64) -> f64 {
    (rank as f64).sin().abs() * 100.0
}

/// Launch the demonstration overlay: every back-end answers each downstream
/// packet (whose value is the round number) with `metric(rank, round)`.
fn launch(
    topology: Topology,
    tcp: bool,
    config: NetworkConfig,
    metric: fn(u32, u64) -> f64,
) -> Result<Network, Failure> {
    let builder = NetworkBuilder::new(topology)
        .registry(builtin_registry())
        .config(config)
        .backend(move |mut ctx: BackendContext| loop {
            match ctx.next_event() {
                Ok(BackendEvent::Packet { stream, packet }) => {
                    let round = packet.value().as_u64().unwrap_or(0);
                    let value = DataValue::F64(metric(ctx.rank().0, round));
                    if ctx.send(stream, packet.tag(), value).is_err() {
                        break;
                    }
                }
                Ok(BackendEvent::Shutdown) | Err(_) => break,
                Ok(_) => continue,
            }
        });
    let launched = if tcp {
        builder.transport(TcpTransport::new()).launch()
    } else {
        builder.launch()
    };
    launched.map_err(failed("launch"))
}

/// Open the reduction stream the live subcommands drive.
fn workload_stream(net: &mut Network, filter: &str) -> Result<StreamHandle, Failure> {
    net.new_stream(StreamSpec::all().transformation(filter))
        .map_err(failed("workload stream"))
}

/// Broadcast round after round until `deadline`, waiting up to `wait` for
/// each reduced reply and calling `each_round` in between.
fn drive(stream: &StreamHandle, deadline: Instant, wait: Duration, mut each_round: impl FnMut()) {
    let mut round = 0u32;
    while Instant::now() < deadline {
        if stream
            .broadcast(Tag(round), DataValue::U64(round as u64))
            .is_err()
        {
            break;
        }
        round += 1;
        let _ = stream.recv_within(wait);
        each_round();
    }
}

/// Close a plane handle (if any) and shut the network down.
fn teardown(plane_closed: tbon::core::Result<()>, net: Network) -> Outcome {
    plane_closed
        .and_then(|()| net.shutdown())
        .map_err(failed("teardown"))
}

// ---------------------------------------------------------------------------
// tbon run
// ---------------------------------------------------------------------------

const RUN_USAGE: &str = "tbon run [--topology SPEC] [--filter NAME] [--rounds N] \
                         [--transport local|tcp] [--no-perf]";

/// Reduce a synthetic per-host metric for a few rounds and print what the
/// front-end receives plus the per-process activity counters.
fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(
        argv,
        &["--topology", "--filter", "--rounds", "--transport"],
        &["--no-perf"],
    )?;
    let spec = args.topology()?;
    let filter = args.get("--filter").unwrap_or("builtin::avg");
    let rounds: u64 = args.num("--rounds", 3)?;
    if !builtin_registry().has_transformation(filter) {
        return Err(Failure::Usage(format!(
            "unknown filter '{filter}'; available: {}",
            tbon::filters::BUILTIN_TRANSFORMATIONS.join(", ")
        )));
    }
    let topo = spec.build();
    println!(
        "launching {spec} ({} back-ends, {} internal, depth {}) with {filter}",
        topo.leaf_count(),
        topo.internal_count(),
        topo.depth(),
    );
    // Deterministic in (rank, round).
    let metric = |rank: u32, round: u64| ((rank as u64 * 31 + round * 17) % 1000) as f64 / 10.0;
    let mut net = launch(topo, args.tcp(), NetworkConfig::default(), metric)?;
    let stream = workload_stream(&mut net, filter)?;
    for round in 0..rounds {
        stream
            .broadcast(Tag(round as u32), DataValue::U64(round))
            .map_err(failed("broadcast"))?;
        match stream.recv_within(Duration::from_secs(30)) {
            Ok(Some(pkt)) => println!("round {round}: {}", pkt.value()),
            Ok(None) => return Err(Failure::Runtime("recv timed out".into())),
            Err(e) => return Err(failed("recv")(e)),
        }
    }
    if !args.has("--no-perf") {
        match net.perf_snapshot(Duration::from_secs(5)) {
            Ok(perf) => print_perf(&perf),
            Err(e) => eprintln!("perf snapshot failed: {e}"),
        }
    }
    teardown(Ok(()), net)
}

fn print_perf(perf: &PerfSnapshot) {
    let mut ranks: Vec<&Rank> = perf.counters.keys().collect();
    ranks.sort();
    println!();
    println!("process   up   down  waves  filter_out  filter_ms");
    for r in ranks {
        let c = perf.counters[r];
        println!(
            "{:>7}  {:>4}  {:>5}  {:>5}  {:>10}  {:>9.3}",
            r.to_string(),
            c.packets_up,
            c.packets_down,
            c.waves,
            c.filter_out,
            c.filter_ns as f64 / 1e6
        );
    }
    if !perf.missing.is_empty() {
        let missing: Vec<String> = perf.missing.iter().map(|r| r.to_string()).collect();
        println!("no response from: {}", missing.join(", "));
    }
}

// ---------------------------------------------------------------------------
// tbon stat
// ---------------------------------------------------------------------------

const STAT_USAGE: &str = "tbon stat [--topology SPEC] [--interval-ms N] [--duration SECS] \
                          [--transport local|tcp] [--drilldown] [--events] \
                          [--watch | --format jsonl|prom|watch]";

/// Watch a running overlay through its metrics plane: per-level packet
/// throughput, p50/p99 wave latency, queue depths, merged counters.
fn stat(argv: &[String]) -> Outcome {
    let args = Args::parse(
        argv,
        &[
            "--topology",
            "--interval-ms",
            "--duration",
            "--transport",
            "--format",
        ],
        &["--drilldown", "--events", "--watch"],
    )?;
    let format = match (args.has("--watch"), args.get("--format")) {
        (true, _) | (_, Some("watch")) => "watch",
        (_, None | Some("jsonl")) => "jsonl",
        (_, Some("prom")) => "prom",
        (_, Some(other)) => return Err(Failure::Usage(format!("unknown format '{other}'"))),
    };
    let interval = Duration::from_millis(args.num("--interval-ms", 500u64)?.max(10));
    let duration = Duration::from_secs(args.num("--duration", 10)?);
    let mut net = launch(
        args.topology()?.build(),
        args.tcp(),
        NetworkConfig::default(),
        sine_metric,
    )?;
    let metrics = if args.has("--drilldown") {
        net.open_metrics_drilldown(interval)
    } else {
        net.open_metrics_stream(interval)
    }
    .map_err(failed("metrics stream"))?;
    let stream = workload_stream(&mut net, "builtin::avg")?;

    let started = Instant::now();
    drive(&stream, started + duration, Duration::from_secs(5), || {
        while let Some((origin, sample)) = metrics.poll() {
            match format {
                "watch" => render_watch(&sample, origin, started.elapsed()),
                "prom" => println!("{}", sample.to_prometheus()),
                _ => println!("{}", sample.to_jsonl()),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    });
    if args.has("--events") {
        match net.event_logs(Duration::from_secs(5)) {
            Ok(snap) => render_events(&snap),
            Err(e) => eprintln!("event drain failed: {e}"),
        }
    }
    teardown(metrics.close(), net)
}

/// `p50/p99/max` columns of one histogram row.
fn quantile_row(label: &str, unit: &str, h: &LogHistogram) {
    println!(
        "{label:<20} {unit} {:>6}   p50 {:>8}   p99 {:>8}   max {:>8}",
        h.count(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.max()
    );
}

/// One dashboard frame: the latest interval's merged view of the tree.
fn render_watch(sample: &MetricsSample, origin: Rank, elapsed: Duration) {
    // Clear and home; keep each frame self-contained so a dumb terminal
    // just scrolls.
    print!("\x1b[2J\x1b[H");
    let secs = sample.interval_us.max(1) as f64 / 1e6;
    println!(
        "tbon stat  t={:>5.1}s  sample #{} from {}  ({} processes, interval {} ms)",
        elapsed.as_secs_f64(),
        sample.seq,
        origin,
        sample.processes,
        sample.interval_us / 1000
    );
    println!();
    println!("per-level upstream throughput (packets/s):");
    if sample.level_packets_up.is_empty() {
        println!("  (no upstream traffic this interval)");
    }
    for (lvl, v) in sample.level_packets_up.iter().enumerate() {
        let rate = *v as f64 / secs;
        let bar = "#".repeat(((rate / 50.0) as usize).min(60));
        println!("  level {lvl:>2}  {rate:>10.0}  {bar}");
    }
    println!();
    quantile_row("wave latency (us):", "waves", &sample.wave_latency_us);
    quantile_row("filter exec (ns):", "runs ", &sample.filter_exec_ns);
    if sample.executor_wait_ns.is_empty() {
        println!("executor wait:       (all waves inline this interval)");
    } else {
        quantile_row("executor wait (ns):", "waves", &sample.executor_wait_ns);
    }
    if !sample.executor_queue_depth.is_empty() {
        quantile_row("executor queue:", "shards", &sample.executor_queue_depth);
    }
    if sample.queue_depth.is_empty() {
        println!("queue depth:         (no writer-backed links on this transport)");
    } else {
        quantile_row("queue depth:", "links", &sample.queue_depth);
    }
    println!();
    let c = &sample.counters;
    println!(
        "interval counters:   up {}  down {}  waves {}  filter_out {}  frames {}  bytes {}",
        c.packets_up, c.packets_down, c.waves, c.filter_out, c.frames_sent, c.bytes_sent
    );
    let busy_pct = c.filter_busy_us as f64 / (sample.interval_us.max(1) as f64) * 100.0;
    println!(
        "execution plane:     executed {}  filter-busy {}us ({busy_pct:.0}% of interval)  batches {}  frames batched {}",
        c.waves_executed, c.filter_busy_us, c.batches_sent, c.frames_batched
    );
    println!(
        "flow control:        windows closed {}  grants sent {}  stalled {}us",
        c.window_closed, c.grants_sent, c.credits_stalled_us
    );
    if sample.events_dropped > 0 {
        println!("events dropped:      {}", sample.events_dropped);
    }
}

/// Drained event rings, one line per event: rank, time since that
/// process's own start (the `at_us` epoch is per-process — see the clock
/// rule in DESIGN.md §12 — so lines are ordered within a rank, not across
/// ranks), kind, detail.
fn render_events(snap: &EventSnapshot) {
    let mut ranks: Vec<&Rank> = snap.logs.keys().collect();
    ranks.sort();
    println!("process events ({} rings drained):", ranks.len());
    for rank in ranks {
        let log = &snap.logs[rank];
        for ev in &log.events {
            let detail = if ev.detail.is_empty() {
                String::new()
            } else {
                format!("  {}", ev.detail)
            };
            println!(
                "  rank {:>3}  +{:>9.3}s  {:<14}{}",
                rank.0,
                ev.at_us as f64 / 1e6,
                ev.kind,
                detail
            );
        }
        if log.dropped > 0 {
            println!("  rank {:>3}  ({} events dropped)", rank.0, log.dropped);
        }
    }
    for rank in &snap.missing {
        println!("  rank {:>3}  (no answer)", rank.0);
    }
}

// ---------------------------------------------------------------------------
// tbon top
// ---------------------------------------------------------------------------

const TOP_USAGE: &str = "tbon top <spec> [--dot] [--levels] [--live] [--duration SECS]

spec grammar:
  16x16           balanced, fan-outs per level
  flat:64 | 64    one-deep tree
  balanced:16^2   fan-out ^ depth
  knomial:2,6     skewed k-nomial (k, order)";

/// Topology inspection: shape statistics (the §3.2 overhead arithmetic),
/// Graphviz DOT, or — with `--live` — a per-process counter table.
fn top(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, &["--duration"], &["--dot", "--levels", "--live"])?;
    let [spec_str] = args.positional.as_slice() else {
        return Err(Failure::Usage(
            "exactly one topology spec is required".into(),
        ));
    };
    let spec = parse_spec(spec_str)?;
    if args.has("--live") {
        let secs: u64 = args.num("--duration", 3)?;
        return top_live(spec, Duration::from_secs(secs.max(1)));
    }
    let topo = spec.build();
    if args.has("--dot") {
        print!("{}", to_dot(&topo, "tbon"));
        return Ok(());
    }
    let stats = TopologyStats::of(&topo);
    println!("spec:            {spec}");
    println!("processes:       {}", stats.nodes);
    println!("  front-end:     1");
    println!("  internal:      {}", stats.internals);
    println!("  back-ends:     {}", stats.backends);
    println!("depth:           {}", stats.depth);
    println!("max fan-out:     {}", stats.max_fanout);
    println!("root fan-out:    {}", stats.root_fanout);
    println!(
        "overhead:        {:.2}% internal nodes per back-end (paper §3.2 metric)",
        stats.overhead_percent
    );
    if args.has("--levels") {
        println!("level widths:    {:?}", stats.level_widths);
    }
    Ok(())
}

/// Health sampling fast enough to warm up within a short demo run.
fn demo_health() -> HealthConfig {
    HealthConfig {
        check_interval: Duration::from_millis(100),
        ..HealthConfig::default()
    }
}

/// Run a reduction workload for `duration` and print one counters row per
/// communication process from the drill-down metrics stream — execution
/// plane, flow control, health — then any health warnings the run raised.
fn top_live(spec: TopologySpec, duration: Duration) -> Outcome {
    let config = NetworkConfig {
        health: demo_health(),
        ..NetworkConfig::default()
    };
    let mut net = launch(spec.build(), false, config, sine_metric)?;
    let metrics = net
        .open_metrics_drilldown(Duration::from_millis(250))
        .map_err(failed("metrics stream"))?;
    let stream = workload_stream(&mut net, "builtin::avg")?;

    // Counters are per-interval deltas, so they accumulate across samples
    // into lifetime-ish totals; for gauges the latest sample per rank wins.
    let mut totals: HashMap<Rank, PerfCounters> = HashMap::new();
    let mut latest: HashMap<Rank, MetricsSample> = HashMap::new();
    let mut warnings: Vec<NetEvent> = Vec::new();
    let deadline = Instant::now() + duration;
    drive(&stream, deadline, Duration::from_secs(5), || {
        while let Some((origin, sample)) = metrics.poll() {
            totals.entry(origin).or_default().absorb(&sample.counters);
            latest.insert(origin, sample);
        }
        while let Some(ev) = net.poll_event() {
            if matches!(ev, NetEvent::HealthWarning { .. }) {
                warnings.push(ev);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    });

    let mut ranks: Vec<Rank> = totals.keys().copied().collect();
    ranks.sort();
    println!(
        "{:>5}  {:>9} {:>9}  {:>8} {:>8} {:>8}  {:>7} {:>8} {:>11}  {:>6}",
        "rank",
        "pkts_up",
        "waves",
        "exec_q99",
        "batches",
        "batched",
        "w_close",
        "grants",
        "stalled_us",
        "health"
    );
    for rank in &ranks {
        let c = &totals[rank];
        let exec_q99 = latest
            .get(rank)
            .map_or(0, |s| s.executor_queue_depth.quantile(0.99));
        println!(
            "{:>5}  {:>9} {:>9}  {:>8} {:>8} {:>8}  {:>7} {:>8} {:>11}  {:>6}",
            rank.0,
            c.packets_up,
            c.waves,
            exec_q99,
            c.batches_sent,
            c.frames_batched,
            c.window_closed,
            c.grants_sent,
            c.credits_stalled_us,
            c.health_warnings
        );
    }
    if warnings.is_empty() {
        println!("\nhealth: no warnings raised");
    } else {
        println!("\nhealth warnings:");
    }
    for ev in &warnings {
        if let NetEvent::HealthWarning {
            rank,
            subject,
            signal,
            value,
            baseline,
        } = ev
        {
            let name = HealthSignal::from_code(*signal).map_or("?", |s| s.name());
            println!("  rank {rank}  {name}({subject})  {value} vs baseline {baseline}");
        }
    }
    teardown(metrics.close(), net)
}

// ---------------------------------------------------------------------------
// tbon trace
// ---------------------------------------------------------------------------

const TRACE_USAGE: &str = "tbon trace [--topology SPEC] [--sample-every N] [--interval-ms N] \
                           [--duration SECS] [--transport local|tcp] \
                           [--out FILE | --no-out] [--slowest N]";

/// Trace a running overlay wave by wave: 1-in-N sampling, spans shipped
/// in-band, assembled into per-wave traces — Perfetto-loadable Chrome
/// trace-event JSON plus a slowest-N summary naming each wave's dominant
/// stage, dominant hop and any straggler children.
fn trace(argv: &[String]) -> Outcome {
    let args = Args::parse(
        argv,
        &[
            "--topology",
            "--sample-every",
            "--interval-ms",
            "--duration",
            "--transport",
            "--out",
            "--slowest",
        ],
        &["--no-out"],
    )?;
    let sample_every: u64 = args.num("--sample-every", 8)?;
    if sample_every == 0 {
        return Err(Failure::Usage("--sample-every must be at least 1".into()));
    }
    let interval = Duration::from_millis(args.num("--interval-ms", 250u64)?.max(10));
    let duration = Duration::from_secs(args.num("--duration", 5)?);
    let slowest: usize = args.num("--slowest", 5)?;
    let out = (!args.has("--no-out")).then(|| args.get("--out").unwrap_or("trace.json"));

    let config = NetworkConfig {
        trace: TraceConfig::sampled(sample_every),
        ..NetworkConfig::default()
    };
    let mut net = launch(args.topology()?.build(), args.tcp(), config, sine_metric)?;
    let traces = net
        .open_trace_stream(interval)
        .map_err(failed("trace stream"))?;
    let stream = workload_stream(&mut net, "builtin::avg")?;

    let mut asm = TraceAssembler::new();
    let mut absorb = || {
        while let Some((_origin, batch)) = traces.poll() {
            asm.absorb(&batch);
        }
    };
    drive(
        &stream,
        Instant::now() + duration,
        Duration::from_secs(5),
        &mut absorb,
    );
    // One settle interval so the last publish tick can flush in-flight
    // spans, then drain whatever arrived.
    std::thread::sleep(interval + Duration::from_millis(50));
    absorb();
    teardown(traces.close(), net)?;

    print!("{}", asm.slowest_summary(slowest));
    if let Some(path) = out {
        std::fs::write(path, asm.chrome_trace_json()).map_err(failed("writing the trace"))?;
        eprintln!(
            "wrote {path}: {} waves, {} spans (load in Perfetto / chrome://tracing)",
            asm.len(),
            asm.span_count()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// tbon doctor
// ---------------------------------------------------------------------------

const DOCTOR_USAGE: &str = "tbon doctor [--topology SPEC] [--duration SECS] \
                            [--fault none|kill-leaf|kill-internal|sever] [--json] \
                            [--save FILE] [--replay FILE]";

/// Incident forensics: arm the health plane, optionally inject a fault
/// mid-run, collect the flight-recorder bundles shipped on the incident
/// stream and print the [`Diagnosis`] engine's ranked root-cause verdicts.
/// `--save` writes the bundles to a black-box file; `--replay` diagnoses
/// such a file offline, on any machine.
fn doctor(argv: &[String]) -> Outcome {
    let args = Args::parse(
        argv,
        &["--topology", "--duration", "--fault", "--save", "--replay"],
        &["--json"],
    )?;
    let report = |diag: &Diagnosis| {
        if args.has("--json") {
            println!("{}", diag.report_json());
        } else {
            print!("{}", diag.report_text());
        }
    };
    if let Some(path) = args.get("--replay") {
        let bytes = std::fs::read(path).map_err(failed("reading the black box"))?;
        let batch = IncidentBatch::from_value(&DataValue::Bytes(bytes))
            .map_err(|e| Failure::Runtime(format!("{path} is not a tbon black box: {e}")))?;
        let mut diag = Diagnosis::new();
        diag.absorb(&batch);
        report(&diag);
        return Ok(());
    }
    let fault = args.get("--fault").unwrap_or("kill-leaf");
    if !["none", "kill-leaf", "kill-internal", "sever"].contains(&fault) {
        return Err(Failure::Usage(format!("unknown fault '{fault}'")));
    }
    let duration = Duration::from_secs(args.num("--duration", 5u64)?.max(1));

    let topo = args.topology()?.build();
    // Victim selection up front, while the topology is still pristine: the
    // last leaf (and its parent) for leaf faults, the last internal process
    // for subtree faults.
    let last_with = |role: Role| {
        topo.node_ids()
            .filter(|&n| topo.role(n) == role)
            .last()
            .map(|n| Rank(n.0))
    };
    let last_leaf = last_with(Role::BackEnd);
    let leaf_parent = last_leaf
        .and_then(|l| topo.parent(NodeId(l.0)))
        .map(|n| Rank(n.0));
    let last_internal = last_with(Role::Internal);

    let config = NetworkConfig {
        supervisor: Some(RetryPolicy::default()),
        health: demo_health(),
        ..NetworkConfig::default()
    };
    let mut net = launch(topo, false, config, sine_metric)?;
    let incidents = net
        .open_incident_stream()
        .map_err(failed("incident stream"))?;
    let stream = workload_stream(&mut net, "builtin::avg")?;

    let mut diag = Diagnosis::new();
    let mut black_box = IncidentBatch::default();
    let mut collect = || {
        while let Some((_origin, batch)) = incidents.poll() {
            diag.absorb(&batch);
            black_box.dropped += batch.dropped;
            black_box.items.extend(batch.items);
        }
    };
    // Inject the fault a third of the way in, so the health baselines have
    // warmed up and the recorder has healthy history to contrast against.
    let started = Instant::now();
    let mut inject_at = Some(started + duration / 3);
    drive(
        &stream,
        started + duration,
        Duration::from_millis(500),
        || {
            if inject_at.is_some_and(|t| Instant::now() >= t) {
                inject_at = None;
                let outcome = match (fault, last_leaf, leaf_parent, last_internal) {
                    ("kill-leaf", Some(leaf), ..) => {
                        eprintln!("injecting: kill back-end {leaf}");
                        net.kill_backend(leaf)
                    }
                    ("kill-internal", .., Some(internal)) => {
                        eprintln!("injecting: kill internal {internal}");
                        net.kill_internal(internal)
                    }
                    ("sever", Some(leaf), Some(parent), _) => {
                        eprintln!("injecting: sever link {parent} -- {leaf}");
                        net.sever_link(parent, leaf)
                    }
                    _ => Ok(()),
                };
                if let Err(e) = outcome {
                    eprintln!("fault injection failed: {e}");
                }
            }
            collect();
            while net.poll_event().is_some() {}
        },
    );
    // One settle beat so captures racing the deadline still arrive.
    std::thread::sleep(Duration::from_millis(200));
    collect();
    teardown(incidents.close(), net)?;

    report(&diag);
    if let Some(path) = args.get("--save") {
        let bytes = match black_box.to_value() {
            DataValue::Bytes(bytes) => bytes,
            _ => unreachable!("batches encode to Bytes"),
        };
        std::fs::write(path, bytes).map_err(failed("writing the black box"))?;
        eprintln!(
            "wrote {path}: {} bundles (replay with `tbon doctor --replay {path}`)",
            black_box.items.len()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (subcommand, usage): (fn(&[String]) -> Outcome, &str) =
        match argv.first().map(String::as_str) {
            Some("run") => (run, RUN_USAGE),
            Some("stat") => (stat, STAT_USAGE),
            Some("top") => (top, TOP_USAGE),
            Some("trace") => (trace, TRACE_USAGE),
            Some("doctor") => (doctor, DOCTOR_USAGE),
            _ => {
                eprintln!(
                    "usage: tbon <run|stat|top|trace|doctor> [flags]   \
                     (--help after a subcommand lists its flags)"
                );
                return ExitCode::from(2);
            }
        };
    match subcommand(&argv[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(why)) => {
            if !why.is_empty() {
                eprintln!("{why}");
            }
            eprintln!("usage: {usage}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(why)) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}
