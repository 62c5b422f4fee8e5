//! One rep of one workload: launch a fresh `Network`, drive it from the
//! front-end thread for the rep's length, check every wave against the
//! oracle, shut down. The back-end closures run in the runtime's own leaf
//! threads, as in every bench of this repo.
//!
//! All payload values are integer-valued `f64`s derived from the seed, so
//! the expected sums are exact and a single wrong, lost or duplicated
//! packet shows as a failed wave.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tbon_core::{
    BackendContext, BackendEvent, DataValue, NetworkBuilder, NetworkConfig, Packet, PerfCounters,
    StreamConsumer, StreamHandle, StreamSpec, SyncPolicy, Tag, TraceAssembler, TraceConfig,
    TraceGather, TraceHandle, TRACE_FILTER,
};
use tbon_filters::builtin_registry;
use tbon_meanshift::{
    leaf_compute, register_meanshift, run_single_equivalent, MeanShiftParams, MsPayload, Peak,
    Point2, SynthSpec, TAG_RESULT, TAG_START,
};
use tbon_topology::Topology;
use tbon_transport::{local::LocalTransport, tcp::TcpTransport, Transport};

use crate::harness::{os_sample, timed, OsSample, SharedLog, SpanLog, NO_WAVE};
use crate::spec::{Shape, TransportKind, Workload};

/// SplitMix64: the seed-to-inputs generator. The program under test only
/// ever sees the generated inputs.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An integer-valued `f64` below 2^20.
    fn small(&mut self) -> f64 {
        (self.next_u64() >> 44) as f64
    }
}

/// The mean-shift inputs and their oracle, computed once per process.
pub struct MeanShiftInputs {
    pub spec: SynthSpec,
    pub params: MeanShiftParams,
    /// Peaks of the single-node run over every leaf's partition: what the
    /// tree's merged answer must agree with.
    pub reference: Vec<Peak>,
    /// How long that single-threaded baseline took.
    pub single_solve_ms: f64,
}

/// Inputs of one workload for one seed, shared by all its reps.
pub struct Inputs {
    pub workload: &'static Workload,
    pub transport: TransportKind,
    pub topology: Topology,
    /// Ranks of the back-ends, ascending.
    pub leaf_ranks: Vec<u32>,
    /// Stream: one base record per leaf. Echo: one base record.
    base: Arc<Vec<Vec<f64>>>,
    /// Element-wise sum of `base` over the leaves (stream oracle).
    base_sum: Vec<f64>,
    pub meanshift: Option<MeanShiftInputs>,
    /// Scratch directory for UDS sockets.
    out_dir: PathBuf,
}

impl Inputs {
    pub fn new(
        workload: &'static Workload,
        transport: TransportKind,
        seed: u64,
        points_per_cluster: Option<usize>,
        out_dir: &Path,
    ) -> Inputs {
        let topology = Topology::balanced_levels(workload.levels);
        let mut leaf_ranks: Vec<u32> = topology.leaves().iter().map(|n| n.0).collect();
        leaf_ranks.sort_unstable();
        let mut rng = SplitMix64(seed);
        let (records, len) = match workload.shape {
            Shape::Stream { len, .. } => (leaf_ranks.len(), len),
            Shape::Echo { len, .. } => (1, len),
            Shape::MeanShift { .. } => (0, 0),
        };
        let base: Vec<Vec<f64>> = (0..records)
            .map(|_| (0..len).map(|_| rng.small()).collect())
            .collect();
        let base_sum = (0..len).map(|i| base.iter().map(|r| r[i]).sum()).collect();
        let meanshift = match workload.shape {
            Shape::MeanShift {
                points_per_cluster: default_points,
            } => {
                let spec = SynthSpec {
                    points_per_cluster: points_per_cluster.unwrap_or(default_points),
                    seed: rng.next_u64(),
                    ..SynthSpec::paper_default()
                };
                let params = MeanShiftParams::default();
                let ranks: Vec<u64> = leaf_ranks.iter().map(|&r| r as u64).collect();
                let single = run_single_equivalent(&ranks, &spec, &params);
                Some(MeanShiftInputs {
                    spec,
                    params,
                    reference: single.peaks,
                    single_solve_ms: single.elapsed.as_secs_f64() * 1e3,
                })
            }
            _ => None,
        };
        Inputs {
            workload,
            transport,
            topology,
            leaf_ranks,
            base: Arc::new(base),
            base_sum,
            meanshift,
            out_dir: out_dir.to_path_buf(),
        }
    }

    pub fn points_per_leaf(&self) -> usize {
        self.meanshift
            .as_ref()
            .map_or(0, |m| m.spec.points_per_leaf())
    }

    /// The tolerances `crates/meanshift`'s own tests use: one peak per
    /// cluster, each within `merge_radius` of a peak of the single-node
    /// reference and each cluster centre within `max_leaf_shift + 10` of a
    /// peak. The reference itself also reports low-support noise modes at
    /// 16 leaves' density, which the tree (seeded at leaf peaks) never
    /// visits, so peak counts are compared with the clusters, not with it.
    fn peaks_agree(&self, got: &[Peak]) -> bool {
        let Some(ms) = &self.meanshift else {
            return false;
        };
        let near = |a: &Point2, b: &Point2, radius: f64| a.distance(b) < radius;
        got.len() == ms.spec.centers.len()
            && got.iter().all(|g| {
                ms.reference
                    .iter()
                    .any(|r| near(&g.position, &r.position, ms.params.merge_radius))
            })
            && ms.spec.centers.iter().all(|c| {
                got.iter()
                    .any(|g| near(&g.position, c, ms.spec.max_leaf_shift + 10.0))
            })
    }

    pub(crate) fn transport(&self) -> (Arc<dyn Transport>, Option<PathBuf>) {
        match self.transport {
            TransportKind::Local => (Arc::new(LocalTransport::new()), None),
            TransportKind::Tcp => (Arc::new(TcpTransport::new()), None),
            TransportKind::Uds => uds_transport(&self.out_dir),
        }
    }
}

#[cfg(unix)]
fn uds_transport(out_dir: &Path) -> (Arc<dyn Transport>, Option<PathBuf>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // Sockets stay inside the benchmark's own directory, not the system
    // temp dir `UdsTransport::new` would pick.
    let dir = out_dir.join(format!(
        "uds-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create UDS socket directory");
    (
        Arc::new(tbon_transport::uds::UdsTransport::in_dir(&dir)),
        Some(dir),
    )
}

#[cfg(not(unix))]
fn uds_transport(_: &Path) -> (Arc<dyn Transport>, Option<PathBuf>) {
    panic!("--transport uds needs a unix host")
}

/// What one rep should record beyond the end-to-end numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepMode {
    /// Harness spans, `perf_snapshot` deltas and `/proc` deltas.
    pub probe: bool,
    /// The runtime's trace plane at 1-in-1, gathered and assembled.
    pub trace_plane: bool,
}

/// Waves whose calls are kept as spans on a probed rep.
pub const SPAN_WAVE_CAP: u64 = 20_000;

pub struct Probe {
    pub frontend: SpanLog,
    /// `(rank, log)` per back-end.
    pub backends: Vec<(u32, SpanLog)>,
    /// Counter deltas over the driven part of the rep, summed over the
    /// communication processes.
    pub counters: PerfCounters,
    pub os: OsSample,
    /// Seconds the front end spent blocked in `recv_within`.
    pub recv_wait_s: f64,
}

pub struct Rep {
    /// Reduced waves that arrived and passed the oracle.
    pub waves: u64,
    pub attempted: u64,
    pub failed: u64,
    /// First broadcast to last wave.
    pub wall_s: f64,
    /// Broadcast call to the first reduced packet answering it.
    pub rtt_us: Vec<f64>,
    /// Broadcast call to the last reduced packet answering it.
    pub completion_us: Vec<f64>,
    pub launch_s: f64,
    pub new_stream_s: f64,
    pub shutdown_s: f64,
    pub probe: Option<Probe>,
    pub trace: Option<TraceAssembler>,
}

impl Rep {
    pub fn waves_per_s(&self) -> f64 {
        self.waves as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    pub fn setup_s(&self) -> f64 {
        self.launch_s + self.new_stream_s
    }
}

fn backend_closure(
    inputs: &Inputs,
    logs: Option<Arc<Vec<SharedLog>>>,
) -> impl Fn(BackendContext) + Send + Sync + 'static {
    let shape = inputs.workload.shape;
    let base = inputs.base.clone();
    let leaf_ranks = inputs.leaf_ranks.clone();
    let ms = inputs
        .meanshift
        .as_ref()
        .map(|m| (m.spec.clone(), m.params));
    move |mut ctx: BackendContext| {
        let leaf = leaf_ranks
            .binary_search(&ctx.rank().0)
            .expect("back-end rank is a leaf of the topology");
        let log = logs.as_ref().map(|l| &l[leaf]);
        let root = log.map_or(0, |l| l.lock().expect("span log poisoned").open("backend"));
        // Pre-generated before the measured region, like the paper.
        let data = ms
            .as_ref()
            .map(|(spec, _)| spec.generate(ctx.rank().0 as u64));
        let mut requests = 0u64;
        loop {
            let event = timed(log, "next_event", root, NO_WAVE, || ctx.next_event());
            let (stream, packet) = match event {
                Ok(BackendEvent::Packet { stream, packet }) => (stream, packet),
                Ok(BackendEvent::Shutdown) | Err(_) => break,
                Ok(_) => continue,
            };
            match shape {
                Shape::Stream { burst, .. } => {
                    let first = packet.tag().0 as u64 * burst as u64;
                    for w in first..first + burst as u64 {
                        let record: Vec<f64> = base[leaf].iter().map(|b| b + w as f64).collect();
                        let sent = timed(log, "send", root, w, || {
                            ctx.send(stream, Tag(w as u32), DataValue::ArrayF64(record))
                        });
                        if sent.is_err() {
                            break;
                        }
                    }
                }
                Shape::Echo { .. } => {
                    let tag = packet.tag();
                    let value = packet.into_value();
                    let _ = timed(log, "send", root, tag.0 as u64, || {
                        ctx.send(stream, tag, value)
                    });
                }
                Shape::MeanShift { .. } => {
                    if packet.tag() != TAG_START {
                        continue;
                    }
                    let (_, params) = ms.as_ref().expect("mean-shift inputs");
                    let data = data.as_ref().expect("mean-shift partition");
                    let payload = timed(log, "leaf_compute", root, requests, || {
                        leaf_compute(data, params)
                    });
                    let _ = timed(log, "send", root, requests, || {
                        ctx.send(stream, TAG_RESULT, payload.to_value())
                    });
                    requests += 1;
                }
            }
        }
        if let Some(l) = log {
            l.lock().expect("span log poisoned").close(root);
        }
    }
}

/// The front end's side of a rep: timestamps, counts and the oracle.
struct Driver<'a> {
    inputs: &'a Inputs,
    stream: &'a StreamHandle,
    trace: Option<(&'a TraceHandle, &'a mut TraceAssembler)>,
    log: Option<&'a mut SpanLog>,
    root: u32,
    deadline: Instant,
    recv_timeout: Duration,
    waves: u64,
    attempted: u64,
    failed: u64,
    rtt_us: Vec<f64>,
    completion_us: Vec<f64>,
    recv_wait: Duration,
    last_wave_at: Instant,
}

impl Driver<'_> {
    fn broadcast(&mut self, wave: u64, tag: Tag, value: DataValue) -> Option<Instant> {
        let start = Instant::now();
        let sent = self.stream.broadcast(tag, value);
        let end = Instant::now();
        if let Some(log) = self.log.as_deref_mut() {
            log.record("broadcast", self.root, wave, start, end);
        }
        sent.is_ok().then_some(start)
    }

    /// Next reduced packet, or `None` when it is lost: a timeout is a
    /// failed wave, not a panic.
    fn recv(&mut self, wave: u64) -> Option<(Packet, Instant)> {
        let start = Instant::now();
        let got = self.stream.recv_within(self.recv_timeout);
        let end = Instant::now();
        self.recv_wait += end - start;
        if let Some(log) = self.log.as_deref_mut() {
            log.record("recv_within", self.root, wave, start, end);
        }
        if let Some((handle, assembler)) = self.trace.as_mut() {
            if wave.is_multiple_of(64) {
                while let Some((_, batch)) = handle.poll() {
                    assembler.absorb(&batch);
                }
            }
        }
        match got {
            Ok(Some(packet)) => Some((packet, end)),
            _ => None,
        }
    }

    fn settle(&mut self, ok: bool, at: Instant) {
        if ok {
            self.waves += 1;
        } else {
            self.failed += 1;
        }
        self.last_wave_at = at;
    }

    fn sum_matches(packet: &Packet, tag: u64, expected: impl Fn(usize) -> f64, len: usize) -> bool {
        packet.tag().0 as u64 == tag
            && packet.value().as_array_f64().is_some_and(|got| {
                got.len() == len && got.iter().enumerate().all(|(i, g)| *g == expected(i))
            })
    }

    /// Rounds of `burst` waves per `go` broadcast until the rep's time is
    /// up. A closed loop with one client: the next round starts when the
    /// last wave of this one has arrived.
    fn drive_stream(&mut self, len: usize, burst: u32) {
        let leaves = self.inputs.leaf_ranks.len() as f64;
        let mut round = 0u32;
        while Instant::now() < self.deadline {
            let first = round as u64 * burst as u64;
            self.attempted += burst as u64;
            let Some(t0) = self.broadcast(first, Tag(round), DataValue::Unit) else {
                self.failed += burst as u64;
                return;
            };
            for w in first..first + burst as u64 {
                let Some((packet, at)) = self.recv(w) else {
                    self.failed += first + burst as u64 - w;
                    return;
                };
                if w == first {
                    self.rtt_us.push((at - t0).as_secs_f64() * 1e6);
                }
                let base_sum = &self.inputs.base_sum;
                let ok = Self::sum_matches(&packet, w, |i| base_sum[i] + leaves * w as f64, len);
                self.settle(ok, at);
            }
            self.completion_us
                .push((self.last_wave_at - t0).as_secs_f64() * 1e6);
            round += 1;
        }
    }

    /// `window` requests outstanding; each answer releases the next
    /// request until the rep's time is up, then the window drains.
    fn drive_requests(&mut self, window: usize) {
        let leaves = self.inputs.leaf_ranks.len() as f64;
        let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
        let mut next = 0u64;
        loop {
            while outstanding.len() < window && Instant::now() < self.deadline {
                let (tag, value) = match self.inputs.workload.shape {
                    Shape::Echo { .. } => (
                        Tag(next as u32),
                        DataValue::ArrayF64(
                            self.inputs.base[0]
                                .iter()
                                .map(|b| b + next as f64)
                                .collect(),
                        ),
                    ),
                    _ => (TAG_START, DataValue::Unit),
                };
                self.attempted += 1;
                match self.broadcast(next, tag, value) {
                    Some(t0) => outstanding.push_back((next, t0)),
                    None => {
                        self.failed += 1 + outstanding.len() as u64;
                        return;
                    }
                }
                next += 1;
            }
            let Some((k, t0)) = outstanding.pop_front() else {
                return;
            };
            let Some((packet, at)) = self.recv(k) else {
                self.failed += 1 + outstanding.len() as u64;
                return;
            };
            let us = (at - t0).as_secs_f64() * 1e6;
            self.rtt_us.push(us);
            self.completion_us.push(us);
            let ok = match self.inputs.workload.shape {
                Shape::Echo { len, .. } => {
                    let base = &self.inputs.base[0];
                    Self::sum_matches(&packet, k, |i| leaves * (base[i] + k as f64), len)
                }
                _ => MsPayload::from_value(packet.value())
                    .is_ok_and(|p| self.inputs.peaks_agree(&p.peaks)),
            };
            self.settle(ok, at);
        }
    }
}

/// Keep reading the trace stream until it has been quiet for a few
/// publish intervals: spans of the last waves are still on their way up
/// when the last data wave arrives.
fn drain_trace(handle: &TraceHandle, assembler: &mut TraceAssembler) {
    let give_up = Instant::now() + Duration::from_secs(3);
    let mut quiet = 0;
    while quiet < 4 && Instant::now() < give_up {
        match handle.recv_within(TRACE_INTERVAL * 2) {
            Ok(Some((_, batch))) => {
                assembler.absorb(&batch);
                quiet = 0;
            }
            Ok(None) => quiet += 1,
            Err(_) => break,
        }
    }
}

const TRACE_INTERVAL: Duration = Duration::from_millis(25);

/// Run one rep. Panics only when the overlay cannot be built at all;
/// anything that goes wrong while waves flow is counted in `failed`.
pub fn run_rep(inputs: &Inputs, len: Duration, mode: RepMode) -> Rep {
    let workload = inputs.workload;
    let registry = builtin_registry();
    register_meanshift(&registry);
    let mut config = NetworkConfig::default();
    if mode.trace_plane {
        // 1-in-1, with rings and byte caps wide enough that the plane,
        // not its defaults for 1-in-64 sampling, decides what arrives.
        config.trace = TraceConfig {
            sample_every: 1,
            ring_capacity: 1 << 16,
            max_bytes_per_interval: 4 << 20,
        };
        registry.register_transformation(TRACE_FILTER, |_| {
            Ok(Box::new(TraceGather {
                max_bytes: 16 << 20,
            }))
        });
    }
    let logs: Option<Arc<Vec<SharedLog>>> = mode.probe.then(|| {
        Arc::new(
            inputs
                .leaf_ranks
                .iter()
                .map(|_| Arc::new(Mutex::new(SpanLog::new(SPAN_WAVE_CAP))))
                .collect(),
        )
    });
    let mut fe_log = mode.probe.then(|| SpanLog::new(SPAN_WAVE_CAP));
    let root = fe_log.as_mut().map_or(0, |l| l.open("rep"));
    let (transport, socket_dir) = inputs.transport();

    let t0 = Instant::now();
    let mut net = NetworkBuilder::new(inputs.topology.clone())
        .transport_arc(transport)
        .registry(registry)
        .config(config)
        .backend(backend_closure(inputs, logs.clone()))
        .launch()
        .expect("launch the overlay");
    let t1 = Instant::now();
    let trace_handle = mode.trace_plane.then(|| {
        net.open_trace_stream(TRACE_INTERVAL)
            .expect("open the trace stream")
    });
    let t2 = Instant::now();
    let spec = match (&workload.shape, &inputs.meanshift) {
        (Shape::MeanShift { .. }, Some(ms)) => StreamSpec::all()
            .transformation("meanshift::merge")
            .params(ms.params.to_value()),
        _ => StreamSpec::all().transformation("builtin::sum"),
    };
    let stream = net
        .new_stream(spec.sync(SyncPolicy::WaitForAll))
        .expect("open the data stream");
    let t3 = Instant::now();
    if let Some(log) = fe_log.as_mut() {
        log.record("launch", root, NO_WAVE, t0, t1);
        log.record("new_stream", root, NO_WAVE, t2, t3);
    }

    let snapshot = |net: &mut tbon_core::Network| {
        net.perf_snapshot(Duration::from_secs(2))
            .map(|s| s.total())
            .unwrap_or_default()
    };
    let before = mode.probe.then(|| (snapshot(&mut net), os_sample()));

    let mut assembler = TraceAssembler::new();
    let start = Instant::now();
    let mut driver = Driver {
        inputs,
        stream: &stream,
        trace: trace_handle.as_ref().map(|h| (h, &mut assembler)),
        log: fe_log.as_mut(),
        root,
        deadline: start + len,
        recv_timeout: match workload.shape {
            Shape::MeanShift { .. } => Duration::from_secs(60),
            _ => Duration::from_secs(10),
        },
        waves: 0,
        attempted: 0,
        failed: 0,
        rtt_us: Vec::new(),
        completion_us: Vec::new(),
        recv_wait: Duration::ZERO,
        last_wave_at: start,
    };
    match workload.shape {
        Shape::Stream { len, burst } => driver.drive_stream(len, burst),
        Shape::Echo { window, .. } => driver.drive_requests(window),
        Shape::MeanShift { .. } => driver.drive_requests(1),
    }
    let Driver {
        waves,
        attempted,
        failed,
        rtt_us,
        completion_us,
        recv_wait,
        last_wave_at,
        ..
    } = driver;

    let after = before.map(|(counters, os)| {
        let now = snapshot(&mut net);
        (now.delta_since(&counters), os, os_sample())
    });
    if let Some(handle) = &trace_handle {
        drain_trace(handle, &mut assembler);
    }
    let t4 = Instant::now();
    let _ = net.shutdown();
    let t5 = Instant::now();
    if let Some(dir) = socket_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let probe = after.map(|(counters, os0, os1)| {
        let mut frontend = fe_log.take().expect("probed rep keeps a front-end log");
        frontend.record("shutdown", root, NO_WAVE, t4, t5);
        frontend.close(root);
        let os0 = os0.unwrap_or_default();
        let os1 = os1.unwrap_or_default();
        let backends = logs
            .as_ref()
            .expect("probed rep keeps back-end logs")
            .iter()
            .zip(&inputs.leaf_ranks)
            .map(|(log, &rank)| {
                let mut guard = log.lock().expect("span log poisoned");
                (rank, std::mem::replace(&mut *guard, SpanLog::new(0)))
            })
            .collect();
        Probe {
            frontend,
            backends,
            counters,
            os: OsSample {
                cpu_ms: os1.cpu_ms - os0.cpu_ms,
                threads: os1.threads,
                ctx_switches: os1.ctx_switches.saturating_sub(os0.ctx_switches),
            },
            recv_wait_s: recv_wait.as_secs_f64(),
        }
    });

    Rep {
        waves,
        attempted,
        failed,
        wall_s: (last_wave_at - start).as_secs_f64(),
        rtt_us,
        completion_us,
        launch_s: (t1 - t0).as_secs_f64(),
        new_stream_s: (t3 - t2).as_secs_f64(),
        shutdown_s: (t5 - t4).as_secs_f64(),
        probe,
        trace: mode.trace_plane.then_some(assembler),
    }
}
