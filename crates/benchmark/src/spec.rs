//! What the benchmark declares: the five workloads and every metric name
//! with its unit. `BENCHMARK.json` repeats these; `tests/contract.rs`
//! fails if the two drift apart.

/// Which substrate a workload's overlay runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// `LocalTransport::new()`: zero-copy shared frames, no codec.
    Local,
    Tcp,
    /// Not a named workload (a function-for-function twin of TCP): reached
    /// with `--transport uds` on any workload.
    Uds,
}

impl TransportKind {
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "local" => Some(TransportKind::Local),
            "tcp" => Some(TransportKind::Tcp),
            "uds" => Some(TransportKind::Uds),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Local => "local",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

/// How the front end loads the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// One `go` broadcast per round; every back-end answers with `burst`
    /// waves of `len` f64s; the front end drains the reduced waves.
    Stream { len: usize, burst: u32 },
    /// Closed loop: the front end keeps `window` broadcasts of `len` f64s
    /// outstanding, back-ends echo, `builtin::sum` reduces.
    Echo { len: usize, window: usize },
    /// Closed loop, one outstanding: start broadcast, every leaf runs
    /// `leaf_compute`, `meanshift::merge` merges up the tree.
    MeanShift { points_per_cluster: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Fan-out per level, root first.
    pub levels: &'static [usize],
    pub transport: TransportKind,
    pub shape: Shape,
    /// The percentile `rtt_p99_us` is read at on this workload. Fixed
    /// here, never derived from a run's own sample count, so two runs are
    /// compared on the same estimator however fast either went: 99 where
    /// every third of a run holds well over 1 000 round trips, and
    /// elsewhere 90 or 75, whichever a third's sample supports (ten or
    /// more samples beyond it) with room to spare.
    pub tail_percentile: u32,
    pub why: &'static str,
}

impl Workload {
    pub fn leaves(&self) -> usize {
        self.levels.iter().product()
    }

    /// Bytes the leaves put into the tree for one reduced wave.
    pub fn payload_bytes_per_wave(&self, points_per_leaf: usize) -> f64 {
        let per_leaf = match self.shape {
            Shape::Stream { len, .. } | Shape::Echo { len, .. } => len * 8,
            Shape::MeanShift { .. } => points_per_leaf * 16,
        };
        (per_leaf * self.leaves()) as f64
    }
}

/// Sized for this box (2 cores, stub channel): one solve takes about
/// 0.13 s, so the 1.25 s reps of a 20 s run hold eight or more.
pub const MEANSHIFT_POINTS_PER_CLUSTER: usize = 400;

/// How long one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// `--quick`: the same phases, short enough for a smoke test.
pub const QUICK_SECONDS: f64 = 2.0;
pub const QUICK_POINTS_PER_CLUSTER: usize = 60;

/// 7 168 f64s = 56 KiB. The issue asked for 64 KiB, but at that size the
/// default `FlowConfig` stalls every 16th wave for the 5 s grant deadline:
/// sixteen 64 KiB frames overrun the 1 MiB byte window one frame before a
/// leaf reaches its 16-frame grant watermark (see README, "Findings").
/// A workload may not fail, so the record stays just under the edge.
pub const BULK_LEN: usize = 7 * 1024;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stream_small_local",
        levels: &[4, 4],
        transport: TransportKind::Local,
        shape: Shape::Stream {
            len: 32,
            burst: 1000,
        },
        tail_percentile: 90,
        why: "paper E2 at the smallest record over zero-copy links: only dispatch, sync, executor and the channel work; codec, framing, writer and sockets are bypassed",
    },
    Workload {
        name: "stream_small_tcp",
        levels: &[4, 4],
        transport: TransportKind::Tcp,
        shape: Shape::Stream {
            len: 32,
            burst: 1000,
        },
        tail_percentile: 75,
        why: "the same record flow over loopback TCP: adds codec, framing and writer batching where per-message cost dominates; minus stream_small_local it is the wire path",
    },
    Workload {
        name: "bulk_echo_tcp",
        levels: &[4, 4],
        transport: TransportKind::Tcp,
        shape: Shape::Echo {
            len: BULK_LEN,
            window: 4,
        },
        tail_percentile: 90,
        why: "56 KiB waves, 4 outstanding: per-byte cost (encode-once multicast, decode, sum, re-encode, copies) and the credit windows; per-message overhead is diluted",
    },
    Workload {
        name: "rtt_deep_tcp",
        levels: &[2, 2, 2],
        transport: TransportKind::Tcp,
        shape: Shape::Echo { len: 32, window: 1 },
        tail_percentile: 99,
        why: "closed loop, one outstanding, three levels: latency of an idle tree, so a batching or flush change that buys throughput with latency is caught",
    },
    Workload {
        name: "meanshift_fig4",
        levels: &[4, 4],
        transport: TransportKind::Local,
        shape: Shape::MeanShift {
            points_per_cluster: MEANSHIFT_POINTS_PER_CLUSTER,
        },
        tail_percentile: 75,
        why: "the paper's Figure 4 application: filter execution and the executor pool do nearly all the work, so every overlay change predicts no change here",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

impl MetricDecl {
    const fn within(self, bound: f64) -> MetricDecl {
        MetricDecl {
            bound: Some(bound),
            ..self
        }
    }
}

/// What a user of the overlay sees, with the bound by which each may
/// worsen (README.md, "Noise floor", says where they come from). The driver
/// reads every one of them on every workload ("with `--trace 0` the
/// metrics are every `end_to_end` metric", and none may ever be 0), so
/// every workload reports all of them; README.md says what each means on
/// each workload.
pub const END_TO_END: [MetricDecl; 7] = [
    higher("waves_per_s", "waves/s").within(0.15),
    higher("payload_mb_per_s", "MB/s").within(0.15),
    lower("rtt_p50_us", "us").within(0.15),
    lower("rtt_p99_us", "us").within(0.20),
    lower("solve_p50_ms", "ms").within(0.15),
    lower("setup_s", "s").within(0.25),
    lower("peak_rss_mb", "MB").within(0.15),
];

/// One layer each; the prefix is the module the number belongs to.
pub const PER_LAYER: [MetricDecl; 42] = [
    lower("codec.encode_ns", "ns"),
    lower("codec.decode_ns", "ns"),
    lower("codec.encodes_per_wave", "count"),
    lower("framing.write_ns", "ns"),
    lower("framing.read_ns", "ns"),
    lower("transport.send_call_ns", "ns"),
    lower("transport.hop_us", "us"),
    higher("writer.frames_per_batch", "count"),
    lower("filter.sync_push_ns", "ns"),
    lower("filters.transform_us", "us"),
    lower("meanshift.leaf_compute_ms", "ms"),
    lower("meanshift.single_solve_ms", "ms"),
    higher("executor.pooled_share", "ratio"),
    lower("executor.filter_busy_us_per_wave", "us"),
    lower("flow.window_closed_per_kwave", "count"),
    lower("flow.grants_per_kwave", "count"),
    lower("flow.stalled_us_per_wave", "us"),
    lower("process.frames_per_wave", "count"),
    lower("process.bytes_per_wave", "B"),
    lower("process.control_per_kwave", "count"),
    lower("process.sends_dropped", "count"),
    lower("network.launch_ms", "ms"),
    lower("network.new_stream_ms", "ms"),
    lower("network.shutdown_ms", "ms"),
    lower("network.broadcast_call_us_p50", "us"),
    higher("network.recv_wait_share", "ratio"),
    lower("backend.send_call_us_p50", "us"),
    lower("backend.send_call_us_p99", "us"),
    lower("os.cpu_ms_per_kwave", "ms"),
    lower("os.threads", "count"),
    lower("os.ctx_switches_per_wave", "count"),
    lower("trace.backend_inject_us", "us"),
    lower("trace.credit_park_us", "us"),
    lower("trace.writer_queue_us", "us"),
    lower("trace.decode_us", "us"),
    lower("trace.executor_queue_us", "us"),
    lower("trace.filter_exec_us", "us"),
    lower("trace.child_merge_us", "us"),
    lower("trace.upstream_send_us", "us"),
    lower("trace.unattributed_us", "us"),
    lower("trace.overhead_pct", "%"),
    higher("trace.waves_assembled_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {:?}",
                m.unit
            );
        }
    }

    #[test]
    fn topologies_stay_within_sixteen_backends() {
        for w in &WORKLOADS {
            assert!(w.leaves() <= 16, "{}", w.name);
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
