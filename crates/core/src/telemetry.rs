//! In-band telemetry: log2-bucketed latency histograms, self-describing
//! [`MetricsSample`] packets that ride the overlay's own streams, a bounded
//! structured event log, and text exporters (Prometheus / JSON-lines).
//!
//! The design dogfoods the TBON (§2.2 of the paper): instead of the
//! front-end polling every process point-to-point, each comm process
//! periodically publishes a `MetricsSample` on a dedicated stream and the
//! `telemetry::metrics_merge` transformation folds samples level-by-level,
//! so the front-end receives **one** aggregated sample per interval
//! regardless of tree size.
//!
//! Everything here is allocation-free on the hot path: histograms are
//! fixed 64-bucket arrays, and timestamps are microseconds relative to a
//! process-wide epoch.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use crate::codec::Reader;
use crate::error::{Result, TbonError};
use crate::filter::{FilterContext, Transformation, Wave};
use crate::packet::Packet;
use crate::plane::{decode_exact, Batch, BatchItem, CappedConcat, PlanePayload};
use crate::proto::{
    decode_perf_counters, encode_perf_counters, PerfCounters, PERF_COUNTERS_WIRE_LEN,
};
use crate::stream::Tag;
use crate::value::DataValue;

/// Registry name of the built-in sample-merging transformation.
pub const METRICS_FILTER: &str = "telemetry::metrics_merge";

/// Registry name of the built-in span-gathering transformation (the
/// tracing plane's analogue of [`METRICS_FILTER`]).
pub const TRACE_FILTER: &str = "telemetry::trace_gather";

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since a process-wide epoch, offset by one so the result is
/// always strictly positive: `0` is reserved as the "unstamped" sentinel in
/// packet headers. Monotonic within a process; comparable across threads of
/// the same process (which is all the in-process transports need).
pub fn now_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64 + 1
}

/// Number of buckets in a [`LogHistogram`]: one per possible leading-bit
/// position of a `u64`, so any value maps to a bucket without clamping.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size histogram with power-of-two bucket boundaries.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 also absorbs zero), so
/// recording is a `leading_zeros` and an array increment — no allocation,
/// no branches on size. Exact `count`/`sum`/`min`/`max` are kept alongside
/// the buckets so means are exact and quantiles can be clamped to the
/// observed range. Merge is associative and commutative, which is what lets
/// the tree combine histograms in any grouping order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub const fn new() -> Self {
        LogHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_ceil(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Saturating (like [`MetricsSample::merge`]): wire-decoded inputs must
    /// not be able to panic the process folding them.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile in `0.0..=1.0`: the upper bound of the bucket
    /// holding the q-th sample, clamped to the exact observed min/max (so
    /// `quantile(0.0)`/`quantile(1.0)` are exact).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_ceil(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// `(inclusive upper bound, count)` for every non-empty bucket, in
    /// ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_ceil(i), c))
    }

    /// Sparse wire form: the four exact fields, then only non-empty buckets
    /// as `(u8 index, u64 count)` pairs. A fresh histogram costs 33 bytes.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.count.to_le_bytes());
        buf.extend_from_slice(&self.sum.to_le_bytes());
        buf.extend_from_slice(&self.min.to_le_bytes());
        buf.extend_from_slice(&self.max.to_le_bytes());
        let nonzero = self.counts.iter().filter(|&&c| c > 0).count() as u8;
        buf.push(nonzero);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                buf.push(i as u8);
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<LogHistogram> {
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let n = r.u8()? as usize;
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for _ in 0..n {
            let idx = r.u8()? as usize;
            if idx >= HISTOGRAM_BUCKETS {
                return Err(TbonError::Decode(format!(
                    "histogram bucket index {idx} out of range"
                )));
            }
            counts[idx] = r.u64()?;
        }
        Ok(LogHistogram {
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    pub fn encoded_len(&self) -> usize {
        8 * 4 + 1 + 9 * self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// One interval's worth of telemetry from one process — or, after passing
/// through `telemetry::metrics_merge`, from a whole subtree.
///
/// Counters are **deltas** since the previous sample, so summing across
/// processes and across intervals are both meaningful. `merge` is
/// associative and commutative (sums, maxes, and histogram merges), which
/// lets the tree fold samples level-by-level in any grouping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSample {
    /// Publisher's sample sequence number; merged as `max`.
    pub seq: u64,
    /// Publish interval in microseconds; merged as `max`.
    pub interval_us: u64,
    /// Number of processes folded into this sample.
    pub processes: u32,
    /// Counter deltas since the previous sample, summed across processes.
    pub counters: PerfCounters,
    /// End-to-end wave latency (µs) observed at the front-end this
    /// interval. Only the root records it — latency is a root-side notion —
    /// so the merged histogram is exactly the root's.
    pub wave_latency_us: LogHistogram,
    /// Per-execution transformation-filter runtime (ns) this interval.
    pub filter_exec_ns: LogHistogram,
    /// Writer-queue depth per outbound link, sampled at publish time.
    pub queue_depth: LogHistogram,
    /// Time pooled waves spent queued before a filter worker picked them up
    /// (ns) this interval — the "queue wait" half of wave latency; the
    /// "transform" half is [`MetricsSample::filter_exec_ns`].
    pub executor_wait_ns: LogHistogram,
    /// Filter-pool queue depth per worker, sampled at publish time.
    pub executor_queue_depth: LogHistogram,
    /// Supervisor recovery latency (µs), detection to heal completion.
    /// Only the front-end records it — the histogram lives with the
    /// supervisor — so the merged histogram is exactly the root's (same
    /// rule as [`MetricsSample::wave_latency_us`]).
    pub recovery_us: LogHistogram,
    /// Upstream packets received this interval, indexed by tree depth of
    /// the receiving process (0 = front-end). Merged element-wise.
    pub level_packets_up: Vec<u64>,
    /// Lifetime count of events evicted from the bounded event rings.
    pub events_dropped: u64,
}

impl MetricsSample {
    /// Sums saturate rather than wrap: saturating addition is still
    /// associative and commutative (everything clamps to the same ceiling
    /// whatever the fold order), so hostile or wrapped inputs cannot panic
    /// a comm process mid-merge.
    pub fn merge(&mut self, other: &MetricsSample) {
        self.seq = self.seq.max(other.seq);
        self.interval_us = self.interval_us.max(other.interval_us);
        self.processes = self.processes.saturating_add(other.processes);
        self.counters.absorb(&other.counters);
        self.wave_latency_us.merge(&other.wave_latency_us);
        self.filter_exec_ns.merge(&other.filter_exec_ns);
        self.queue_depth.merge(&other.queue_depth);
        self.executor_wait_ns.merge(&other.executor_wait_ns);
        self.executor_queue_depth.merge(&other.executor_queue_depth);
        self.recovery_us.merge(&other.recovery_us);
        if self.level_packets_up.len() < other.level_packets_up.len() {
            self.level_packets_up
                .resize(other.level_packets_up.len(), 0);
        }
        for (a, b) in self
            .level_packets_up
            .iter_mut()
            .zip(&other.level_packets_up)
        {
            *a = a.saturating_add(*b);
        }
        self.events_dropped = self.events_dropped.saturating_add(other.events_dropped);
    }

    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.interval_us.to_le_bytes());
        buf.extend_from_slice(&self.processes.to_le_bytes());
        encode_perf_counters(&self.counters, buf);
        self.wave_latency_us.encode(buf);
        self.filter_exec_ns.encode(buf);
        self.queue_depth.encode(buf);
        self.executor_wait_ns.encode(buf);
        self.executor_queue_depth.encode(buf);
        self.recovery_us.encode(buf);
        buf.extend_from_slice(&(self.level_packets_up.len() as u32).to_le_bytes());
        for v in &self.level_packets_up {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&self.events_dropped.to_le_bytes());
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<MetricsSample> {
        let seq = r.u64()?;
        let interval_us = r.u64()?;
        let processes = r.u32()?;
        let counters = decode_perf_counters(r)?;
        let wave_latency_us = LogHistogram::decode(r)?;
        let filter_exec_ns = LogHistogram::decode(r)?;
        let queue_depth = LogHistogram::decode(r)?;
        let executor_wait_ns = LogHistogram::decode(r)?;
        let executor_queue_depth = LogHistogram::decode(r)?;
        let recovery_us = LogHistogram::decode(r)?;
        let n = r.len_prefix(8)?;
        let mut level_packets_up = Vec::with_capacity(n);
        for _ in 0..n {
            level_packets_up.push(r.u64()?);
        }
        let events_dropped = r.u64()?;
        Ok(MetricsSample {
            seq,
            interval_us,
            processes,
            counters,
            wave_latency_us,
            filter_exec_ns,
            queue_depth,
            executor_wait_ns,
            executor_queue_depth,
            recovery_us,
            level_packets_up,
            events_dropped,
        })
    }

    pub fn encoded_len(&self) -> usize {
        8 + 8
            + 4
            + PERF_COUNTERS_WIRE_LEN
            + self.wave_latency_us.encoded_len()
            + self.filter_exec_ns.encoded_len()
            + self.queue_depth.encoded_len()
            + self.executor_wait_ns.encoded_len()
            + self.executor_queue_depth.encoded_len()
            + self.recovery_us.encoded_len()
            + 4
            + 8 * self.level_packets_up.len()
            + 8
    }

    /// Pack into the opaque-bytes payload a telemetry packet carries.
    pub fn to_value(&self) -> DataValue {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        DataValue::Bytes(buf)
    }

    pub fn from_value(v: &DataValue) -> Result<MetricsSample> {
        decode_exact(v, "metrics sample", Self::decode)
    }

    /// Prometheus text exposition: counters as `_total`, histograms with
    /// cumulative `_bucket{le=...}` plus `_p50`/`_p99` gauges, per-level
    /// packet counts labelled by depth.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, name: &str, v: u64| {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        };
        let counter = |out: &mut String, name: &str, v: u64| {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        };
        gauge(&mut out, "tbon_sample_seq", self.seq);
        gauge(&mut out, "tbon_sample_interval_us", self.interval_us);
        gauge(&mut out, "tbon_processes", self.processes as u64);
        let c = &self.counters;
        counter(&mut out, "tbon_packets_up_total", c.packets_up);
        counter(&mut out, "tbon_packets_down_total", c.packets_down);
        counter(&mut out, "tbon_waves_total", c.waves);
        counter(&mut out, "tbon_filter_out_total", c.filter_out);
        counter(&mut out, "tbon_filter_ns_total", c.filter_ns);
        counter(&mut out, "tbon_control_total", c.control);
        counter(&mut out, "tbon_frames_sent_total", c.frames_sent);
        counter(&mut out, "tbon_bytes_sent_total", c.bytes_sent);
        counter(&mut out, "tbon_encodes_total", c.encodes_performed);
        counter(&mut out, "tbon_sends_dropped_total", c.sends_dropped);
        counter(&mut out, "tbon_waves_executed_total", c.waves_executed);
        counter(&mut out, "tbon_filter_busy_us_total", c.filter_busy_us);
        counter(&mut out, "tbon_batches_sent_total", c.batches_sent);
        counter(&mut out, "tbon_frames_batched_total", c.frames_batched);
        counter(
            &mut out,
            "tbon_credits_stalled_us_total",
            c.credits_stalled_us,
        );
        counter(&mut out, "tbon_grants_sent_total", c.grants_sent);
        counter(&mut out, "tbon_window_closed_total", c.window_closed);
        counter(&mut out, "tbon_health_warnings_total", c.health_warnings);
        prom_histogram(&mut out, "tbon_wave_latency_us", &self.wave_latency_us);
        prom_histogram(&mut out, "tbon_filter_exec_ns", &self.filter_exec_ns);
        prom_histogram(&mut out, "tbon_queue_depth", &self.queue_depth);
        prom_histogram(&mut out, "tbon_executor_wait_ns", &self.executor_wait_ns);
        prom_histogram(
            &mut out,
            "tbon_executor_queue_depth",
            &self.executor_queue_depth,
        );
        prom_histogram(&mut out, "tbon_recovery_us", &self.recovery_us);
        out.push_str("# TYPE tbon_level_packets_up_total counter\n");
        for (lvl, v) in self.level_packets_up.iter().enumerate() {
            out.push_str(&format!(
                "tbon_level_packets_up_total{{level=\"{lvl}\"}} {v}\n"
            ));
        }
        counter(&mut out, "tbon_events_dropped_total", self.events_dropped);
        out
    }

    /// Single-line JSON suitable for appending to a `.jsonl` log.
    pub fn to_jsonl(&self) -> String {
        fn hist(h: &LogHistogram) -> String {
            format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.99)
            )
        }
        let c = &self.counters;
        let levels: Vec<String> = self.level_packets_up.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"seq\":{},\"interval_us\":{},\"processes\":{},",
                "\"packets_up\":{},\"packets_down\":{},\"waves\":{},",
                "\"filter_out\":{},\"filter_ns\":{},\"control\":{},",
                "\"frames_sent\":{},\"bytes_sent\":{},\"encodes\":{},",
                "\"sends_dropped\":{},\"waves_executed\":{},",
                "\"filter_busy_us\":{},\"batches_sent\":{},\"frames_batched\":{},",
                "\"credits_stalled_us\":{},\"grants_sent\":{},\"window_closed\":{},",
                "\"health_warnings\":{},",
                "\"wave_latency_us\":{},\"filter_exec_ns\":{},\"queue_depth\":{},",
                "\"executor_wait_ns\":{},\"executor_queue_depth\":{},",
                "\"recovery_us\":{},",
                "\"level_packets_up\":[{}],\"events_dropped\":{}}}"
            ),
            self.seq,
            self.interval_us,
            self.processes,
            c.packets_up,
            c.packets_down,
            c.waves,
            c.filter_out,
            c.filter_ns,
            c.control,
            c.frames_sent,
            c.bytes_sent,
            c.encodes_performed,
            c.sends_dropped,
            c.waves_executed,
            c.filter_busy_us,
            c.batches_sent,
            c.frames_batched,
            c.credits_stalled_us,
            c.grants_sent,
            c.window_closed,
            c.health_warnings,
            hist(&self.wave_latency_us),
            hist(&self.filter_exec_ns),
            hist(&self.queue_depth),
            hist(&self.executor_wait_ns),
            hist(&self.executor_queue_depth),
            hist(&self.recovery_us),
            levels.join(","),
            self.events_dropped,
        )
    }
}

impl PlanePayload for MetricsSample {
    fn from_payload(value: &DataValue) -> Result<Self> {
        Self::from_value(value)
    }

    /// Recovery is recorded at the front end (the supervisor lives there),
    /// so publishing processes leave [`MetricsSample::recovery_us`] empty
    /// on the wire and the handle fills it in on receipt.
    fn graft_recovery(&mut self, recovery: &parking_lot::Mutex<LogHistogram>) {
        self.recovery_us = recovery.lock().clone();
    }
}

fn prom_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (ceil, c) in h.buckets() {
        cum += c;
        out.push_str(&format!("{name}_bucket{{le=\"{ceil}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!(
        "{name}_sum {}\n{name}_count {}\n",
        h.sum(),
        h.count()
    ));
    out.push_str(&format!(
        "# TYPE {name}_p50 gauge\n{name}_p50 {}\n# TYPE {name}_p99 gauge\n{name}_p99 {}\n",
        h.quantile(0.5),
        h.quantile(0.99)
    ));
}

/// The built-in transformation behind [`METRICS_FILTER`]: folds every
/// `MetricsSample` in a wave into one. Samples that fail to decode are
/// skipped rather than failing the wave — a malformed publisher should not
/// take down the whole telemetry plane.
#[derive(Debug, Default)]
pub struct MetricsMerge;

impl Transformation for MetricsMerge {
    fn transform(&mut self, wave: Wave, ctx: &mut FilterContext) -> Result<Vec<Packet>> {
        let mut acc: Option<MetricsSample> = None;
        let mut tag = Tag(0);
        for pkt in &wave {
            let Ok(s) = MetricsSample::from_value(pkt.value()) else {
                continue;
            };
            tag = pkt.tag();
            match &mut acc {
                Some(a) => a.merge(&s),
                None => acc = Some(s),
            }
        }
        Ok(match acc {
            Some(s) => vec![ctx.make(tag, s.to_value())],
            None => Vec::new(),
        })
    }
}

/// One structured, timestamped lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedEvent {
    /// Microseconds since the recording process's epoch (see [`now_us`]).
    pub at_us: u64,
    /// Short machine-readable kind, e.g. `"stream_open"`, `"backend_lost"`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

impl LoggedEvent {
    /// Single-line JSON object (for the JSONL exporter).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"at_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.at_us,
            json_escape(&self.kind),
            json_escape(&self.detail)
        )
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Bounded drop-oldest ring of [`LoggedEvent`]s. Evictions are counted so
/// the telemetry plane can report loss instead of hiding it.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<LoggedEvent>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    pub fn new(cap: usize) -> Self {
        EventRing {
            buf: VecDeque::with_capacity(cap),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    pub fn push(&mut self, kind: &str, detail: impl Into<String>) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(LoggedEvent {
            at_us: now_us(),
            kind: kind.to_owned(),
            detail: detail.into(),
        });
    }

    /// Remove and return all buffered events (oldest first). The dropped
    /// counter is lifetime and survives draining.
    pub fn drain(&mut self) -> Vec<LoggedEvent> {
        self.buf.drain(..).collect()
    }

    /// Freeze-copy of the buffered events (oldest first) without draining
    /// — the flight recorder's view; a later `GetEvents` still sees them.
    pub fn snapshot(&self) -> Vec<LoggedEvent> {
        self.buf.iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Events drained from one process, plus how many it had to evict.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessEvents {
    pub events: Vec<LoggedEvent>,
    pub dropped: u64,
}

impl ProcessEvents {
    /// JSON-lines: one line per event, each tagged with the owning rank.
    pub fn to_jsonl(&self, rank: u32) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"rank\":{},\"at_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
                rank,
                ev.at_us,
                json_escape(&ev.kind),
                json_escape(&ev.detail)
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Distributed tracing: hop-level spans for sampled waves (DESIGN.md §12).
// ---------------------------------------------------------------------------

/// The stage of a wave's journey a [`TraceSpan`] measures. One variant per
/// place a sampled wave can spend time at a hop; the taxonomy is the span
/// vocabulary of DESIGN.md §12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// Back-end building and handing the packet to its parent link.
    BackendInject,
    /// A downstream frame parked behind a closed credit window
    /// (`detail` = the child rank whose window was closed).
    CreditPark,
    /// Handing a frame to a link writer, including any blocking on a full
    /// writer queue (the batching writer drains it asynchronously).
    WriterQueue,
    /// Decoding an inbound data frame at a communication process.
    Decode,
    /// A pooled wave waiting in the filter executor's queue.
    ExecutorQueue,
    /// The transformation filter running over the wave.
    FilterExec,
    /// First-child-frame to last-child-frame wait at an internal node
    /// (`detail` = the rank of the last child to arrive: the straggler).
    ChildMerge,
    /// An internal node sending the filtered wave to its parent.
    UpstreamSend,
}

impl TraceStage {
    /// Every stage, in wave order.
    pub const ALL: [TraceStage; 8] = [
        TraceStage::BackendInject,
        TraceStage::CreditPark,
        TraceStage::WriterQueue,
        TraceStage::Decode,
        TraceStage::ExecutorQueue,
        TraceStage::FilterExec,
        TraceStage::ChildMerge,
        TraceStage::UpstreamSend,
    ];

    /// Stable snake_case name (used by exporters and event names).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::BackendInject => "backend_inject",
            TraceStage::CreditPark => "credit_park",
            TraceStage::WriterQueue => "writer_queue",
            TraceStage::Decode => "decode",
            TraceStage::ExecutorQueue => "executor_queue",
            TraceStage::FilterExec => "filter_exec",
            TraceStage::ChildMerge => "child_merge",
            TraceStage::UpstreamSend => "upstream_send",
        }
    }

    fn code(self) -> u8 {
        match self {
            TraceStage::BackendInject => 0,
            TraceStage::CreditPark => 1,
            TraceStage::WriterQueue => 2,
            TraceStage::Decode => 3,
            TraceStage::ExecutorQueue => 4,
            TraceStage::FilterExec => 5,
            TraceStage::ChildMerge => 6,
            TraceStage::UpstreamSend => 7,
        }
    }

    fn from_code(c: u8) -> Result<TraceStage> {
        TraceStage::ALL
            .get(c as usize)
            .copied()
            .ok_or_else(|| TbonError::Decode(format!("unknown trace stage {c}")))
    }
}

/// One stage of one sampled wave at one process.
///
/// `start_us` is [`now_us`] **at the recording process** — epochs are
/// per-process, so start times are only comparable between spans of the
/// same rank. Durations are measured locally and are the only quantity
/// ever compared across processes (the clock rule of DESIGN.md §12; see
/// `examples/clock_skew.rs` for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// The sampled wave this span belongs to (nonzero).
    pub trace: u64,
    /// Process that recorded the span.
    pub rank: u32,
    /// Stream the wave travelled on.
    pub stream: u32,
    /// Which stage of the wave's journey this measures.
    pub stage: TraceStage,
    /// Local [`now_us`] when the stage began (per-process epoch!).
    pub start_us: u64,
    /// How long the stage took, microseconds (locally measured).
    pub dur_us: u64,
    /// Stage-specific attribution: the straggler child rank for
    /// [`TraceStage::ChildMerge`], the parked-for child rank for
    /// [`TraceStage::CreditPark`], 0 otherwise.
    pub detail: u64,
}

/// Exact wire size of one encoded [`TraceSpan`].
pub const TRACE_SPAN_WIRE_LEN: usize = 8 + 4 + 4 + 1 + 8 + 8 + 8;

impl BatchItem for TraceSpan {
    const MIN_WIRE_LEN: usize = TRACE_SPAN_WIRE_LEN;
    const WHAT: &'static str = "trace batch";

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.trace.to_le_bytes());
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.stream.to_le_bytes());
        buf.push(self.stage.code());
        buf.extend_from_slice(&self.start_us.to_le_bytes());
        buf.extend_from_slice(&self.dur_us.to_le_bytes());
        buf.extend_from_slice(&self.detail.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<TraceSpan> {
        let trace = r.u64()?;
        let rank = r.u32()?;
        let stream = r.u32()?;
        let stage = TraceStage::from_code(r.u8()?)?;
        let start_us = r.u64()?;
        let dur_us = r.u64()?;
        let detail = r.u64()?;
        Ok(TraceSpan {
            trace,
            rank,
            stream,
            stage,
            start_us,
            dur_us,
            detail,
        })
    }

    fn encoded_len(&self) -> usize {
        TRACE_SPAN_WIRE_LEN
    }
}

/// Bounded drop-oldest ring of [`TraceSpan`]s — one per process, sized by
/// [`crate::TraceConfig::ring_capacity`]. Evictions are counted so the
/// front-end can see sampling loss instead of silently missing spans.
#[derive(Debug)]
pub struct SpanRing {
    buf: VecDeque<TraceSpan>,
    cap: usize,
    dropped: u64,
}

impl SpanRing {
    pub fn new(cap: usize) -> Self {
        SpanRing {
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    pub fn push(&mut self, span: TraceSpan) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
    }

    /// Freeze-copy of the buffered spans (oldest first) without draining —
    /// the flight recorder's view; the trace stream still ships them.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        self.buf.iter().copied().collect()
    }

    /// Drain the oldest spans whose combined encoding fits `max_bytes`
    /// (at least one span if any are buffered, so a tiny cap cannot wedge
    /// the plane). Spans past the cap stay for the next interval.
    pub fn drain_batch(&mut self, max_bytes: usize) -> TraceBatch {
        let fit = (max_bytes / TRACE_SPAN_WIRE_LEN).max(1).min(self.buf.len());
        TraceBatch {
            dropped: self.dropped,
            items: self.buf.drain(..fit).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Spans in flight on the trace stream: one process's interval drain, or
/// — after passing through [`TraceGather`] — a subtree's. `dropped` counts
/// spans evicted from contributing rings plus spans cut by the gather cap.
pub type TraceBatch = Batch<TraceSpan>;

/// The built-in transformation behind [`TRACE_FILTER`]: the shared
/// [`CappedConcat`] gather over [`TraceSpan`]s.
#[derive(Debug)]
pub struct TraceGather {
    /// Encoded span bytes one gathered batch may carry.
    pub max_bytes: usize,
}

impl Default for TraceGather {
    fn default() -> Self {
        TraceGather {
            max_bytes: crate::config::TraceConfig::default().max_bytes_per_interval,
        }
    }
}

impl CappedConcat for TraceGather {
    type Item = TraceSpan;

    fn max_bytes(&self) -> usize {
        self.max_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterContext;
    use crate::packet::Rank;
    use crate::stream::StreamId;

    fn roundtrip_hist(h: &LogHistogram) -> LogHistogram {
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), h.encoded_len(), "encoded_len must be exact");
        let mut r = Reader::new(&buf);
        let back = LogHistogram::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 11_106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 10_000);
        let p50 = h.quantile(0.5);
        assert!((2..=100).contains(&p50), "p50 was {p50}");
        // Empty histogram reports zeros, not sentinels.
        let e = LogHistogram::new();
        assert_eq!((e.min(), e.max(), e.quantile(0.5)), (0, 0, 0));
        assert_eq!(e.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for (i, v) in [5u64, 80, 3, 900, 12, 0, u64::MAX, 7].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            all.record(*v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_codec_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [1u64, 1, 2, 65_000, 1 << 40, u64::MAX] {
            h.record(v);
        }
        assert_eq!(roundtrip_hist(&h), h);
        assert_eq!(roundtrip_hist(&LogHistogram::new()), LogHistogram::new());
    }

    fn sample_fixture(seed: u64) -> MetricsSample {
        let mut s = MetricsSample {
            seq: seed,
            interval_us: 100_000,
            processes: 1,
            ..MetricsSample::default()
        };
        s.counters.packets_up = seed * 3;
        s.counters.waves = seed;
        s.counters.waves_executed = seed;
        s.counters.filter_busy_us = seed * 11;
        s.counters.batches_sent = seed + 2;
        s.counters.frames_batched = seed * 4;
        s.counters.credits_stalled_us = seed * 7;
        s.counters.grants_sent = seed + 1;
        s.counters.window_closed = seed % 4;
        s.counters.health_warnings = seed % 3;
        s.wave_latency_us.record(seed + 1);
        s.recovery_us.record(seed * 1000 + 9);
        s.filter_exec_ns.record(seed * 100 + 7);
        s.queue_depth.record(seed % 5);
        s.executor_wait_ns.record(seed * 50 + 3);
        s.executor_queue_depth.record(seed % 3);
        s.level_packets_up = vec![0, seed, seed * 2];
        s.events_dropped = seed % 2;
        s
    }

    #[test]
    fn sample_codec_roundtrip() {
        let s = sample_fixture(42);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), s.encoded_len());
        let back = MetricsSample::from_value(&DataValue::Bytes(buf)).expect("decode");
        assert_eq!(back, s);
    }

    #[test]
    fn sample_merge_sums_and_extends_levels() {
        let mut a = sample_fixture(2);
        let b = sample_fixture(9);
        a.merge(&b);
        assert_eq!(a.seq, 9);
        assert_eq!(a.processes, 2);
        assert_eq!(a.counters.packets_up, 2 * 3 + 9 * 3);
        assert_eq!(a.level_packets_up, vec![0, 11, 22]);
        assert_eq!(a.wave_latency_us.count(), 2);

        // Merging in a sample with more levels grows the vector.
        let long = MetricsSample {
            level_packets_up: vec![1, 2, 3, 4],
            ..MetricsSample::default()
        };
        let mut short = MetricsSample {
            level_packets_up: vec![10],
            ..MetricsSample::default()
        };
        short.merge(&long);
        assert_eq!(short.level_packets_up, vec![11, 2, 3, 4]);
    }

    #[test]
    fn metrics_merge_filter_folds_wave_to_one_packet() {
        let mut f = MetricsMerge;
        let mut ctx = FilterContext::new(StreamId(7), Rank(1), false, 2);
        let wave = vec![
            Packet::new(StreamId(7), Tag(3), Rank(4), sample_fixture(1).to_value()),
            Packet::new(StreamId(7), Tag(3), Rank(5), sample_fixture(2).to_value()),
            // A junk packet must be skipped, not kill the wave.
            Packet::new(StreamId(7), Tag(3), Rank(6), DataValue::U64(99)),
        ];
        let out = f.transform(wave, &mut ctx).expect("merge");
        assert_eq!(out.len(), 1);
        let merged = MetricsSample::from_value(out[0].value()).expect("decode");
        assert_eq!(merged.processes, 2);
        assert_eq!(merged.seq, 2);
        assert_eq!(merged.counters.packets_up, 3 + 6);

        // A wave with no decodable samples yields nothing.
        let empty = f
            .transform(
                vec![Packet::new(StreamId(7), Tag(0), Rank(4), DataValue::Unit)],
                &mut ctx,
            )
            .expect("empty");
        assert!(empty.is_empty());
    }

    #[test]
    fn exporters_expose_quantiles() {
        let mut s = sample_fixture(5);
        for v in [10u64, 20, 30, 4000] {
            s.wave_latency_us.record(v);
        }
        let prom = s.to_prometheus();
        assert!(prom.contains("tbon_wave_latency_us_p50 "));
        assert!(prom.contains("tbon_wave_latency_us_p99 "));
        assert!(prom.contains("tbon_packets_up_total 15"));
        assert!(prom.contains("tbon_level_packets_up_total{level=\"1\"} 5"));
        assert!(prom.contains("_bucket{le=\"+Inf\"} "));
        let json = s.to_jsonl();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn event_ring_drops_oldest_and_counts() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push("tick", format!("event {i}"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "event 2");
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "dropped is lifetime");
        let json = ProcessEvents { events, dropped: 2 }.to_jsonl(3);
        assert_eq!(json.lines().count(), 3);
        assert!(json.contains("\"rank\":3"));
    }

    #[test]
    fn now_us_is_monotonic_and_nonzero() {
        let a = now_us();
        let b = now_us();
        assert!(a > 0);
        assert!(b >= a);
    }

    // -- satellite: exporter drift guard ------------------------------------

    /// Every `PerfCounters` field must surface in both text exporters. The
    /// struct literal below is deliberately exhaustive (no `..Default`):
    /// adding a counter field breaks this test at compile time until the
    /// sentinel — and therefore both exporters — are extended.
    #[test]
    fn exporters_cover_every_perf_counter_field() {
        let counters = PerfCounters {
            packets_up: 910_001,
            packets_down: 910_002,
            waves: 910_003,
            filter_out: 910_004,
            filter_ns: 910_005,
            control: 910_006,
            frames_sent: 910_007,
            bytes_sent: 910_008,
            encodes_performed: 910_009,
            sends_dropped: 910_010,
            waves_executed: 910_011,
            filter_busy_us: 910_012,
            batches_sent: 910_013,
            frames_batched: 910_014,
            credits_stalled_us: 910_015,
            grants_sent: 910_016,
            window_closed: 910_017,
            health_warnings: 910_018,
        };
        let sentinels = [
            ("packets_up", 910_001u64),
            ("packets_down", 910_002),
            ("waves", 910_003),
            ("filter_out", 910_004),
            ("filter_ns", 910_005),
            ("control", 910_006),
            ("frames_sent", 910_007),
            ("bytes_sent", 910_008),
            ("encodes_performed", 910_009),
            ("sends_dropped", 910_010),
            ("waves_executed", 910_011),
            ("filter_busy_us", 910_012),
            ("batches_sent", 910_013),
            ("frames_batched", 910_014),
            ("credits_stalled_us", 910_015),
            ("grants_sent", 910_016),
            ("window_closed", 910_017),
            ("health_warnings", 910_018),
        ];
        let mut s = MetricsSample {
            counters,
            ..MetricsSample::default()
        };
        // The supervisor's recovery histogram must surface too (it is
        // grafted into front-end samples by `MetricsHandle::recv`).
        s.recovery_us.record(920_001);
        let prom = s.to_prometheus();
        let json = s.to_jsonl();
        for (field, v) in sentinels {
            assert!(
                prom.contains(&format!(" {v}\n")),
                "to_prometheus dropped counter field `{field}` (= {v}):\n{prom}"
            );
            assert!(
                json.contains(&format!(":{v}")),
                "to_jsonl dropped counter field `{field}` (= {v}):\n{json}"
            );
        }
        assert!(
            prom.contains("tbon_recovery_us_sum 920001"),
            "to_prometheus dropped the recovery_us histogram:\n{prom}"
        );
        assert!(
            json.contains("\"recovery_us\":{\"count\":1,\"sum\":920001"),
            "to_jsonl dropped the recovery_us histogram:\n{json}"
        );
    }

    // -- satellite: quantile edge cases -------------------------------------

    #[test]
    fn quantile_edge_cases() {
        // Empty: everything is zero.
        let e = LogHistogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(e.quantile(q), 0, "empty histogram, q={q}");
        }
        // Single value: every quantile is that value.
        let mut one = LogHistogram::new();
        one.record(777);
        for q in [-0.5, 0.0, 0.25, 0.5, 1.0, 7.0] {
            assert_eq!(one.quantile(q), 777, "single-value histogram, q={q}");
        }
        // q=0 and q=1 are exactly min and max even though buckets are coarse.
        let mut h = LogHistogram::new();
        for v in [3u64, 900, 17, 65_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 65_000);
        // Saturating merge: u64::MAX counts neither wrap nor panic, and
        // quantiles still honour the observed range.
        let mut big = LogHistogram::new();
        big.record(u64::MAX);
        let mut sat = LogHistogram {
            counts: [u64::MAX; HISTOGRAM_BUCKETS],
            count: u64::MAX,
            sum: u64::MAX,
            min: 1,
            max: u64::MAX,
        };
        sat.merge(&big);
        assert_eq!(sat.count(), u64::MAX);
        assert_eq!(sat.sum(), u64::MAX);
        let q = sat.quantile(0.99);
        assert!((sat.min()..=sat.max()).contains(&q));
    }

    proptest::proptest! {
        /// After merging arbitrary histograms in arbitrary order, every
        /// quantile stays within the merged `[min, max]`.
        #[test]
        fn quantiles_bounded_by_min_max_after_merges(
            groups in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u64>(), 1..20),
                1..6,
            ),
            // Exclusive range (the offline proptest stub has no
            // RangeInclusive strategy); q = 1.0 is appended below.
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let mut merged = LogHistogram::new();
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for g in &groups {
                let mut h = LogHistogram::new();
                for &v in g {
                    h.record(v);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                merged.merge(&h);
            }
            proptest::prop_assert_eq!(merged.min(), lo);
            proptest::prop_assert_eq!(merged.max(), hi);
            for q in qs.iter().copied().chain([1.0]) {
                let v = merged.quantile(q);
                proptest::prop_assert!(
                    (lo..=hi).contains(&v),
                    "q={} gave {} outside [{}, {}]", q, v, lo, hi
                );
            }
        }
    }

    // -- tracing plane ------------------------------------------------------

    fn span(trace: u64, rank: u32, stage: TraceStage, dur: u64) -> TraceSpan {
        TraceSpan {
            trace,
            rank,
            stream: 5,
            stage,
            start_us: 1_000 + dur,
            dur_us: dur,
            detail: 0,
        }
    }

    #[test]
    fn trace_span_and_batch_roundtrip() {
        let b = TraceBatch {
            dropped: 3,
            items: vec![
                span(9, 1, TraceStage::BackendInject, 10),
                span(9, 2, TraceStage::ChildMerge, 500),
                TraceSpan {
                    trace: u64::MAX,
                    rank: 7,
                    stream: 2,
                    stage: TraceStage::UpstreamSend,
                    start_us: u64::MAX,
                    dur_us: 0,
                    detail: 11,
                },
            ],
        };
        let mut buf = Vec::new();
        b.encode(&mut buf);
        assert_eq!(buf.len(), b.encoded_len());
        assert_eq!(
            buf.len(),
            8 + 4 + 3 * TRACE_SPAN_WIRE_LEN,
            "span wire length constant drifted"
        );
        let back = TraceBatch::from_value(&DataValue::Bytes(buf.clone())).unwrap();
        assert_eq!(back, b);
        // Truncation anywhere must fail, never panic.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(TraceBatch::decode(&mut r).is_err(), "prefix {cut}");
        }
        // Every stage code roundtrips and has a distinct name.
        let mut names = std::collections::HashSet::new();
        for st in TraceStage::ALL {
            assert_eq!(TraceStage::from_code(st.code()).unwrap(), st);
            assert!(names.insert(st.name()));
        }
        assert!(TraceStage::from_code(200).is_err());
    }

    #[test]
    fn span_ring_bounds_and_byte_capped_drain() {
        let mut ring = SpanRing::new(4);
        for i in 0..6 {
            ring.push(span(i, 0, TraceStage::Decode, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2, "oldest evicted and counted");
        // A cap of two spans' worth of bytes drains exactly two (oldest
        // first), leaving the rest for the next interval.
        let batch = ring.drain_batch(2 * TRACE_SPAN_WIRE_LEN);
        assert_eq!(batch.items.len(), 2);
        assert_eq!(batch.items[0].trace, 2);
        assert_eq!(batch.dropped, 2);
        assert_eq!(ring.len(), 2);
        // A degenerate cap still makes progress: one span per drain.
        let batch = ring.drain_batch(1);
        assert_eq!(batch.items.len(), 1);
        assert!(!ring.is_empty());
        ring.drain_batch(usize::MAX);
        assert!(ring.is_empty());
    }
}
