//! Health plane + flight recorder (DESIGN.md §13).
//!
//! Two cooperating mechanisms:
//!
//! 1. **Continuous health scoring.** Every communication process folds the
//!    signals it already counts — writer queue depth, executor queue
//!    depth, credit-stall time, child-merge straggler gaps, dropped sends —
//!    into per-signal EWMA baselines ([`HealthMonitor`]). A sample that
//!    exceeds both the signal's absolute floor and `warn_ratio ×` its
//!    baseline raises a [`crate::NetEvent::HealthWarning`].
//!
//! 2. **Flight recorder.** On a failure-detector firing, a supervisor
//!    heal/degrade, a flow-silent window, or a health warning, the process
//!    freeze-copies its span ring, event ring, counter delta, flow-window
//!    state and local topology into a bounded [`IncidentBundle`]. Bundles
//!    ship in-band on a dedicated stream (the [`INCIDENT_FILTER`]
//!    built-in, same pattern as `telemetry::trace_gather`); ancestors
//!    forwarding a bundle append their own *neighbor* bundle so the front
//!    end sees the failure from both sides of the link. The front end
//!    hands bundles to [`Diagnosis`], which runs rule-based root-cause
//!    classification — slow-child vs dead-link vs executor-saturation vs
//!    credit-starvation vs partition — and emits ranked [`Verdict`]s with
//!    the evidence that produced them.
//!
//! The clock rule of DESIGN.md §12 applies: every timestamp in a bundle is
//! the recording process's local `now_us` epoch. Diagnosis only ever
//! compares timestamps *within* one bundle, never across ranks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::codec::Reader;
use crate::error::{Result, TbonError};
use crate::packet::Rank;
use crate::plane::{Batch, BatchItem, CappedConcat};
use crate::proto::{
    decode_perf_counters, encode_perf_counters, PerfCounters, PERF_COUNTERS_WIRE_LEN,
};
use crate::telemetry::{json_escape, LoggedEvent, TraceSpan, TRACE_SPAN_WIRE_LEN};

/// Registry name of the built-in bundle-gathering transformation (the
/// health plane's analogue of `telemetry::trace_gather`).
pub const INCIDENT_FILTER: &str = "health::incident_gather";

/// Event-ring kinds that mean "a child stopped contributing" — the inputs
/// to the partition-vs-dead-link distinction.
const LOST_KINDS: [&str; 3] = ["backend_lost", "subtree_orphaned", "flow_silent"];

/// How far back (µs, local clock) classification looks for loss events
/// around an incident's capture time.
const RECENT_WINDOW_US: u64 = 5_000_000;

// ---------------------------------------------------------------------------
// Health signals and scoring
// ---------------------------------------------------------------------------

/// The per-process signals the health plane baselines. Every one is a
/// counter or gauge the process already maintains — sampling costs a few
/// subtractions per check interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthSignal {
    /// Deepest outbound writer queue across child links, frames.
    WriterQueue,
    /// Deepest filter-pool worker queue, waves.
    ExecutorQueue,
    /// Microseconds downstream sends spent parked behind closed credit
    /// windows this interval (delta of `credits_stalled_us`).
    CreditStall,
    /// Largest first-to-last child arrival gap in a completed wave merge
    /// this interval, µs; the subject is the straggling child.
    StragglerGap,
    /// Sends abandoned this interval (delta of `sends_dropped`).
    SendFailures,
}

impl HealthSignal {
    /// Every signal, in code order.
    pub const ALL: [HealthSignal; 5] = [
        HealthSignal::WriterQueue,
        HealthSignal::ExecutorQueue,
        HealthSignal::CreditStall,
        HealthSignal::StragglerGap,
        HealthSignal::SendFailures,
    ];

    /// Stable snake_case name (used by exporters and event details).
    pub fn name(self) -> &'static str {
        match self {
            HealthSignal::WriterQueue => "writer_queue",
            HealthSignal::ExecutorQueue => "executor_queue",
            HealthSignal::CreditStall => "credit_stall",
            HealthSignal::StragglerGap => "straggler_gap",
            HealthSignal::SendFailures => "send_failures",
        }
    }

    pub fn code(self) -> u8 {
        match self {
            HealthSignal::WriterQueue => 0,
            HealthSignal::ExecutorQueue => 1,
            HealthSignal::CreditStall => 2,
            HealthSignal::StragglerGap => 3,
            HealthSignal::SendFailures => 4,
        }
    }

    pub fn from_code(c: u8) -> Result<HealthSignal> {
        HealthSignal::ALL
            .get(c as usize)
            .copied()
            .ok_or_else(|| TbonError::Decode(format!("unknown health signal {c}")))
    }

    /// Absolute floor a sample must reach before it can warn, whatever the
    /// baseline says. Keeps a quiet tree (baseline ≈ 0) from alarming on
    /// the first nonzero blip.
    pub fn floor(self) -> u64 {
        match self {
            HealthSignal::WriterQueue => 8,
            HealthSignal::ExecutorQueue => 8,
            HealthSignal::CreditStall => 20_000,
            HealthSignal::StragglerGap => 100_000,
            HealthSignal::SendFailures => 1,
        }
    }
}

/// One signal's current reading against its learned baseline, for one
/// subject (a child/peer rank, or the process itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthScore {
    pub signal: HealthSignal,
    /// The rank the signal concerns: a specific child for
    /// [`HealthSignal::StragglerGap`], the process itself otherwise.
    pub subject: Rank,
    /// The sample that was observed.
    pub value: u64,
    /// The EWMA baseline *before* the sample was folded in.
    pub baseline: u64,
}

/// Exact wire size of one encoded [`HealthScore`].
pub const HEALTH_SCORE_WIRE_LEN: usize = 1 + 4 + 8 + 8;

impl HealthScore {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.signal.code());
        buf.extend_from_slice(&self.subject.0.to_le_bytes());
        buf.extend_from_slice(&self.value.to_le_bytes());
        buf.extend_from_slice(&self.baseline.to_le_bytes());
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<HealthScore> {
        Ok(HealthScore {
            signal: HealthSignal::from_code(r.u8()?)?,
            subject: Rank(r.u32()?),
            value: r.u64()?,
            baseline: r.u64()?,
        })
    }
}

/// EWMA weight for new samples (1/8: responsive enough to track load
/// shifts, slow enough that one spike doesn't poison the baseline it is
/// judged against).
const EWMA_ALPHA: f64 = 0.125;

#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    ewma: f64,
    samples: u32,
    last_value: u64,
    last_subject: u32,
    last_warn_us: u64,
}

/// Per-process continuous health scoring: one EWMA baseline per signal,
/// warning on floor-and-ratio threshold crossings with per-signal debounce.
///
/// The baseline is the *process's* normal for the signal, whoever the
/// subject of a given sample is. For [`HealthSignal::StragglerGap`] that
/// means a child is judged against the gaps this process usually sees
/// from all of its children — a baseline kept per child would warm up on
/// the slow child's own faulty samples and absorb the fault before it
/// could ever cross.
#[derive(Debug)]
pub struct HealthMonitor {
    warn_ratio: u32,
    warmup_samples: u32,
    min_gap_us: u64,
    baselines: [Baseline; HealthSignal::ALL.len()],
}

impl HealthMonitor {
    pub fn new(warn_ratio: u32, warmup_samples: u32, min_gap_us: u64) -> Self {
        HealthMonitor {
            warn_ratio: warn_ratio.max(1),
            warmup_samples,
            min_gap_us,
            baselines: Default::default(),
        }
    }

    /// Fold one sample in; returns the crossing score if it warrants a
    /// warning. A warning fires when the baseline has warmed up, the
    /// sample reaches the signal's absolute floor, exceeds `warn_ratio ×`
    /// the pre-sample baseline, and the signal's debounce gap has elapsed.
    pub fn observe(
        &mut self,
        signal: HealthSignal,
        subject: Rank,
        value: u64,
        now_us: u64,
    ) -> Option<HealthScore> {
        let b = &mut self.baselines[signal.code() as usize];
        let before = b.ewma;
        b.ewma = EWMA_ALPHA * value as f64 + (1.0 - EWMA_ALPHA) * b.ewma;
        b.samples = b.samples.saturating_add(1);
        b.last_value = value;
        b.last_subject = subject.0;
        let warmed = b.samples > self.warmup_samples;
        let crossed =
            value >= signal.floor() && value as f64 > self.warn_ratio as f64 * before.max(1.0);
        let debounced = now_us.saturating_sub(b.last_warn_us) >= self.min_gap_us;
        if warmed && crossed && debounced {
            b.last_warn_us = now_us;
            Some(HealthScore {
                signal,
                subject,
                value,
                baseline: before as u64,
            })
        } else {
            None
        }
    }

    /// Snapshot every sampled baseline as a [`HealthScore`] (value and
    /// subject = last sample, baseline = current EWMA) — the health
    /// section of an incident bundle.
    pub fn scores(&self) -> Vec<HealthScore> {
        HealthSignal::ALL
            .into_iter()
            .zip(&self.baselines)
            .filter(|(_, b)| b.samples > 0)
            .map(|(signal, b)| HealthScore {
                signal,
                subject: Rank(b.last_subject),
                value: b.last_value,
                baseline: b.ewma as u64,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Incident bundles
// ---------------------------------------------------------------------------

/// What tripped the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentReason {
    /// The failure detector declared a child dead (link closed, writer
    /// deadline, shutdown without ack).
    ChildLost,
    /// A child's credit window stayed closed past the grant deadline.
    FlowSilent,
    /// A health-score threshold crossing.
    HealthWarning,
    /// The supervisor finished a heal involving this process's subtree.
    SupervisorHeal,
    /// The supervisor gave up on a recovery.
    SupervisorDegrade,
    /// Not a local trigger: this process appended its own state while
    /// forwarding someone else's bundle upstream (the neighbor view).
    Neighbor,
}

impl IncidentReason {
    pub const ALL: [IncidentReason; 6] = [
        IncidentReason::ChildLost,
        IncidentReason::FlowSilent,
        IncidentReason::HealthWarning,
        IncidentReason::SupervisorHeal,
        IncidentReason::SupervisorDegrade,
        IncidentReason::Neighbor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IncidentReason::ChildLost => "child_lost",
            IncidentReason::FlowSilent => "flow_silent",
            IncidentReason::HealthWarning => "health_warning",
            IncidentReason::SupervisorHeal => "supervisor_heal",
            IncidentReason::SupervisorDegrade => "supervisor_degrade",
            IncidentReason::Neighbor => "neighbor",
        }
    }

    pub fn code(self) -> u8 {
        match self {
            IncidentReason::ChildLost => 0,
            IncidentReason::FlowSilent => 1,
            IncidentReason::HealthWarning => 2,
            IncidentReason::SupervisorHeal => 3,
            IncidentReason::SupervisorDegrade => 4,
            IncidentReason::Neighbor => 5,
        }
    }

    pub fn from_code(c: u8) -> Result<IncidentReason> {
        IncidentReason::ALL
            .get(c as usize)
            .copied()
            .ok_or_else(|| TbonError::Decode(format!("unknown incident reason {c}")))
    }
}

/// Freeze-copy of one child's credit-window and parked-FIFO state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSummary {
    pub child: Rank,
    /// Frames of credit the child still holds open.
    pub credit_frames: u64,
    /// Bytes of credit the child still holds open.
    pub credit_bytes: u64,
    /// Frames parked in the child's FIFO behind a closed window.
    pub parked_frames: u64,
    /// Payload bytes parked behind the closed window.
    pub parked_bytes: u64,
    /// How long the window has been continuously closed, µs (0 = open).
    pub closed_for_us: u64,
}

/// Exact wire size of one encoded [`FlowSummary`].
pub const FLOW_SUMMARY_WIRE_LEN: usize = 4 + 8 * 5;

impl FlowSummary {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.child.0.to_le_bytes());
        for v in [
            self.credit_frames,
            self.credit_bytes,
            self.parked_frames,
            self.parked_bytes,
            self.closed_for_us,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<FlowSummary> {
        Ok(FlowSummary {
            child: Rank(r.u32()?),
            credit_frames: r.u64()?,
            credit_bytes: r.u64()?,
            parked_frames: r.u64()?,
            parked_bytes: r.u64()?,
            closed_for_us: r.u64()?,
        })
    }
}

/// The flight recorder's output: one process's forensic state, frozen at
/// the moment an incident trigger fired.
///
/// Every `*_us` field is the recording process's local clock. `truncate_to`
/// bounds the encoding by shedding the oldest spans, then the oldest
/// events — the newest forensics are the relevant ones.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentBundle {
    /// Incident id: `recording_rank << 32 | local incident seq`. Neighbor
    /// bundles appended while forwarding carry the *original* incident id,
    /// which is what groups the two sides of a link in [`Diagnosis`].
    pub incident: u64,
    /// The process that recorded this bundle.
    pub rank: Rank,
    pub reason: IncidentReason,
    /// The rank the incident concerns (the lost child, the straggler, the
    /// healed subtree root; `rank` itself for process-wide triggers).
    pub subject: Rank,
    /// Local capture time.
    pub at_us: u64,
    /// Parent in the local topology view; `u32::MAX` when the recorder is
    /// the front-end.
    pub parent: Rank,
    /// Children in the local topology view at capture time.
    pub children: Vec<Rank>,
    /// Counter delta since the previous capture (or process start).
    pub counters: PerfCounters,
    /// The threshold crossing that fired, when the reason is
    /// [`IncidentReason::HealthWarning`].
    pub trigger: Option<HealthScore>,
    /// Every tracked baseline at capture time.
    pub scores: Vec<HealthScore>,
    /// Per-child credit-window state at capture time.
    pub flow: Vec<FlowSummary>,
    /// Freeze-copy of the event ring (oldest first, not drained).
    pub events: Vec<LoggedEvent>,
    /// Freeze-copy of the span ring (oldest first, not drained).
    pub spans: Vec<TraceSpan>,
}

impl BatchItem for IncidentBundle {
    /// A bundle with no children, trigger, scores, flow, events or spans:
    /// its fixed header and the five empty length prefixes.
    const MIN_WIRE_LEN: usize = 8 + 4 + 1 + 4 + 8 + 4 + 4 + PERF_COUNTERS_WIRE_LEN + 1 + 4 * 4;
    const WHAT: &'static str = "incident batch";

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.incident.to_le_bytes());
        buf.extend_from_slice(&self.rank.0.to_le_bytes());
        buf.push(self.reason.code());
        buf.extend_from_slice(&self.subject.0.to_le_bytes());
        buf.extend_from_slice(&self.at_us.to_le_bytes());
        buf.extend_from_slice(&self.parent.0.to_le_bytes());
        buf.extend_from_slice(&(self.children.len() as u32).to_le_bytes());
        for c in &self.children {
            buf.extend_from_slice(&c.0.to_le_bytes());
        }
        encode_perf_counters(&self.counters, buf);
        match &self.trigger {
            Some(t) => {
                buf.push(1);
                t.encode(buf);
            }
            None => buf.push(0),
        }
        buf.extend_from_slice(&(self.scores.len() as u32).to_le_bytes());
        for s in &self.scores {
            s.encode(buf);
        }
        buf.extend_from_slice(&(self.flow.len() as u32).to_le_bytes());
        for f in &self.flow {
            f.encode(buf);
        }
        buf.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for ev in &self.events {
            buf.extend_from_slice(&ev.at_us.to_le_bytes());
            buf.extend_from_slice(&(ev.kind.len() as u32).to_le_bytes());
            buf.extend_from_slice(ev.kind.as_bytes());
            buf.extend_from_slice(&(ev.detail.len() as u32).to_le_bytes());
            buf.extend_from_slice(ev.detail.as_bytes());
        }
        buf.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        for s in &self.spans {
            s.encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<IncidentBundle> {
        let incident = r.u64()?;
        let rank = Rank(r.u32()?);
        let reason = IncidentReason::from_code(r.u8()?)?;
        let subject = Rank(r.u32()?);
        let at_us = r.u64()?;
        let parent = Rank(r.u32()?);
        let n = r.len_prefix(4)?;
        let mut children = Vec::with_capacity(n);
        for _ in 0..n {
            children.push(Rank(r.u32()?));
        }
        let counters = decode_perf_counters(r)?;
        let trigger = match r.u8()? {
            0 => None,
            1 => Some(HealthScore::decode(r)?),
            other => {
                return Err(TbonError::Decode(format!(
                    "bad trigger flag {other} in incident bundle"
                )))
            }
        };
        let n = r.len_prefix(HEALTH_SCORE_WIRE_LEN)?;
        let mut scores = Vec::with_capacity(n);
        for _ in 0..n {
            scores.push(HealthScore::decode(r)?);
        }
        let n = r.len_prefix(FLOW_SUMMARY_WIRE_LEN)?;
        let mut flow = Vec::with_capacity(n);
        for _ in 0..n {
            flow.push(FlowSummary::decode(r)?);
        }
        let n = r.len_prefix(16)?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let at_us = r.u64()?;
            let kind = r.str()?;
            let detail = r.str()?;
            events.push(LoggedEvent {
                at_us,
                kind,
                detail,
            });
        }
        let n = r.len_prefix(TRACE_SPAN_WIRE_LEN)?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            spans.push(TraceSpan::decode(r)?);
        }
        Ok(IncidentBundle {
            incident,
            rank,
            reason,
            subject,
            at_us,
            parent,
            children,
            counters,
            trigger,
            scores,
            flow,
            events,
            spans,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 4
            + 1
            + 4
            + 8
            + 4
            + 4
            + 4 * self.children.len()
            + PERF_COUNTERS_WIRE_LEN
            + 1
            + self.trigger.map_or(0, |_| HEALTH_SCORE_WIRE_LEN)
            + 4
            + HEALTH_SCORE_WIRE_LEN * self.scores.len()
            + 4
            + FLOW_SUMMARY_WIRE_LEN * self.flow.len()
            + 4
            + self
                .events
                .iter()
                .map(|ev| 8 + 4 + ev.kind.len() + 4 + ev.detail.len())
                .sum::<usize>()
            + 4
            + TRACE_SPAN_WIRE_LEN * self.spans.len()
    }
}

impl IncidentBundle {
    /// Shed the oldest spans, then the oldest events, until the encoding
    /// fits `max_bytes`. The fixed header always survives.
    pub fn truncate_to(&mut self, max_bytes: usize) {
        while self.encoded_len() > max_bytes && !self.spans.is_empty() {
            let excess = self.encoded_len() - max_bytes;
            let cut = excess.div_ceil(TRACE_SPAN_WIRE_LEN).min(self.spans.len());
            self.spans.drain(..cut);
        }
        while self.encoded_len() > max_bytes && !self.events.is_empty() {
            self.events.remove(0);
        }
    }

    /// The recording rank encoded in the incident id.
    pub fn origin_rank(&self) -> u32 {
        (self.incident >> 32) as u32
    }

    /// Single-line JSON object (for `tbon doctor --json` and saved
    /// bundles).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"incident\":\"{:#018x}\",\"rank\":{},\"reason\":\"{}\",\"subject\":{},\
             \"at_us\":{},\"parent\":{},\"children\":[{}]",
            self.incident,
            self.rank.0,
            self.reason.name(),
            self.subject.0,
            self.at_us,
            self.parent.0,
            self.children
                .iter()
                .map(|c| c.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        if let Some(t) = &self.trigger {
            let _ = write!(
                out,
                ",\"trigger\":{{\"signal\":\"{}\",\"subject\":{},\"value\":{},\"baseline\":{}}}",
                t.signal.name(),
                t.subject.0,
                t.value,
                t.baseline
            );
        }
        out.push_str(",\"scores\":[");
        for (i, s) in self.scores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"signal\":\"{}\",\"subject\":{},\"value\":{},\"baseline\":{}}}",
                s.signal.name(),
                s.subject.0,
                s.value,
                s.baseline
            );
        }
        out.push_str("],\"flow\":[");
        for (i, f) in self.flow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"child\":{},\"credit_frames\":{},\"credit_bytes\":{},\"parked_frames\":{},\
                 \"parked_bytes\":{},\"closed_for_us\":{}}}",
                f.child.0,
                f.credit_frames,
                f.credit_bytes,
                f.parked_frames,
                f.parked_bytes,
                f.closed_for_us
            );
        }
        out.push_str("],\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                ev.at_us,
                json_escape(&ev.kind),
                json_escape(&ev.detail)
            );
        }
        let _ = write!(out, "],\"span_count\":{}}}", self.spans.len());
        out
    }
}

/// Bundles in flight on the incident stream: one process's capture, or —
/// after passing through [`IncidentGather`] — several processes' views of
/// (usually) the same incident. `dropped` counts bundles cut by the gather
/// byte cap before reaching the front end.
pub type IncidentBatch = Batch<IncidentBundle>;

/// The built-in transformation behind [`INCIDENT_FILTER`]: the shared
/// [`CappedConcat`] gather over [`IncidentBundle`]s.
#[derive(Debug)]
pub struct IncidentGather {
    /// Encoded bundle bytes one gathered batch may carry.
    pub max_bytes: usize,
}

impl Default for IncidentGather {
    fn default() -> Self {
        IncidentGather {
            // Room for a handful of default-sized bundles per wave.
            max_bytes: 4 * crate::config::HealthConfig::default().bundle_max_bytes,
        }
    }
}

impl CappedConcat for IncidentGather {
    type Item = IncidentBundle;

    fn max_bytes(&self) -> usize {
        self.max_bytes
    }
}

// ---------------------------------------------------------------------------
// Diagnosis: rule-based root-cause classification
// ---------------------------------------------------------------------------

/// The fault taxonomy the diagnosis engine classifies into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A link or process died outright: one child stopped contributing.
    DeadLink,
    /// A child is alive but persistently slower than its siblings.
    SlowChild,
    /// The filter-execution plane can't keep up with wave arrival.
    ExecutorSaturation,
    /// Downstream progress is starved behind closed credit windows.
    CreditStarvation,
    /// Multiple children vanished together: a network partition, not an
    /// isolated death.
    Partition,
}

impl FaultClass {
    pub const ALL: [FaultClass; 5] = [
        FaultClass::DeadLink,
        FaultClass::SlowChild,
        FaultClass::ExecutorSaturation,
        FaultClass::CreditStarvation,
        FaultClass::Partition,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultClass::DeadLink => "dead-link",
            FaultClass::SlowChild => "slow-child",
            FaultClass::ExecutorSaturation => "executor-saturation",
            FaultClass::CreditStarvation => "credit-starvation",
            FaultClass::Partition => "partition",
        }
    }
}

/// One classified root cause with its confidence and the evidence lines
/// that produced the score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub class: FaultClass,
    /// Confidence, 0–100. Ranked verdicts are sorted descending.
    pub score: u32,
    /// Human-readable evidence, one finding per line.
    pub evidence: Vec<String>,
}

/// Every bundle collected for one incident id: the primary capture plus
/// the neighbor views ancestors appended in flight.
#[derive(Debug, Clone, Default)]
pub struct Incident {
    pub id: u64,
    pub bundles: Vec<IncidentBundle>,
}

impl Incident {
    /// The bundle that tripped the recorder (the first non-neighbor view;
    /// falls back to the first bundle).
    pub fn primary(&self) -> Option<&IncidentBundle> {
        self.bundles
            .iter()
            .find(|b| b.reason != IncidentReason::Neighbor)
            .or_else(|| self.bundles.first())
    }

    /// Children the primary recorder saw stop contributing close to the
    /// capture (distinct event subjects within [`RECENT_WINDOW_US`]).
    fn recent_losses(&self) -> Vec<String> {
        let Some(p) = self.primary() else {
            return Vec::new();
        };
        let mut lost: Vec<String> = Vec::new();
        for ev in &p.events {
            if LOST_KINDS.contains(&ev.kind.as_str())
                && ev.at_us + RECENT_WINDOW_US >= p.at_us
                && !lost.contains(&ev.detail)
            {
                lost.push(ev.detail.clone());
            }
        }
        lost
    }

    /// Run the classification rules; returns every applicable verdict,
    /// highest confidence first (ties break on the class order of
    /// [`FaultClass::ALL`] for determinism).
    pub fn classify(&self) -> Vec<Verdict> {
        let Some(p) = self.primary() else {
            return Vec::new();
        };
        let lost = self.recent_losses();
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut add = |class: FaultClass, score: u32, evidence: Vec<String>| {
            verdicts.push(Verdict {
                class,
                score: score.min(100),
                evidence,
            });
        };

        // Partition: several children vanished around the same capture.
        if lost.len() >= 2 {
            let mut ev = vec![format!(
                "rank {} lost {} children within {}s: [{}]",
                p.rank.0,
                lost.len(),
                RECENT_WINDOW_US / 1_000_000,
                lost.join(", ")
            )];
            if p.counters.sends_dropped > 0 {
                ev.push(format!(
                    "{} sends dropped in the capture window",
                    p.counters.sends_dropped
                ));
            }
            add(FaultClass::Partition, 70 + 10 * lost.len() as u32, ev);
        }

        // Dead link: a loss-triggered capture with a single casualty.
        if matches!(
            p.reason,
            IncidentReason::ChildLost | IncidentReason::FlowSilent
        ) && lost.len() <= 1
        {
            let mut score = 70;
            let mut ev = vec![format!(
                "rank {} declared child {} dead ({})",
                p.rank.0,
                p.subject.0,
                p.reason.name()
            )];
            if p.counters.sends_dropped > 0 {
                score += 10;
                ev.push(format!(
                    "{} sends dropped toward the lost child",
                    p.counters.sends_dropped
                ));
            }
            if let Some(f) = p.flow.iter().find(|f| f.child == p.subject) {
                if f.closed_for_us > 0 {
                    ev.push(format!(
                        "its credit window had been closed for {}us with {} frames parked",
                        f.closed_for_us, f.parked_frames
                    ));
                }
            }
            add(FaultClass::DeadLink, score, ev);
        }

        // Supervisor-reported incidents: the heal already named the
        // casualty; count the surrounding losses for the class.
        if matches!(
            p.reason,
            IncidentReason::SupervisorHeal | IncidentReason::SupervisorDegrade
        ) && lost.len() <= 1
        {
            add(
                FaultClass::DeadLink,
                65,
                vec![format!(
                    "supervisor {} involving rank {}",
                    p.reason.name(),
                    p.subject.0
                )],
            );
        }

        // Signal-triggered rules.
        if let Some(t) = &p.trigger {
            match t.signal {
                HealthSignal::StragglerGap => {
                    let mut score = 75;
                    let mut ev = vec![format!(
                        "child {} straggled {}us behind its siblings (baseline {}us)",
                        t.subject.0, t.value, t.baseline
                    )];
                    let named = p
                        .spans
                        .iter()
                        .filter(|s| {
                            s.stage == crate::telemetry::TraceStage::ChildMerge
                                && s.detail as u32 == t.subject.0
                        })
                        .count();
                    if named > 0 {
                        score += 10;
                        ev.push(format!(
                            "{named} traced child_merge spans name rank {} as the straggler",
                            t.subject.0
                        ));
                    }
                    add(FaultClass::SlowChild, score, ev);
                }
                HealthSignal::ExecutorQueue => {
                    let mut score = 75;
                    let mut ev = vec![format!(
                        "filter-pool queue depth {} vs baseline {}",
                        t.value, t.baseline
                    )];
                    if p.counters.filter_busy_us > 0 {
                        score += 5;
                        ev.push(format!(
                            "filters kept workers busy {}us in the capture window",
                            p.counters.filter_busy_us
                        ));
                    }
                    add(FaultClass::ExecutorSaturation, score, ev);
                }
                HealthSignal::CreditStall => {
                    let mut score = 75;
                    let mut ev = vec![format!(
                        "downstream sends stalled {}us behind closed windows (baseline {}us)",
                        t.value, t.baseline
                    )];
                    let closed: Vec<&FlowSummary> =
                        p.flow.iter().filter(|f| f.closed_for_us > 0).collect();
                    if !closed.is_empty() {
                        score += 10;
                        for f in &closed {
                            ev.push(format!(
                                "child {} window closed for {}us, {} frames / {} bytes parked",
                                f.child.0, f.closed_for_us, f.parked_frames, f.parked_bytes
                            ));
                        }
                    }
                    add(FaultClass::CreditStarvation, score, ev);
                }
                HealthSignal::WriterQueue => {
                    add(
                        FaultClass::SlowChild,
                        60,
                        vec![format!(
                            "outbound writer queue depth {} vs baseline {}",
                            t.value, t.baseline
                        )],
                    );
                }
                HealthSignal::SendFailures => {
                    add(
                        FaultClass::DeadLink,
                        65,
                        vec![format!(
                            "{} sends abandoned this interval (baseline {})",
                            t.value, t.baseline
                        )],
                    );
                }
            }
        }

        // Weak corroborating signals from the baseline snapshot, so every
        // incident gets at least one verdict even without a trigger.
        if verdicts.is_empty() {
            for s in &p.scores {
                if s.value >= s.signal.floor() {
                    let (class, label) = match s.signal {
                        HealthSignal::StragglerGap | HealthSignal::WriterQueue => {
                            (FaultClass::SlowChild, "straggler/writer pressure")
                        }
                        HealthSignal::ExecutorQueue => {
                            (FaultClass::ExecutorSaturation, "executor backlog")
                        }
                        HealthSignal::CreditStall => {
                            (FaultClass::CreditStarvation, "credit stalls")
                        }
                        HealthSignal::SendFailures => (FaultClass::DeadLink, "send failures"),
                    };
                    verdicts.push(Verdict {
                        class,
                        score: 30,
                        evidence: vec![format!(
                            "{label}: {} at {} vs baseline {}",
                            s.signal.name(),
                            s.value,
                            s.baseline
                        )],
                    });
                }
            }
        }

        verdicts.sort_by_key(|v| {
            (
                std::cmp::Reverse(v.score),
                FaultClass::ALL.iter().position(|&c| c == v.class),
            )
        });
        verdicts
    }
}

/// Front-end diagnosis engine: groups [`IncidentBundle`]s by incident id
/// and classifies each incident's root cause.
#[derive(Debug, Default)]
pub struct Diagnosis {
    incidents: BTreeMap<u64, Incident>,
    /// Bundles cut before reaching the front end (max across batches —
    /// the counter is a lifetime value at each gatherer).
    dropped: u64,
}

impl Diagnosis {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one received batch in.
    pub fn absorb(&mut self, batch: &IncidentBatch) {
        self.dropped = self.dropped.max(batch.dropped);
        for b in &batch.items {
            self.absorb_bundle(b.clone());
        }
    }

    /// Fold one bundle in (offline replay path).
    pub fn absorb_bundle(&mut self, bundle: IncidentBundle) {
        let inc = self
            .incidents
            .entry(bundle.incident)
            .or_insert_with(|| Incident {
                id: bundle.incident,
                bundles: Vec::new(),
            });
        // Dedup: in-band delivery can present the same bundle twice when a
        // splice replays frames.
        if !inc
            .bundles
            .iter()
            .any(|b| b.rank == bundle.rank && b.at_us == bundle.at_us && b.reason == bundle.reason)
        {
            inc.bundles.push(bundle);
        }
    }

    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Lower bound on bundles lost before the front end.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every incident in id order (id embeds the recording rank, so this
    /// is rank-then-sequence order).
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.values()
    }

    /// `(incident, ranked verdicts)` for every incident.
    pub fn verdicts(&self) -> Vec<(&Incident, Vec<Verdict>)> {
        self.incidents.values().map(|i| (i, i.classify())).collect()
    }

    /// Human-readable report: one block per incident with its ranked
    /// verdicts and evidence.
    pub fn report_text(&self) -> String {
        let mut out = format!(
            "{} incidents ({} bundles dropped before the front end)\n",
            self.incidents.len(),
            self.dropped
        );
        for (inc, verdicts) in self.verdicts() {
            let primary = inc.primary();
            let _ = writeln!(
                out,
                "incident {:#018x}  origin rank {}  reason {}  {} bundles",
                inc.id,
                (inc.id >> 32),
                primary.map_or("?", |p| p.reason.name()),
                inc.bundles.len()
            );
            if verdicts.is_empty() {
                out.push_str("    (no verdict: insufficient evidence)\n");
            }
            for (i, v) in verdicts.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    #{} {} (confidence {})",
                    i + 1,
                    v.class.name(),
                    v.score
                );
                for e in &v.evidence {
                    let _ = writeln!(out, "        - {e}");
                }
            }
        }
        out
    }

    /// Machine-readable report: a JSON document with every incident, its
    /// bundles, and its ranked verdicts.
    pub fn report_json(&self) -> String {
        let mut out = String::from("{\"incidents\":[");
        for (i, (inc, verdicts)) in self.verdicts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":\"{:#018x}\",\"origin_rank\":{},\"verdicts\":[",
                inc.id,
                inc.id >> 32
            );
            for (j, v) in verdicts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"class\":\"{}\",\"score\":{},\"evidence\":[{}]}}",
                    v.class.name(),
                    v.score,
                    v.evidence
                        .iter()
                        .map(|e| format!("\"{}\"", json_escape(e)))
                        .collect::<Vec<_>>()
                        .join(",")
                );
            }
            out.push_str("],\"bundles\":[");
            for (j, b) in inc.bundles.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_json());
            }
            out.push_str("]}");
        }
        let _ = write!(out, "],\"dropped\":{}}}", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TraceStage;
    use crate::value::DataValue;

    fn bundle(incident: u64, rank: u32, reason: IncidentReason) -> IncidentBundle {
        IncidentBundle {
            incident,
            rank: Rank(rank),
            reason,
            subject: Rank(9),
            at_us: 1_000_000,
            parent: Rank(0),
            children: vec![Rank(8), Rank(9)],
            counters: PerfCounters::default(),
            trigger: None,
            scores: Vec::new(),
            flow: Vec::new(),
            events: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn event(at_us: u64, kind: &str, detail: &str) -> LoggedEvent {
        LoggedEvent {
            at_us,
            kind: kind.into(),
            detail: detail.into(),
        }
    }

    #[test]
    fn monitor_warms_up_crosses_and_debounces() {
        let mut m = HealthMonitor::new(4, 3, 1_000_000);
        // Warmup: even huge samples stay silent for the first 3 rounds.
        for i in 0..3 {
            assert!(
                m.observe(HealthSignal::ExecutorQueue, Rank(1), 100, i * 10)
                    .is_none(),
                "round {i} should be warmup"
            );
        }
        // Settle the baseline near zero (EWMA weight is 1/8, so the warmup
        // spikes take a few dozen quiet rounds to decay away).
        for i in 3..40 {
            m.observe(HealthSignal::ExecutorQueue, Rank(1), 0, i * 10);
        }
        // A spike above floor and ratio fires, carrying the pre-spike
        // baseline.
        let warn = m
            .observe(HealthSignal::ExecutorQueue, Rank(1), 50, 2_000_000)
            .expect("spike must warn");
        assert_eq!(warn.signal, HealthSignal::ExecutorQueue);
        assert_eq!(warn.value, 50);
        assert!(warn.baseline < 50 / 4);
        // Debounced: an immediate second spike is silent...
        assert!(m
            .observe(HealthSignal::ExecutorQueue, Rank(1), 60, 2_000_001)
            .is_none());
        // ...but a different signal debounces on its own.
        for i in 0..5 {
            m.observe(HealthSignal::CreditStall, Rank(1), 0, i);
        }
        assert!(m
            .observe(HealthSignal::CreditStall, Rank(1), 90_000, 2_000_002)
            .is_some());
        // After the gap elapses the first signal can warn again.
        for i in 0..40 {
            m.observe(HealthSignal::ExecutorQueue, Rank(1), 0, 2_000_100 + i);
        }
        assert!(m
            .observe(HealthSignal::ExecutorQueue, Rank(1), 60, 3_500_000)
            .is_some());
        // Below the floor never warns, however extreme the ratio.
        for i in 0..20 {
            assert!(m
                .observe(HealthSignal::WriterQueue, Rank(1), 7, 4_000_000 + i)
                .is_none());
        }
        // scores() snapshots every sampled baseline, in signal order.
        let scores = m.scores();
        let signals: Vec<HealthSignal> = scores.iter().map(|s| s.signal).collect();
        assert_eq!(
            signals,
            [
                HealthSignal::WriterQueue,
                HealthSignal::ExecutorQueue,
                HealthSignal::CreditStall
            ]
        );
    }

    /// The baseline belongs to the signal, not to the subject: a child
    /// that was never the straggler while the tree was healthy is judged
    /// against the gaps its siblings produced, and warns on its first slow
    /// wave instead of teaching the monitor that slow is normal.
    #[test]
    fn straggler_is_judged_against_the_process_baseline() {
        let mut m = HealthMonitor::new(4, 5, 0);
        // Healthy: small gaps, a different child last each time.
        for i in 0..20u64 {
            let warn = m.observe(
                HealthSignal::StragglerGap,
                Rank(1 + (i % 15) as u32),
                900,
                i,
            );
            assert!(warn.is_none());
        }
        // Child 16 was never last before; its first 400 ms stall crosses.
        let warn = m
            .observe(HealthSignal::StragglerGap, Rank(16), 400_000, 100)
            .expect("first slow wave must warn");
        assert_eq!(warn.subject, Rank(16));
        assert!(warn.baseline <= 900);
        // One stalled wave per eight checks keeps crossing: the quiet
        // checks in between pull the baseline back down.
        let mut warned = 0;
        for round in 0..5u64 {
            for i in 0..7 {
                m.observe(HealthSignal::StragglerGap, Rank(0), 0, 200 + round * 8 + i);
            }
            let t = 200 + round * 8 + 7;
            if m.observe(HealthSignal::StragglerGap, Rank(16), 400_000, t)
                .is_some()
            {
                warned += 1;
            }
        }
        assert_eq!(warned, 5);
    }

    #[test]
    fn signal_and_reason_codes_roundtrip() {
        let mut names = std::collections::HashSet::new();
        for s in HealthSignal::ALL {
            assert_eq!(HealthSignal::from_code(s.code()).unwrap(), s);
            assert!(names.insert(s.name()));
            assert!(s.floor() > 0);
        }
        assert!(HealthSignal::from_code(200).is_err());
        let mut names = std::collections::HashSet::new();
        for r in IncidentReason::ALL {
            assert_eq!(IncidentReason::from_code(r.code()).unwrap(), r);
            assert!(names.insert(r.name()));
        }
        assert!(IncidentReason::from_code(200).is_err());
        let mut names = std::collections::HashSet::new();
        for c in FaultClass::ALL {
            assert!(names.insert(c.name()));
        }
    }

    #[test]
    fn bundle_roundtrip_and_truncation() {
        let mut b = bundle((3u64 << 32) | 7, 3, IncidentReason::HealthWarning);
        b.trigger = Some(HealthScore {
            signal: HealthSignal::StragglerGap,
            subject: Rank(9),
            value: 300_000,
            baseline: 2_000,
        });
        b.scores = vec![HealthScore {
            signal: HealthSignal::WriterQueue,
            subject: Rank(3),
            value: 2,
            baseline: 1,
        }];
        b.flow = vec![FlowSummary {
            child: Rank(9),
            credit_frames: 4,
            credit_bytes: 1024,
            parked_frames: 12,
            parked_bytes: 9000,
            closed_for_us: 40_000,
        }];
        b.events = vec![event(900_000, "stream_open", "stream 5")];
        b.spans = vec![TraceSpan {
            trace: 42,
            rank: 3,
            stream: 5,
            stage: TraceStage::ChildMerge,
            start_us: 950_000,
            dur_us: 280_000,
            detail: 9,
        }];
        let batch = IncidentBatch {
            dropped: 2,
            items: vec![b.clone(), bundle(5, 1, IncidentReason::Neighbor)],
        };
        let mut buf = Vec::new();
        batch.encode(&mut buf);
        assert_eq!(buf.len(), batch.encoded_len());
        let back = IncidentBatch::from_value(&DataValue::Bytes(buf.clone())).unwrap();
        assert_eq!(back, batch);
        // Truncation anywhere must fail, never panic.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(IncidentBatch::decode(&mut r).is_err(), "prefix {cut}");
        }

        // truncate_to sheds spans before events, events before header.
        let mut fat = b.clone();
        for i in 0..100 {
            fat.spans.push(TraceSpan {
                trace: i,
                rank: 3,
                stream: 5,
                stage: TraceStage::Decode,
                start_us: i,
                dur_us: 1,
                detail: 0,
            });
            fat.events.push(event(i, "tick", "x"));
        }
        let header_only = {
            let mut h = fat.clone();
            h.spans.clear();
            h.events.clear();
            h.encoded_len()
        };
        let target = header_only + 400;
        fat.truncate_to(target);
        assert!(fat.encoded_len() <= target);
        assert!(fat.events.len() < 101 || fat.spans.len() < 101);
        // A cap below the header keeps the header intact (spans/events all
        // shed, nothing panics).
        let mut tiny = b.clone();
        tiny.truncate_to(1);
        assert!(tiny.spans.is_empty() && tiny.events.is_empty());
        assert_eq!(tiny.incident, b.incident);
        // JSON render is structurally sound (no embedded braces in values).
        let json = b.to_json();
        assert!(json.contains("\"reason\":\"health_warning\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn classify_dead_link() {
        let mut b = bundle((1u64 << 32) | 1, 1, IncidentReason::ChildLost);
        b.subject = Rank(9);
        b.counters.sends_dropped = 3;
        b.events = vec![event(999_000, "backend_lost", "9")];
        let mut d = Diagnosis::new();
        d.absorb(&IncidentBatch {
            dropped: 0,
            items: vec![b],
        });
        let verdicts = d.verdicts();
        assert_eq!(verdicts.len(), 1);
        let top = &verdicts[0].1[0];
        assert_eq!(top.class, FaultClass::DeadLink);
        assert!(top.score >= 70);
        assert!(top.evidence.iter().any(|e| e.contains("child 9")));
    }

    #[test]
    fn classify_partition_beats_dead_link() {
        let mut b = bundle((1u64 << 32) | 2, 1, IncidentReason::ChildLost);
        b.events = vec![
            event(995_000, "backend_lost", "8"),
            event(999_000, "backend_lost", "9"),
        ];
        let inc = Incident {
            id: b.incident,
            bundles: vec![b],
        };
        let verdicts = inc.classify();
        assert_eq!(verdicts[0].class, FaultClass::Partition);
        assert!(verdicts[0].score >= 90);
        // A stale loss outside the window does not count toward partition.
        let mut b2 = bundle((1u64 << 32) | 3, 1, IncidentReason::ChildLost);
        b2.at_us = 100_000_000;
        b2.events = vec![
            event(1_000, "backend_lost", "8"),
            event(99_999_000, "backend_lost", "9"),
        ];
        let inc2 = Incident {
            id: b2.incident,
            bundles: vec![b2],
        };
        assert_eq!(inc2.classify()[0].class, FaultClass::DeadLink);
    }

    #[test]
    fn classify_slow_child_executor_and_credit() {
        // Straggler warning, corroborated by traced merge spans.
        let mut slow = bundle((2u64 << 32) | 1, 2, IncidentReason::HealthWarning);
        slow.trigger = Some(HealthScore {
            signal: HealthSignal::StragglerGap,
            subject: Rank(9),
            value: 400_000,
            baseline: 3_000,
        });
        slow.spans = vec![TraceSpan {
            trace: 7,
            rank: 2,
            stream: 3,
            stage: TraceStage::ChildMerge,
            start_us: 1,
            dur_us: 390_000,
            detail: 9,
        }];
        let inc = Incident {
            id: slow.incident,
            bundles: vec![slow],
        };
        let v = inc.classify();
        assert_eq!(v[0].class, FaultClass::SlowChild);
        assert_eq!(v[0].score, 85);
        assert!(v[0].evidence.iter().any(|e| e.contains("child_merge")));

        // Executor backlog.
        let mut sat = bundle((3u64 << 32) | 1, 3, IncidentReason::HealthWarning);
        sat.trigger = Some(HealthScore {
            signal: HealthSignal::ExecutorQueue,
            subject: Rank(3),
            value: 40,
            baseline: 1,
        });
        sat.counters.filter_busy_us = 500_000;
        let inc = Incident {
            id: sat.incident,
            bundles: vec![sat],
        };
        assert_eq!(inc.classify()[0].class, FaultClass::ExecutorSaturation);

        // Credit starvation with a closed window named in evidence.
        let mut starve = bundle((4u64 << 32) | 1, 4, IncidentReason::HealthWarning);
        starve.trigger = Some(HealthScore {
            signal: HealthSignal::CreditStall,
            subject: Rank(4),
            value: 150_000,
            baseline: 100,
        });
        starve.flow = vec![FlowSummary {
            child: Rank(12),
            credit_frames: 0,
            credit_bytes: 0,
            parked_frames: 40,
            parked_bytes: 64_000,
            closed_for_us: 140_000,
        }];
        let inc = Incident {
            id: starve.incident,
            bundles: vec![starve],
        };
        let v = inc.classify();
        assert_eq!(v[0].class, FaultClass::CreditStarvation);
        assert!(v[0].evidence.iter().any(|e| e.contains("child 12")));
    }

    #[test]
    fn diagnosis_groups_by_incident_and_dedups() {
        let primary = bundle((6u64 << 32) | 1, 6, IncidentReason::ChildLost);
        let neighbor = {
            let mut n = bundle((6u64 << 32) | 1, 2, IncidentReason::Neighbor);
            n.at_us = 1_500_000;
            n
        };
        let mut d = Diagnosis::new();
        d.absorb(&IncidentBatch {
            dropped: 1,
            items: vec![neighbor.clone(), primary.clone()],
        });
        // Replayed frames present the same bundles again.
        d.absorb(&IncidentBatch {
            dropped: 3,
            items: vec![primary.clone(), neighbor],
        });
        assert_eq!(d.len(), 1);
        assert_eq!(d.dropped(), 3);
        let inc = d.incidents().next().unwrap();
        assert_eq!(inc.bundles.len(), 2);
        // Primary selection skips the neighbor view even when it arrived
        // first.
        assert_eq!(inc.primary().unwrap().rank, Rank(6));
        let text = d.report_text();
        assert!(text.contains("origin rank 6"));
        assert!(text.contains("dead-link"));
        let json = d.report_json();
        assert!(json.contains("\"class\":\"dead-link\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_diagnosis_reports_cleanly() {
        let d = Diagnosis::new();
        assert!(d.is_empty());
        assert!(d.report_text().starts_with("0 incidents"));
        assert!(d.report_json().contains("\"incidents\":[]"));
    }
}
