//! The communication-process event loop.
//!
//! Every non-leaf node of the overlay — the root (co-located with the
//! front-end) and each internal node — runs [`CommProcess::run`] on its own
//! thread. The loop multiplexes:
//!
//! * upstream data from children, buffered by the stream's synchronization
//!   filter into waves and reduced by its transformation filter;
//! * downstream multicast from the parent (or, at the root, commands from
//!   the front-end handle), routed only toward subtrees containing stream
//!   members and optionally transformed per hop;
//! * control traffic: stream creation/teardown, on-demand filter loading,
//!   failure notices and orderly shutdown.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use tbon_topology::{NodeId, Role, Topology};
use tbon_transport::{Delivery, Frame, Link, NodeEndpoint, TransportError};

use crate::config::{FlowConfig, NetworkConfig};
use crate::error::{Result, TbonError};
use crate::executor::{execute, FilterJob, FilterPool, SharedFilter, WaveOutput};
use crate::filter::{FilterContext, FilterRegistry, SyncContext, Synchronization, Transformation};
use crate::health::{
    FlowSummary, HealthMonitor, HealthScore, HealthSignal, IncidentBatch, IncidentBundle,
    IncidentReason,
};
use crate::packet::{Packet, Rank};
use crate::plane::{Membership, Plane, PlaneSlots, Publish, DRILLDOWN_FILTER};
use crate::proto::{decode_message, Envelope, FilterKind, Message, NetEvent, PerfCounters};
use crate::stream::{Members, StreamId, StreamMode, StreamSpec, Tag};
use crate::telemetry::{
    now_us, EventRing, LogHistogram, MetricsSample, SpanRing, TraceSpan, TraceStage,
};
use crate::value::DataValue;

/// Capacity of each process's structured event ring.
const EVENT_RING_CAP: usize = 256;

/// Commands from the front-end handle into the root process.
pub(crate) enum FeCommand {
    NewStream {
        spec: StreamSpec,
        reply: Sender<Result<(StreamId, Receiver<Packet>)>>,
    },
    Send {
        stream: StreamId,
        tag: Tag,
        value: DataValue,
        reply: Sender<Result<()>>,
    },
    CloseStream {
        stream: StreamId,
        reply: Sender<Result<()>>,
    },
    LoadFilter {
        name: String,
        kind: FilterKind,
        reply: Sender<Result<bool>>,
    },
    Shutdown {
        reply: Sender<Result<()>>,
    },
    /// Open one of the in-band planes. `interval` is the publish period
    /// (ignored by on-event planes); `merge: false` swaps the plane's
    /// merge filter for pass-through (metrics drill-down).
    OpenPlane {
        plane: Plane,
        interval: Duration,
        merge: bool,
        reply: Sender<Result<(StreamId, Receiver<Packet>)>>,
    },
    WaveLatency {
        reply: Sender<HashMap<StreamId, LogHistogram>>,
    },
}

/// Per-(stream, process) state.
struct StreamState {
    /// Stream members (back-end ranks) below or at this node's subtree.
    members: Vec<Rank>,
    /// Children currently expected to contribute upstream packets.
    expected: Vec<Rank>,
    /// Children that downstream traffic must be forwarded to.
    down_routes: Vec<Rank>,
    sync: Box<dyn Synchronization>,
    /// Transformation state, shared with the filter pool's workers; locked
    /// once per wave, wherever the wave executes.
    tfilter: SharedFilter,
    dfilter: Option<Box<dyn Transformation>>,
    mode: StreamMode,
    /// Waves of this stream submitted to the pool whose outputs have not
    /// come back yet. The inline fast path requires this to be zero, so a
    /// small wave can never overtake a queued one.
    in_flight: usize,
    /// Child-merge attribution for the wave currently buffering in `sync`,
    /// tracked only for trace-sampled packets: the canonical trace id (the
    /// minimum nonzero id seen, matching the executor's wave id), the local
    /// arrival time of the first traced packet, and the arrival time plus
    /// rank of the latest — first-to-last is the straggler wait. Reset when
    /// the sync filter releases waves.
    merge_trace: u64,
    merge_first_us: u64,
    merge_last_us: u64,
    merge_last_from: u32,
    /// Unconditional first/last child-arrival tracking for the wave
    /// currently buffering, feeding the health plane's straggler-gap
    /// signal. Separate from the trace attribution above (which only
    /// covers sampled packets); reuses the arrival `Instant` the sync
    /// context already takes, so it costs no extra clock reads. Reset
    /// when the sync filter releases waves.
    gap_first: Option<Instant>,
    gap_last: Option<Instant>,
    gap_last_from: u32,
}

/// Tracks one in-flight LoadFilter probe.
struct FilterProbe {
    awaiting: HashSet<Rank>,
    ok: bool,
}

/// Downstream credit window toward one child (see [`FlowConfig`]).
///
/// Data frames spend credit; [`Message::CreditGrant`]s from the child
/// return it. When credit runs out (or the transport itself pushes back)
/// frames park in `pending` — strictly FIFO, so per-stream downstream
/// order survives a stall — and the window is *closed* until the child
/// grants again. `closed_since` measures the child's **silence**, not its
/// backlog: every grant refreshes it, so only a child that stops granting
/// entirely trips the liveness deadline.
struct ChildFlow {
    credit_frames: u64,
    credit_bytes: u64,
    /// Frames waiting for credit, with their charged wire size and the
    /// local time they parked (feeds the credit-park trace span).
    pending: VecDeque<(StreamId, Arc<Envelope>, u64, u64)>,
    /// Set while the window is closed with frames parked; refreshed by
    /// every grant, cleared when the backlog drains.
    closed_since: Option<Instant>,
}

impl ChildFlow {
    fn open(cfg: FlowConfig) -> ChildFlow {
        ChildFlow {
            credit_frames: cfg.window_frames,
            credit_bytes: cfg.effective_window_bytes(),
            pending: VecDeque::new(),
            closed_since: None,
        }
    }
}

/// Role-specific halves of a communication process.
enum ProcessRole {
    Root {
        fe_cmd: Receiver<FeCommand>,
        fe_events: Sender<NetEvent>,
        fe_streams: HashMap<StreamId, Sender<Packet>>,
        next_stream: u32,
        shutdown_reply: Option<Sender<Result<()>>>,
        filter_replies: HashMap<String, Sender<Result<bool>>>,
    },
    Internal {
        parent: Rank,
    },
}

/// A communication process: the root or an internal node.
pub(crate) struct CommProcess {
    rank: Rank,
    endpoint: NodeEndpoint,
    topology: Arc<RwLock<Topology>>,
    registry: Arc<FilterRegistry>,
    config: NetworkConfig,
    streams: HashMap<StreamId, StreamState>,
    dead_children: HashSet<Rank>,
    shutting_down: bool,
    shutdown_pending: HashSet<Rank>,
    filter_probes: HashMap<String, FilterProbe>,
    /// Set when the parent vanished; cleared by a `NewParent`
    /// reconfiguration. Holds the give-up deadline.
    orphaned_until: Option<Instant>,
    /// Lifetime activity counters, queryable via `Message::GetPerf`.
    perf: PerfCounters,
    /// Peers whose send failure has already been reported via
    /// [`NetEvent::SendFailed`] (one event per peer, not per frame).
    failed_sends_reported: HashSet<Rank>,
    /// End-to-end wave latency observed this publish interval (root only —
    /// drained into each metrics sample).
    wave_latency_interval: LogHistogram,
    /// Lifetime per-stream wave latency (root only), served to the
    /// front-end via [`FeCommand::WaveLatency`].
    wave_latency_by_stream: HashMap<StreamId, LogHistogram>,
    /// Per-execution transformation runtime this publish interval.
    filter_exec_interval: LogHistogram,
    /// Pool queue wait per pooled wave this publish interval.
    executor_wait_interval: LogHistogram,
    /// The out-of-band filter execution plane (empty when
    /// `filter_pool.workers == 0`: everything then runs inline).
    pool: FilterPool,
    /// Waves currently in the pool across all streams; drained before
    /// shutdown concludes so no filter output is lost.
    pool_in_flight: usize,
    /// Bounded ring of structured lifecycle events.
    events: EventRing,
    /// Which in-band planes are open here, and when they next publish.
    planes: PlaneSlots,
    /// Counter values at the previous metrics publish; samples carry
    /// deltas.
    metrics_last: PerfCounters,
    /// Bounded ring of trace spans recorded at this process, drained into
    /// the trace stream each publish interval.
    spans: SpanRing,
    /// Streams a lost leaf child was a member of, so a later re-adoption
    /// (the supervisor reattaching a back-end whose link transiently died)
    /// can restore its membership instead of leaving it silently excluded.
    lost_leaf_streams: HashMap<Rank, Vec<StreamId>>,
    /// Per-child downstream credit windows; populated lazily on the first
    /// downstream data frame to each child. Empty when flow is disabled.
    flow: HashMap<Rank, ChildFlow>,
    /// How many downstream frames are parked behind closed windows, per
    /// stream. A stream with parked frames has its wave admission paused
    /// (see [`CommProcess::process_waves`]).
    parked_by_stream: HashMap<StreamId, usize>,
    /// Waves released by synchronization while their stream's window was
    /// closed, re-admitted in order once the backlog drains.
    held_waves: HashMap<StreamId, Vec<Vec<Packet>>>,
    /// Downstream data frames consumed from the parent but not yet granted
    /// back (internal nodes only; grants are deferred while any of our own
    /// child windows is closed, which is what propagates pressure up).
    consumed_frames: u64,
    consumed_bytes: u64,
    /// When the last zero-credit keepalive grant went to the parent.
    /// Deferred grants must not read as death upstream, so a paced
    /// `CreditGrant { 0, 0 }` proves liveness while pressure holds.
    last_zero_grant: Option<Instant>,
    /// EWMA health baselining (None when `HealthConfig::enabled` is off).
    health: Option<HealthMonitor>,
    /// Next health-sampling deadline; armed iff `health` is Some.
    health_next_fire: Option<Instant>,
    /// Counter snapshot at the previous health sample (delta signals).
    health_last: PerfCounters,
    /// Cached `config.health.enabled`, tested per upstream packet for the
    /// arrival-gap tracking.
    health_on: bool,
    /// Largest wave-merge arrival gap since the previous health sample,
    /// and the child whose packet came last (the straggler).
    max_merge_gap_us: u64,
    max_merge_gap_from: u32,
    /// Local capture sequence — the low half of the incident id.
    incident_seq: u64,
    /// Counter snapshot at the previous capture (bundle counter deltas).
    incident_last: PerfCounters,
    /// Last health-warning-triggered capture, enforcing the cooldown.
    /// Failure-triggered captures are exempt (see `record_incident`).
    last_incident: Option<Instant>,
    role: ProcessRole,
}

/// What a successful send cost, for perf accounting.
pub(crate) struct SendStats {
    /// On-wire bytes (or the equivalent size hint for zero-copy frames).
    pub wire_bytes: usize,
    /// True iff this send performed the envelope's one serialization.
    pub fresh_encode: bool,
}

/// Send one envelope over a link, using the zero-copy path when available.
/// Wire links share the envelope's cached encoding: a multicast to N such
/// links serializes the message exactly once.
pub(crate) fn send_message(link: &Arc<dyn Link>, env: &Arc<Envelope>) -> Result<SendStats> {
    let (frame, stats) = if link.needs_bytes() {
        let (bytes, fresh) = env.encoded();
        (
            Frame::Bytes(Arc::clone(bytes)),
            SendStats {
                wire_bytes: bytes.len(),
                fresh_encode: fresh,
            },
        )
    } else {
        let size_hint = env.encoded_len();
        (
            Frame::Shared {
                data: env.clone(),
                size_hint,
            },
            SendStats {
                wire_bytes: size_hint,
                fresh_encode: false,
            },
        )
    };
    link.send(frame).map_err(TbonError::Transport)?;
    Ok(stats)
}

/// Recover an envelope from an incoming frame. Byte frames seed the
/// envelope's encoding memo, so forwarding them costs no re-serialization.
pub(crate) fn decode_frame(frame: Frame) -> Result<Arc<Envelope>> {
    match frame {
        Frame::Bytes(bytes) => {
            let msg = decode_message(&bytes)?;
            Ok(Arc::new(Envelope::from_wire(msg, bytes)))
        }
        Frame::Shared { data, .. } => data
            .downcast::<Envelope>()
            .map_err(|_| TbonError::Decode("shared frame is not an Envelope".into())),
    }
}

/// Wrap a message for sending.
pub(crate) fn envelope(msg: Message) -> Arc<Envelope> {
    Arc::new(Envelope::new(msg))
}

/// If `waves` were just released, consume the stream's accumulated
/// child-merge attribution: `(trace, first_us, last_us, last_from)`.
fn take_merge_span(st: &mut StreamState, waves: &[Vec<Packet>]) -> Option<(u64, u64, u64, u32)> {
    if waves.is_empty() || st.merge_trace == 0 {
        return None;
    }
    let m = (
        st.merge_trace,
        st.merge_first_us,
        st.merge_last_us,
        st.merge_last_from,
    );
    st.merge_trace = 0;
    Some(m)
}

/// If `waves` were just released, consume the stream's unconditional
/// arrival-gap tracking: `(first-to-last gap in µs, straggler rank)`.
fn take_health_gap(st: &mut StreamState, waves: &[Vec<Packet>]) -> Option<(u64, u32)> {
    if waves.is_empty() {
        return None;
    }
    let first = st.gap_first.take()?;
    let last = st.gap_last.take()?;
    Some((
        last.saturating_duration_since(first).as_micros() as u64,
        st.gap_last_from,
    ))
}

impl CommProcess {
    fn new(
        rank: Rank,
        role: ProcessRole,
        endpoint: NodeEndpoint,
        topology: Arc<RwLock<Topology>>,
        registry: Arc<FilterRegistry>,
        config: NetworkConfig,
    ) -> CommProcess {
        let health_on = config.health.enabled;
        CommProcess {
            rank,
            endpoint,
            topology,
            registry,
            streams: HashMap::new(),
            dead_children: HashSet::new(),
            shutting_down: false,
            shutdown_pending: HashSet::new(),
            filter_probes: HashMap::new(),
            orphaned_until: None,
            perf: PerfCounters::default(),
            failed_sends_reported: HashSet::new(),
            wave_latency_interval: LogHistogram::new(),
            wave_latency_by_stream: HashMap::new(),
            filter_exec_interval: LogHistogram::new(),
            executor_wait_interval: LogHistogram::new(),
            pool: FilterPool::new(config.filter_pool, &config.name, rank),
            pool_in_flight: 0,
            events: EventRing::new(EVENT_RING_CAP),
            planes: PlaneSlots::default(),
            metrics_last: PerfCounters::default(),
            spans: SpanRing::new(config.trace.ring_capacity),
            lost_leaf_streams: HashMap::new(),
            flow: HashMap::new(),
            parked_by_stream: HashMap::new(),
            held_waves: HashMap::new(),
            consumed_frames: 0,
            consumed_bytes: 0,
            last_zero_grant: None,
            health: health_on.then(|| {
                HealthMonitor::new(
                    config.health.warn_ratio,
                    config.health.warmup_samples,
                    config.health.min_warning_gap.as_micros() as u64,
                )
            }),
            health_next_fire: health_on.then(|| Instant::now() + config.health.check_interval),
            health_last: PerfCounters::default(),
            health_on,
            max_merge_gap_us: 0,
            max_merge_gap_from: 0,
            incident_seq: 0,
            incident_last: PerfCounters::default(),
            last_incident: None,
            config,
            role,
        }
    }

    pub(crate) fn new_internal(
        rank: Rank,
        parent: Rank,
        endpoint: NodeEndpoint,
        topology: Arc<RwLock<Topology>>,
        registry: Arc<FilterRegistry>,
        config: NetworkConfig,
    ) -> CommProcess {
        let role = ProcessRole::Internal { parent };
        CommProcess::new(rank, role, endpoint, topology, registry, config)
    }

    pub(crate) fn new_root(
        endpoint: NodeEndpoint,
        topology: Arc<RwLock<Topology>>,
        registry: Arc<FilterRegistry>,
        config: NetworkConfig,
        fe_cmd: Receiver<FeCommand>,
        fe_events: Sender<NetEvent>,
    ) -> CommProcess {
        let role = ProcessRole::Root {
            fe_cmd,
            fe_events,
            fe_streams: HashMap::new(),
            next_stream: 1,
            shutdown_reply: None,
            filter_replies: HashMap::new(),
        };
        CommProcess::new(Rank(0), role, endpoint, topology, registry, config)
    }

    fn is_root(&self) -> bool {
        matches!(self.role, ProcessRole::Root { .. })
    }

    /// True for the in-band planes' own streams: their waves are excluded
    /// from the perf counters and never record spans, so the planes cannot
    /// perturb what they measure.
    fn is_telemetry_stream(&self, stream: StreamId) -> bool {
        self.planes.of(stream).is_some()
    }

    /// Record a trace span with an explicit duration. No-op for untraced
    /// waves or when tracing is disabled. Start and duration are this
    /// process's own clock only — span times are never compared across
    /// processes (see DESIGN.md §12).
    fn span_dur(
        &mut self,
        trace: u64,
        stream: StreamId,
        stage: TraceStage,
        start_us: u64,
        dur_us: u64,
        detail: u64,
    ) {
        if trace == 0 || !self.config.trace.enabled() {
            return;
        }
        self.spans.push(TraceSpan {
            trace,
            rank: self.rank.0,
            stream: stream.0,
            stage,
            start_us,
            dur_us,
            detail,
        });
    }

    /// Record a trace span that started at `start_us` and ends now.
    fn span_since(
        &mut self,
        trace: u64,
        stream: StreamId,
        stage: TraceStage,
        start_us: u64,
        detail: u64,
    ) {
        let dur_us = now_us().saturating_sub(start_us);
        self.span_dur(trace, stream, stage, start_us, dur_us, detail);
    }

    /// Children of this node in the current topology, excluding known-dead.
    fn live_children(&self) -> Vec<Rank> {
        let topo = self.topology.read();
        topo.children(NodeId(self.rank.0))
            .iter()
            .map(|&c| Rank(c))
            .filter(|c| !self.dead_children.contains(c))
            .collect()
    }

    /// Children that are themselves communication processes.
    fn comm_children(&self) -> Vec<Rank> {
        let topo = self.topology.read();
        topo.children(NodeId(self.rank.0))
            .iter()
            .map(|&c| Rank(c))
            .filter(|c| !self.dead_children.contains(c))
            .filter(|c| topo.role(NodeId(c.0)) == Role::Internal)
            .collect()
    }

    fn link_to(&self, peer: Rank) -> Result<Arc<dyn Link>> {
        self.endpoint.peers.get(peer.0).ok_or(TbonError::Transport(
            tbon_transport::TransportError::UnknownPeer(peer.0),
        ))
    }

    /// Send an envelope to a peer, bumping the activity counters on success.
    fn send_to(&mut self, peer: Rank, env: &Arc<Envelope>) -> Result<()> {
        let link = self.link_to(peer)?;
        let stats = send_message(&link, env)?;
        self.perf.frames_sent += 1;
        self.perf.bytes_sent += stats.wire_bytes as u64;
        if stats.fresh_encode {
            self.perf.encodes_performed += 1;
        }
        Ok(())
    }

    /// Like [`CommProcess::send_to`], but a failure is recorded instead of
    /// silently discarded: the drop counter always moves, and the first
    /// failure per peer raises [`NetEvent::SendFailed`] toward the
    /// front-end. Used on child-facing paths (the parent-facing paths must
    /// not recurse through `emit_event`).
    fn send_to_noted(&mut self, peer: Rank, env: &Arc<Envelope>) -> Result<()> {
        match self.send_to(peer, env) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.perf.sends_dropped += 1;
                if self.failed_sends_reported.insert(peer) {
                    let rank = self.rank;
                    self.emit_event(NetEvent::SendFailed { rank, peer });
                }
                Err(e)
            }
        }
    }

    /// Send an event toward the front-end, recording it in the local event
    /// ring first. Relays of children's events go through
    /// [`CommProcess::forward_event`] so each event is logged exactly once,
    /// at the process that observed it.
    fn emit_event(&mut self, ev: NetEvent) {
        let (kind, detail) = match &ev {
            NetEvent::BackendLost { rank, .. } => ("backend_lost", rank.to_string()),
            NetEvent::BackendJoined { rank, parent } => {
                ("backend_joined", format!("{rank} under {parent}"))
            }
            NetEvent::SubtreeOrphaned { rank, .. } => ("subtree_orphaned", rank.to_string()),
            NetEvent::FilterError { detail, .. } => ("filter_error", detail.clone()),
            NetEvent::SendFailed { peer, .. } => ("send_failed", peer.to_string()),
            // Supervisor verdicts originate above the tree; processes only
            // relay them (forward_event), never emit them.
            NetEvent::Healed { rank, .. } => ("healed", rank.to_string()),
            NetEvent::Degraded { rank, detail } => ("degraded", format!("{rank}: {detail}")),
            NetEvent::HealthWarning {
                subject,
                signal,
                value,
                baseline,
                ..
            } => (
                "health_warning",
                format!(
                    "{subject}: {} {value} vs baseline {baseline}",
                    HealthSignal::from_code(*signal).map_or("?", |s| s.name())
                ),
            ),
        };
        self.events.push(kind, detail);
        self.forward_event(ev);
    }

    /// Pass an event toward the front-end without logging it locally.
    fn forward_event(&mut self, ev: NetEvent) {
        match &mut self.role {
            ProcessRole::Root { fe_events, .. } => {
                let _ = fe_events.send(ev);
            }
            ProcessRole::Internal { parent } => {
                let parent = *parent;
                let msg = envelope(Message::Event(ev));
                let _ = self.send_to(parent, &msg);
            }
        }
    }

    /// Deliver filtered output toward the front-end: up to the parent on
    /// internal nodes, into the per-stream channel at the root. At the
    /// root, stamped packets resolve into end-to-end wave latency here.
    fn emit_up(&mut self, pkt: Packet) {
        // A forwarded incident batch gains this process's own view of the
        // same incident — the front end then sees the failure from both
        // sides of the link.
        let pkt = if self.planes.stream(Plane::Incident) == Some(pkt.stream()) && !self.is_root() {
            self.append_neighbor_view(pkt)
        } else {
            pkt
        };
        match &mut self.role {
            ProcessRole::Root { fe_streams, .. } => {
                let stamp = pkt.stamp_us();
                if stamp > 0 {
                    let latency = now_us().saturating_sub(stamp);
                    self.wave_latency_interval.record(latency);
                    self.wave_latency_by_stream
                        .entry(pkt.stream())
                        .or_default()
                        .record(latency);
                }
                if let Some(tx) = fe_streams.get(&pkt.stream()) {
                    // The application may have dropped the handle; fine.
                    let _ = tx.send(pkt);
                }
            }
            ProcessRole::Internal { parent } => {
                let parent = *parent;
                let trace = pkt.trace_id();
                let stream = pkt.stream();
                let t0 = now_us();
                let msg = envelope(Message::up_from_packet(&pkt));
                if self.send_to(parent, &msg).is_err() {
                    // Parent gone; the Disconnected delivery will follow.
                }
                self.span_since(trace, stream, TraceStage::UpstreamSend, t0, 0);
            }
        }
    }

    /// Route a downstream packet to the children hosting stream members,
    /// applying the per-hop downstream filter first if configured.
    fn send_down_packet(&mut self, stream_id: StreamId, pkt: Packet) {
        let Some(st) = self.streams.get_mut(&stream_id) else {
            return;
        };
        let mut outputs = vec![pkt];
        let mut reverse = Vec::new();
        if let Some(df) = st.dfilter.as_mut() {
            let mut ctx = FilterContext::new(stream_id, self.rank, false, st.expected.len());
            match df.transform(outputs, &mut ctx) {
                Ok(out) => {
                    outputs = out;
                    if st.mode == StreamMode::Bidirectional {
                        reverse = std::mem::take(&mut ctx.reverse);
                    }
                }
                Err(e) => {
                    let rank = self.rank;
                    self.emit_event(NetEvent::FilterError {
                        rank,
                        detail: format!("downstream filter on {stream_id}: {e}"),
                    });
                    return;
                }
            }
        }
        let routes = self.streams[&stream_id].down_routes.clone();
        let flow_on = self.config.flow.enabled();
        let mut failed: Vec<Rank> = Vec::new();
        for pkt in &outputs {
            // One envelope per packet: the first wire child serializes it,
            // every further child shares the same bytes.
            let t0 = now_us();
            let msg = envelope(Message::down_from_packet(pkt));
            for child in &routes {
                if failed.contains(child) {
                    continue;
                }
                let child_gone = if flow_on {
                    // Credit window: a slow child pauses (frame parks until
                    // it grants) instead of dying; only a severed link — or
                    // a window silent past the grant deadline, handled in
                    // fire_deadlines — is a failure.
                    self.flow_send_down(stream_id, *child, &msg)
                } else {
                    // Legacy path: a child that blew its send deadline (or
                    // whose link died) is declared gone now rather than on
                    // the eventual disconnect, so one slow subscriber never
                    // wedges the stream for its siblings.
                    matches!(
                        self.send_to_noted(*child, &msg),
                        Err(TbonError::Transport(
                            TransportError::Backpressure(_) | TransportError::Closed(_),
                        ))
                    )
                };
                if child_gone {
                    failed.push(*child);
                }
            }
            // Time spent handing this packet to the writer plane (encode
            // plus per-child enqueue, or the park decision under flow).
            self.span_since(pkt.trace_id(), stream_id, TraceStage::WriterQueue, t0, 0);
        }
        for child in failed {
            self.handle_child_failure(child);
        }
        for pkt in reverse {
            self.emit_up(pkt);
        }
    }

    /// Downstream data send under flow control. Spends window credit and
    /// sends, or parks the frame behind the closed window. Returns true iff
    /// the child's link is actually gone and it must be declared failed —
    /// backpressure and an exhausted window are pauses, not verdicts.
    fn flow_send_down(&mut self, stream_id: StreamId, child: Rank, env: &Arc<Envelope>) -> bool {
        let cfg = self.config.flow;
        // Charge at most the whole byte window per frame: an oversized frame
        // costs everything but still fits through a fully open window.
        let len = (env.encoded_len() as u64).min(cfg.effective_window_bytes());
        let must_park = {
            let fl = self
                .flow
                .entry(child)
                .or_insert_with(|| ChildFlow::open(cfg));
            // FIFO: once anything is parked, everything behind it parks too.
            if !fl.pending.is_empty() || fl.credit_frames == 0 || fl.credit_bytes < len {
                true
            } else {
                fl.credit_frames -= 1;
                fl.credit_bytes -= len;
                false
            }
        };
        if must_park {
            self.park_down_frame(stream_id, child, Arc::clone(env), len);
            return false;
        }
        match self.send_to(child, env) {
            Ok(()) => false,
            Err(TbonError::Transport(TransportError::Backpressure(_))) => {
                // The transport's own queue is full: transient. Refund the
                // credit (nothing was transmitted) and park the frame.
                if let Some(fl) = self.flow.get_mut(&child) {
                    fl.credit_frames += 1;
                    fl.credit_bytes += len;
                }
                self.park_down_frame(stream_id, child, Arc::clone(env), len);
                false
            }
            Err(_) => {
                self.perf.sends_dropped += 1;
                if self.failed_sends_reported.insert(child) {
                    let rank = self.rank;
                    self.emit_event(NetEvent::SendFailed { rank, peer: child });
                }
                true
            }
        }
    }

    /// Park a downstream frame behind `child`'s closed window and pause
    /// wave admission for its stream.
    fn park_down_frame(&mut self, stream_id: StreamId, child: Rank, env: Arc<Envelope>, len: u64) {
        let cfg = self.config.flow;
        let fl = self
            .flow
            .entry(child)
            .or_insert_with(|| ChildFlow::open(cfg));
        fl.closed_since.get_or_insert_with(Instant::now);
        fl.pending.push_back((stream_id, env, len, now_us()));
        *self.parked_by_stream.entry(stream_id).or_insert(0) += 1;
        self.perf.window_closed += 1;
    }

    /// A parked frame left `child`'s backlog (sent or abandoned): drop its
    /// admission hold, collecting streams whose last parked frame it was.
    fn note_unparked(&mut self, stream_id: StreamId, reopened: &mut Vec<StreamId>) {
        if let Some(n) = self.parked_by_stream.get_mut(&stream_id) {
            *n -= 1;
            if *n == 0 {
                self.parked_by_stream.remove(&stream_id);
                reopened.push(stream_id);
            }
        }
    }

    /// Credits came back from `child`: refresh its liveness clock, account
    /// the stalled time, and retry its parked backlog in order.
    fn handle_credit_grant(&mut self, from: Rank, frames: u64, bytes: u64) {
        if !self.config.flow.enabled() {
            return;
        }
        let cfg = self.config.flow;
        let Some(fl) = self.flow.get_mut(&from) else {
            // A grant from a peer we never sent data to (or one already
            // declared dead): stale, ignore.
            return;
        };
        // Cap at the window so duplicated or post-adoption grants can
        // never inflate outstanding capacity beyond the configured bound.
        fl.credit_frames = fl
            .credit_frames
            .saturating_add(frames)
            .min(cfg.window_frames);
        fl.credit_bytes = fl
            .credit_bytes
            .saturating_add(bytes)
            .min(cfg.effective_window_bytes());
        // The grant is proof of life: account the closed stretch so far and
        // restart the silence clock (flush_pending clears it if the backlog
        // drains completely).
        if let Some(t) = fl.closed_since.take() {
            self.perf.credits_stalled_us += t.elapsed().as_micros() as u64;
            if !fl.pending.is_empty() {
                fl.closed_since = Some(Instant::now());
            }
        }
        self.flush_pending(from);
    }

    /// Send as much of `child`'s parked backlog as its window now allows;
    /// reopen wave admission for streams whose backlog fully drained, and
    /// pass any freed pressure upstream as a grant of our own.
    fn flush_pending(&mut self, child: Rank) {
        let mut reopened: Vec<StreamId> = Vec::new();
        let mut child_gone = false;
        loop {
            let (stream_id, env, len, parked_at) = {
                let Some(fl) = self.flow.get_mut(&child) else {
                    break;
                };
                let Some((_, _, len, _)) = fl.pending.front() else {
                    fl.closed_since = None;
                    break;
                };
                if fl.credit_frames == 0 || fl.credit_bytes < *len {
                    break;
                }
                let (s, e, l, p) = fl.pending.pop_front().expect("front checked");
                fl.credit_frames -= 1;
                fl.credit_bytes -= l;
                (s, e, l, p)
            };
            match self.send_to(child, &env) {
                Ok(()) => {
                    // A traced frame that waited behind the closed window:
                    // park-to-flush is the credit-stall attribution, charged
                    // to the child that was slow to grant.
                    if let Message::Down { trace, .. } = env.msg() {
                        let trace = *trace;
                        self.span_since(
                            trace,
                            stream_id,
                            TraceStage::CreditPark,
                            parked_at,
                            child.0 as u64,
                        );
                    }
                    self.note_unparked(stream_id, &mut reopened)
                }
                Err(TbonError::Transport(TransportError::Backpressure(_))) => {
                    // Transport queue still full: refund and put it back.
                    if let Some(fl) = self.flow.get_mut(&child) {
                        fl.credit_frames += 1;
                        fl.credit_bytes += len;
                        fl.pending.push_front((stream_id, env, len, parked_at));
                    }
                    break;
                }
                Err(_) => {
                    self.perf.sends_dropped += 1;
                    self.note_unparked(stream_id, &mut reopened);
                    child_gone = true;
                    break;
                }
            }
        }
        self.release_held_waves(reopened);
        if child_gone {
            self.handle_child_failure(child);
        }
        self.maybe_send_grant();
    }

    /// Re-admit waves held while their stream's downstream window was
    /// closed, oldest first.
    fn release_held_waves(&mut self, streams: Vec<StreamId>) {
        for stream_id in streams {
            if let Some(waves) = self.held_waves.remove(&stream_id) {
                self.process_waves(stream_id, waves);
            }
        }
    }

    /// Forget a dead child's window: abandon its backlog (reopening wave
    /// admission where it held the last parked frame) and let any deferred
    /// grant of ours finally travel upstream.
    fn drop_flow_state(&mut self, child: Rank) {
        let Some(fl) = self.flow.remove(&child) else {
            return;
        };
        if let Some(t) = fl.closed_since {
            self.perf.credits_stalled_us += t.elapsed().as_micros() as u64;
        }
        let mut reopened: Vec<StreamId> = Vec::new();
        for (stream_id, _, _, _) in fl.pending {
            self.note_unparked(stream_id, &mut reopened);
        }
        self.release_held_waves(reopened);
        self.maybe_send_grant();
    }

    /// Return consumed downstream credit to the parent once the watermark
    /// is reached — but not while any of our own child windows has a parked
    /// backlog: withholding the grant closes the parent's window toward us
    /// in turn, which is how pressure from a slow leaf climbs the tree hop
    /// by hop. While deferring, a periodic *zero-credit* grant keeps
    /// flowing instead: it refreshes the parent's silence clock (deferral
    /// is pressure, not death) without returning any capacity.
    fn maybe_send_grant(&mut self) {
        if !self.config.flow.enabled() {
            return;
        }
        let parent = match &self.role {
            ProcessRole::Internal { parent } => *parent,
            ProcessRole::Root { .. } => return,
        };
        if self.flow.values().any(|f| !f.pending.is_empty()) {
            let now = Instant::now();
            let period = self.grant_deadline() / 4;
            let due = self
                .last_zero_grant
                .is_none_or(|t| now.duration_since(t) >= period);
            if due {
                let msg = envelope(Message::CreditGrant {
                    frames: 0,
                    bytes: 0,
                });
                let _ = self.send_to(parent, &msg);
                self.last_zero_grant = Some(now);
            }
            return;
        }
        self.last_zero_grant = None;
        if self.consumed_frames == 0
            || self.consumed_frames < self.config.flow.effective_watermark()
        {
            return;
        }
        let msg = envelope(Message::CreditGrant {
            frames: self.consumed_frames,
            bytes: self.consumed_bytes,
        });
        self.consumed_frames = 0;
        self.consumed_bytes = 0;
        if self.send_to(parent, &msg).is_ok() {
            self.perf.grants_sent += 1;
        }
    }

    /// How long a closed window may stay silent (no grants at all) before
    /// the child is handed to the failure detector. The supervisor's ack
    /// timeout when one is armed — recovery owns liveness then — else the
    /// writer send deadline, the knob that bounded slow-peer patience
    /// before flow control existed.
    fn grant_deadline(&self) -> Duration {
        self.config
            .supervisor
            .as_ref()
            .map(|p| p.ack_timeout)
            .unwrap_or(self.config.writer_send_deadline)
    }

    /// Hand freshly released waves to the execution plane: pooled when the
    /// pool is enabled and the wave is worth two thread hops, inline
    /// otherwise. Inline execution is only taken when the stream has
    /// nothing in the pool, so per-stream wave order is preserved either
    /// way; pooled outputs come back through the event loop's `select!` and
    /// are applied by [`CommProcess::apply_wave_output`].
    fn process_waves(&mut self, stream_id: StreamId, waves: Vec<Vec<Packet>>) {
        if waves.is_empty() {
            return;
        }
        // Admission pause: while this stream has downstream frames parked
        // behind a closed credit window, hold freshly released waves
        // instead of executing them — executing would only pile more
        // output onto the backlog. They re-enter (in order) through
        // release_held_waves once the slowest child drains.
        if self.parked_by_stream.contains_key(&stream_id) {
            self.held_waves.entry(stream_id).or_default().extend(waves);
            return;
        }
        let is_root = self.is_root();
        let rank = self.rank;
        // The telemetry plane must not perturb what it measures: waves and
        // filter work on the metrics and trace streams themselves are
        // excluded from the counters (frames/bytes stay inclusive — they
        // are wire truth).
        let is_metrics = self.is_telemetry_stream(stream_id);
        let pool_enabled = self.pool.enabled();
        let inline_below = self.pool.inline_below_bytes();
        let mut done: Vec<WaveOutput> = Vec::new();
        {
            let Some(st) = self.streams.get_mut(&stream_id) else {
                return;
            };
            for wave in waves {
                if !is_metrics {
                    self.perf.waves += 1;
                }
                // Earliest injection stamp in the wave: back-filled onto
                // unstamped filter outputs so latency survives reduction.
                let wave_stamp = wave
                    .iter()
                    .map(|p| p.stamp_us())
                    .filter(|&s| s > 0)
                    .min()
                    .unwrap_or(0);
                // Canonical trace id for the wave: the minimum nonzero id,
                // so every process that merges (part of) this wave picks
                // the same one deterministically.
                let wave_trace = wave
                    .iter()
                    .map(|p| p.trace_id())
                    .filter(|&t| t > 0)
                    .min()
                    .unwrap_or(0);
                let wave_bytes: usize = wave.iter().map(|p| p.value().encoded_len()).sum();
                let pooled = pool_enabled && (st.in_flight > 0 || wave_bytes >= inline_below);
                let job = FilterJob {
                    stream: stream_id,
                    filter: Arc::clone(&st.tfilter),
                    wave,
                    rank,
                    is_root,
                    contributing: st.expected.len(),
                    wave_stamp,
                    wave_trace,
                    is_metrics,
                    bidirectional: st.mode == StreamMode::Bidirectional,
                    pooled,
                    enqueued: Instant::now(),
                };
                if pooled {
                    match self.pool.submit(job) {
                        None => {
                            st.in_flight += 1;
                            self.pool_in_flight += 1;
                        }
                        // Worker died (panicking filter): the wave ran
                        // inline instead; nothing entered the queue.
                        Some(out) => done.push(out),
                    }
                } else {
                    done.push(execute(job));
                }
            }
        }
        for out in done {
            self.apply_wave_output(out);
        }
    }

    /// Fold one executed wave's results back into the process: perf
    /// accounting, in-flight bookkeeping, and output dispatch.
    fn apply_wave_output(&mut self, out: WaveOutput) {
        let rank = self.rank;
        let stream_id = out.stream;
        if out.pooled {
            self.pool_in_flight = self.pool_in_flight.saturating_sub(1);
            if let Some(st) = self.streams.get_mut(&stream_id) {
                st.in_flight = st.in_flight.saturating_sub(1);
            }
            if !out.is_metrics {
                self.executor_wait_interval.record(out.queue_wait_ns);
            }
        }
        if !out.is_metrics {
            self.perf.waves_executed += 1;
            self.perf.filter_ns += out.transform_ns;
            self.perf.filter_busy_us += out.transform_ns / 1_000;
            self.perf.filter_out += out.outputs.len() as u64;
            self.filter_exec_interval.record(out.transform_ns);
        }
        // Executor attribution for sampled waves. Start times are
        // reconstructed backwards from now (end − duration): only the
        // durations are load-bearing, and both measurements were taken on
        // this process's clock inside the executor.
        if out.wave_trace != 0 {
            let end = now_us();
            let exec_us = out.transform_ns / 1_000;
            if out.pooled {
                let wait_us = out.queue_wait_ns / 1_000;
                self.span_dur(
                    out.wave_trace,
                    stream_id,
                    TraceStage::ExecutorQueue,
                    end.saturating_sub(exec_us + wait_us),
                    wait_us,
                    0,
                );
            }
            self.span_dur(
                out.wave_trace,
                stream_id,
                TraceStage::FilterExec,
                end.saturating_sub(exec_us),
                exec_us,
                0,
            );
        }
        for pkt in out.outputs {
            self.emit_up(pkt);
        }
        for pkt in out.reverse {
            self.send_down_packet(stream_id, pkt);
        }
        if let Some(detail) = out.error {
            self.emit_event(NetEvent::FilterError {
                rank,
                detail: format!("transformation on {stream_id}: {detail}"),
            });
        }
    }

    /// Apply every wave still in the pool before shutdown concludes, bounded
    /// by the shutdown timeout so a wedged filter cannot hold the tree open.
    fn drain_pool(&mut self) {
        let deadline = Instant::now() + self.config.shutdown_timeout;
        while self.pool_in_flight > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.pool.recv_result_timeout(deadline - now) {
                Some(out) => self.apply_wave_output(out),
                None => break,
            }
        }
    }

    /// Upstream data from a child.
    #[allow(clippy::too_many_arguments)]
    fn handle_up(
        &mut self,
        from: Rank,
        stream_id: StreamId,
        tag: Tag,
        origin: Rank,
        sent_us: u64,
        trace: u64,
        value: DataValue,
    ) {
        let now = Instant::now();
        let tracing = self.config.trace.enabled();
        let track_gap = self.health_on && !self.is_telemetry_stream(stream_id);
        let (waves, merge, gap) = {
            let Some(st) = self.streams.get_mut(&stream_id) else {
                // Stream closed or unknown: drop (paper model has no nack).
                return;
            };
            let pkt = Packet::traced(stream_id, tag, origin, sent_us, trace, value);
            if tracing && trace != 0 {
                let t = now_us();
                if st.merge_trace == 0 {
                    st.merge_first_us = t;
                    st.merge_trace = trace;
                } else {
                    st.merge_trace = st.merge_trace.min(trace);
                }
                st.merge_last_us = t;
                st.merge_last_from = from.0;
            }
            if track_gap {
                if st.gap_first.is_none() {
                    st.gap_first = Some(now);
                }
                st.gap_last = Some(now);
                st.gap_last_from = from.0;
            }
            let ctx = SyncContext {
                stream: stream_id,
                rank: self.rank,
                expected: st.expected.clone(),
                now,
            };
            let waves = st.sync.push(from, pkt, &ctx);
            let merge = take_merge_span(st, &waves);
            let gap = take_health_gap(st, &waves);
            (waves, merge, gap)
        };
        self.note_merge_gap(gap);
        if let Some((trace, first, last, last_from)) = merge {
            // The sync filter just released waves: first-to-last traced
            // arrival is the child-merge wait, charged to the child whose
            // packet came last (the straggler).
            self.span_dur(
                trace,
                stream_id,
                TraceStage::ChildMerge,
                first,
                last.saturating_sub(first),
                last_from as u64,
            );
        }
        self.process_waves(stream_id, waves);
    }

    /// Instantiate and register a stream at this process, and forward the
    /// creation message toward member subtrees.
    fn handle_new_stream(&mut self, msg: &Arc<Envelope>) {
        let Message::NewStream {
            stream,
            members,
            transformation,
            params,
            sync_name,
            sync_params,
            downstream_filter,
            downstream_params,
            mode,
        } = msg.msg()
        else {
            unreachable!("caller matched NewStream");
        };
        let stream_id = *stream;
        // A stream whose members include this communication process is an
        // in-band plane's stream: we contribute payloads ourselves, so our
        // own rank joins `expected` and the plane's slot is armed.
        let self_member = members.contains(&self.rank);
        // Which children lead to members?
        let buckets = {
            let topo = self.topology.read();
            let node_members: Vec<NodeId> = members.iter().map(|r| NodeId(r.0)).collect();
            topo.route(NodeId(self.rank.0), &node_members)
        };
        let routes: Vec<Rank> = buckets
            .iter()
            .map(|(c, _)| Rank(c.0))
            .filter(|c| !self.dead_children.contains(c))
            .collect();

        let tfilter = self.registry.create_transformation(transformation, params);
        let sync = self.registry.create_synchronization(sync_name, sync_params);
        let dfilter = match downstream_filter {
            Some(name) => match self.registry.create_transformation(name, downstream_params) {
                Ok(f) => Ok(Some(f)),
                Err(e) => Err(e),
            },
            None => Ok(None),
        };
        match (tfilter, sync, dfilter) {
            (Ok(tfilter), Ok(sync), Ok(dfilter)) => {
                let mut expected = routes.clone();
                if self_member {
                    expected.push(self.rank);
                }
                self.streams.insert(
                    stream_id,
                    StreamState {
                        members: members.clone(),
                        expected,
                        down_routes: routes.clone(),
                        sync,
                        tfilter: Arc::new(Mutex::new(tfilter)),
                        dfilter,
                        mode: *mode,
                        in_flight: 0,
                        merge_trace: 0,
                        merge_first_us: 0,
                        merge_last_us: 0,
                        merge_last_from: 0,
                        gap_first: None,
                        gap_last: None,
                        gap_last_from: 0,
                    },
                );
                self.events.push("stream_open", stream_id.to_string());
                if let Some(plane) = Plane::of_filter(transformation).filter(|_| self_member) {
                    let interval_us = params.as_u64().filter(|v| *v > 0).unwrap_or(1_000_000);
                    let interval = Duration::from_micros(interval_us);
                    self.planes.open(plane, stream_id, interval, Instant::now());
                    if plane == Plane::Metrics {
                        self.metrics_last = self.perf;
                    }
                    let detail = match plane.desc().publish {
                        Publish::OnInterval => format!("{stream_id} every {interval:?}"),
                        Publish::OnEvent => stream_id.to_string(),
                    };
                    self.events
                        .push(&format!("{}_open", plane.desc().name), detail);
                }
            }
            (t, s, d) => {
                let detail = [
                    t.err().map(|e| e.to_string()),
                    s.err().map(|e| e.to_string()),
                    d.err().map(|e| e.to_string()),
                ]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .join("; ");
                let rank = self.rank;
                self.emit_event(NetEvent::FilterError { rank, detail });
                return;
            }
        }
        // Forward the identical message to each involved child (FIFO links
        // guarantee it precedes any data we send on this stream).
        for child in routes {
            let _ = self.send_to_noted(child, msg);
        }
    }

    fn handle_close_stream(&mut self, msg: &Arc<Envelope>, stream_id: StreamId) {
        if let Some(st) = self.streams.remove(&stream_id) {
            self.events.push("stream_close", stream_id.to_string());
            // Held waves die with the stream; frames already parked behind
            // closed windows still flush on credit (children drop data for
            // streams they no longer know).
            self.held_waves.remove(&stream_id);
            for child in st.down_routes {
                let _ = self.send_to_noted(child, msg);
            }
        }
        self.planes.close(stream_id);
        if let ProcessRole::Root { fe_streams, .. } = &mut self.role {
            fe_streams.remove(&stream_id);
        }
    }

    /// Begin or continue a LoadFilter probe at this node.
    fn handle_load_filter(&mut self, msg: &Arc<Envelope>, name: &str, kind: FilterKind) {
        let self_ok = match kind {
            FilterKind::Transformation => self.registry.has_transformation(name),
            FilterKind::Synchronization => self.registry.has_synchronization(name),
        };
        let kids = self.comm_children();
        if kids.is_empty() {
            self.finish_filter_probe(name.to_owned(), self_ok);
            return;
        }
        self.filter_probes.insert(
            name.to_owned(),
            FilterProbe {
                awaiting: kids.iter().copied().collect(),
                ok: self_ok,
            },
        );
        for child in kids {
            let _ = self.send_to_noted(child, msg);
        }
    }

    fn handle_load_filter_ack(&mut self, name: &str, from: Rank, ok: bool) {
        let done = {
            let Some(probe) = self.filter_probes.get_mut(name) else {
                return;
            };
            probe.awaiting.remove(&from);
            probe.ok &= ok;
            probe.awaiting.is_empty()
        };
        if done {
            let probe = self.filter_probes.remove(name).expect("probe exists");
            self.finish_filter_probe(name.to_owned(), probe.ok);
        }
    }

    /// Report a completed probe up the tree (or to the front-end at root).
    fn finish_filter_probe(&mut self, name: String, ok: bool) {
        match &mut self.role {
            ProcessRole::Root { filter_replies, .. } => {
                if let Some(reply) = filter_replies.remove(&name) {
                    let _ = reply.send(Ok(ok));
                }
            }
            ProcessRole::Internal { parent } => {
                let parent = *parent;
                let msg = envelope(Message::LoadFilterAck { name, ok });
                let _ = self.send_to(parent, &msg);
            }
        }
    }

    /// Propagate Shutdown to children; returns true when this process can
    /// exit immediately (no children to wait for).
    fn begin_shutdown(&mut self) -> bool {
        self.shutting_down = true;
        self.events.push("shutdown", "");
        let kids = self.live_children();
        if kids.is_empty() {
            return true;
        }
        self.shutdown_pending = kids.iter().copied().collect();
        let msg = envelope(Message::Shutdown);
        for child in kids {
            if self.send_to_noted(child, &msg).is_err() {
                self.shutdown_pending.remove(&child);
            }
        }
        self.shutdown_pending.is_empty()
    }

    /// Called when a subtree acks shutdown (or a child dies during one).
    /// Returns true when the whole subtree below us is done.
    fn note_shutdown_ack(&mut self, child: Rank) -> bool {
        self.shutdown_pending.remove(&child);
        self.shutting_down && self.shutdown_pending.is_empty()
    }

    /// Complete this process's part of the shutdown and report upward.
    fn conclude_shutdown(&mut self) {
        // Waves still in the pool carry filter state the application may be
        // waiting on (the last reduction of a stream); finish them first.
        self.drain_pool();
        match &mut self.role {
            ProcessRole::Root { shutdown_reply, .. } => {
                if let Some(reply) = shutdown_reply.take() {
                    let _ = reply.send(Ok(()));
                }
            }
            ProcessRole::Internal { parent } => {
                let parent = *parent;
                let rank = self.rank;
                let msg = envelope(Message::ShutdownAck { rank });
                let _ = self.send_to(parent, &msg);
            }
        }
    }

    /// Handle a lost child: failure notice, sync-filter bookkeeping, and
    /// topology cleanup.
    fn handle_child_failure(&mut self, child: Rank) {
        if self.dead_children.contains(&child) {
            return;
        }
        // Disconnects from nodes that are not (or no longer) our children —
        // a spliced-out ex-parent, the control endpoint — carry no failure
        // information for us.
        let is_child = {
            let topo = self.topology.read();
            topo.children(NodeId(self.rank.0)).contains(&child.0)
        };
        if !is_child && !self.shutting_down {
            return;
        }
        self.dead_children.insert(child);
        self.drop_flow_state(child);

        if self.shutting_down {
            if self.note_shutdown_ack(child) {
                self.conclude_shutdown();
            }
            return;
        }

        let rank = self.rank;
        let child_role = {
            let topo = self.topology.read();
            topo.role(NodeId(child.0))
        };
        let lost_members: Vec<Rank> = if child_role == Role::Internal {
            // A communication process died: its whole subtree is orphaned
            // but alive. Report upward and wait for the front-end to heal
            // (Network::heal_internal_failure splices + reconnects). The
            // topology is updated by the healer, not here, and members
            // below the orphaned subtree keep their stream membership.
            self.emit_event(NetEvent::SubtreeOrphaned {
                rank: child,
                detected_by: rank,
            });
            Vec::new()
        } else {
            // A back-end died: detach it and report the loss.
            {
                let mut topo = self.topology.write();
                let _ = topo.detach_leaf(NodeId(child.0));
            }
            self.emit_event(NetEvent::BackendLost {
                rank: child,
                detected_by: rank,
            });
            vec![child]
        };
        // Flight recorder: a failure-detector verdict always captures
        // (the loss event above is already in the ring, so the bundle
        // carries it).
        self.record_incident(IncidentReason::ChildLost, child, None);

        // Unblock synchronization filters waiting on the dead child.
        let ids: Vec<StreamId> = self.streams.keys().copied().collect();
        let now = Instant::now();
        let mut pruned: Vec<StreamId> = Vec::new();
        let mut was_member_of: Vec<StreamId> = Vec::new();
        for stream_id in ids {
            let waves = {
                let st = self.streams.get_mut(&stream_id).expect("exists");
                if !st.expected.contains(&child) {
                    continue;
                }
                st.expected.retain(|c| *c != child);
                st.down_routes.retain(|c| *c != child);
                if st.members.contains(&child) && lost_members.contains(&child) {
                    was_member_of.push(stream_id);
                }
                st.members.retain(|m| !lost_members.contains(m));
                if st.expected.is_empty() {
                    pruned.push(stream_id);
                }
                let ctx = SyncContext {
                    stream: stream_id,
                    rank,
                    expected: st.expected.clone(),
                    now,
                };
                st.sync.child_gone(child, &ctx)
            };
            self.process_waves(stream_id, waves);
        }
        if !was_member_of.is_empty() {
            self.lost_leaf_streams.insert(child, was_member_of);
        }
        // With no contributors left we can never complete a wave for these
        // streams: tell the parent to stop waiting for us.
        for stream_id in pruned {
            self.send_prune(stream_id);
        }
    }

    /// Tell the parent we no longer contribute to a stream (internal nodes
    /// only; at the root an empty stream simply goes quiet).
    fn send_prune(&mut self, stream_id: StreamId) {
        if let ProcessRole::Internal { parent } = self.role {
            let msg = envelope(Message::StreamPrune { stream: stream_id });
            let _ = self.send_to(parent, &msg);
        }
    }

    /// A child subtree can no longer contribute to `stream`: treat it like
    /// a per-stream failure of that child, cascading upward if we in turn
    /// run out of contributors.
    fn handle_stream_prune(&mut self, from: Rank, stream_id: StreamId) {
        let rank = self.rank;
        let now = Instant::now();
        let mut prune_up = false;
        let waves = {
            let Some(st) = self.streams.get_mut(&stream_id) else {
                return;
            };
            if !st.expected.contains(&from) {
                return;
            }
            st.expected.retain(|c| *c != from);
            // Keep the downstream route: the pruned subtree may still hold
            // live members for multicast? No — a prune means no members
            // remain below, so drop it both ways.
            st.down_routes.retain(|c| *c != from);
            if st.expected.is_empty() {
                prune_up = true;
            }
            let ctx = SyncContext {
                stream: stream_id,
                rank,
                expected: st.expected.clone(),
                now,
            };
            st.sync.child_gone(from, &ctx)
        };
        self.process_waves(stream_id, waves);
        if prune_up {
            self.send_prune(stream_id);
        }
    }

    /// Reconfiguration: adopt a child (the survivor of a spliced-out
    /// communication process) and recompute per-stream routing so its
    /// traffic counts again.
    fn handle_adopt(&mut self, child: Rank) {
        self.dead_children.remove(&child);
        self.events.push("adopt_child", child.to_string());
        // An adopted (or re-adopted) child starts with a fresh, full
        // window: whatever credit state predates the reconfiguration
        // belongs to a link that no longer exists.
        self.drop_flow_state(child);
        // A re-adopted leaf gets its stream memberships back (they were
        // stripped when its loss was detected); the route recompute below
        // then rebuilds expected/down_routes from the restored member sets.
        if let Some(streams) = self.lost_leaf_streams.remove(&child) {
            for stream_id in streams {
                if let Some(st) = self.streams.get_mut(&stream_id) {
                    if !st.members.contains(&child) {
                        st.members.push(child);
                    }
                }
            }
        }
        let rank = self.rank;
        let ids: Vec<StreamId> = self.streams.keys().copied().collect();
        let now = Instant::now();
        for stream_id in ids {
            let waves = {
                let st = self.streams.get_mut(&stream_id).expect("exists");
                let buckets = {
                    let topo = self.topology.read();
                    let members: Vec<NodeId> = st.members.iter().map(|r| NodeId(r.0)).collect();
                    topo.route(NodeId(rank.0), &members)
                };
                let mut routes: Vec<Rank> = buckets
                    .iter()
                    .map(|(c, _)| Rank(c.0))
                    .filter(|c| !self.dead_children.contains(c))
                    .collect();
                st.down_routes = routes.clone();
                // On the planes' streams this process is itself a
                // contributor; the recomputed routes must not evict it.
                if self.planes.of(stream_id).is_some() {
                    routes.push(rank);
                }
                st.expected = routes;
                let ctx = SyncContext {
                    stream: stream_id,
                    rank,
                    expected: st.expected.clone(),
                    now,
                };
                st.sync.reexamine(&ctx)
            };
            self.process_waves(stream_id, waves);
        }
    }

    /// Confirm a reconfiguration message to its (control-endpoint) sender.
    fn ack_reconfig(&mut self, to: Rank) {
        let rank = self.rank;
        let msg = envelope(Message::ReconfigAck { rank });
        let _ = self.send_to(to, &msg);
    }

    /// Reconfiguration: switch our upstream output to a new parent.
    fn handle_new_parent(&mut self, parent: Rank) {
        self.orphaned_until = None;
        self.events.push("new_parent", parent.to_string());
        if let ProcessRole::Internal { parent: p } = &mut self.role {
            *p = parent;
        }
    }

    /// Fire timer-based flushes whose deadline has passed, and publish on
    /// every plane whose interval elapsed.
    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        self.publish_planes(now);
        self.sample_health(now);
        // Liveness through closed windows: a child whose window has been
        // closed with zero grants for a whole grant deadline is not slow,
        // it is gone — the failure detector stays authoritative and flow
        // control degrades into the legacy kill instead of wedging.
        let deadline = self.grant_deadline();
        let silent: Vec<Rank> = self
            .flow
            .iter()
            .filter(|(_, f)| f.closed_since.is_some_and(|t| now >= t + deadline))
            .map(|(c, _)| *c)
            .collect();
        for child in silent {
            self.events.push("flow_silent", child.to_string());
            // Capture before the failure path tears the child's window
            // state down — the bundle's flow section is the evidence.
            self.record_incident(IncidentReason::FlowSilent, child, None);
            self.handle_child_failure(child);
        }
        // While we are the one deferring grants (parked backlog toward a
        // slow child), keep the zero-credit keepalive flowing so our own
        // parent's silence clock doesn't mistake pressure for death.
        self.maybe_send_grant();
        let due: Vec<StreamId> = self
            .streams
            .iter()
            .filter(|(_, st)| st.sync.next_deadline().is_some_and(|d| d <= now))
            .map(|(id, _)| *id)
            .collect();
        for stream_id in due {
            let (waves, merge, gap) = {
                let st = self.streams.get_mut(&stream_id).expect("exists");
                let ctx = SyncContext {
                    stream: stream_id,
                    rank: self.rank,
                    expected: st.expected.clone(),
                    now,
                };
                let waves = st.sync.flush(&ctx);
                let merge = take_merge_span(st, &waves);
                let gap = take_health_gap(st, &waves);
                (waves, merge, gap)
            };
            self.note_merge_gap(gap);
            if let Some((trace, first, last, last_from)) = merge {
                self.span_dur(
                    trace,
                    stream_id,
                    TraceStage::ChildMerge,
                    first,
                    last.saturating_sub(first),
                    last_from as u64,
                );
            }
            self.process_waves(stream_id, waves);
        }
    }

    /// Earliest pending sync, plane-publish, health-sampling, or
    /// closed-window liveness deadline.
    fn next_deadline(&self) -> Option<Instant> {
        let sync = self
            .streams
            .values()
            .filter_map(|st| st.sync.next_deadline())
            .min();
        let publish = self.planes.next_fire();
        let health = self.health_next_fire;
        let grant_deadline = self.grant_deadline();
        let stall = self
            .flow
            .values()
            .filter_map(|f| f.closed_since.map(|t| t + grant_deadline))
            .min();
        [sync, publish, health, stall].into_iter().flatten().min()
    }

    /// Self-inject a payload into a plane's stream as if it arrived from
    /// ourselves — it then merges with the children's payloads through the
    /// stream's ordinary wave machinery.
    fn inject(&mut self, stream: StreamId, seq: u64, value: DataValue) {
        let rank = self.rank;
        self.handle_up(rank, stream, Tag(seq as u32), rank, 0, 0, value);
    }

    /// Publish on every interval plane whose deadline passed: a
    /// [`MetricsSample`] of this interval's counter deltas, or the span
    /// ring's drain (bounded by the per-interval byte cap; an empty ring
    /// publishes nothing). On-event planes never come due here — see
    /// [`CommProcess::record_incident`].
    fn publish_planes(&mut self, now: Instant) {
        for plane in Plane::ALL {
            let Some(due) = self.planes.due(plane, now) else {
                continue;
            };
            let value = match plane {
                Plane::Metrics => Some(self.metrics_sample(due.seq, due.interval).to_value()),
                Plane::Trace if !self.spans.is_empty() => Some(
                    self.spans
                        .drain_batch(self.config.trace.max_bytes_per_interval)
                        .to_value(),
                ),
                Plane::Trace | Plane::Incident => None,
            };
            if let Some(value) = value {
                self.inject(due.stream, due.seq, value);
            }
        }
    }

    /// This interval's [`MetricsSample`]: counter deltas since the previous
    /// publish plus the interval histograms, which it drains.
    fn metrics_sample(&mut self, seq: u64, interval: Duration) -> MetricsSample {
        // Batching counters live in the writer threads; pull them into the
        // perf block so the delta below reflects this interval's batching.
        self.refresh_transport_counters();
        let delta = self.perf.delta_since(&self.metrics_last);
        self.metrics_last = self.perf;

        let mut queue_depth = LogHistogram::new();
        for peer in self.endpoint.peers.ids() {
            if let Some(link) = self.endpoint.peers.get(peer) {
                if let Some(depth) = link.queue_depth() {
                    queue_depth.record(depth as u64);
                }
            }
        }
        let mut executor_queue_depth = LogHistogram::new();
        for depth in self.pool.queue_depths() {
            executor_queue_depth.record(depth as u64);
        }
        let level = {
            let topo = self.topology.read();
            topo.depth_of(NodeId(self.rank.0))
        };
        let mut level_packets_up = vec![0u64; level + 1];
        level_packets_up[level] = delta.packets_up;
        MetricsSample {
            seq,
            interval_us: interval.as_micros() as u64,
            processes: 1,
            counters: delta,
            wave_latency_us: std::mem::take(&mut self.wave_latency_interval),
            filter_exec_ns: std::mem::take(&mut self.filter_exec_interval),
            executor_wait_ns: std::mem::take(&mut self.executor_wait_interval),
            queue_depth,
            executor_queue_depth,
            // Recovery latencies live with the supervisor; the front-end
            // handle grafts them into received samples (network.rs).
            recovery_us: LogHistogram::new(),
            level_packets_up,
            events_dropped: self.events.dropped(),
        }
    }

    /// Fold the writer threads' batching counters into the perf block.
    /// Links come and go (heals swap them out, taking their counters with
    /// them), so the lifetime totals only ever ratchet forward.
    fn refresh_transport_counters(&mut self) {
        let mut batches = 0u64;
        let mut frames = 0u64;
        for peer in self.endpoint.peers.ids() {
            if let Some(link) = self.endpoint.peers.get(peer) {
                if let Some(stats) = link.batch_stats() {
                    batches += stats.batches;
                    frames += stats.frames;
                }
            }
        }
        self.perf.batches_sent = self.perf.batches_sent.max(batches);
        self.perf.frames_batched = self.perf.frames_batched.max(frames);
    }

    /// Fold a completed wave's arrival gap into the interval maximum the
    /// health plane samples as [`HealthSignal::StragglerGap`].
    fn note_merge_gap(&mut self, gap: Option<(u64, u32)>) {
        if let Some((gap_us, from)) = gap {
            if gap_us > self.max_merge_gap_us {
                self.max_merge_gap_us = gap_us;
                self.max_merge_gap_from = from;
            }
        }
    }

    /// If the health check interval elapsed, sample every signal against
    /// its EWMA baseline; threshold crossings raise
    /// [`NetEvent::HealthWarning`] and trip the flight recorder (under the
    /// incident cooldown).
    fn sample_health(&mut self, now: Instant) {
        if self.health_next_fire.is_none_or(|t| now < t) {
            return;
        }
        let interval = self.config.health.check_interval;
        let mut next = self.health_next_fire.expect("checked above");
        while next <= now {
            next += interval;
        }
        self.health_next_fire = Some(next);

        // Raw signal values first (the monitor borrow below is exclusive).
        let writer_queue = self
            .endpoint
            .peers
            .ids()
            .into_iter()
            .filter_map(|p| self.endpoint.peers.get(p).and_then(|l| l.queue_depth()))
            .max()
            .unwrap_or(0) as u64;
        let executor_queue = self.pool.queue_depths().max().unwrap_or(0) as u64;
        let delta = self.perf.delta_since(&self.health_last);
        self.health_last = self.perf;
        let gap_us = std::mem::take(&mut self.max_merge_gap_us);
        let gap_from = std::mem::take(&mut self.max_merge_gap_from);

        let rank = self.rank;
        let ts = now_us();
        let mut fired: Vec<HealthScore> = Vec::new();
        {
            let Some(mon) = self.health.as_mut() else {
                return;
            };
            let samples = [
                (HealthSignal::WriterQueue, rank, writer_queue),
                (HealthSignal::ExecutorQueue, rank, executor_queue),
                (HealthSignal::CreditStall, rank, delta.credits_stalled_us),
                (HealthSignal::StragglerGap, Rank(gap_from), gap_us),
                (HealthSignal::SendFailures, rank, delta.sends_dropped),
            ];
            for (signal, subject, value) in samples {
                if let Some(score) = mon.observe(signal, subject, value, ts) {
                    fired.push(score);
                }
            }
        }
        for score in fired {
            self.perf.health_warnings += 1;
            self.emit_event(NetEvent::HealthWarning {
                rank,
                subject: score.subject,
                signal: score.signal.code(),
                value: score.value,
                baseline: score.baseline,
            });
            self.record_incident(IncidentReason::HealthWarning, score.subject, Some(score));
        }
    }

    /// Trip the flight recorder: freeze-copy this process's forensic state
    /// into an [`IncidentBundle`] and self-inject it into the incident
    /// stream. No-op while no incident stream is open. Health-warning
    /// captures respect the incident cooldown; failure-triggered captures
    /// (lost child, silent window, supervisor verdicts) always fire — a
    /// partition's second loss must not be suppressed by its first.
    fn record_incident(
        &mut self,
        reason: IncidentReason,
        subject: Rank,
        trigger: Option<HealthScore>,
    ) {
        let Some(stream) = self.planes.stream(Plane::Incident) else {
            return;
        };
        let now = Instant::now();
        if reason == IncidentReason::HealthWarning
            && self
                .last_incident
                .is_some_and(|t| now < t + self.config.health.incident_cooldown)
        {
            return;
        }
        self.last_incident = Some(now);
        self.incident_seq += 1;
        let incident = ((self.rank.0 as u64) << 32) | self.incident_seq;
        let bundle = self.capture_bundle(incident, reason, subject, trigger);
        let batch = IncidentBatch {
            dropped: 0,
            items: vec![bundle],
        };
        self.inject(stream, self.incident_seq, batch.to_value());
    }

    /// Freeze-copy this process's forensic state, bounded by
    /// `HealthConfig::bundle_max_bytes`.
    fn capture_bundle(
        &mut self,
        incident: u64,
        reason: IncidentReason,
        subject: Rank,
        trigger: Option<HealthScore>,
    ) -> IncidentBundle {
        let parent = match &self.role {
            ProcessRole::Internal { parent } => *parent,
            ProcessRole::Root { .. } => Rank(u32::MAX),
        };
        let children = self.live_children();
        let counters = self.perf.delta_since(&self.incident_last);
        self.incident_last = self.perf;
        let mut flow: Vec<FlowSummary> = self
            .flow
            .iter()
            .map(|(c, f)| FlowSummary {
                child: *c,
                credit_frames: f.credit_frames,
                credit_bytes: f.credit_bytes,
                parked_frames: f.pending.len() as u64,
                parked_bytes: f.pending.iter().map(|(_, _, len, _)| *len).sum(),
                closed_for_us: f.closed_since.map_or(0, |t| t.elapsed().as_micros() as u64),
            })
            .collect();
        flow.sort_by_key(|f| f.child.0);
        let mut bundle = IncidentBundle {
            incident,
            rank: self.rank,
            reason,
            subject,
            at_us: now_us(),
            parent,
            children,
            counters,
            trigger,
            scores: self
                .health
                .as_ref()
                .map(HealthMonitor::scores)
                .unwrap_or_default(),
            flow,
            events: self.events.snapshot(),
            spans: self.spans.snapshot(),
        };
        bundle.truncate_to(self.config.health.bundle_max_bytes);
        bundle
    }

    /// Append this process's own view to a forwarded incident batch (the
    /// neighbor bundle carries the *original* incident id, which is what
    /// groups the two sides of the link at the front end). Undecodable
    /// payloads pass through untouched; so does a batch this process
    /// already contributed to.
    fn append_neighbor_view(&mut self, pkt: Packet) -> Packet {
        let Ok(mut batch) = IncidentBatch::from_value(pkt.value()) else {
            return pkt;
        };
        let Some(first) = batch.items.first() else {
            return pkt;
        };
        if batch.items.iter().any(|b| b.rank == self.rank) {
            return pkt;
        }
        let (incident, origin) = (first.incident, first.rank);
        let neighbor = self.capture_bundle(incident, IncidentReason::Neighbor, origin, None);
        batch.items.push(neighbor);
        Packet::traced(
            pkt.stream(),
            pkt.tag(),
            pkt.origin(),
            pkt.stamp_us(),
            pkt.trace_id(),
            batch.to_value(),
        )
    }

    /// Process one decoded message from peer `from`. Returns true if the
    /// event loop should exit.
    fn handle_message(&mut self, from: Rank, msg: Arc<Envelope>) -> bool {
        match msg.msg() {
            Message::Up {
                stream,
                tag,
                origin,
                sent_us,
                trace,
                value,
            } => {
                // Telemetry-stream traffic is excluded so the aggregated
                // packet counts describe the application's load, not the
                // telemetry plane's own.
                if !self.is_telemetry_stream(*stream) {
                    self.perf.packets_up += 1;
                }
                self.handle_up(
                    from,
                    *stream,
                    *tag,
                    *origin,
                    *sent_us,
                    *trace,
                    value.clone(),
                );
                false
            }
            Message::Down {
                stream,
                tag,
                origin,
                sent_us,
                trace,
                value,
            } => {
                self.perf.packets_down += 1;
                let wire = msg.encoded_len() as u64;
                let pkt = Packet::traced(*stream, *tag, *origin, *sent_us, *trace, value.clone());
                self.send_down_packet(*stream, pkt);
                // The frame has left our inbox (forwarded or parked toward
                // children): its window slot at the parent is consumable
                // again — unless our own windows are closed, in which case
                // the grant is withheld and the pressure climbs.
                if self.config.flow.enabled() && !self.is_root() {
                    self.consumed_frames += 1;
                    self.consumed_bytes += wire;
                    self.maybe_send_grant();
                }
                false
            }
            Message::NewStream { .. } => {
                self.perf.control += 1;
                self.handle_new_stream(&msg);
                false
            }
            Message::CloseStream { stream } => {
                self.perf.control += 1;
                self.handle_close_stream(&msg, *stream);
                false
            }
            Message::LoadFilter { name, kind } => {
                let (name, kind) = (name.clone(), *kind);
                self.handle_load_filter(&msg, &name, kind);
                false
            }
            Message::LoadFilterAck { name, ok } => {
                let (name, ok) = (name.clone(), *ok);
                self.handle_load_filter_ack(&name, from, ok);
                false
            }
            Message::Shutdown => {
                if self.begin_shutdown() {
                    self.conclude_shutdown();
                    return true;
                }
                false
            }
            Message::ShutdownAck { rank } => {
                let child = *rank;
                if self.note_shutdown_ack(child) {
                    self.conclude_shutdown();
                    return true;
                }
                false
            }
            Message::Event(ev) => {
                // Events only ever travel upstream; relay without logging
                // (the observing process already logged it).
                self.forward_event(ev.clone());
                false
            }
            Message::Adopt { child } => {
                self.handle_adopt(*child);
                self.ack_reconfig(from);
                false
            }
            Message::NewParent { parent } => {
                self.handle_new_parent(*parent);
                self.ack_reconfig(from);
                false
            }
            Message::ReconfigAck { .. } => false, // only the control endpoint cares
            Message::StreamPrune { stream } => {
                self.handle_stream_prune(from, *stream);
                false
            }
            Message::GetPerf => {
                self.refresh_transport_counters();
                let reply = envelope(Message::PerfReport {
                    rank: self.rank,
                    counters: self.perf,
                });
                let _ = self.send_to(from, &reply);
                false
            }
            Message::PerfReport { .. } => false, // only the control endpoint cares
            Message::GetEvents => {
                let events = self.events.drain();
                let dropped = self.events.dropped();
                let reply = envelope(Message::EventLog {
                    rank: self.rank,
                    events,
                    dropped,
                });
                let _ = self.send_to(from, &reply);
                false
            }
            Message::EventLog { .. } => false, // only the control endpoint cares
            Message::CreditGrant { frames, bytes } => {
                self.perf.control += 1;
                self.handle_credit_grant(from, *frames, *bytes);
                false
            }
            Message::IncidentMark { reason, subject } => {
                self.perf.control += 1;
                if let Ok(reason) = IncidentReason::from_code(*reason) {
                    self.record_incident(reason, *subject, None);
                }
                false
            }
        }
    }

    /// Handle one FE command (root only). Returns true to exit.
    fn handle_fe_command(&mut self, cmd: FeCommand) -> bool {
        match cmd {
            FeCommand::NewStream { spec, reply } => {
                let result = self.fe_new_stream(spec);
                let _ = reply.send(result);
                false
            }
            FeCommand::Send {
                stream,
                tag,
                value,
                reply,
            } => {
                let result = if self.streams.contains_key(&stream) {
                    let pkt = Packet::new(stream, tag, Rank(0), value);
                    self.send_down_packet(stream, pkt);
                    Ok(())
                } else {
                    Err(TbonError::StreamClosed(stream))
                };
                let _ = reply.send(result);
                false
            }
            FeCommand::CloseStream { stream, reply } => {
                let msg = envelope(Message::CloseStream { stream });
                self.handle_close_stream(&msg, stream);
                let _ = reply.send(Ok(()));
                false
            }
            FeCommand::LoadFilter { name, kind, reply } => {
                if let ProcessRole::Root { filter_replies, .. } = &mut self.role {
                    filter_replies.insert(name.clone(), reply);
                }
                let msg = envelope(Message::LoadFilter {
                    name: name.clone(),
                    kind,
                });
                self.handle_load_filter(&msg, &name, kind);
                false
            }
            FeCommand::Shutdown { reply } => {
                if let ProcessRole::Root { shutdown_reply, .. } = &mut self.role {
                    *shutdown_reply = Some(reply);
                }
                if self.begin_shutdown() {
                    self.conclude_shutdown();
                    return true;
                }
                false
            }
            FeCommand::OpenPlane {
                plane,
                interval,
                merge,
                reply,
            } => {
                let result = self.fe_open_plane(plane, interval, merge);
                let _ = reply.send(result);
                false
            }
            FeCommand::WaveLatency { reply } => {
                let _ = reply.send(self.wave_latency_by_stream.clone());
                false
            }
        }
    }

    /// Open one of the in-band planes (see `plane.rs`): a reserved stream
    /// whose members are the plane's publishers — the communication
    /// processes, plus every live back-end where the plane's descriptor
    /// says so — merged hop by hop by the plane's filter and synchronized
    /// by the plane's policy. With `merge` off the filter is swapped for
    /// pass-through, so every publisher's payload reaches the front end
    /// individually (metrics drill-down).
    fn fe_open_plane(
        &mut self,
        plane: Plane,
        interval: Duration,
        merge: bool,
    ) -> Result<(StreamId, Receiver<Packet>)> {
        let desc = plane.desc();
        if let Some(open) = self.planes.stream(plane) {
            return Err(TbonError::Filter(format!(
                "{} stream {open} is already open",
                desc.name
            )));
        }
        if plane == Plane::Trace && !self.config.trace.enabled() {
            return Err(TbonError::Filter(
                "tracing is disabled (NetworkConfig.trace.sample_every is 0)".into(),
            ));
        }
        let members: Vec<Rank> = {
            let topo = self.topology.read();
            topo.node_ids()
                .filter(|&n| match topo.role(n) {
                    Role::FrontEnd | Role::Internal => true,
                    Role::BackEnd => desc.membership == Membership::EveryLiveRank,
                    Role::Detached => false,
                })
                .map(|n| Rank(n.0))
                .collect()
        };
        let transformation = if merge { desc.filter } else { DRILLDOWN_FILTER };
        self.fe_create_stream(|stream| Message::NewStream {
            stream,
            members,
            transformation: transformation.to_owned(),
            params: DataValue::U64(interval.as_micros() as u64),
            sync_name: desc.sync.to_owned(),
            sync_params: plane.sync_params(interval),
            downstream_filter: None,
            downstream_params: DataValue::Unit,
            mode: StreamMode::Upstream,
        })
    }

    /// Allocate the next stream id, instantiate the stream `new_stream`
    /// describes for it (a `NewStream` message) at the root and down the
    /// tree, and hand its receive end to the front end.
    fn fe_create_stream(
        &mut self,
        new_stream: impl FnOnce(StreamId) -> Message,
    ) -> Result<(StreamId, Receiver<Packet>)> {
        let ProcessRole::Root { next_stream, .. } = &mut self.role else {
            unreachable!("front-end command on an internal process");
        };
        let stream_id = StreamId(*next_stream);
        *next_stream += 1;
        self.handle_new_stream(&envelope(new_stream(stream_id)));
        if !self.streams.contains_key(&stream_id) {
            return Err(TbonError::Filter(format!(
                "failed to instantiate filters for {stream_id} at root"
            )));
        }
        let (tx, rx) = crossbeam_channel::unbounded();
        if let ProcessRole::Root { fe_streams, .. } = &mut self.role {
            fe_streams.insert(stream_id, tx);
        }
        Ok((stream_id, rx))
    }

    /// Allocate and create a stream at the root on behalf of the front-end.
    fn fe_new_stream(&mut self, spec: StreamSpec) -> Result<(StreamId, Receiver<Packet>)> {
        let members: Vec<Rank> = {
            let topo = self.topology.read();
            match &spec.members {
                Members::All => {
                    let leaves: Vec<Rank> = topo.leaves().into_iter().map(|n| Rank(n.0)).collect();
                    if leaves.is_empty() {
                        return Err(TbonError::BadMembers("topology has no back-ends".into()));
                    }
                    leaves
                }
                Members::Ranks(ranks) => {
                    if ranks.is_empty() {
                        return Err(TbonError::BadMembers("empty member list".into()));
                    }
                    for r in ranks {
                        if topo.role(NodeId(r.0)) != Role::BackEnd {
                            return Err(TbonError::BadMembers(format!(
                                "{r} is not a live back-end"
                            )));
                        }
                    }
                    ranks.clone()
                }
                Members::Subtree(node) => {
                    let id = NodeId(node.0);
                    if !topo.contains(id) || topo.role(id) == Role::Detached {
                        return Err(TbonError::BadMembers(format!(
                            "{node} is not in the topology"
                        )));
                    }
                    let leaves: Vec<Rank> = topo
                        .leaves_below(id)
                        .into_iter()
                        .filter(|n| topo.role(*n) == Role::BackEnd)
                        .map(|n| Rank(n.0))
                        .collect();
                    if leaves.is_empty() {
                        return Err(TbonError::BadMembers(format!("no back-ends below {node}")));
                    }
                    leaves
                }
            }
        };

        // Validate filters up front at the root; remote processes revalidate
        // and report errors via events.
        if !self.registry.has_transformation(&spec.transformation) {
            return Err(TbonError::UnknownFilter(spec.transformation.clone()));
        }
        if !self.registry.has_synchronization(&spec.sync_name) {
            return Err(TbonError::UnknownFilter(spec.sync_name.clone()));
        }
        if let Some(name) = &spec.downstream_filter {
            if !self.registry.has_transformation(name) {
                return Err(TbonError::UnknownFilter(name.clone()));
            }
        }

        self.fe_create_stream(|stream| Message::NewStream {
            stream,
            members,
            transformation: spec.transformation,
            params: spec.params,
            sync_name: spec.sync_name,
            sync_params: spec.sync_params,
            downstream_filter: spec.downstream_filter,
            downstream_params: spec.downstream_params,
            mode: spec.mode,
        })
    }

    /// The event loop. Runs until shutdown completes or the parent vanishes.
    pub(crate) fn run(mut self) {
        self.events
            .push("start", if self.is_root() { "root" } else { "internal" });
        /// How many back-to-back inputs may be handled between expired-
        /// deadline scans. A scan costs a clock read plus a walk of the
        /// stream table, and with a deadline armed (timeout sync or the
        /// telemetry plane) doing it per input measurably taxes wave
        /// throughput. Worst case a deadline fires this many back-to-back
        /// inputs late — microseconds, since the strobe only lags while
        /// messages are processed at full speed; the moment the queue runs
        /// dry the blocking path below wakes at the precise deadline.
        const DEADLINE_STROBE: u32 = 64;
        let mut inputs_since_scan: u32 = 0;
        loop {
            enum Input {
                Net(Delivery),
                Cmd(FeCommand),
                Pool(WaveOutput),
                Tick,
                NetClosed,
                CmdClosed,
            }

            // Fast path: under continuous traffic the next message is
            // already queued, and computing a blocking timeout (deadline
            // walk plus a clock read) per input is pure overhead. Only fall
            // back to deadline math when we actually have to block. Pool
            // results take priority over FE commands: they carry filter
            // outputs already paid for, and applying them frees in-flight
            // slots that gate the inline fast path.
            let ready = match &self.role {
                ProcessRole::Root { fe_cmd, .. } => match self.endpoint.incoming.try_recv() {
                    Ok(d) => Some(Input::Net(d)),
                    Err(crossbeam_channel::TryRecvError::Disconnected) => Some(Input::NetClosed),
                    Err(crossbeam_channel::TryRecvError::Empty) => {
                        match self.pool.try_recv_result() {
                            Some(out) => Some(Input::Pool(out)),
                            None => match fe_cmd.try_recv() {
                                Ok(c) => Some(Input::Cmd(c)),
                                Err(crossbeam_channel::TryRecvError::Disconnected) => {
                                    Some(Input::CmdClosed)
                                }
                                Err(crossbeam_channel::TryRecvError::Empty) => None,
                            },
                        }
                    }
                },
                ProcessRole::Internal { .. } => match self.endpoint.incoming.try_recv() {
                    Ok(d) => Some(Input::Net(d)),
                    Err(crossbeam_channel::TryRecvError::Disconnected) => Some(Input::NetClosed),
                    Err(crossbeam_channel::TryRecvError::Empty) => {
                        self.pool.try_recv_result().map(Input::Pool)
                    }
                },
            };

            let input = if let Some(input) = ready {
                input
            } else {
                let timeout = self
                    .next_deadline()
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .unwrap_or(self.config.idle_tick)
                    .min(self.config.idle_tick);
                match &self.role {
                    ProcessRole::Root { fe_cmd, .. } => {
                        crossbeam_channel::select! {
                            recv(self.endpoint.incoming) -> d => match d {
                                Ok(d) => Input::Net(d),
                                Err(_) => Input::NetClosed,
                            },
                            recv(self.pool.results()) -> r => match r {
                                Ok(out) => Input::Pool(out),
                                // Unreachable: the pool holds a sender.
                                Err(_) => Input::Tick,
                            },
                            recv(fe_cmd) -> c => match c {
                                Ok(c) => Input::Cmd(c),
                                Err(_) => Input::CmdClosed,
                            },
                            default(timeout) => Input::Tick,
                        }
                    }
                    ProcessRole::Internal { .. } => {
                        crossbeam_channel::select! {
                            recv(self.endpoint.incoming) -> d => match d {
                                Ok(d) => Input::Net(d),
                                Err(_) => Input::NetClosed,
                            },
                            recv(self.pool.results()) -> r => match r {
                                Ok(out) => Input::Pool(out),
                                // Unreachable: the pool holds a sender.
                                Err(_) => Input::Tick,
                            },
                            default(timeout) => Input::Tick,
                        }
                    }
                }
            };

            match input {
                Input::Net(Delivery::Frame { from, frame }) => {
                    let t0 = if self.config.trace.enabled() {
                        now_us()
                    } else {
                        0
                    };
                    match decode_frame(frame) {
                        Ok(msg) => {
                            // Decode attribution for sampled data frames;
                            // the trace id is only known once decoding
                            // finishes.
                            if t0 != 0 {
                                if let Message::Up { stream, trace, .. }
                                | Message::Down { stream, trace, .. } = msg.msg()
                                {
                                    let (stream, trace) = (*stream, *trace);
                                    self.span_since(trace, stream, TraceStage::Decode, t0, 0);
                                }
                            }
                            if self.handle_message(Rank(from), msg) {
                                break;
                            }
                        }
                        Err(e) => {
                            let rank = self.rank;
                            self.emit_event(NetEvent::FilterError {
                                rank,
                                detail: format!("frame decode from rank{from}: {e}"),
                            });
                        }
                    }
                }
                Input::Net(Delivery::Disconnected { peer }) => {
                    let peer = Rank(peer);
                    let is_parent = matches!(
                        self.role,
                        ProcessRole::Internal { parent } if parent == peer
                    );
                    if is_parent {
                        if self.shutting_down {
                            break;
                        }
                        // Orphaned: hold on for the reconfiguration grace
                        // period in case the front-end heals the tree.
                        self.orphaned_until = Some(Instant::now() + self.config.orphan_grace);
                        self.events.push("orphaned", peer.to_string());
                    } else {
                        self.handle_child_failure(peer);
                        if self.shutting_down && self.shutdown_pending.is_empty() {
                            break;
                        }
                    }
                }
                Input::Cmd(cmd) => {
                    if self.handle_fe_command(cmd) {
                        break;
                    }
                }
                Input::Pool(out) => self.apply_wave_output(out),
                Input::Tick => {
                    if self
                        .orphaned_until
                        .is_some_and(|deadline| Instant::now() >= deadline)
                    {
                        // No one re-parented us in time; give up.
                        break;
                    }
                    self.fire_deadlines()
                }
                Input::NetClosed | Input::CmdClosed => break,
            }

            // Under continuous traffic the fast path above always finds
            // input ready and the Tick arm starves; expired deadlines (sync
            // timeouts, metrics publishing) still have to fire, so scan for
            // them every DEADLINE_STROBE inputs.
            inputs_since_scan += 1;
            if inputs_since_scan >= DEADLINE_STROBE {
                inputs_since_scan = 0;
                if !self.shutting_down && self.next_deadline().is_some_and(|d| d <= Instant::now())
                {
                    self.fire_deadlines();
                }
            }
        }
    }
}
