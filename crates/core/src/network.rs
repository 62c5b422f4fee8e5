//! Network instantiation and the front-end API.
//!
//! [`NetworkBuilder`] takes a topology, a transport, a filter registry and a
//! back-end closure; [`NetworkBuilder::launch`] wires the overlay and spawns
//! one thread per process (root, internals, back-ends). The returned
//! [`Network`] is the front-end handle: create [`StreamHandle`]s, multicast
//! downstream, receive filtered upstream data, load filters on demand,
//! attach or kill back-ends, and shut the whole tree down in order.

use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use tbon_topology::{NodeId, Role, Topology, TopologySpec};
use tbon_transport::fault::{FaultPlan, FaultyTransport};
use tbon_transport::{local::LocalTransport, NodeEndpoint, Transport};

use crate::backend::BackendContext;
use crate::config::{NetworkConfig, RetryPolicy};
use crate::consumer::{Deadline, StreamConsumer};
use crate::error::{Result, TbonError};
use crate::filter::FilterRegistry;
use crate::health::IncidentBatch;
use crate::packet::{Packet, Rank};
use crate::plane::{Plane, PlanePayload};
use crate::process::{send_message, CommProcess, FeCommand};
use crate::proto::{Envelope, FilterKind, Message, NetEvent, PerfCounters};
use crate::stream::{StreamId, StreamSpec, Tag};
use crate::supervisor::Supervisor;
use crate::telemetry::{LogHistogram, MetricsSample, ProcessEvents, TraceBatch};
use crate::value::DataValue;

/// Transport peer id of the network's out-of-band control endpoint, used
/// for reconfiguration messages that cannot ride the (broken) tree. Chosen
/// far outside any realistic rank range.
const CONTROL_PEER: u32 = u32::MAX;

/// Transport peer id of the supervisor's own out-of-band endpoint. The
/// supervisor heals the tree from its own thread, so it cannot share the
/// front-end's control endpoint (both drain replies concurrently).
pub(crate) const SUPERVISOR_PEER: u32 = u32::MAX - 1;

/// Closure run on each back-end thread.
pub type BackendFn = dyn Fn(BackendContext) + Send + Sync;

/// Configures and launches a TBON network.
pub struct NetworkBuilder {
    topology: Topology,
    transport: Arc<dyn Transport>,
    registry: Arc<FilterRegistry>,
    backend_fn: Option<Arc<BackendFn>>,
    config: NetworkConfig,
    fault_plan: Option<FaultPlan>,
}

impl NetworkBuilder {
    /// Start building a network over the given process tree. Defaults:
    /// in-process transport, the core filter registry, default config.
    pub fn new(topology: Topology) -> NetworkBuilder {
        NetworkBuilder {
            topology,
            transport: Arc::new(LocalTransport::new()),
            registry: Arc::new(FilterRegistry::new()),
            backend_fn: None,
            config: NetworkConfig::default(),
            fault_plan: None,
        }
    }

    /// Use a specific transport (TCP, shaped, copying-local, ...).
    pub fn transport(mut self, transport: impl Transport + 'static) -> Self {
        self.transport = Arc::new(transport);
        self
    }

    /// Use an already-shared transport.
    pub fn transport_arc(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    /// Use a filter registry (e.g. `tbon_filters::builtin_registry()`).
    pub fn registry(mut self, registry: impl Into<Arc<FilterRegistry>>) -> Self {
        self.registry = registry.into();
        self
    }

    /// Tune runtime parameters. Merges rather than overwrites: a supervisor
    /// already armed via [`NetworkBuilder::retry_policy`] stays armed unless
    /// the incoming config carries its own policy, so the two setters
    /// compose in either order.
    pub fn config(mut self, mut config: NetworkConfig) -> Self {
        if config.supervisor.is_none() {
            config.supervisor = self.config.supervisor.take();
        }
        self.config = config;
        self
    }

    /// The closure run on every back-end thread. Distinguish back-ends via
    /// [`BackendContext::rank`].
    pub fn backend(mut self, f: impl Fn(BackendContext) + Send + Sync + 'static) -> Self {
        self.backend_fn = Some(Arc::new(f));
        self
    }

    /// Inject faults: at launch the transport (whatever was configured) is
    /// wrapped in a [`FaultyTransport`] driven by `plan`, so every tree link
    /// suffers the plan's seeded drops/delays/duplicates/kills. The two
    /// out-of-band control endpoints are spared automatically — chaos is for
    /// the tree, not for the supervisor's scalpel.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Run the in-network supervisor: failure events are healed
    /// automatically under `policy` (shorthand for setting
    /// [`NetworkConfig::supervisor`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.config.supervisor = Some(policy);
        self
    }

    /// Wire the overlay and spawn every process thread.
    pub fn launch(self) -> Result<Network> {
        let NetworkBuilder {
            topology,
            transport,
            registry,
            backend_fn,
            config,
            fault_plan,
        } = self;
        let backend_fn = backend_fn.ok_or_else(|| {
            TbonError::Invalid("NetworkBuilder::backend closure is required".into())
        })?;
        let transport: Arc<dyn Transport> = match fault_plan {
            Some(plan) => Arc::new(FaultyTransport::from_arc(
                transport,
                plan.spare(CONTROL_PEER).spare(SUPERVISOR_PEER),
            )),
            None => transport,
        };

        // Register nodes and connect tree edges.
        let mut endpoints: HashMap<u32, NodeEndpoint> = HashMap::new();
        for n in topology.node_ids() {
            if topology.role(n) == Role::Detached {
                continue;
            }
            endpoints.insert(n.0, transport.add_node(n.0)?);
        }
        for (p, c) in topology.edges() {
            transport.connect(p, c)?;
        }

        let shared_topo = Arc::new(RwLock::new(topology));
        let control = ControlPlane::new(transport.clone(), CONTROL_PEER)?;
        let (cmd_tx, cmd_rx) = unbounded::<FeCommand>();
        let (user_tx, user_rx) = unbounded::<NetEvent>();
        let recovery = Arc::new(Mutex::new(LogHistogram::new()));

        let mut handles = Vec::new();
        // Supervised networks interpose a tee between the root and the user:
        // the root reports into the supervisor, which forwards every event
        // onward and reacts to failures by healing the tree. Unsupervised
        // networks wire the root straight to the user (recovery is manual,
        // as before).
        let root_tx = match config.supervisor.clone() {
            Some(policy) => {
                let (raw_tx, raw_rx) = unbounded::<NetEvent>();
                let sup = Supervisor::new(
                    policy,
                    ControlPlane::new(transport.clone(), SUPERVISOR_PEER)?,
                    shared_topo.clone(),
                    transport.clone(),
                    raw_rx,
                    user_tx.clone(),
                    recovery.clone(),
                );
                handles.push(spawn_named(
                    format!("{}-supervisor", config.name),
                    move || sup.run(),
                )?);
                raw_tx
            }
            None => user_tx.clone(),
        };
        let topo_snapshot = shared_topo.read().clone();
        for n in topo_snapshot.node_ids() {
            let role = topo_snapshot.role(n);
            let Some(endpoint) = endpoints.remove(&n.0) else {
                continue;
            };
            match role {
                Role::FrontEnd => {
                    let proc = CommProcess::new_root(
                        endpoint,
                        shared_topo.clone(),
                        registry.clone(),
                        config.clone(),
                        cmd_rx.clone(),
                        root_tx.clone(),
                    );
                    handles.push(spawn_named(format!("{}-root", config.name), move || {
                        proc.run()
                    })?);
                }
                Role::Internal => {
                    let parent = topo_snapshot.parent(n).expect("internal node has a parent");
                    let proc = CommProcess::new_internal(
                        Rank(n.0),
                        Rank(parent.0),
                        endpoint,
                        shared_topo.clone(),
                        registry.clone(),
                        config.clone(),
                    );
                    handles.push(spawn_named(
                        format!("{}-comm-{}", config.name, n.0),
                        move || proc.run(),
                    )?);
                }
                Role::BackEnd => {
                    let parent = topo_snapshot.parent(n).expect("leaf has a parent");
                    let ctx = BackendContext::new(
                        Rank(n.0),
                        Rank(parent.0),
                        endpoint,
                        config.orphan_grace,
                        config.flow,
                        config.trace,
                    );
                    let f = backend_fn.clone();
                    handles.push(spawn_named(
                        format!("{}-be-{}", config.name, n.0),
                        move || f(ctx),
                    )?);
                }
                Role::Detached => {}
            }
        }
        // Only the root thread may now hold the supervisor's inbound sender;
        // when the root exits at shutdown, the supervisor's event loop
        // disconnects and its thread winds down.
        drop(root_tx);

        Ok(Network {
            cmd: cmd_tx,
            events: user_rx,
            event_tx: user_tx,
            handles,
            topology: shared_topo,
            transport,
            registry,
            backend_fn,
            config,
            control,
            recovery,
            down: false,
        })
    }
}

/// An out-of-band endpoint plus the bookkeeping to hold request/reply
/// conversations over it: lazy connection to targets, and a backlog so
/// interleaved conversations (a `PerfReport` arriving mid-heal, say) never
/// eat each other's replies. The front-end owns one on [`CONTROL_PEER`];
/// a supervised network's [`Supervisor`] owns a second on
/// [`SUPERVISOR_PEER`], because both drain replies concurrently.
pub(crate) struct ControlPlane {
    endpoint: NodeEndpoint,
    transport: Arc<dyn Transport>,
    backlog: VecDeque<Arc<Envelope>>,
    peer_id: u32,
}

impl ControlPlane {
    pub(crate) fn new(transport: Arc<dyn Transport>, peer_id: u32) -> Result<ControlPlane> {
        let endpoint = transport.add_node(peer_id)?;
        Ok(ControlPlane {
            endpoint,
            transport,
            backlog: VecDeque::new(),
            peer_id,
        })
    }

    /// Send a control message to any process, connecting it on first use.
    pub(crate) fn send(&self, target: Rank, msg: Message) -> Result<()> {
        if self.endpoint.peers.get(target.0).is_none() {
            self.transport.connect(self.peer_id, target.0)?;
        }
        let link = self
            .endpoint
            .peers
            .get(target.0)
            .ok_or(TbonError::NetworkDown)?;
        send_message(&link, &Arc::new(Envelope::new(msg))).map(|_| ())
    }

    /// Receive until `matcher` accepts a frame or the deadline passes.
    /// Frames the matcher declines are stashed in the backlog (and the
    /// backlog is scanned first).
    pub(crate) fn drain<T>(
        &mut self,
        deadline: Instant,
        mut matcher: impl FnMut(&Message) -> Option<T>,
    ) -> Option<T> {
        for i in 0..self.backlog.len() {
            if let Some(v) = matcher(self.backlog[i].msg()) {
                self.backlog.remove(i);
                return Some(v);
            }
        }
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let Ok(delivery) = self.endpoint.incoming.recv_timeout(remaining) else {
                return None;
            };
            let tbon_transport::Delivery::Frame { frame, .. } = delivery else {
                continue;
            };
            let Ok(env) = crate::process::decode_frame(frame) else {
                continue;
            };
            if let Some(v) = matcher(env.msg()) {
                return Some(v);
            }
            self.backlog.push_back(env);
        }
    }
}

/// Remove `failed` from the shared topology, returning its parent and the
/// children left orphaned — step one of every internal-failure heal, shared
/// by [`Network::heal_internal_failure`] and the supervisor.
pub(crate) fn splice_failed(
    topology: &RwLock<Topology>,
    failed: Rank,
) -> Result<(Rank, Vec<Rank>)> {
    let mut topo = topology.write();
    let grandparent = topo
        .parent(NodeId(failed.0))
        .ok_or_else(|| TbonError::Invalid(format!("{failed} has no parent")))?;
    let orphans = topo.splice_out_internal(NodeId(failed.0))?;
    Ok((
        Rank(grandparent.0),
        orphans.into_iter().map(|n| Rank(n.0)).collect(),
    ))
}

/// Install an adoption on both sides and wait for every ack: each orphan
/// learns its new parent first (stopping its grace timer), then the
/// grandparent adopts it (recomputing routes), then both confirmations are
/// awaited so the tree is consistent before the caller proceeds.
pub(crate) fn adopt_and_await(
    control: &mut ControlPlane,
    grandparent: Rank,
    orphans: &[Rank],
    ack_timeout: Duration,
) -> Result<()> {
    for &orphan in orphans {
        control.send(
            orphan,
            Message::NewParent {
                parent: grandparent,
            },
        )?;
        control.send(grandparent, Message::Adopt { child: orphan })?;
    }
    let mut pending = 2 * orphans.len();
    let deadline = Instant::now() + ack_timeout;
    while pending > 0 {
        control
            .drain(deadline, |m| {
                matches!(m, Message::ReconfigAck { .. }).then_some(())
            })
            .ok_or(TbonError::Timeout)?;
        pending -= 1;
    }
    Ok(())
}

/// Result of [`Network::perf_snapshot`]: per-process lifetime counters plus
/// the ranks that failed to answer within the timeout (dead or wedged).
#[derive(Debug, Clone, Default)]
pub struct PerfSnapshot {
    /// Lifetime activity counters from every process that answered.
    pub counters: HashMap<Rank, PerfCounters>,
    /// Communication processes that did not answer within the timeout.
    pub missing: Vec<Rank>,
}

impl PerfSnapshot {
    /// Sum of every responding process's counters.
    pub fn total(&self) -> PerfCounters {
        let mut t = PerfCounters::default();
        for c in self.counters.values() {
            t.absorb(c);
        }
        t
    }
}

/// Result of [`Network::event_logs`]: each process's drained event ring
/// plus the ranks that failed to answer within the timeout.
#[derive(Debug, Clone, Default)]
pub struct EventSnapshot {
    /// Drained lifecycle events per responding process.
    pub logs: HashMap<Rank, ProcessEvents>,
    /// Communication processes that did not answer within the timeout.
    pub missing: Vec<Rank>,
}

impl EventSnapshot {
    /// Total events evicted from responding processes' rings before this
    /// drain could read them — nonzero means the rings were sized below
    /// the event rate and the logs have gaps.
    pub fn dropped(&self) -> u64 {
        self.logs.values().map(|pe| pe.dropped).sum()
    }

    /// All events across the tree as JSON lines, ordered by rank.
    pub fn to_jsonl(&self) -> String {
        let mut ranks: Vec<Rank> = self.logs.keys().copied().collect();
        ranks.sort();
        let mut out = String::new();
        for r in ranks {
            out.push_str(&self.logs[&r].to_jsonl(r.0));
        }
        out
    }
}

fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .map_err(|e| TbonError::Invalid(format!("thread spawn failed: {e}")))
}

/// The front-end handle to a running network.
pub struct Network {
    cmd: Sender<FeCommand>,
    events: Receiver<NetEvent>,
    event_tx: Sender<NetEvent>,
    handles: Vec<JoinHandle<()>>,
    topology: Arc<RwLock<Topology>>,
    transport: Arc<dyn Transport>,
    registry: Arc<FilterRegistry>,
    backend_fn: Arc<BackendFn>,
    config: NetworkConfig,
    /// Out-of-band endpoint for reconfiguration and introspection traffic
    /// (see [`Network::heal_internal_failure`], [`Network::perf_snapshot`]).
    control: ControlPlane,
    /// Recovery latencies (µs per healed failure), recorded by the
    /// supervisor; empty on unsupervised networks.
    recovery: Arc<Mutex<LogHistogram>>,
    down: bool,
}

impl Network {
    /// Start building a network from a topology spec string — e.g.
    /// `"16x16"` for 16 internal processes fanning out to 256 back-ends,
    /// `"4x4x8"` for three levels. Sugar for
    /// `NetworkBuilder::new(TopologySpec::parse(s)?.build())`.
    pub fn from_spec(spec: &str) -> Result<NetworkBuilder> {
        Ok(NetworkBuilder::new(TopologySpec::parse(spec)?.build()))
    }

    /// Start building a balanced `fanout^depth`-leaf network over the
    /// default in-process transport.
    pub fn local(fanout: usize, depth: usize) -> NetworkBuilder {
        NetworkBuilder::new(Topology::balanced(fanout, depth))
    }
    /// Create a stream per `spec` and return its handle. The stream is
    /// usable immediately: FIFO channel ordering guarantees every member
    /// back-end sees the stream before any of its data.
    pub fn new_stream(&mut self, spec: StreamSpec) -> Result<StreamHandle> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(FeCommand::NewStream {
                spec,
                reply: reply_tx,
            })
            .map_err(|_| TbonError::NetworkDown)?;
        let (id, rx) = reply_rx
            .recv_timeout(self.config.shutdown_timeout)
            .map_err(|_| TbonError::NetworkDown)??;
        Ok(StreamHandle {
            id,
            cmd: self.cmd.clone(),
            rx,
        })
    }

    /// Probe (and effectively load) a filter on every communication process
    /// — the `dlopen` analogue. Returns whether the whole tree can
    /// instantiate it.
    pub fn load_filter(&mut self, name: &str, kind: FilterKind) -> Result<bool> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(FeCommand::LoadFilter {
                name: name.to_owned(),
                kind,
                reply: reply_tx,
            })
            .map_err(|_| TbonError::NetworkDown)?;
        reply_rx
            .recv_timeout(self.config.shutdown_timeout)
            .map_err(|_| TbonError::Timeout)?
    }

    /// The registry shared by every process; registering here makes a
    /// filter loadable network-wide immediately.
    pub fn registry(&self) -> &Arc<FilterRegistry> {
        &self.registry
    }

    /// Non-blocking poll of the event queue (failures, joins, filter
    /// errors).
    pub fn poll_event(&self) -> Option<NetEvent> {
        self.events.try_recv().ok()
    }

    /// Blocking receive of the next event, with timeout.
    pub fn wait_event(&self, timeout: Duration) -> Result<NetEvent> {
        self.events
            .recv_timeout(timeout)
            .map_err(|_| TbonError::Timeout)
    }

    /// A point-in-time copy of the topology (includes dynamic changes).
    pub fn topology_snapshot(&self) -> Topology {
        self.topology.read().clone()
    }

    /// Attach a new back-end under `parent` at runtime (MRNet's dynamic
    /// topology). The new leaf runs the same back-end closure; existing
    /// streams do not include it, new `Members::All` streams will.
    pub fn attach_backend(&mut self, parent: Rank) -> Result<Rank> {
        let new_id = {
            let mut topo = self.topology.write();
            let role = topo.role(NodeId(parent.0));
            if role != Role::Internal && role != Role::FrontEnd {
                return Err(TbonError::Invalid(format!(
                    "cannot attach under {parent} ({role:?})"
                )));
            }
            topo.attach_leaf(NodeId(parent.0))?
        };
        let endpoint = self.transport.add_node(new_id.0)?;
        self.transport.connect(parent.0, new_id.0)?;
        let ctx = BackendContext::new(
            Rank(new_id.0),
            parent,
            endpoint,
            self.config.orphan_grace,
            self.config.flow,
            self.config.trace,
        );
        let f = self.backend_fn.clone();
        self.handles.push(spawn_named(
            format!("{}-be-{}", self.config.name, new_id.0),
            move || f(ctx),
        )?);
        let _ = self.event_tx.send(NetEvent::BackendJoined {
            rank: Rank(new_id.0),
            parent,
        });
        Ok(Rank(new_id.0))
    }

    /// Failure injection: abruptly sever a back-end. Its parent detects the
    /// loss, unblocks synchronization filters and reports
    /// [`NetEvent::BackendLost`].
    pub fn kill_backend(&mut self, rank: Rank) -> Result<()> {
        {
            let topo = self.topology.read();
            if topo.role(NodeId(rank.0)) != Role::BackEnd {
                return Err(TbonError::Invalid(format!("{rank} is not a back-end")));
            }
        }
        self.transport.remove_node(rank.0)?;
        Ok(())
    }

    /// Every communication process (the root plus all internals), the
    /// target set for control-channel introspection.
    fn comm_ranks(&self) -> Vec<Rank> {
        let topo = self.topology.read();
        topo.node_ids()
            .filter(|&n| matches!(topo.role(n), Role::FrontEnd | Role::Internal))
            .map(|n| Rank(n.0))
            .collect()
    }

    /// Query every communication process's lifetime activity counters over
    /// the control channel — MRNet-style internal instrumentation. Always
    /// returns within `timeout` with whatever answered; a wedged or dead
    /// process is listed in [`PerfSnapshot::missing`] instead of stalling
    /// or poisoning the result.
    pub fn perf_snapshot(&mut self, timeout: Duration) -> Result<PerfSnapshot> {
        let targets = self.comm_ranks();
        for &t in &targets {
            // Best effort: a dead process just won't answer.
            let _ = self.control.send(t, Message::GetPerf);
        }
        let mut counters = HashMap::new();
        let deadline = Instant::now() + timeout;
        while counters.len() < targets.len() {
            let Some((rank, c)) = self.control.drain(deadline, |m| match m {
                Message::PerfReport { rank, counters } => Some((*rank, *counters)),
                _ => None,
            }) else {
                break;
            };
            counters.insert(rank, c);
        }
        let missing = targets
            .into_iter()
            .filter(|r| !counters.contains_key(r))
            .collect();
        Ok(PerfSnapshot { counters, missing })
    }

    /// Drain every communication process's structured event ring (start,
    /// stream lifecycle, reconfiguration, failures...). Draining is
    /// destructive at each process: events are reported once. Processes
    /// that fail to answer within `timeout` are listed in
    /// [`EventSnapshot::missing`].
    pub fn event_logs(&mut self, timeout: Duration) -> Result<EventSnapshot> {
        let targets = self.comm_ranks();
        for &t in &targets {
            let _ = self.control.send(t, Message::GetEvents);
        }
        let mut logs = HashMap::new();
        let deadline = Instant::now() + timeout;
        while logs.len() < targets.len() {
            let Some((rank, pe)) = self.control.drain(deadline, |m| match m {
                Message::EventLog {
                    rank,
                    events,
                    dropped,
                } => Some((
                    *rank,
                    ProcessEvents {
                        events: events.clone(),
                        dropped: *dropped,
                    },
                )),
                _ => None,
            }) else {
                break;
            };
            logs.insert(rank, pe);
        }
        let missing = targets
            .into_iter()
            .filter(|r| !logs.contains_key(r))
            .collect();
        Ok(EventSnapshot { logs, missing })
    }

    /// Open the telemetry stream: every communication process publishes a
    /// [`MetricsSample`] each `interval`, and the built-in
    /// `telemetry::metrics_merge` filter folds them level by level so the
    /// front-end receives **one** tree-wide aggregate per interval.
    pub fn open_metrics_stream(&mut self, interval: Duration) -> Result<MetricsHandle> {
        self.open_plane(Plane::Metrics, interval, true)
    }

    /// Like [`Network::open_metrics_stream`] but without merging: every
    /// process's sample passes through individually (keyed by
    /// [`Packet::origin`]) for per-rank drill-down.
    pub fn open_metrics_drilldown(&mut self, interval: Duration) -> Result<MetricsHandle> {
        self.open_plane(Plane::Metrics, interval, false)
    }

    /// Open the distributed-trace stream (requires
    /// [`crate::config::TraceConfig`] sampling to be enabled on
    /// [`NetworkConfig::trace`]): every process — communication processes
    /// *and* back-ends — ships its bounded span ring upward, the built-in
    /// `telemetry::trace_gather` filter concatenates batches level by
    /// level under the per-interval byte cap, and the returned
    /// [`TraceHandle`] yields one [`TraceBatch`] per contributing origin.
    /// Feed batches to a [`crate::trace::TraceAssembler`] to reconstruct
    /// per-wave critical paths and export Chrome trace JSON.
    pub fn open_trace_stream(&mut self, interval: Duration) -> Result<TraceHandle> {
        self.open_plane(Plane::Trace, interval, true)
    }

    /// Open the incident stream — the flight-recorder plane. Every
    /// communication process arms its flight recorder: failure detection,
    /// supervisor heal/degrade verdicts, flow-control silence, and health
    /// warnings each freeze-copy the process's forensic state (span ring,
    /// event ring, counter deltas, flow windows, local topology) into an
    /// [`crate::IncidentBundle`] shipped in-band to this handle. Feed the
    /// batches to a [`crate::Diagnosis`] for automated root-cause
    /// classification.
    pub fn open_incident_stream(&mut self) -> Result<IncidentHandle> {
        self.open_plane(Plane::Incident, Duration::ZERO, true)
    }

    /// The one plane-open path behind the four `open_*` calls above.
    fn open_plane<T: PlanePayload>(
        &mut self,
        plane: Plane,
        interval: Duration,
        merge: bool,
    ) -> Result<PlaneHandle<T>> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(FeCommand::OpenPlane {
                plane,
                interval,
                merge,
                reply: reply_tx,
            })
            .map_err(|_| TbonError::NetworkDown)?;
        let (id, rx) = reply_rx
            .recv_timeout(self.config.shutdown_timeout)
            .map_err(|_| TbonError::NetworkDown)??;
        Ok(PlaneHandle {
            inner: StreamHandle {
                id,
                cmd: self.cmd.clone(),
                rx,
            },
            recovery: self.recovery.clone(),
            payload: PhantomData,
        })
    }

    /// Lifetime end-to-end wave latency per stream, as observed at the
    /// root: back-ends stamp packets at injection, the root resolves the
    /// stamp when the filtered wave emerges.
    pub fn wave_latencies(&self) -> Result<HashMap<StreamId, LogHistogram>> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(FeCommand::WaveLatency { reply: reply_tx })
            .map_err(|_| TbonError::NetworkDown)?;
        reply_rx
            .recv_timeout(self.config.shutdown_timeout)
            .map_err(|_| TbonError::Timeout)
    }

    /// Failure injection: abruptly sever an *internal* communication
    /// process. Its parent reports [`NetEvent::SubtreeOrphaned`]; its
    /// children wait out [`NetworkConfig::orphan_grace`] for a heal.
    pub fn kill_internal(&mut self, rank: Rank) -> Result<()> {
        {
            let topo = self.topology.read();
            if topo.role(NodeId(rank.0)) != Role::Internal {
                return Err(TbonError::Invalid(format!(
                    "{rank} is not an internal communication process"
                )));
            }
        }
        self.transport.remove_node(rank.0)?;
        Ok(())
    }

    /// Reconfigure around a failed internal process (the paper's §2.2
    /// extension: "communication and back-end processes can ... leave at
    /// any time and the network properly reconfigures and re-routes
    /// traffic"): splice the failed node out of the topology, wire its
    /// orphaned children directly to their grandparent, and install the
    /// adoption on both sides. Streams resume with their full membership;
    /// waves in flight through the failed process at the instant of failure
    /// may be lost (at-most-once during recovery).
    ///
    /// Returns the re-parented children.
    pub fn heal_internal_failure(&mut self, failed: Rank) -> Result<Vec<Rank>> {
        let (grandparent, orphans) = splice_failed(&self.topology, failed)?;
        for &orphan in &orphans {
            self.transport.connect(grandparent.0, orphan.0)?;
        }
        adopt_and_await(
            &mut self.control,
            grandparent,
            &orphans,
            self.config.shutdown_timeout,
        )?;
        Ok(orphans)
    }

    /// Failure injection: transiently sever the link between two live
    /// processes without killing either. Both sides observe the loss (a
    /// parent reports the child failed; an orphaned back-end starts its
    /// grace timer); a supervised network reconnects and reattaches
    /// automatically.
    pub fn sever_link(&mut self, a: Rank, b: Rank) -> Result<()> {
        self.transport.disconnect(a.0, b.0)?;
        Ok(())
    }

    /// Recovery latencies recorded by the supervisor: one sample per healed
    /// failure, in microseconds from failure-event receipt to the last
    /// reconfiguration ack. Empty when [`NetworkConfig::supervisor`] is off
    /// or nothing has failed yet.
    pub fn recovery_latencies(&self) -> LogHistogram {
        self.recovery.lock().clone()
    }

    /// Orderly teardown: shutdown propagates to every process, acks
    /// aggregate bottom-up, and all threads are joined.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        if self.down {
            return Ok(());
        }
        self.down = true;
        let (reply_tx, reply_rx) = bounded(1);
        let sent = self
            .cmd
            .send(FeCommand::Shutdown { reply: reply_tx })
            .is_ok();
        let result = if sent {
            match reply_rx.recv_timeout(self.config.shutdown_timeout) {
                Ok(r) => r,
                Err(_) => Err(TbonError::Timeout),
            }
        } else {
            Err(TbonError::NetworkDown)
        };
        // Whatever the ack outcome, sever every remaining endpoint: a
        // process that never saw the Shutdown — e.g. a back-end whose inbound
        // link was cut off for backpressure — would otherwise block in recv
        // forever and wedge the joins below.
        let ids: Vec<u32> = {
            let topo = self.topology.read();
            topo.node_ids().map(|n| n.0).collect()
        };
        for id in ids {
            let _ = self.transport.remove_node(id);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        result
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Front-end handle to one stream.
#[derive(Debug)]
pub struct StreamHandle {
    id: StreamId,
    cmd: Sender<FeCommand>,
    rx: Receiver<Packet>,
}

impl StreamHandle {
    /// The network-wide stream id.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Multicast a packet downstream to all member back-ends.
    pub fn broadcast(&self, tag: Tag, value: DataValue) -> Result<()> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(FeCommand::Send {
                stream: self.id,
                tag,
                value,
                reply: reply_tx,
            })
            .map_err(|_| TbonError::NetworkDown)?;
        reply_rx.recv().map_err(|_| TbonError::NetworkDown)?
    }

    /// Tear the stream down across the tree.
    pub fn close(self) -> Result<()> {
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd
            .send(FeCommand::CloseStream {
                stream: self.id,
                reply: reply_tx,
            })
            .map_err(|_| TbonError::NetworkDown)?;
        reply_rx.recv().map_err(|_| TbonError::NetworkDown)?
    }
}

impl StreamConsumer for StreamHandle {
    type Item = Packet;

    fn recv(&self, deadline: Deadline) -> Result<Option<Packet>> {
        match deadline {
            Deadline::Never => self
                .rx
                .recv()
                .map(Some)
                .map_err(|_| TbonError::StreamClosed(self.id)),
            Deadline::Now => match self.rx.try_recv() {
                Ok(p) => Ok(Some(p)),
                Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
                Err(crossbeam_channel::TryRecvError::Disconnected) => {
                    Err(TbonError::StreamClosed(self.id))
                }
            },
            Deadline::At(t) => {
                match self
                    .rx
                    .recv_timeout(t.saturating_duration_since(Instant::now()))
                {
                    Ok(p) => Ok(Some(p)),
                    Err(crossbeam_channel::RecvTimeoutError::Timeout) => Ok(None),
                    Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                        Err(TbonError::StreamClosed(self.id))
                    }
                }
            }
        }
    }
}

/// Front-end handle to one in-band plane's stream: a [`StreamHandle`] that
/// decodes each upstream packet into the plane's payload type `T`, keyed
/// by the packet's origin rank. The three planes' handles —
/// [`MetricsHandle`], [`TraceHandle`], [`IncidentHandle`] — are this type
/// at their payloads.
#[derive(Debug)]
pub struct PlaneHandle<T> {
    inner: StreamHandle,
    /// Supervisor recovery-latency histogram, offered to every received
    /// payload (see [`PlanePayload::graft_recovery`]).
    recovery: Arc<Mutex<LogHistogram>>,
    payload: PhantomData<fn() -> T>,
}

/// Handle to the telemetry stream (see [`Network::open_metrics_stream`]).
/// The origin is the root rank for merged samples, the publishing
/// process's rank in drill-down mode.
pub type MetricsHandle = PlaneHandle<MetricsSample>;

/// Handle to the trace stream (see [`Network::open_trace_stream`]).
pub type TraceHandle = PlaneHandle<TraceBatch>;

/// Handle to the incident stream (see [`Network::open_incident_stream`]).
pub type IncidentHandle = PlaneHandle<IncidentBatch>;

impl<T> PlaneHandle<T> {
    /// The underlying stream id.
    pub fn id(&self) -> StreamId {
        self.inner.id()
    }

    /// Tear the plane's stream down across the tree. Publishers disarm;
    /// what feeds them (span sampling, health scoring) is config-driven
    /// and keeps running, its output staying in the local rings.
    pub fn close(self) -> Result<()> {
        self.inner.close()
    }
}

impl<T: PlanePayload> StreamConsumer for PlaneHandle<T> {
    type Item = (Rank, T);

    /// Undecodable packets on the stream are skipped, not surfaced as
    /// errors.
    fn recv(&self, deadline: Deadline) -> Result<Option<(Rank, T)>> {
        loop {
            match self.inner.recv(deadline)? {
                None => return Ok(None),
                Some(pkt) => {
                    if let Ok(mut payload) = T::from_payload(pkt.value()) {
                        payload.graft_recovery(&self.recovery);
                        return Ok(Some((pkt.origin(), payload)));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `.config()` after `.retry_policy()` used to overwrite
    /// the whole `NetworkConfig`, silently disarming the supervisor. The
    /// setters must compose in either order.
    #[test]
    fn builder_setters_merge_in_either_order() {
        let policy = RetryPolicy {
            max_attempts: 9,
            ..RetryPolicy::default()
        };

        // retry_policy() then config(): the armed supervisor survives.
        let b = NetworkBuilder::new(Topology::flat(2))
            .retry_policy(policy.clone())
            .config(NetworkConfig::default());
        assert_eq!(
            b.config.supervisor.as_ref().map(|p| p.max_attempts),
            Some(9),
            "config() after retry_policy() must not disarm the supervisor"
        );

        // config() then retry_policy(): same result, as before the fix.
        let b = NetworkBuilder::new(Topology::flat(2))
            .config(NetworkConfig::default())
            .retry_policy(policy.clone());
        assert_eq!(
            b.config.supervisor.as_ref().map(|p| p.max_attempts),
            Some(9)
        );

        // An explicit supervisor inside the incoming config still wins over
        // an earlier retry_policy(): the later, more specific value.
        let b = NetworkBuilder::new(Topology::flat(2))
            .retry_policy(RetryPolicy::default())
            .config(NetworkConfig {
                supervisor: Some(policy),
                ..NetworkConfig::default()
            });
        assert_eq!(
            b.config.supervisor.as_ref().map(|p| p.max_attempts),
            Some(9)
        );

        // And config() with no supervisor on a fresh builder stays unarmed.
        let b = NetworkBuilder::new(Topology::flat(2)).config(NetworkConfig::default());
        assert!(b.config.supervisor.is_none());
    }
}
