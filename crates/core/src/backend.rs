//! The back-end (leaf) side of the overlay.
//!
//! Application code at each leaf runs inside a closure that receives a
//! [`BackendContext`]: an event pump for stream lifecycle and downstream
//! packets, plus [`BackendContext::send`] for pushing data upstream.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tbon_transport::{Delivery, NodeEndpoint};

use crate::config::{FlowConfig, TraceConfig};
use crate::error::{Result, TbonError};
use crate::packet::{Packet, Rank};
use crate::plane::{Membership, Plane};
use crate::process::{decode_frame, send_message};
use crate::proto::{Envelope, Message};
use crate::stream::{StreamId, StreamMode, Tag};
use crate::telemetry::{now_us, SpanRing, TraceSpan, TraceStage};
use crate::value::DataValue;

/// What a back-end learns from its parent.
#[derive(Debug)]
pub enum BackendEvent {
    /// The front-end created a stream this back-end belongs to.
    StreamOpened { stream: StreamId },
    /// A downstream packet arrived on a stream.
    Packet { stream: StreamId, packet: Packet },
    /// The stream was torn down.
    StreamClosed { stream: StreamId },
    /// The network is shutting down; the closure should return.
    Shutdown,
}

/// Metadata a back-end keeps per open stream.
#[derive(Debug, Clone)]
pub struct BackendStream {
    pub id: StreamId,
    pub mode: StreamMode,
}

/// Handle given to back-end application code.
pub struct BackendContext {
    rank: Rank,
    parent: Rank,
    endpoint: NodeEndpoint,
    streams: HashMap<StreamId, BackendStream>,
    finished: bool,
    /// Set while our parent is gone and we are waiting for reconfiguration.
    orphaned_until: Option<Instant>,
    orphan_grace: Duration,
    /// Credit windows on the downstream path (see [`FlowConfig`]). Leaves
    /// are pure consumers: they never spend credit, only return it.
    flow: FlowConfig,
    /// Downstream data frames consumed since the last grant to the parent.
    consumed_frames: u64,
    consumed_bytes: u64,
    /// Sampled tracing (see [`TraceConfig`]): this back-end mints the trace
    /// id for every `sample_every`-th send and records the injection span.
    trace_cfg: TraceConfig,
    /// The dedicated trace stream, once the front-end opens one. Injection
    /// spans ship on it in-band; until then they wait in the ring.
    trace_stream: Option<StreamId>,
    /// Lifetime sends, for 1-in-N sampling.
    sends: u64,
    /// Trace ids minted here, for unique id construction.
    traces_minted: u64,
    spans: SpanRing,
}

impl BackendContext {
    pub(crate) fn new(
        rank: Rank,
        parent: Rank,
        endpoint: NodeEndpoint,
        orphan_grace: Duration,
        flow: FlowConfig,
        trace_cfg: TraceConfig,
    ) -> BackendContext {
        let ring_cap = trace_cfg.ring_capacity;
        BackendContext {
            rank,
            parent,
            endpoint,
            streams: HashMap::new(),
            finished: false,
            orphaned_until: None,
            orphan_grace,
            flow,
            consumed_frames: 0,
            consumed_bytes: 0,
            trace_cfg,
            trace_stream: None,
            sends: 0,
            traces_minted: 0,
            spans: SpanRing::new(ring_cap),
        }
    }

    /// Return consumed-frame credit to the parent once the watermark is
    /// reached. A leaf consumes a downstream frame the moment it is pulled
    /// off the wire and translated — there is no further fan-out below it,
    /// so consumption here is unconditional.
    fn note_down_consumed(&mut self, wire: u64) {
        if !self.flow.enabled() {
            return;
        }
        self.consumed_frames += 1;
        self.consumed_bytes += wire;
        if self.consumed_frames < self.flow.effective_watermark() {
            return;
        }
        let grant = Arc::new(Envelope::new(Message::CreditGrant {
            frames: self.consumed_frames,
            bytes: self.consumed_bytes,
        }));
        if let Some(link) = self.endpoint.peers.get(self.parent.0) {
            if send_message(&link, &grant).is_ok() {
                self.consumed_frames = 0;
                self.consumed_bytes = 0;
            }
        }
    }

    /// This back-end's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The rank of the communication process this back-end reports to.
    pub fn parent(&self) -> Rank {
        self.parent
    }

    /// Streams currently open at this back-end.
    pub fn streams(&self) -> Vec<BackendStream> {
        let mut v: Vec<BackendStream> = self.streams.values().cloned().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Is a given stream open here?
    pub fn has_stream(&self, stream: StreamId) -> bool {
        self.streams.contains_key(&stream)
    }

    /// Send one packet upstream on `stream`.
    pub fn send(&mut self, stream: StreamId, tag: Tag, value: DataValue) -> Result<()> {
        if !self.streams.contains_key(&stream) {
            return Err(TbonError::StreamClosed(stream));
        }
        let link = self
            .endpoint
            .peers
            .get(self.parent.0)
            .ok_or(TbonError::NetworkDown)?;
        // 1-in-N wave sampling: every `sample_every`-th send mints a trace
        // id (rank in the high half, a local sequence in the low half) that
        // rides the wire and marks the wave for span recording at each hop.
        let trace = if self.trace_cfg.enabled() && self.trace_stream != Some(stream) {
            self.sends += 1;
            if self.sends.is_multiple_of(self.trace_cfg.sample_every) {
                self.traces_minted += 1;
                ((self.rank.0 as u64) << 32) | (self.traces_minted as u32 as u64)
            } else {
                0
            }
        } else {
            0
        };
        let start_us = now_us();
        let msg = Arc::new(Envelope::new(Message::Up {
            stream,
            tag,
            origin: self.rank,
            // Injection stamp: the front-end resolves this against its own
            // clock to produce end-to-end wave latency.
            sent_us: start_us,
            trace,
            value,
        }));
        let sent = send_message(&link, &msg).map(|_| ());
        if trace != 0 {
            self.spans.push(TraceSpan {
                trace,
                rank: self.rank.0,
                stream: stream.0,
                stage: TraceStage::BackendInject,
                start_us,
                dur_us: now_us().saturating_sub(start_us),
                detail: 0,
            });
            self.flush_spans();
        }
        sent
    }

    /// Ship buffered injection spans on the trace stream, if one is open.
    /// Called opportunistically after each sampled send — leaves have no
    /// timer of their own, so span freshness tracks sampling activity.
    fn flush_spans(&mut self) {
        let Some(trace_stream) = self.trace_stream else {
            return;
        };
        if self.spans.is_empty() {
            return;
        }
        let Some(link) = self.endpoint.peers.get(self.parent.0) else {
            return;
        };
        let batch = self
            .spans
            .drain_batch(self.trace_cfg.max_bytes_per_interval);
        let msg = Arc::new(Envelope::new(Message::Up {
            stream: trace_stream,
            tag: Tag(0),
            origin: self.rank,
            sent_us: 0,
            trace: 0,
            value: batch.to_value(),
        }));
        let _ = send_message(&link, &msg);
    }

    /// Pull one delivery, respecting the user deadline (if any) and the
    /// orphan grace deadline (if orphaned).
    fn recv_delivery(&mut self, user_deadline: Option<Instant>) -> Result<Delivery> {
        let deadline = match (user_deadline, self.orphaned_until) {
            (Some(u), Some(o)) => Some(u.min(o)),
            (Some(u), None) => Some(u),
            (None, o) => o,
        };
        match deadline {
            None => self
                .endpoint
                .incoming
                .recv()
                .map_err(|_| TbonError::NetworkDown),
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                self.endpoint.incoming.recv_timeout(remaining).map_err(|e| {
                    match e {
                        crossbeam_channel::RecvTimeoutError::Timeout => {
                            if self.orphaned_until.is_some_and(|o| Instant::now() >= o) {
                                // No reconfiguration arrived in time.
                                self.finished = true;
                                TbonError::NetworkDown
                            } else {
                                TbonError::Timeout
                            }
                        }
                        crossbeam_channel::RecvTimeoutError::Disconnected => TbonError::NetworkDown,
                    }
                })
            }
        }
    }

    /// Block for the next event.
    pub fn next_event(&mut self) -> Result<BackendEvent> {
        loop {
            if self.finished {
                return Err(TbonError::NetworkDown);
            }
            let delivery = self.recv_delivery(None)?;
            if let Some(ev) = self.translate(delivery)? {
                return Ok(ev);
            }
        }
    }

    /// Block for the next event, up to `timeout`.
    pub fn next_event_timeout(&mut self, timeout: Duration) -> Result<BackendEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.finished {
                return Err(TbonError::NetworkDown);
            }
            let delivery = self.recv_delivery(Some(deadline))?;
            if let Some(ev) = self.translate(delivery)? {
                return Ok(ev);
            }
        }
    }

    /// Convenience: wait until a specific stream opens (in order-preserving
    /// FIFO semantics the NewStream always precedes its data).
    pub fn wait_stream_opened(&mut self) -> Result<StreamId> {
        loop {
            match self.next_event()? {
                BackendEvent::StreamOpened { stream } => return Ok(stream),
                BackendEvent::Shutdown => return Err(TbonError::NetworkDown),
                _ => continue,
            }
        }
    }

    fn translate(&mut self, delivery: Delivery) -> Result<Option<BackendEvent>> {
        match delivery {
            Delivery::Frame { from, frame } => {
                let msg = decode_frame(frame)?;
                Ok(match msg.msg() {
                    Message::NewStream {
                        stream,
                        mode,
                        transformation,
                        ..
                    } => {
                        self.streams.insert(
                            *stream,
                            BackendStream {
                                id: *stream,
                                mode: *mode,
                            },
                        );
                        let leaf_plane = Plane::of_filter(transformation)
                            .is_some_and(|p| p.desc().membership == Membership::EveryLiveRank);
                        if leaf_plane {
                            // An in-band plane that leaves publish on (only
                            // tracing does): remember its stream for span
                            // shipping but keep it invisible to application
                            // code. Planes whose members are the
                            // communication processes never reach a leaf.
                            self.trace_stream = Some(*stream);
                            self.flush_spans();
                            None
                        } else {
                            Some(BackendEvent::StreamOpened { stream: *stream })
                        }
                    }
                    Message::Down {
                        stream,
                        tag,
                        origin,
                        sent_us,
                        trace,
                        value,
                    } => {
                        let wire = msg.encoded_len() as u64;
                        let packet =
                            Packet::traced(*stream, *tag, *origin, *sent_us, *trace, value.clone());
                        let ev = BackendEvent::Packet {
                            stream: *stream,
                            packet,
                        };
                        self.note_down_consumed(wire);
                        Some(ev)
                    }
                    Message::CloseStream { stream } => {
                        self.streams.remove(stream);
                        if self.trace_stream == Some(*stream) {
                            self.trace_stream = None;
                            None
                        } else {
                            Some(BackendEvent::StreamClosed { stream: *stream })
                        }
                    }
                    Message::Shutdown => {
                        self.finished = true;
                        let ack = Arc::new(Envelope::new(Message::ShutdownAck { rank: self.rank }));
                        if let Some(link) = self.endpoint.peers.get(self.parent.0) {
                            let _ = send_message(&link, &ack);
                        }
                        Some(BackendEvent::Shutdown)
                    }
                    Message::NewParent { parent } => {
                        // Reconfiguration after our old parent failed. The
                        // new parent opens a fresh full window on adoption,
                        // so credit accumulated toward the old parent must
                        // not leak into it.
                        self.parent = *parent;
                        self.orphaned_until = None;
                        self.consumed_frames = 0;
                        self.consumed_bytes = 0;
                        let ack = Arc::new(Envelope::new(Message::ReconfigAck { rank: self.rank }));
                        if let Some(link) = self.endpoint.peers.get(from) {
                            let _ = send_message(&link, &ack);
                        }
                        None
                    }
                    // Control traffic that doesn't concern leaves.
                    _ => None,
                })
            }
            Delivery::Disconnected { peer } => {
                if peer == self.parent.0 {
                    // Parent gone: wait out the reconfiguration grace
                    // period before declaring the network dead.
                    self.orphaned_until = Some(Instant::now() + self.orphan_grace);
                }
                Ok(None)
            }
        }
    }
}
