//! FIFO-channel transports for tree-based overlay networks.
//!
//! The TBON model (Arnold, Pack & Miller, IPPS 2006) connects a front-end,
//! internal communication processes and back-ends with FIFO channels built on
//! ordinary network transport protocols such as TCP. This crate provides that
//! substrate behind a small trait surface so the runtime in `tbon-core` is
//! oblivious to whether its peers live on in-process channels, loopback TCP
//! sockets, or a bandwidth/latency-shaped model of a slower interconnect:
//!
//! * [`local::LocalTransport`] — crossbeam channels, supports a zero-copy
//!   fast path ([`Frame::Shared`]) mirroring MRNet's counted packet
//!   references.
//! * [`tcp::TcpTransport`] — real sockets with length-prefixed framing; every
//!   frame crosses a kernel socket exactly as it would between cluster hosts.
//! * [`uds::UdsTransport`] (unix) — the same over `AF_UNIX` sockets, for
//!   single-host deployments that skip the TCP stack.
//! * [`shaped::ShapedTransport`] — wraps either of the above and charges a
//!   configurable per-link latency and bandwidth, restoring the relative
//!   network costs that loopback hides.
//!
//! A node sees the world as one multiplexed [`Delivery`] receiver plus a
//! [`Peers`] table of per-neighbour [`Link`]s. Links are FIFO: two frames
//! sent over the same link are delivered in order.

pub mod fault;
pub mod framing;
pub mod local;
pub mod shaped;
pub mod socket;
pub mod tcp;
#[cfg(unix)]
pub mod uds;
mod writer;

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crossbeam_channel::Receiver;
use parking_lot::RwLock;

/// Identifies a process (node) in the overlay. The runtime layers its own
/// `Rank` on top of this.
pub type PeerId = u32;

/// The unit of data crossing a link.
///
/// Wire transports (TCP) only ever see [`Frame::Bytes`]. The in-process
/// transport additionally accepts [`Frame::Shared`], which carries an
/// `Arc`-counted object straight to the receiving thread without any
/// serialization — the Rust analogue of MRNet placing one counted packet
/// object into multiple outgoing buffers.
#[derive(Clone)]
pub enum Frame {
    /// Serialized bytes; the only representation wire transports accept.
    /// Reference-counted so a multicast can hand the same encoding to every
    /// outgoing link without copying the buffer per child.
    Bytes(Arc<[u8]>),
    /// A shared, immutable object with a size hint used by shaped links to
    /// charge bandwidth. Only valid on links where [`Link::needs_bytes`] is
    /// `false`.
    Shared {
        data: Arc<dyn Any + Send + Sync>,
        /// Approximate encoded size, so traffic shaping can charge the same
        /// cost the bytes would have incurred.
        size_hint: usize,
    },
}

impl Frame {
    /// Approximate on-wire size of this frame in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Frame::Bytes(b) => b.len(),
            Frame::Shared { size_hint, .. } => *size_hint,
        }
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Frame::Bytes(b) => write!(f, "Frame::Bytes({} bytes)", b.len()),
            Frame::Shared { size_hint, .. } => {
                write!(f, "Frame::Shared(~{size_hint} bytes)")
            }
        }
    }
}

/// What a node pulls off its single multiplexed incoming queue.
#[derive(Debug)]
pub enum Delivery {
    /// A frame arrived from a neighbour.
    Frame { from: PeerId, frame: Frame },
    /// A neighbour's endpoint went away (its process exited or the socket
    /// closed). Used by the runtime for failure detection.
    Disconnected { peer: PeerId },
}

/// One direction of a FIFO channel: the sending half owned by a node for one
/// of its neighbours.
pub trait Link: Send + Sync {
    /// Enqueue a frame for the peer. FIFO with respect to other `send`s on
    /// this link. Fails if the peer is gone.
    fn send(&self, frame: Frame) -> Result<(), TransportError>;

    /// Whether this link can only carry [`Frame::Bytes`]. The runtime
    /// serializes packets before handing them to such links.
    fn needs_bytes(&self) -> bool;

    /// Frames currently waiting in this link's dedicated outbound queue, or
    /// `None` for links that deliver synchronously / share a queue with
    /// other links. Telemetry samples this as a backpressure gauge.
    fn queue_depth(&self) -> Option<usize> {
        None
    }

    /// Lifetime frame-batching statistics of this link's writer, or `None`
    /// for links that deliver frames individually (local channels). The
    /// runtime sums these across links into its perf counters.
    fn batch_stats(&self) -> Option<BatchStats> {
        None
    }
}

/// Lifetime counts of a writer's upstream frame batching: how many flushes
/// it performed and how many frames those flushes carried. The ratio is the
/// average coalescing factor — frames written per syscall batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches flushed to the socket (one flush = one syscall burst).
    pub batches: u64,
    /// Frames carried across all flushed batches.
    pub frames: u64,
}

/// A live, shared table of a node's neighbours. The transport inserts new
/// links here when edges are added at runtime (dynamic back-end attach).
#[derive(Clone, Default)]
pub struct Peers {
    inner: Arc<RwLock<HashMap<PeerId, Arc<dyn Link>>>>,
}

impl Peers {
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the link to `peer`, if connected.
    pub fn get(&self, peer: PeerId) -> Option<Arc<dyn Link>> {
        self.inner.read().get(&peer).cloned()
    }

    /// All currently connected peer ids.
    pub fn ids(&self) -> Vec<PeerId> {
        self.inner.read().keys().copied().collect()
    }

    /// Number of connected peers.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Install a link; replaces any previous link to the same peer.
    pub fn insert(&self, peer: PeerId, link: Arc<dyn Link>) {
        self.inner.write().insert(peer, link);
    }

    /// Remove the link to `peer`, returning it if present.
    pub fn remove(&self, peer: PeerId) -> Option<Arc<dyn Link>> {
        self.inner.write().remove(&peer)
    }
}

/// Everything a node needs to participate in the overlay.
pub struct NodeEndpoint {
    /// This node's id.
    pub id: PeerId,
    /// Multiplexed queue of frames and disconnect notices from all peers.
    pub incoming: Receiver<Delivery>,
    /// Links to neighbours; live-updated on dynamic connect.
    pub peers: Peers,
}

impl fmt::Debug for NodeEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeEndpoint")
            .field("id", &self.id)
            .field("peers", &self.peers.ids())
            .finish()
    }
}

/// A transport knows how to mint node endpoints and wire FIFO channels
/// between them. All methods may be called after nodes have started running
/// (dynamic topologies).
pub trait Transport: Send + Sync {
    /// Register a node and obtain its endpoint. Fails if `id` already exists.
    fn add_node(&self, id: PeerId) -> Result<NodeEndpoint, TransportError>;

    /// Create a bidirectional FIFO channel between two registered nodes,
    /// installing a link in each node's [`Peers`] table. Returns once both
    /// directions are usable.
    fn connect(&self, a: PeerId, b: PeerId) -> Result<(), TransportError>;

    /// Forget a node: subsequent sends to it fail and its peers receive
    /// [`Delivery::Disconnected`]. Used by failure injection.
    fn remove_node(&self, id: PeerId) -> Result<(), TransportError>;

    /// Sever the FIFO channel between `a` and `b` without forgetting either
    /// node: both sides observe [`Delivery::Disconnected`] and lose their
    /// link, but either node may be re-`connect`ed later. This models
    /// *transient link loss* (a dropped connection between live processes),
    /// as opposed to process death, which is [`Transport::remove_node`].
    fn disconnect(&self, a: PeerId, b: PeerId) -> Result<(), TransportError>;
}

/// Transports are routinely shared behind an `Arc`; forwarding the trait
/// through it lets layered transports ([`shaped::ShapedTransport`],
/// [`fault::FaultyTransport`]) wrap an already-shared inner transport.
impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn add_node(&self, id: PeerId) -> Result<NodeEndpoint, TransportError> {
        (**self).add_node(id)
    }

    fn connect(&self, a: PeerId, b: PeerId) -> Result<(), TransportError> {
        (**self).connect(a, b)
    }

    fn remove_node(&self, id: PeerId) -> Result<(), TransportError> {
        (**self).remove_node(id)
    }

    fn disconnect(&self, a: PeerId, b: PeerId) -> Result<(), TransportError> {
        (**self).disconnect(a, b)
    }
}

/// Convenience: register every node and connect every edge of a tree.
pub fn build_overlay(
    transport: &dyn Transport,
    nodes: &[PeerId],
    edges: &[(PeerId, PeerId)],
) -> Result<HashMap<PeerId, NodeEndpoint>, TransportError> {
    let mut endpoints = HashMap::with_capacity(nodes.len());
    for &n in nodes {
        endpoints.insert(n, transport.add_node(n)?);
    }
    for &(a, b) in edges {
        transport.connect(a, b)?;
    }
    Ok(endpoints)
}

/// How a wire link's dedicated writer behaves when the peer reads slowly.
///
/// Each outbound wire link owns a writer thread fed by a bounded queue.
/// `send` enqueues without touching the socket; when the queue is full it
/// blocks up to `send_deadline` and then fails with
/// [`TransportError::Backpressure`] instead of stalling the event loop
/// behind one slow child. Backpressure is a *transient* condition: a
/// flow-controlled runtime parks the frame until the peer drains and
/// grants more credit, and only escalates to a failure verdict when the
/// peer stays silent past its liveness deadline. A runtime without flow
/// control may still treat it as terminal for the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterConfig {
    /// Frames the per-link queue holds before `send` starts blocking.
    pub queue_depth: usize,
    /// How long `send` may block on a full queue before giving up.
    pub send_deadline: std::time::Duration,
    /// How queued frames are coalesced into flushed batches.
    pub batch: BatchConfig,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            queue_depth: 256,
            send_deadline: std::time::Duration::from_secs(5),
            batch: BatchConfig::default(),
        }
    }
}

/// Upstream frame-batching knobs for wire-link writers.
///
/// A writer accumulates queued frames into one batch and flushes it as a
/// single syscall burst when any bound trips: the batch reaches
/// `max_frames` or `max_bytes`, or `flush_deadline` has elapsed since the
/// batch opened with no further frame arriving. A zero deadline flushes the
/// moment the queue runs dry — today's latency-optimal behaviour — while a
/// small positive deadline trades microseconds of latency for fewer
/// syscalls on the fan-in path, where many small up-packets head to the
/// same parent back-to-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most frames one batch may carry before it is force-flushed.
    pub max_frames: usize,
    /// Most payload bytes one batch may carry before it is force-flushed.
    pub max_bytes: usize,
    /// How long the writer waits for another frame before flushing a
    /// non-empty batch. Zero = flush as soon as the queue is drained.
    pub flush_deadline: std::time::Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_frames: 64,
            max_bytes: 256 * 1024,
            flush_deadline: std::time::Duration::ZERO,
        }
    }
}

/// Errors produced by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's endpoint is gone; the frame was not delivered.
    Closed(PeerId),
    /// The peer's writer queue stayed full past the configured deadline.
    /// Transient by contract ([`TransportError::is_transient`]): the peer
    /// is slow, not necessarily gone — callers with flow control buffer
    /// and retry; only a liveness deadline turns slowness into a failure.
    Backpressure(PeerId),
    /// Referenced a node id the transport has never seen.
    UnknownPeer(PeerId),
    /// `add_node` with an id that already exists.
    DuplicateNode(PeerId),
    /// The link only carries bytes but was handed a shared frame.
    NeedsBytes,
    /// Socket-level failure.
    Io(String),
    /// A frame exceeded the framing layer's size limit.
    FrameTooLarge { size: usize, max: usize },
}

impl TransportError {
    /// Whether retrying the operation could plausibly succeed: the peer is
    /// (or may still be) alive and only the channel misbehaved. Backpressure
    /// and socket-level I/O failures are transient; a closed or unknown peer
    /// is not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TransportError::Backpressure(_) | TransportError::Io(_)
        )
    }

    /// The complement of [`TransportError::is_transient`]: retrying cannot
    /// help (peer gone, protocol misuse, oversized frame).
    pub fn is_fatal(&self) -> bool {
        !self.is_transient()
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed(p) => write!(f, "peer {p} is closed"),
            TransportError::Backpressure(p) => {
                write!(f, "peer {p} exceeded its send deadline (writer queue full)")
            }
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::DuplicateNode(p) => write!(f, "node {p} already registered"),
            TransportError::NeedsBytes => {
                write!(f, "link carries bytes only; shared frames unsupported")
            }
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::FrameTooLarge { size, max } => {
                write!(f, "frame of {size} bytes exceeds limit of {max}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_wire_size_reports_bytes_len() {
        let f = Frame::Bytes(vec![0u8; 17].into());
        assert_eq!(f.wire_size(), 17);
    }

    #[test]
    fn byte_frames_share_one_allocation_across_clones() {
        let bytes: Arc<[u8]> = vec![1u8, 2, 3].into();
        let a = Frame::Bytes(Arc::clone(&bytes));
        let b = a.clone();
        match (&a, &b) {
            (Frame::Bytes(x), Frame::Bytes(y)) => {
                assert!(Arc::ptr_eq(x, y));
                assert!(Arc::ptr_eq(x, &bytes));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn frame_wire_size_reports_size_hint() {
        let f = Frame::Shared {
            data: Arc::new(42u32),
            size_hint: 99,
        };
        assert_eq!(f.wire_size(), 99);
    }

    #[test]
    fn peers_insert_get_remove() {
        struct Nop;
        impl Link for Nop {
            fn send(&self, _: Frame) -> Result<(), TransportError> {
                Ok(())
            }
            fn needs_bytes(&self) -> bool {
                false
            }
        }
        let peers = Peers::new();
        assert!(peers.is_empty());
        peers.insert(3, Arc::new(Nop));
        assert_eq!(peers.len(), 1);
        assert!(peers.get(3).is_some());
        assert!(peers.get(4).is_none());
        assert!(peers.remove(3).is_some());
        assert!(peers.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = TransportError::FrameTooLarge { size: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        assert!(TransportError::Closed(7).to_string().contains('7'));
    }
}
