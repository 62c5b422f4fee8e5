//! The socket transport, generic over the address family.
//!
//! Every edge of the overlay is one stream-socket connection carrying
//! length-prefixed frames in both directions. Per-node accept loops and
//! per-connection reader threads multiplex everything into the node's
//! single [`Delivery`] queue; each outbound direction is a `crate::writer`
//! link — a bounded queue in front of a dedicated writer thread — so `send`
//! never blocks the caller on a slow peer's socket.
//!
//! What differs between TCP and Unix domain sockets — the stream, listener
//! and address types, and how a node's listener is bound and unbound — is
//! the [`Family`] trait; [`crate::tcp`] and [`crate::uds`] implement it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use crossbeam_channel::{unbounded, Sender};
use parking_lot::Mutex;

use crate::framing::{io_err, read_frame};
use crate::writer::WriterLink;
use crate::{
    Delivery, Frame, NodeEndpoint, PeerId, Peers, Transport, TransportError, WriterConfig,
};

/// A stream-socket address family.
pub trait Family: Send + Sync + 'static {
    /// Short name used in thread names (`tbon-<name>-read`, ...).
    const NAME: &'static str;
    type Stream: Read + Write + Send + Sync + 'static;
    type Listener: Send + 'static;
    type Addr: Clone + Send + 'static;

    /// Bind node `id`'s listener; returns it with the address peers dial.
    fn bind(&self, id: PeerId) -> io::Result<(Self::Listener, Self::Addr)>;
    fn accept(listener: &Self::Listener) -> io::Result<Self::Stream>;
    fn connect(addr: &Self::Addr) -> io::Result<Self::Stream>;
    fn try_clone(stream: &Self::Stream) -> io::Result<Self::Stream>;
    /// Close both directions, waking any thread blocked on the socket.
    fn shutdown(stream: &Self::Stream);
    /// Release whatever `bind` left behind once the listener has stopped.
    fn unbind(_addr: &Self::Addr) {}
}

/// One `(peer, stream clone)` per live connection of a node, used to
/// force-close everything on removal or a single edge on disconnect.
type Streams<F> = Arc<Mutex<Vec<(PeerId, <F as Family>::Stream)>>>;

struct NodeSlot<F: Family> {
    addr: F::Addr,
    tx: Sender<Delivery>,
    peers: Peers,
    streams: Streams<F>,
    shutdown: Arc<AtomicBool>,
}

/// Transport whose FIFO channels are stream sockets of family `F`.
pub struct SocketTransport<F: Family> {
    pub(crate) family: F,
    nodes: Mutex<HashMap<PeerId, NodeSlot<F>>>,
    writer_cfg: WriterConfig,
}

impl<F: Family> SocketTransport<F> {
    pub(crate) fn over(family: F, writer_cfg: WriterConfig) -> Self {
        SocketTransport {
            family,
            nodes: Mutex::new(HashMap::new()),
            writer_cfg,
        }
    }

    /// The address a node is listening on (mainly for diagnostics).
    pub fn addr_of(&self, id: PeerId) -> Option<F::Addr> {
        self.nodes.lock().get(&id).map(|s| s.addr.clone())
    }
}

/// Build the writer-thread link for one outbound direction; its stall
/// action shuts the socket down so the peer observes the failure.
fn link<F: Family>(
    to: PeerId,
    stream: &F::Stream,
    cfg: WriterConfig,
) -> Result<WriterLink, TransportError> {
    let write_half = F::try_clone(stream).map_err(io_err)?;
    let stall_half = F::try_clone(stream).map_err(io_err)?;
    Ok(WriterLink::spawn(
        to,
        write_half,
        cfg,
        format!("tbon-{}-write-{to}", F::NAME),
        move || F::shutdown(&stall_half),
    ))
}

/// Register one established connection at its owning node: install the
/// outbound link and remember a clone of the stream for force-closing.
fn install<F: Family>(
    peer: PeerId,
    stream: &F::Stream,
    peers: &Peers,
    streams: &Streams<F>,
    cfg: WriterConfig,
) -> Result<(), TransportError> {
    let link = link::<F>(peer, stream, cfg)?;
    streams
        .lock()
        .push((peer, F::try_clone(stream).map_err(io_err)?));
    peers.insert(peer, Arc::new(link));
    Ok(())
}

/// Runs on the acceptor side of each new connection: handshake, link
/// installation, ack, then the read loop.
fn serve_accepted<F: Family>(
    mut stream: F::Stream,
    tx: Sender<Delivery>,
    peers: Peers,
    streams: Streams<F>,
    cfg: WriterConfig,
) {
    let mut id_buf = [0u8; 4];
    if stream.read_exact(&mut id_buf).is_err() {
        return;
    }
    let peer = PeerId::from_le_bytes(id_buf);
    if install::<F>(peer, &stream, &peers, &streams, cfg).is_err() {
        return;
    }
    if stream.write_all(&[1u8]).is_err() {
        peers.remove(peer);
        return;
    }
    read_loop(stream, peer, tx, peers);
}

/// Pulls frames off a connection into the owning node's queue until EOF or
/// error, then reports the peer as disconnected.
fn read_loop(mut stream: impl Read, peer: PeerId, tx: Sender<Delivery>, peers: Peers) {
    while let Ok(Some(bytes)) = read_frame(&mut stream) {
        let delivery = Delivery::Frame {
            from: peer,
            frame: Frame::Bytes(bytes.into()),
        };
        if tx.send(delivery).is_err() {
            break; // owner exited
        }
    }
    peers.remove(peer);
    let _ = tx.send(Delivery::Disconnected { peer });
}

impl<F: Family> Transport for SocketTransport<F> {
    fn add_node(&self, id: PeerId) -> Result<NodeEndpoint, TransportError> {
        let mut nodes = self.nodes.lock();
        if nodes.contains_key(&id) {
            return Err(TransportError::DuplicateNode(id));
        }
        let (listener, addr) = self.family.bind(id).map_err(io_err)?;
        let (tx, rx) = unbounded();
        let peers = Peers::new();
        let streams: Streams<F> = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));

        {
            let tx = tx.clone();
            let peers = peers.clone();
            let streams = streams.clone();
            let shutdown = shutdown.clone();
            let cfg = self.writer_cfg;
            thread::Builder::new()
                .name(format!("tbon-{}-accept-{id}", F::NAME))
                .spawn(move || loop {
                    let conn = F::accept(&listener);
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { break };
                    let tx = tx.clone();
                    let peers = peers.clone();
                    let streams = streams.clone();
                    thread::Builder::new()
                        .name(format!("tbon-{}-read", F::NAME))
                        .spawn(move || serve_accepted::<F>(stream, tx, peers, streams, cfg))
                        .expect("spawn reader thread");
                })
                .map_err(io_err)?;
        }

        nodes.insert(
            id,
            NodeSlot {
                addr,
                tx,
                peers: peers.clone(),
                streams,
                shutdown,
            },
        );
        Ok(NodeEndpoint {
            id,
            incoming: rx,
            peers,
        })
    }

    fn connect(&self, a: PeerId, b: PeerId) -> Result<(), TransportError> {
        let (b_addr, a_tx, a_peers, a_streams) = {
            let nodes = self.nodes.lock();
            let slot_b = nodes.get(&b).ok_or(TransportError::UnknownPeer(b))?;
            let slot_a = nodes.get(&a).ok_or(TransportError::UnknownPeer(a))?;
            (
                slot_b.addr.clone(),
                slot_a.tx.clone(),
                slot_a.peers.clone(),
                slot_a.streams.clone(),
            )
        };
        let mut stream = F::connect(&b_addr).map_err(io_err)?;
        stream.write_all(&a.to_le_bytes()).map_err(io_err)?;
        // Wait for the acceptor to install its link so `connect` returning
        // means both directions work.
        let mut ack = [0u8; 1];
        stream.read_exact(&mut ack).map_err(io_err)?;

        install::<F>(b, &stream, &a_peers, &a_streams, self.writer_cfg)?;
        thread::Builder::new()
            .name(format!("tbon-{}-read-{a}-{b}", F::NAME))
            .spawn(move || read_loop(stream, b, a_tx, a_peers))
            .map_err(io_err)?;
        Ok(())
    }

    fn remove_node(&self, id: PeerId) -> Result<(), TransportError> {
        let slot = {
            let mut nodes = self.nodes.lock();
            nodes.remove(&id).ok_or(TransportError::UnknownPeer(id))?
        };
        slot.shutdown.store(true, Ordering::Release);
        // Closing the sockets wakes the remote reader threads, which emit
        // Disconnected to their owners and drop their links.
        for (_, s) in slot.streams.lock().iter() {
            F::shutdown(s);
        }
        // Wake the accept loop so it observes the shutdown flag.
        let _ = F::connect(&slot.addr);
        F::unbind(&slot.addr);
        Ok(())
    }

    fn disconnect(&self, a: PeerId, b: PeerId) -> Result<(), TransportError> {
        let nodes = self.nodes.lock();
        for id in [a, b] {
            if !nodes.contains_key(&id) {
                return Err(TransportError::UnknownPeer(id));
            }
        }
        // Shut down every socket of this edge on both slots; the read loops
        // observe EOF and emit Disconnected to both owners. Both nodes stay
        // registered and may reconnect later.
        for (x, y) in [(a, b), (b, a)] {
            nodes[&x].streams.lock().retain(|(peer, s)| {
                if *peer == y {
                    F::shutdown(s);
                }
                *peer != y
            });
        }
        Ok(())
    }
}

/// The one test suite, run against every family: `$make` builds a
/// transport from a [`WriterConfig`].
#[cfg(test)]
macro_rules! socket_transport_suite {
    ($make:expr) => {
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        use $crate::{
            build_overlay, Delivery, Frame, NodeEndpoint, Transport, TransportError, WriterConfig,
        };

        fn pair() -> (impl Transport, NodeEndpoint, NodeEndpoint) {
            let t = $make(WriterConfig::default());
            let ea = t.add_node(0).unwrap();
            let eb = t.add_node(1).unwrap();
            t.connect(0, 1).unwrap();
            (t, ea, eb)
        }

        fn send(from: &NodeEndpoint, to: u32, bytes: &[u8]) {
            let link = from.peers.get(to).unwrap();
            link.send(Frame::Bytes(bytes.to_vec().into())).unwrap();
        }

        fn recv(at: &NodeEndpoint) -> Delivery {
            at.incoming.recv_timeout(Duration::from_secs(10)).unwrap()
        }

        fn expect_frame(at: &NodeEndpoint, from: u32, bytes: &[u8]) {
            match recv(at) {
                Delivery::Frame {
                    from: f,
                    frame: Frame::Bytes(b),
                } => {
                    assert_eq!(f, from);
                    assert_eq!(&b[..], bytes);
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        fn expect_disconnected(at: &NodeEndpoint, peer: u32) {
            match recv(at) {
                Delivery::Disconnected { peer: p } => assert_eq!(p, peer),
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn connect_then_send_both_directions() {
            let (_t, ea, eb) = pair();
            send(&ea, 1, b"up");
            // b's link to a is installed by the accept thread; connect()
            // waits for the ack so it must exist now.
            send(&eb, 0, b"down");
            expect_frame(&eb, 0, b"up");
            expect_frame(&ea, 1, b"down");
        }

        #[test]
        fn shared_frames_rejected() {
            let (_t, ea, _eb) = pair();
            let link = ea.peers.get(1).unwrap();
            assert!(link.needs_bytes());
            let shared = Frame::Shared {
                data: Arc::new(0u8),
                size_hint: 1,
            };
            assert_eq!(link.send(shared).unwrap_err(), TransportError::NeedsBytes);
        }

        #[test]
        fn fifo_order_preserved() {
            let (_t, ea, eb) = pair();
            for i in 0..500u32 {
                send(&ea, 1, &i.to_le_bytes());
            }
            for i in 0..500u32 {
                expect_frame(&eb, 0, &i.to_le_bytes());
            }
        }

        #[test]
        fn remove_node_disconnects_peer() {
            let (t, ea, _eb) = pair();
            t.remove_node(1).unwrap();
            expect_disconnected(&ea, 1);
            assert!(ea.peers.get(1).is_none());
        }

        #[test]
        fn disconnect_severs_one_edge_and_allows_reconnect() {
            let (t, ea, eb) = pair();
            let ec = t.add_node(2).unwrap();
            t.connect(0, 2).unwrap();
            t.disconnect(0, 1).unwrap();
            expect_disconnected(&ea, 1);
            expect_disconnected(&eb, 0);
            // The unrelated 0-2 edge survives.
            send(&ea, 2, &[5]);
            expect_frame(&ec, 0, &[5]);
            // Both nodes are still registered; the edge can come back.
            t.connect(0, 1).unwrap();
            send(&ea, 1, &[6]);
            expect_frame(&eb, 0, &[6]);
        }

        #[test]
        fn overlay_tree_delivers_leaf_to_parent() {
            let t = $make(WriterConfig::default());
            let nodes = vec![0, 1, 2, 3, 4];
            let edges = vec![(0, 1), (0, 2), (1, 3), (1, 4)];
            let eps = build_overlay(&t, &nodes, &edges).unwrap();
            send(&eps[&3], 1, &[42]);
            expect_frame(&eps[&1], 3, &[42]);
        }

        #[test]
        fn large_frame_roundtrips() {
            let (_t, ea, eb) = pair();
            let payload = vec![0xabu8; 4 * 1024 * 1024];
            send(&ea, 1, &payload);
            expect_frame(&eb, 0, &payload);
        }

        #[test]
        fn slow_reader_trips_backpressure_not_the_sender_loop() {
            // Tiny queue + short deadline; node 1 never reads, so the writer
            // jams on the kernel buffer and send() must fail with
            // Backpressure (after closing the connection) instead of
            // blocking forever.
            let t = $make(WriterConfig {
                queue_depth: 1,
                send_deadline: Duration::from_millis(50),
                ..WriterConfig::default()
            });
            let ea = t.add_node(0).unwrap();
            let eb = t.add_node(1).unwrap();
            t.connect(0, 1).unwrap();
            let link = ea.peers.get(1).unwrap();
            // Kill node 1's consumer: once its reader notices (first frame)
            // it stops reading, so the kernel buffers fill and the writer
            // jams.
            drop(eb);
            let chunk = vec![0u8; 1024 * 1024];
            let start = Instant::now();
            let mut result = Ok(());
            for _ in 0..256 {
                result = link.send(Frame::Bytes(chunk.clone().into()));
                if result.is_err() {
                    break;
                }
                // Frames queue instantly once the writer jams; pace the loop
                // so the reader's exit has time to take effect.
                std::thread::sleep(Duration::from_millis(1));
            }
            match result.unwrap_err() {
                TransportError::Backpressure(1) | TransportError::Closed(1) => {}
                other => panic!("expected Backpressure/Closed for peer 1, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "backpressure must trip, not hang"
            );
        }
    };
}

#[cfg(test)]
pub(crate) use socket_transport_suite;
