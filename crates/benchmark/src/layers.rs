//! Source A of the per-layer ledger: microtimings of each layer's public
//! functions, at the workload's own payload size and fan-in. Every number
//! is the median of five batches; the functions are called exactly as the
//! runtime calls them, from outside the crates that own them.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tbon_core::filter::SyncContext;
use tbon_core::proto::{decode_message, encode_message};
use tbon_core::{
    DataValue, FilterContext, Message, Packet, Rank, StreamId, Synchronization, WaitForAll,
};
use tbon_filters::builtin_registry;
use tbon_meanshift::{leaf_compute, register_meanshift, TAG_RESULT};
use tbon_transport::framing::{read_frame, write_frame};
use tbon_transport::{build_overlay, Delivery, Frame};

use crate::spec::Shape;
use crate::stats::median;
use crate::workloads::Inputs;

const BATCHES: usize = 5;
const PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// Nanoseconds per call of `op`: median of [`BATCHES`] batches that
/// together take about `budget`.
fn time_op(budget: Duration, mut op: impl FnMut()) -> f64 {
    let once = Instant::now();
    op();
    let once = once.elapsed().as_secs_f64().max(1e-9);
    // Read the clock about every 20 µs, so it never shows in a ns-scale op.
    let chunk = ((20e-6 / once) as u64).clamp(1, 4096);
    let batch = budget / BATCHES as u32;
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..chunk {
                op();
            }
            calls += chunk;
            if start.elapsed() >= batch {
                break;
            }
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median(&samples).expect("five batches")
}

#[derive(Debug)]
pub struct LayerTimings {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_write_ns: f64,
    pub frame_read_ns: f64,
    pub send_call_ns: f64,
    pub hop_us: f64,
    pub sync_push_ns: f64,
    pub transform_us: f64,
    /// Only the mean-shift workload has a leaf computation.
    pub leaf_compute_ms: Option<f64>,
}

/// What leaf number `leaf` sends upstream on this workload.
fn leaf_value(inputs: &Inputs, leaf: usize) -> DataValue {
    match (&inputs.workload.shape, &inputs.meanshift) {
        (Shape::MeanShift { .. }, Some(ms)) => leaf_compute(
            &ms.spec.generate(inputs.leaf_ranks[leaf] as u64),
            &ms.params,
        )
        .to_value(),
        (Shape::Stream { len, .. } | Shape::Echo { len, .. }, _) => {
            DataValue::ArrayF64((0..*len).map(|i| i as f64).collect())
        }
        _ => DataValue::Unit,
    }
}

/// One-way hop and `Link::send` call time over a two-node overlay of the
/// workload's transport: node 0 pings, node 1 echoes.
fn time_transport(inputs: &Inputs, bytes: &Arc<[u8]>, budget: Duration) -> (f64, f64) {
    let (transport, socket_dir) = inputs.transport();
    let mut endpoints = build_overlay(&*transport, &[0, 1], &[(0, 1)]).expect("two-node overlay");
    let near = endpoints.remove(&0).expect("node 0");
    let far = endpoints.remove(&1).expect("node 1");
    let echo = std::thread::spawn(move || {
        let Some(back) = far.peers.get(0) else {
            return;
        };
        // Ends on the `Disconnected` delivery that removing node 0 causes;
        // the timeout only bounds a transport that fails to deliver it.
        while let Ok(Delivery::Frame { frame, .. }) = far.incoming.recv_timeout(PEER_TIMEOUT) {
            if back.send(frame).is_err() {
                break;
            }
        }
    });
    let mut send_ns = Vec::new();
    let mut rtt_us = Vec::new();
    {
        let link = near.peers.get(1).expect("link to node 1");
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            let frame = Frame::Bytes(bytes.clone());
            let t0 = Instant::now();
            let sent = link.send(frame);
            let t1 = Instant::now();
            let echoed = near.incoming.recv_timeout(PEER_TIMEOUT);
            if sent.is_err() || !matches!(echoed, Ok(Delivery::Frame { .. })) {
                break;
            }
            send_ns.push((t1 - t0).as_secs_f64() * 1e9);
            rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = transport.remove_node(0);
    drop(near);
    echo.join().expect("echo thread");
    let _ = transport.remove_node(1);
    if let Some(dir) = socket_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    (
        median(&send_ns).unwrap_or(0.0),
        median(&rtt_us).unwrap_or(0.0) / 2.0,
    )
}

/// Time every layer's functions within about `budget` in total.
pub fn time_layers(inputs: &Inputs, budget: Duration) -> LayerTimings {
    let slice = budget / 9;
    let stream = StreamId(1);
    let value = leaf_value(inputs, 0);
    let fan_in = *inputs.workload.levels.last().expect("at least one level");

    let message = Message::Up {
        stream,
        tag: TAG_RESULT,
        origin: Rank(inputs.leaf_ranks[0]),
        sent_us: 1,
        trace: 0,
        value: value.clone(),
    };
    let encode_ns = time_op(slice, || {
        black_box(encode_message(black_box(&message)));
    });
    let bytes: Arc<[u8]> = encode_message(&message).into();
    let decode_ns = time_op(slice, || {
        black_box(decode_message(black_box(&bytes)).expect("decode what encode wrote"));
    });

    let mut framed = Vec::with_capacity(bytes.len() + 4);
    let frame_write_ns = time_op(slice, || {
        framed.clear();
        write_frame(&mut framed, black_box(&bytes)).expect("write to a Vec");
    });
    let frame_read_ns = time_op(slice, || {
        black_box(read_frame(&mut Cursor::new(black_box(&framed[..]))).expect("read a frame"));
    });

    let (send_call_ns, hop_us) = time_transport(inputs, &bytes, slice * 2);

    let children: Vec<Rank> = (1..=fan_in as u32).map(Rank).collect();
    let packets: Vec<Packet> = children
        .iter()
        .enumerate()
        .map(|(leaf, &c)| Packet::new(stream, TAG_RESULT, c, leaf_value(inputs, leaf)))
        .collect();
    let ctx = SyncContext {
        stream,
        rank: Rank(0),
        expected: children.clone(),
        now: Instant::now(),
    };
    let mut sync = WaitForAll::new();
    let sync_wave_ns = time_op(slice, || {
        for (child, packet) in children.iter().zip(&packets) {
            black_box(sync.push(*child, packet.clone(), &ctx));
        }
    });

    let registry = builtin_registry();
    register_meanshift(&registry);
    let (filter, params) = match &inputs.meanshift {
        Some(ms) => ("meanshift::merge", ms.params.to_value()),
        None => ("builtin::sum", DataValue::Unit),
    };
    let mut transform = registry
        .create_transformation(filter, &params)
        .expect("registry creates the workload's filter");
    let transform_ns = time_op(slice, || {
        let mut fctx = FilterContext::new(stream, Rank(0), false, fan_in);
        black_box(
            transform
                .transform(packets.clone(), &mut fctx)
                .expect("transform one wave"),
        );
    });

    let leaf_compute_ms = inputs.meanshift.as_ref().map(|ms| {
        let data = ms.spec.generate(inputs.leaf_ranks[0] as u64);
        time_op(slice, || {
            black_box(leaf_compute(black_box(&data), &ms.params));
        }) / 1e6
    });

    LayerTimings {
        encode_ns,
        decode_ns,
        frame_write_ns,
        frame_read_ns,
        send_call_ns,
        hop_us,
        sync_push_ns: sync_wave_ns / fan_in as f64,
        transform_us: transform_ns / 1e3,
        leaf_compute_ms,
    }
}
