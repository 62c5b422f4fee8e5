//! Property-based tests for the core codec and protocol.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tbon_core::codec::{decode_value, encode_value_to_vec};
use tbon_core::proto::{decode_message, encode_message, message_encoded_len, Message};
use tbon_core::{
    Batch, BatchItem, CappedConcat, DataValue, FilterContext, IncidentBundle, IncidentGather,
    IncidentReason, LoggedEvent, Packet, PerfCounters, Rank, StreamId, StreamMode, Tag,
    TraceGather, TraceSpan, TraceStage, Transformation,
};

/// Strategy for arbitrary `DataValue`s with bounded depth and size.
fn value_strategy() -> impl Strategy<Value = DataValue> {
    let leaf = prop_oneof![
        Just(DataValue::Unit),
        any::<bool>().prop_map(DataValue::Bool),
        any::<i64>().prop_map(DataValue::I64),
        any::<u64>().prop_map(DataValue::U64),
        any::<f64>().prop_map(DataValue::F64),
        "[a-zA-Z0-9 /_:.-]{0,32}".prop_map(DataValue::Str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(DataValue::Bytes),
        prop::collection::vec(any::<i64>(), 0..32).prop_map(DataValue::ArrayI64),
        prop::collection::vec(any::<f64>(), 0..32).prop_map(DataValue::ArrayF64),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop::collection::vec(inner, 0..8).prop_map(DataValue::Tuple)
    })
}

/// Structural equality that treats NaN == NaN (encode/decode preserves the
/// bit pattern but `PartialEq` on f64 does not).
fn value_eq(a: &DataValue, b: &DataValue) -> bool {
    match (a, b) {
        (DataValue::F64(x), DataValue::F64(y)) => x.to_bits() == y.to_bits(),
        (DataValue::ArrayF64(x), DataValue::ArrayF64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        (DataValue::Tuple(x), DataValue::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| value_eq(a, b))
        }
        _ => a == b,
    }
}

proptest! {
    /// encode → decode is the identity, and encoded_len is exact.
    #[test]
    fn value_roundtrip(v in value_strategy()) {
        let bytes = encode_value_to_vec(&v);
        prop_assert_eq!(bytes.len(), v.encoded_len());
        let back = decode_value(&bytes).unwrap();
        prop_assert!(value_eq(&v, &back), "{:?} != {:?}", v, back);
    }

    /// Any prefix of a valid encoding fails to decode (no silent
    /// truncation).
    #[test]
    fn value_prefixes_rejected(v in value_strategy()) {
        let bytes = encode_value_to_vec(&v);
        if !bytes.is_empty() {
            // All proper prefixes must fail: either truncated or (when the
            // value is a container) leaving trailing garbage is impossible
            // since we cut from the end.
            for cut in [bytes.len() / 2, bytes.len() - 1] {
                if cut < bytes.len() {
                    prop_assert!(decode_value(&bytes[..cut]).is_err());
                }
            }
        }
    }

    /// Appending junk to a valid encoding fails to decode.
    #[test]
    fn value_trailing_junk_rejected(v in value_strategy(), junk in 1u8..255) {
        let mut bytes = encode_value_to_vec(&v);
        bytes.push(junk);
        prop_assert!(decode_value(&bytes).is_err());
    }

    /// Data messages roundtrip and their length accounting is exact.
    #[test]
    fn up_message_roundtrip(
        v in value_strategy(),
        stream in any::<u32>(),
        tag in any::<u32>(),
        origin in any::<u32>(),
        sent_us in any::<u64>(),
        trace in any::<u64>(),
    ) {
        let msg = Message::Up {
            stream: StreamId(stream),
            tag: Tag(tag),
            origin: Rank(origin),
            sent_us,
            trace,
            value: v,
        };
        let bytes = encode_message(&msg);
        prop_assert_eq!(bytes.len(), message_encoded_len(&msg));
        let back = decode_message(&bytes).unwrap();
        match (&msg, &back) {
            (
                Message::Up { stream: s1, tag: t1, origin: o1, sent_us: u1, trace: tr1, value: v1 },
                Message::Up { stream: s2, tag: t2, origin: o2, sent_us: u2, trace: tr2, value: v2 },
            ) => {
                prop_assert_eq!(s1, s2);
                prop_assert_eq!(t1, t2);
                prop_assert_eq!(o1, o2);
                prop_assert_eq!(u1, u2);
                prop_assert_eq!(tr1, tr2);
                prop_assert!(value_eq(v1, v2));
            }
            _ => prop_assert!(false, "variant changed in roundtrip"),
        }
    }

    /// NewStream messages roundtrip with arbitrary member lists and params.
    #[test]
    fn new_stream_roundtrip(
        stream in any::<u32>(),
        members in prop::collection::vec(any::<u32>(), 0..64),
        tname in "[a-z:_]{1,24}",
        sname in "[a-z:_]{1,24}",
        bidir in any::<bool>(),
        with_down in any::<bool>(),
    ) {
        let msg = Message::NewStream {
            stream: StreamId(stream),
            members: members.into_iter().map(Rank).collect(),
            transformation: tname,
            params: DataValue::Unit,
            sync_name: sname,
            sync_params: DataValue::U64(42),
            downstream_filter: with_down.then(|| "core::identity".to_owned()),
            downstream_params: DataValue::Unit,
            mode: if bidir { StreamMode::Bidirectional } else { StreamMode::Upstream },
        };
        let bytes = encode_message(&msg);
        prop_assert_eq!(bytes.len(), message_encoded_len(&msg));
        prop_assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    /// Random byte soup never panics the decoder.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_value(&bytes);
        let _ = decode_message(&bytes);
    }
}

/// The telemetry plane: histogram merges must be a commutative monoid (the
/// tree folds samples level-by-level in arbitrary grouping) and the sample
/// codec must be exact.
mod telemetry_props {
    use proptest::prelude::*;
    use tbon_core::proto::PerfCounters;
    use tbon_core::{LogHistogram, MetricsSample};

    fn histogram_strategy() -> impl Strategy<Value = LogHistogram> {
        prop::collection::vec(any::<u64>(), 0..48).prop_map(|vs| {
            let mut h = LogHistogram::new();
            for v in vs {
                h.record(v);
            }
            h
        })
    }

    fn sample_strategy() -> impl Strategy<Value = MetricsSample> {
        (
            any::<u64>(),
            any::<u64>(),
            1u32..64,
            histogram_strategy(),
            histogram_strategy(),
            histogram_strategy(),
            (histogram_strategy(), histogram_strategy()),
            prop::collection::vec(0u64..1 << 48, 0..6),
            any::<u64>(),
            prop::collection::vec(0u64..1 << 32, 18),
        )
            .prop_map(
                |(seq, interval_us, processes, wl, fe, qd, (ew, eq), levels, dropped, c)| {
                    MetricsSample {
                        seq,
                        interval_us,
                        processes,
                        counters: PerfCounters {
                            packets_up: c[0],
                            packets_down: c[1],
                            waves: c[2],
                            filter_out: c[3],
                            filter_ns: c[4],
                            control: c[5],
                            frames_sent: c[6],
                            bytes_sent: c[7],
                            encodes_performed: c[8],
                            sends_dropped: c[9],
                            waves_executed: c[10],
                            filter_busy_us: c[11],
                            batches_sent: c[12],
                            frames_batched: c[13],
                            credits_stalled_us: c[14],
                            grants_sent: c[15],
                            window_closed: c[16],
                            health_warnings: c[17],
                        },
                        wave_latency_us: wl,
                        filter_exec_ns: fe,
                        executor_wait_ns: ew,
                        queue_depth: qd,
                        executor_queue_depth: eq,
                        level_packets_up: levels,
                        events_dropped: dropped,
                        recovery_us: LogHistogram::new(),
                    }
                },
            )
    }

    proptest! {
        /// merge is associative and commutative: any fold order over the
        /// tree produces the same aggregate.
        #[test]
        fn histogram_merge_is_associative_and_commutative(
            a in histogram_strategy(),
            b in histogram_strategy(),
            c in histogram_strategy(),
        ) {
            let mut ab_c = a.clone();
            ab_c.merge(&b);
            ab_c.merge(&c);
            let mut a_bc = b.clone();
            a_bc.merge(&c);
            let mut left = a.clone();
            left.merge(&a_bc);
            prop_assert_eq!(&ab_c, &left, "associativity");
            let mut ba = b.clone();
            ba.merge(&a);
            let mut ab = a.clone();
            ab.merge(&b);
            prop_assert_eq!(&ab, &ba, "commutativity");
        }

        /// Histogram codec: encode → decode is the identity, length exact.
        #[test]
        fn histogram_codec_roundtrip(h in histogram_strategy()) {
            let mut buf = Vec::new();
            h.encode(&mut buf);
            prop_assert_eq!(buf.len(), h.encoded_len());
            let mut r = tbon_core::codec::Reader::new(&buf);
            let back = LogHistogram::decode(&mut r).unwrap();
            prop_assert_eq!(r.remaining(), 0);
            prop_assert_eq!(h, back);
        }

        /// Sample codec through the DataValue payload it rides in.
        #[test]
        fn metrics_sample_roundtrip(s in sample_strategy()) {
            let v = s.to_value();
            let back = MetricsSample::from_value(&v).unwrap();
            prop_assert_eq!(s, back);
        }

        /// Sample merge is associative too (same fold-order freedom).
        #[test]
        fn sample_merge_is_associative(
            a in sample_strategy(),
            b in sample_strategy(),
            c in sample_strategy(),
        ) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }
    }
}

/// Format-string packing: pack ∘ unpack is the identity for arbitrary
/// well-typed argument lists.
mod fmt_props {
    use proptest::prelude::*;
    use tbon_core::fmt::{pack, parse_format, unpack, FmtItem};
    use tbon_core::DataValue;

    fn arg_for(item: FmtItem) -> BoxedStrategy<DataValue> {
        match item {
            FmtItem::I64 => any::<i64>().prop_map(DataValue::I64).boxed(),
            FmtItem::U64 => any::<u64>().prop_map(DataValue::U64).boxed(),
            FmtItem::F64 => any::<f64>().prop_map(DataValue::F64).boxed(),
            FmtItem::Str => "[a-z ]{0,16}".prop_map(DataValue::Str).boxed(),
            FmtItem::Bytes => prop::collection::vec(any::<u8>(), 0..16)
                .prop_map(DataValue::Bytes)
                .boxed(),
            FmtItem::ArrayI64 => prop::collection::vec(any::<i64>(), 0..8)
                .prop_map(DataValue::ArrayI64)
                .boxed(),
            FmtItem::ArrayF64 => prop::collection::vec(any::<f64>(), 0..8)
                .prop_map(DataValue::ArrayF64)
                .boxed(),
        }
    }

    fn fmt_and_args() -> impl Strategy<Value = (String, Vec<DataValue>)> {
        prop::collection::vec(
            prop_oneof![
                Just(FmtItem::I64),
                Just(FmtItem::U64),
                Just(FmtItem::F64),
                Just(FmtItem::Str),
                Just(FmtItem::Bytes),
                Just(FmtItem::ArrayI64),
                Just(FmtItem::ArrayF64),
            ],
            1..6,
        )
        .prop_flat_map(|items| {
            let fmt = items
                .iter()
                .map(|i| i.token())
                .collect::<Vec<_>>()
                .join(" ");
            let args: Vec<BoxedStrategy<DataValue>> = items.iter().map(|&i| arg_for(i)).collect();
            (Just(fmt), args)
        })
    }

    fn value_bits_eq(a: &DataValue, b: &DataValue) -> bool {
        match (a, b) {
            (DataValue::F64(x), DataValue::F64(y)) => x.to_bits() == y.to_bits(),
            (DataValue::ArrayF64(x), DataValue::ArrayF64(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => a == b,
        }
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip((fmt, args) in fmt_and_args()) {
            let packed = pack(&fmt, &args).unwrap();
            let fields = unpack(&fmt, &packed).unwrap();
            prop_assert_eq!(fields.len(), args.len());
            for (f, a) in fields.iter().zip(&args) {
                prop_assert!(value_bits_eq(f, a));
            }
            // The format parses to as many items as there are args.
            prop_assert_eq!(parse_format(&fmt).unwrap().len(), args.len());
        }
    }
}

// ---------------------------------------------------------------------------
// The shared capped-concat gather (plane.rs), once per concatenating plane.
// ---------------------------------------------------------------------------

/// One generated packet of a wave: `None` is junk that must be skipped,
/// `Some((dropped, seeds))` a batch of one item per seed.
type GenPacket = Option<(u64, Vec<u64>)>;

fn gen_waves() -> impl Strategy<Value = Vec<Vec<GenPacket>>> {
    let packet = (
        0u8..5,
        0u64..1000,
        prop::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(|(kind, dropped, seeds)| (kind > 0).then_some((dropped, seeds)));
    prop::collection::vec(prop::collection::vec(packet, 1..6), 1..5)
}

fn span_from(seed: u64) -> TraceSpan {
    TraceSpan {
        trace: seed | 1,
        rank: (seed >> 8) as u32,
        stream: (seed >> 16) as u32 & 0xff,
        stage: TraceStage::ALL[(seed % 8) as usize],
        start_us: seed >> 3,
        dur_us: seed >> 40,
        detail: seed % 17,
    }
}

/// Bundles of varying size: the event and child lists grow with the seed.
fn bundle_from(seed: u64) -> IncidentBundle {
    IncidentBundle {
        incident: seed,
        rank: Rank((seed >> 32) as u32),
        reason: IncidentReason::ALL[(seed % 6) as usize],
        subject: Rank(seed as u32),
        at_us: seed >> 7,
        parent: Rank(0),
        children: (0..seed % 4).map(|c| Rank(c as u32)).collect(),
        counters: PerfCounters::default(),
        trigger: None,
        scores: Vec::new(),
        flow: Vec::new(),
        events: (0..seed % 5)
            .map(|i| LoggedEvent {
                at_us: i,
                kind: "tick".into(),
                detail: "x".repeat((seed % 40) as usize),
            })
            .collect(),
        spans: (0..seed % 3).map(span_from).collect(),
    }
}

/// For every wave: items kept + `dropped` out = items + `dropped` in; the
/// kept items are the oldest ones, in order, and as many as the cap
/// allows — their encoding fits the cap, or there is exactly one of them
/// and it alone exceeds it; undecodable packets are skipped.
fn gather_conserves<G>(
    mut gather: G,
    make: impl Fn(u64) -> G::Item,
    waves: &[Vec<GenPacket>],
) -> Result<(), TestCaseError>
where
    G: CappedConcat,
    G::Item: PartialEq + std::fmt::Debug,
{
    let cap = gather.max_bytes();
    let mut ctx = FilterContext::new(StreamId(3), Rank(1), false, 4);
    for wave in waves {
        let mut offered: Vec<G::Item> = Vec::new();
        let mut dropped_in = 0u64;
        let mut packets = Vec::new();
        for (from, packet) in wave.iter().enumerate() {
            let value = match packet {
                None => DataValue::U64(from as u64),
                Some((dropped, seeds)) => {
                    dropped_in += dropped;
                    offered.extend(seeds.iter().map(|&s| make(s)));
                    Batch {
                        dropped: *dropped,
                        items: seeds.iter().map(|&s| make(s)).collect(),
                    }
                    .to_value()
                }
            };
            packets.push(Packet::new(StreamId(3), Tag(9), Rank(from as u32), value));
        }
        let out = gather.transform(packets, &mut ctx).unwrap();
        if wave.iter().all(Option::is_none) {
            prop_assert!(out.is_empty(), "junk alone must produce nothing");
            continue;
        }
        prop_assert_eq!(out.len(), 1);
        let batch = Batch::<G::Item>::from_value(out[0].value()).unwrap();
        let kept = batch.items.len();
        prop_assert_eq!(
            kept as u64 + batch.dropped,
            offered.len() as u64 + dropped_in
        );
        prop_assert_eq!(&batch.items[..], &offered[..kept]);
        let kept_bytes: usize = batch.items.iter().map(BatchItem::encoded_len).sum();
        prop_assert!(
            kept_bytes <= cap || kept == 1,
            "{kept_bytes} bytes under cap {cap}"
        );
        prop_assert!(
            kept > 0 || offered.is_empty(),
            "a tiny cap must not wedge the plane"
        );
        if let Some(cut) = offered.get(kept) {
            prop_assert!(kept_bytes + cut.encoded_len() > cap, "cut an item that fit");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn trace_gather_conserves_items_under_its_cap(waves in gen_waves(), cap in 1usize..1200) {
        gather_conserves(TraceGather { max_bytes: cap }, span_from, &waves)?;
    }

    #[test]
    fn incident_gather_conserves_items_under_its_cap(waves in gen_waves(), cap in 1usize..4000) {
        gather_conserves(IncidentGather { max_bytes: cap }, bundle_from, &waves)?;
    }
}
