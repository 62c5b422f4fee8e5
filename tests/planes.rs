//! The in-band planes as one mechanism: every plane refuses a second open
//! the same way, and what the trace plane's spans say reconciles with what
//! the metrics plane's counters say about the same intervals.

use std::time::{Duration, Instant};

use tbon::core::{
    FilterContext, PlaneHandle, PlanePayload, TraceGather, TraceStage, Transformation, Wave,
    TRACE_FILTER,
};
use tbon::prelude::*;

fn echo_backend(mut ctx: BackendContext) {
    loop {
        match ctx.next_event() {
            Ok(BackendEvent::Packet { stream, packet }) => {
                if ctx.send(stream, packet.tag(), DataValue::I64(1)).is_err() {
                    break;
                }
            }
            Ok(BackendEvent::Shutdown) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

/// Open a plane, check a second open is refused by name while the first
/// is live, and that closing the first makes the plane openable again.
fn second_open_is_refused<T: PlanePayload>(
    net: &mut Network,
    plane: &str,
    open: impl Fn(&mut Network) -> tbon::core::Result<PlaneHandle<T>>,
) {
    let first = open(net).unwrap_or_else(|e| panic!("first {plane} open: {e}"));
    let refused = match open(net) {
        Ok(_) => panic!("second {plane} open must be refused"),
        Err(e) => e.to_string(),
    };
    assert!(
        refused.contains("already open") && refused.contains(plane),
        "second {plane} open said: {refused}"
    );
    first.close().expect("close");
    let again = open(net).unwrap_or_else(|e| panic!("{plane} reopen after close: {e}"));
    again.close().expect("close");
}

#[test]
fn every_plane_refuses_a_second_open() {
    let config = NetworkConfig {
        trace: TraceConfig::sampled(4),
        ..NetworkConfig::default()
    };
    let mut net = NetworkBuilder::new(Topology::balanced(2, 2))
        .registry(builtin_registry())
        .config(config)
        .backend(echo_backend)
        .launch()
        .expect("launch");
    let interval = Duration::from_millis(50);
    second_open_is_refused(&mut net, "metrics", |n| n.open_metrics_stream(interval));
    second_open_is_refused(&mut net, "trace", |n| n.open_trace_stream(interval));
    second_open_is_refused(&mut net, "incident", |n| n.open_incident_stream());

    // Drill-down is the metrics plane with its fold swapped out, not a
    // fourth plane: it shares the slot.
    let merged = net.open_metrics_stream(interval).expect("metrics");
    assert!(net.open_metrics_drilldown(interval).is_err());
    merged.close().expect("close");
    net.shutdown().expect("shutdown");
}

/// Stamps a trace id on downstream packets, which the front end sends
/// untraced: parked downstream frames then record `credit_park` spans.
struct StampDown;
impl Transformation for StampDown {
    fn transform(
        &mut self,
        wave: Wave,
        _ctx: &mut FilterContext,
    ) -> tbon::core::Result<Vec<Packet>> {
        Ok(wave
            .into_iter()
            .map(|p| {
                let id = (0xd0u64 << 32) | (p.tag().0 as u64 + 1);
                p.or_trace(id)
            })
            .collect())
    }
}

/// Sums the wave after a fixed stretch of arithmetic, so filter execution
/// takes measurable time without sleeping.
struct WorkSum;
impl Transformation for WorkSum {
    fn transform(
        &mut self,
        wave: Wave,
        ctx: &mut FilterContext,
    ) -> tbon::core::Result<Vec<Packet>> {
        let mut x = wave.len() as u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let sum: i64 = wave.iter().filter_map(|p| p.value().as_i64()).sum();
        let tag = wave.first().map_or(Tag(0), |p| p.tag());
        Ok(vec![ctx.make(tag, DataValue::I64(sum))])
    }
}

/// At 1-in-1 sampling every wave is traced, so the trace plane and the
/// counters measure the same intervals twice:
///
/// * each executed wave adds its transform time to `filter_busy_us` and
///   records it as a `filter_exec` span;
/// * with a one-frame credit window and two broadcasts per round, each
///   child has at most one frame parked at a time, so each closed-window
///   stretch added to `credits_stalled_us` is also one `credit_park` span.
///
/// Both pairs must agree as ratios — the test never sleeps and asserts no
/// absolute time.
#[test]
fn spans_reconcile_with_counters() {
    const ROUNDS: u32 = 150;
    let registry = builtin_registry();
    registry.register_transformation("test::stamp_down", |_| Ok(Box::new(StampDown)));
    registry.register_transformation("test::work_sum", |_| Ok(Box::new(WorkSum)));
    // A caller's own cap on the built-in gather: nothing may be cut here.
    registry.register_transformation(TRACE_FILTER, |_| {
        Ok(Box::new(TraceGather {
            max_bytes: 16 << 20,
        }))
    });
    let config = NetworkConfig {
        trace: TraceConfig {
            sample_every: 1,
            ring_capacity: 1 << 16,
            max_bytes_per_interval: 4 << 20,
        },
        flow: FlowConfig {
            window_frames: 1,
            window_bytes: 0,
            low_watermark: 1,
        },
        ..NetworkConfig::default()
    };
    let mut net = Network::local(4, 2)
        .registry(registry)
        .config(config)
        .backend(echo_backend)
        .launch()
        .expect("launch 4x4");
    let traces = net
        .open_trace_stream(Duration::from_millis(20))
        .expect("trace stream");
    let stream = net
        .new_stream(
            StreamSpec::all()
                .transformation("test::work_sum")
                .downstream("test::stamp_down", DataValue::Unit),
        )
        .expect("workload stream");

    let mut asm = TraceAssembler::new();
    for round in 0..ROUNDS {
        // Two back to back: the second parks behind the first's window.
        for half in 0..2 {
            stream
                .broadcast(Tag(2 * round + half), DataValue::Unit)
                .expect("broadcast");
        }
        for _ in 0..2 {
            let reply = stream
                .recv_within(Duration::from_secs(20))
                .expect("stream alive")
                .expect("wave within 20s");
            assert_eq!(reply.value().as_i64(), Some(16));
        }
        while let Some((_, batch)) = traces.poll() {
            asm.absorb(&batch);
        }
    }
    // Every wave has been received, so the counters are final.
    let total = net
        .perf_snapshot(Duration::from_secs(5))
        .expect("perf snapshot")
        .total();
    assert_eq!(total.waves_executed, 2 * ROUNDS as u64 * 5);
    assert!(total.window_closed > 0, "the second broadcast must park");

    // Collect until every span the counters promise has arrived.
    let stage_spans = |asm: &TraceAssembler, stage: TraceStage| -> (u64, u64) {
        asm.waves()
            .into_iter()
            .flat_map(|w| w.spans.iter())
            .filter(|s| s.stage == stage)
            .fold((0, 0), |(n, us), s| (n + 1, us + s.dur_us))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (execs, _) = stage_spans(&asm, TraceStage::FilterExec);
        let (parks, _) = stage_spans(&asm, TraceStage::CreditPark);
        if execs >= total.waves_executed && parks >= total.window_closed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "spans never arrived: {execs}/{} filter_exec, {parks}/{} credit_park",
            total.waves_executed,
            total.window_closed
        );
        if let Ok(Some((_, batch))) = traces.recv_within(Duration::from_millis(500)) {
            asm.absorb(&batch);
        }
    }
    assert_eq!(asm.dropped(), 0, "no span may be lost for the sums to hold");

    let (execs, exec_us) = stage_spans(&asm, TraceStage::FilterExec);
    assert_eq!(execs, total.waves_executed);
    assert!(
        total.filter_busy_us > 0,
        "the filter must take measurable time"
    );
    // The same per-wave measurement, recorded twice: exact.
    assert_eq!(exec_us, total.filter_busy_us);

    let (parks, park_us) = stage_spans(&asm, TraceStage::CreditPark);
    assert_eq!(parks, total.window_closed);
    // Two clock reads apart at either end of each interval, so close but
    // not exact; a span also covers the send that ends the park.
    let ratio = park_us as f64 / total.credits_stalled_us as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "credit_park spans sum to {park_us}us but credits_stalled_us is {}us (ratio {ratio:.3})",
        total.credits_stalled_us
    );

    traces.close().expect("close trace stream");
    net.shutdown().expect("shutdown");
}
