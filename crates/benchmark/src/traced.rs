//! Source D of the per-layer ledger: what the runtime's own trace plane,
//! sampled 1-in-1, says about each stage of a wave, set against the
//! harness's spans of the same waves. Also writes the Chrome trace-event
//! file of the traced rep.

use std::collections::HashMap;
use std::fmt::Write as _;

use tbon_core::{TraceAssembler, TraceSpan, TraceStage};
use tbon_topology::tree::NodeId;
use tbon_topology::Topology;

use crate::harness::{Span, NO_WAVE};
use crate::stats::median;
use crate::workloads::{Probe, Rep};

/// Below this share of waves assembled, the stage means describe the
/// waves the plane happened to deliver, not the workload.
pub const MIN_ASSEMBLED_SHARE: f64 = 0.9;

/// Waves written to the Chrome trace file: enough to see the pattern,
/// small enough for Perfetto to open.
pub const CHROME_WAVE_CAP: u64 = 2_000;

pub struct TraceSummary {
    /// Waves with a span recorded at the root ÷ waves the front end received.
    pub assembled_share: f64,
    /// Mean µs per span, one entry per [`TraceStage::ALL`]; 0 where the
    /// stage never ran on this workload. A mean, because the runtime
    /// records whole microseconds and the median of a sub-microsecond
    /// stage reads 0 however much it changes.
    pub stage_us: [f64; 8],
    /// Median over waves of (last back-end `send` → front-end receipt, on
    /// the harness clock) minus the stage spans on the wave's critical
    /// path: dispatch, channel and polling waits nobody has a span for.
    pub unattributed_us: Option<f64>,
}

/// Every leaf sends once per wave and trace ids are `rank << 32 | send
/// count`, so the low half of an id is the wave's number plus one on
/// whatever rank minted it.
fn wave_of(trace: u64) -> u64 {
    (trace & 0xffff_ffff).wrapping_sub(1)
}

fn smallest_leaf_below(topology: &Topology, rank: u32) -> u32 {
    topology
        .leaves_below(NodeId(rank))
        .iter()
        .map(|n| n.0)
        .min()
        .unwrap_or(rank)
}

/// Sum of the stage spans on the critical path of one wave: from the root
/// follow the straggler each `child_merge` span names, adding what that
/// hop spent on the straggler's packet, down to the leaf's inject span.
fn critical_path_us(spans: &[TraceSpan], topology: &Topology) -> Option<f64> {
    let at = |rank: u32, stage: TraceStage| {
        spans
            .iter()
            .filter(move |s| s.rank == rank && s.stage == stage)
    };
    let root = topology.root().0;
    let mut rank = root;
    let mut total = 0u64;
    loop {
        if topology.children(NodeId(rank)).is_empty() {
            total += at(rank, TraceStage::BackendInject)
                .map(|s| s.dur_us)
                .sum::<u64>();
            return Some(total as f64);
        }
        let straggler = at(rank, TraceStage::ChildMerge).next()?.detail as u32;
        let carried_by = smallest_leaf_below(topology, straggler);
        total += at(rank, TraceStage::Decode)
            .filter(|s| (s.trace >> 32) as u32 == carried_by)
            .map(|s| s.dur_us)
            .sum::<u64>();
        for stage in [TraceStage::ExecutorQueue, TraceStage::FilterExec] {
            total += at(rank, stage).map(|s| s.dur_us).sum::<u64>();
        }
        if rank != root {
            total += at(rank, TraceStage::UpstreamSend)
                .map(|s| s.dur_us)
                .sum::<u64>();
        }
        rank = straggler;
    }
}

pub fn summarize(rep: &Rep, topology: &Topology) -> Option<TraceSummary> {
    let assembler = rep.trace.as_ref()?;
    let probe = rep.probe.as_ref()?;
    let mut by_wave: HashMap<u64, Vec<TraceSpan>> = HashMap::new();
    // (spans, total µs) per stage.
    let mut by_stage: HashMap<TraceStage, (u64, u64)> = HashMap::new();
    for wave in assembler.waves() {
        for span in &wave.spans {
            by_wave.entry(wave_of(span.trace)).or_default().push(*span);
            let (count, total) = by_stage.entry(span.stage).or_default();
            *count += 1;
            *total += span.dur_us;
        }
    }
    let root = topology.root().0;
    let assembled = by_wave
        .values()
        .filter(|spans| spans.iter().any(|s| s.rank == root))
        .count();
    let assembled_share = (assembled as f64 / rep.waves.max(1) as f64).min(1.0);

    let mut stage_us = [0.0; 8];
    for (slot, stage) in stage_us.iter_mut().zip(TraceStage::ALL) {
        *slot = by_stage
            .get(&stage)
            .map_or(0.0, |&(count, total)| total as f64 / count as f64);
    }

    let mut last_send: HashMap<u64, f64> = HashMap::new();
    for (_, log) in &probe.backends {
        for s in log.spans.iter().filter(|s| s.name == "send") {
            let at = last_send.entry(s.wave).or_insert(s.start_us);
            *at = at.max(s.start_us);
        }
    }
    let residues: Vec<f64> = probe
        .frontend
        .spans
        .iter()
        .filter(|s| s.name == "recv_within" && s.wave != NO_WAVE)
        .filter_map(|recv| {
            let sent = last_send.get(&recv.wave)?;
            let path = critical_path_us(by_wave.get(&recv.wave)?, topology)?;
            Some(recv.end_us - sent - path)
        })
        .collect();

    Some(TraceSummary {
        assembled_share,
        stage_us,
        unattributed_us: median(&residues),
    })
}

fn push_event(out: &mut String, first: &mut bool, event: std::fmt::Arguments<'_>) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = out.write_fmt(event);
}

fn harness_events(out: &mut String, first: &mut bool, tid: u32, spans: &[Span]) {
    for (id, s) in spans.iter().enumerate() {
        if s.wave != NO_WAVE && s.wave >= CHROME_WAVE_CAP {
            continue;
        }
        let wave = if s.wave == NO_WAVE { -1 } else { s.wave as i64 };
        let parent = s.parent.map_or(-1, i64::from);
        push_event(
            out,
            first,
            format_args!(
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{HARNESS_PID},\"tid\":{tid},\"args\":{{\"id\":{id},\"parent\":{parent},\"wave\":{wave}}}}}",
                s.name,
                s.start_us,
                s.dur_us().max(0.001),
            ),
        );
    }
}

const HARNESS_PID: u32 = 1;
/// Runtime spans sit on `RUNTIME_PID_BASE + rank`: their clock is the
/// runtime's, not the harness's, so they never share a timeline.
const RUNTIME_PID_BASE: u32 = 1000;

/// Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`): the
/// harness's spans on one pid (tid 0 = front end, tid = rank for the
/// back-ends) and the trace plane's spans on one pid per rank.
pub fn chrome_trace_json(probe: &Probe, assembler: &TraceAssembler, workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    push_event(
        &mut out,
        &mut first,
        format_args!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{HARNESS_PID},\
             \"args\":{{\"name\":\"harness: {workload} (benchmark clock)\"}}}}"
        ),
    );
    harness_events(&mut out, &mut first, 0, &probe.frontend.spans);
    for (rank, log) in &probe.backends {
        harness_events(&mut out, &mut first, *rank, &log.spans);
    }
    let mut ranks: Vec<u32> = Vec::new();
    for wave in assembler.waves() {
        for s in &wave.spans {
            if wave_of(s.trace) >= CHROME_WAVE_CAP {
                continue;
            }
            if !ranks.contains(&s.rank) {
                ranks.push(s.rank);
            }
            push_event(
                &mut out,
                &mut first,
                format_args!(
                    "{{\"name\":\"{}\",\"cat\":\"tbon\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{:#018x}\",\"wave\":{},\"detail\":{}}}}}",
                    s.stage.name(),
                    s.start_us,
                    s.dur_us.max(1),
                    RUNTIME_PID_BASE + s.rank,
                    s.stream,
                    s.trace,
                    wave_of(s.trace),
                    s.detail,
                ),
            );
        }
    }
    ranks.sort_unstable();
    for r in ranks {
        push_event(
            &mut out,
            &mut first,
            format_args!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\
                 \"args\":{{\"name\":\"rank {r} (runtime clock)\"}}}}",
                RUNTIME_PID_BASE + r
            ),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, rank: u32, stage: TraceStage, dur_us: u64, detail: u64) -> TraceSpan {
        TraceSpan {
            trace,
            rank,
            stream: 1,
            stage,
            start_us: 10,
            dur_us,
            detail,
        }
    }

    #[test]
    fn critical_path_follows_the_stragglers() {
        // 2x2: root 0, internals 1 and 2, leaves 3,4 under 1 and 5,6 under 2.
        let topology = Topology::balanced_levels(&[2, 2]);
        let seq = 7u64;
        let id = |leaf: u64| (leaf << 32) | seq;
        let spans = vec![
            span(id(3), 0, TraceStage::ChildMerge, 50, 2), // straggler: internal 2
            span(id(3), 0, TraceStage::Decode, 100, 0),    // internal 1's packet: off path
            span(id(5), 0, TraceStage::Decode, 4, 0),      // internal 2's packet
            span(id(3), 0, TraceStage::FilterExec, 3, 0),
            span(id(5), 2, TraceStage::ChildMerge, 20, 6), // straggler: leaf 6
            span(id(6), 2, TraceStage::Decode, 2, 0),
            span(id(5), 2, TraceStage::Decode, 100, 0), // leaf 5's packet: off path
            span(id(5), 2, TraceStage::FilterExec, 5, 0),
            span(id(5), 2, TraceStage::UpstreamSend, 1, 0),
            span(id(6), 6, TraceStage::BackendInject, 8, 0),
            span(id(3), 1, TraceStage::FilterExec, 1000, 0), // other subtree
        ];
        assert_eq!(
            critical_path_us(&spans, &topology),
            Some((4 + 3 + 2 + 5 + 1 + 8) as f64)
        );
        assert_eq!(wave_of(id(3)), 6);
        // No child_merge at the root: the wave cannot be walked.
        assert_eq!(critical_path_us(&spans[1..], &topology), None);
    }
}
