//! Front-end trace assembly: turn the [`TraceBatch`]es arriving on the
//! trace stream into per-wave critical paths and exportable timelines.
//!
//! A trace id is minted at one back-end (`rank << 32 | seq`, see
//! `backend.rs`) and follows that back-end's packet up the tree: every
//! process the sampled wave crosses contributes spans tagged with the id.
//! The [`TraceAssembler`] groups spans by id, attributes time to stages
//! and hops, and exports Chrome trace-event JSON loadable in Perfetto
//! (`chrome://tracing`).
//!
//! **The clock rule** (DESIGN.md §12): span start times are per-process
//! `now_us` epochs and are *never* compared across ranks. All cross-process
//! analysis here — dominant stage, dominant hop, critical paths — sums
//! locally measured durations only. The Chrome export keeps each rank on
//! its own `pid` timeline so absolute positions are honest about this.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::telemetry::{TraceBatch, TraceSpan, TraceStage};

/// Every span observed for one sampled wave, grouped by its trace id.
#[derive(Debug, Clone, Default)]
pub struct WaveTrace {
    /// The wave's trace id (`backend_rank << 32 | sample_seq`).
    pub trace: u64,
    /// All spans collected for this wave, in absorption order.
    pub spans: Vec<TraceSpan>,
}

impl WaveTrace {
    /// The back-end that minted this trace id.
    pub fn backend_rank(&self) -> u32 {
        (self.trace >> 32) as u32
    }

    /// The minting back-end's sample sequence number.
    pub fn sample_seq(&self) -> u32 {
        self.trace as u32
    }

    /// Total locally-measured time attributed to this wave, µs (the sum
    /// of all span durations across all hops — an upper bound on the
    /// critical path, since sibling hops overlap in real time).
    pub fn total_us(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_us).sum()
    }

    /// The stage the wave spent the most total time in, with that time.
    pub fn dominant_stage(&self) -> Option<(TraceStage, u64)> {
        let mut by_stage: HashMap<TraceStage, u64> = HashMap::new();
        for s in &self.spans {
            *by_stage.entry(s.stage).or_insert(0) += s.dur_us;
        }
        by_stage.into_iter().max_by_key(|&(_, us)| us)
    }

    /// The hop (process rank) the wave spent the most total time at, with
    /// that time.
    pub fn dominant_hop(&self) -> Option<(u32, u64)> {
        let mut by_rank: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            *by_rank.entry(s.rank).or_insert(0) += s.dur_us;
        }
        by_rank.into_iter().max_by_key(|&(_, us)| us)
    }

    /// Straggler attribution, one entry per [`TraceStage::ChildMerge`]
    /// span: `(merging rank, straggler child rank, wait µs)`. The merging
    /// ranks are distinct tree levels, so this is the per-level straggler
    /// chain of the issue's critical-path output.
    pub fn stragglers(&self) -> Vec<(u32, u32, u64)> {
        self.spans
            .iter()
            .filter(|s| s.stage == TraceStage::ChildMerge)
            .map(|s| (s.rank, s.detail as u32, s.dur_us))
            .collect()
    }
}

/// Accumulates [`TraceBatch`]es from a
/// [`TraceHandle`](crate::network::TraceHandle) and groups their spans
/// into [`WaveTrace`]s.
#[derive(Debug, Default)]
pub struct TraceAssembler {
    waves: HashMap<u64, WaveTrace>,
    /// Largest lifetime drop counter seen in any absorbed batch: a lower
    /// bound on spans lost to ring eviction or the gather byte cap.
    dropped: u64,
    /// Total spans absorbed.
    spans: u64,
}

impl TraceAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one received batch in.
    pub fn absorb(&mut self, batch: &TraceBatch) {
        self.dropped = self.dropped.max(batch.dropped);
        for &s in &batch.items {
            self.spans += 1;
            self.waves
                .entry(s.trace)
                .or_insert_with(|| WaveTrace {
                    trace: s.trace,
                    spans: Vec::new(),
                })
                .spans
                .push(s);
        }
    }

    /// Number of distinct waves assembled so far.
    pub fn len(&self) -> usize {
        self.waves.len()
    }

    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }

    /// Total spans absorbed.
    pub fn span_count(&self) -> u64 {
        self.spans
    }

    /// Lower bound on spans lost before reaching the front end.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All assembled waves, slowest (largest [`WaveTrace::total_us`])
    /// first; ties break on trace id for determinism.
    pub fn waves(&self) -> Vec<&WaveTrace> {
        let mut v: Vec<&WaveTrace> = self.waves.values().collect();
        v.sort_by(|a, b| b.total_us().cmp(&a.total_us()).then(a.trace.cmp(&b.trace)));
        v
    }

    /// The `n` slowest waves.
    pub fn slowest(&self, n: usize) -> Vec<&WaveTrace> {
        let mut v = self.waves();
        v.truncate(n);
        v
    }

    /// Export every span as Chrome trace-event JSON ("X" complete events),
    /// loadable in Perfetto or `chrome://tracing`. Each rank maps to its
    /// own `pid` (with a process-name metadata record) because span clocks
    /// are per-process; `tid` is the stream id; the trace id and stage
    /// detail ride in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut ranks: Vec<u32> = Vec::new();
        let mut waves = self.waves();
        waves.sort_by_key(|w| w.trace);
        for w in waves {
            for s in &w.spans {
                if !ranks.contains(&s.rank) {
                    ranks.push(s.rank);
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"tbon\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{:#018x}\",\"detail\":{}}}}}",
                    s.stage.name(),
                    s.start_us,
                    s.dur_us.max(1),
                    s.rank,
                    s.stream,
                    s.trace,
                    s.detail
                );
            }
        }
        ranks.sort_unstable();
        for r in ranks {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\
                 \"args\":{{\"name\":\"rank {r} (local clock)\"}}}}"
            );
        }
        out.push_str(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock_rule\":\
                      \"per-process timelines; compare durations, never absolute times\"}}",
        );
        out
    }

    /// Human-readable critical-path summary of the `n` slowest waves:
    /// total attributed time, dominant stage, dominant hop, and the
    /// straggler child at each merging level.
    pub fn slowest_summary(&self, n: usize) -> String {
        let mut out = format!(
            "{} waves assembled from {} spans ({} dropped before the front end)\n",
            self.waves.len(),
            self.spans,
            self.dropped
        );
        for w in self.slowest(n) {
            let _ = write!(
                out,
                "trace {:#018x}  backend {} seq {}  total {}us",
                w.trace,
                w.backend_rank(),
                w.sample_seq(),
                w.total_us()
            );
            if let Some((stage, us)) = w.dominant_stage() {
                let _ = write!(out, "  dominant stage {} ({us}us)", stage.name());
            }
            if let Some((rank, us)) = w.dominant_hop() {
                let _ = write!(out, "  dominant hop rank {rank} ({us}us)");
            }
            out.push('\n');
            for (at, straggler, us) in w.stragglers() {
                let _ = writeln!(
                    out,
                    "    merge at rank {at}: waited {us}us on straggler rank {straggler}"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, rank: u32, stage: TraceStage, dur: u64, detail: u64) -> TraceSpan {
        TraceSpan {
            trace,
            rank,
            stream: 7,
            stage,
            start_us: 1_000,
            dur_us: dur,
            detail,
        }
    }

    fn batch(spans: Vec<TraceSpan>, dropped: u64) -> TraceBatch {
        TraceBatch {
            dropped,
            items: spans,
        }
    }

    #[test]
    fn assembles_waves_and_ranks_by_total_time() {
        let t_fast = (4u64 << 32) | 1;
        let t_slow = (5u64 << 32) | 9;
        let mut asm = TraceAssembler::new();
        asm.absorb(&batch(
            vec![
                span(t_fast, 4, TraceStage::BackendInject, 5, 0),
                span(t_slow, 5, TraceStage::BackendInject, 10, 0),
            ],
            0,
        ));
        asm.absorb(&batch(
            vec![
                span(t_slow, 1, TraceStage::ChildMerge, 900, 6),
                span(t_slow, 1, TraceStage::FilterExec, 30, 0),
                span(t_fast, 1, TraceStage::FilterExec, 20, 0),
            ],
            3,
        ));
        assert_eq!(asm.len(), 2);
        assert_eq!(asm.span_count(), 5);
        assert_eq!(asm.dropped(), 3);

        let slowest = asm.slowest(1);
        assert_eq!(slowest.len(), 1);
        let w = slowest[0];
        assert_eq!(w.trace, t_slow);
        assert_eq!(w.backend_rank(), 5);
        assert_eq!(w.sample_seq(), 9);
        assert_eq!(w.total_us(), 940);
        assert_eq!(w.dominant_stage(), Some((TraceStage::ChildMerge, 900)));
        assert_eq!(w.dominant_hop(), Some((1, 930)));
        assert_eq!(w.stragglers(), vec![(1, 6, 900)]);
    }

    #[test]
    fn chrome_export_is_perfetto_shaped() {
        let t = (2u64 << 32) | 3;
        let mut asm = TraceAssembler::new();
        asm.absorb(&batch(
            vec![
                span(t, 2, TraceStage::BackendInject, 5, 0),
                span(t, 0, TraceStage::FilterExec, 8, 0),
            ],
            0,
        ));
        let json = asm.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"backend_inject\""));
        assert!(json.contains("\"name\":\"filter_exec\""));
        // One timeline per rank, flagged as a local clock.
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"name\":\"rank 0 (local clock)\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        // Balanced braces — the cheap structural sanity check without a
        // JSON parser dependency (no string values contain braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn summary_names_the_straggler() {
        let t = (9u64 << 32) | 1;
        let mut asm = TraceAssembler::new();
        asm.absorb(&batch(vec![span(t, 1, TraceStage::ChildMerge, 700, 9)], 0));
        let text = asm.slowest_summary(5);
        assert!(text.contains("backend 9"));
        assert!(text.contains("waited 700us on straggler rank 9"));
        assert!(text.contains("dominant stage child_merge"));
    }

    #[test]
    fn empty_assembler_exports_cleanly() {
        let asm = TraceAssembler::new();
        assert!(asm.is_empty());
        let json = asm.chrome_trace_json();
        assert!(json.contains("\"traceEvents\":[]"));
        assert!(asm.slowest_summary(3).starts_with("0 waves"));
    }
}
