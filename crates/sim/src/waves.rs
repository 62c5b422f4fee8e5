//! Multi-wave (streaming) simulation: a continuous flow of reduction waves
//! through the tree, wave-aligned at every level (wait_for_all semantics).
//!
//! Models the paper's §2.2 continuous-aggregation scenario — performance
//! data flowing from every back-end — where the interesting quantity is the
//! *sustained* front-end throughput: deep trees pipeline waves across
//! levels, so the steady-state rate is set by the slowest single stage,
//! not by the end-to-end latency.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use tbon_topology::{NodeId, Role, Topology};

use crate::engine::LinkModel;

/// Per-stage costs of the streaming workload.
#[derive(Debug, Clone, Copy)]
pub struct WaveWorkload {
    /// CPU seconds a back-end needs to produce one record.
    pub leaf_cpu: f64,
    /// CPU seconds a communication process needs to merge `k` child
    /// records of one wave: `merge_base + merge_per_input * k`.
    pub merge_base: f64,
    pub merge_per_input: f64,
    /// Bytes of one (possibly merged) record on the wire.
    pub record_bytes: f64,
    /// CPU seconds the front-end application spends consuming one
    /// delivered record (the per-record tool work).
    pub fe_consume: f64,
}

/// Outcome of a streaming run.
#[derive(Debug, Clone)]
pub struct WaveOutcome {
    /// When each wave's result finished front-end consumption.
    pub wave_done: Vec<f64>,
    /// Sustained throughput over the back half of the run (waves/sec),
    /// excluding pipeline fill.
    pub steady_rate: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Simulation events.
#[derive(Debug)]
enum Ev {
    /// A record of wave `wave` is ready to transmit toward `to`.
    Send { to: u32, wave: usize },
    /// A record of wave `wave` finished arriving at `node`.
    Arrival { node: u32, wave: usize },
}

/// Simulate `waves` aligned reduction waves flowing root-ward. Every
/// back-end produces records back-to-back (CPU-bound source); every
/// process merges wave w once all children delivered their wave-w record;
/// the front-end consumes results serially.
pub fn simulate_waves(
    topology: &Topology,
    link: LinkModel,
    workload: &WaveWorkload,
    waves: usize,
) -> WaveOutcome {
    assert!(waves > 0);
    assert!(topology.leaf_count() > 0);

    let mut heap: BinaryHeap<Reverse<(OrdF64, u64)>> = BinaryHeap::new();
    let mut payload: HashMap<u64, Ev> = HashMap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<(OrdF64, u64)>>,
                payload: &mut HashMap<u64, Ev>,
                seq: &mut u64,
                t: f64,
                ev: Ev| {
        heap.push(Reverse((OrdF64(t), *seq)));
        payload.insert(*seq, ev);
        *seq += 1;
    };

    // Node state.
    let mut pending: HashMap<u32, Vec<usize>> = HashMap::new(); // node -> per-wave arrival counts
    let mut expected: HashMap<u32, usize> = HashMap::new();
    let mut cpu_free: HashMap<u32, f64> = HashMap::new();
    let mut ingress_free: HashMap<u32, f64> = HashMap::new();
    for n in topology.node_ids() {
        if topology.role(n) == Role::Detached {
            continue;
        }
        pending.insert(n.0, vec![0; waves]);
        expected.insert(n.0, topology.children(n).len());
        cpu_free.insert(n.0, 0.0);
        ingress_free.insert(n.0, 0.0);
    }

    // Back-ends: produce records back-to-back starting when the broadcast
    // arrives; each record becomes a Send toward the parent at its
    // production time (ingress serialization is resolved in time order when
    // the Send is processed, so concurrent children interleave fairly).
    for leaf in topology.leaves() {
        let start = topology.depth_of(leaf) as f64 * link.latency;
        let parent = topology.parent(leaf).expect("leaf has a parent");
        let mut ready = start;
        for wave in 0..waves {
            ready += workload.leaf_cpu;
            push(
                &mut heap,
                &mut payload,
                &mut seq,
                ready + link.latency,
                Ev::Send { to: parent.0, wave },
            );
        }
    }

    let mut wave_done = vec![f64::NAN; waves];
    let mut fe_free = 0.0f64;
    while let Some(Reverse((OrdF64(t), id))) = heap.pop() {
        match payload.remove(&id).expect("payload") {
            Ev::Send { to, wave } => {
                let arrive_start = t.max(*ingress_free.get(&to).expect("node state"));
                let arrive_done = arrive_start + link.transfer_time(workload.record_bytes);
                ingress_free.insert(to, arrive_done);
                push(
                    &mut heap,
                    &mut payload,
                    &mut seq,
                    arrive_done,
                    Ev::Arrival { node: to, wave },
                );
            }
            Ev::Arrival { node, wave } => {
                let counts = pending.get_mut(&node).expect("node state");
                counts[wave] += 1;
                let k = *expected.get(&node).expect("node");
                if counts[wave] < k {
                    continue;
                }
                // Wave complete at this node: merge.
                let start = t.max(*cpu_free.get(&node).expect("node"));
                let merge_cpu = workload.merge_base + workload.merge_per_input * k as f64;
                let done = start + merge_cpu;
                cpu_free.insert(node, done);
                if node == 0 {
                    // Front-end consumption is serial.
                    let consume_start = done.max(fe_free);
                    fe_free = consume_start + workload.fe_consume;
                    wave_done[wave] = fe_free;
                } else {
                    let parent = topology.parent(NodeId(node)).expect("non-root");
                    push(
                        &mut heap,
                        &mut payload,
                        &mut seq,
                        done + link.latency,
                        Ev::Send { to: parent.0, wave },
                    );
                }
            }
        }
    }

    // Steady-state rate over the back half (skip pipeline fill).
    let half = waves / 2;
    let steady_rate = if waves >= 2 && wave_done[waves - 1] > wave_done[half] {
        (waves - 1 - half) as f64 / (wave_done[waves - 1] - wave_done[half])
    } else {
        f64::NAN
    };
    WaveOutcome {
        wave_done,
        steady_rate,
    }
}

/// Predicted fractional throughput tax of the in-band telemetry plane.
///
/// The metrics stream adds, at every communication process once per
/// `interval_s`, one k-way sample merge plus one `sample_bytes` transfer on
/// the ingress link toward its parent (one merged sample per level — the
/// whole point of `telemetry::metrics_merge`). The tax on the steady-state
/// wave rate is the worst per-node increase in busy fraction, since the
/// streaming rate is set by the busiest single stage. The front-end also
/// consumes one merged sample per interval.
///
/// Scale-invariance is the claim worth modelling: the tax depends on the
/// widest fan-in and the interval, not on the number of back-ends.
pub fn telemetry_tax(
    topology: &Topology,
    link: LinkModel,
    workload: &WaveWorkload,
    interval_s: f64,
    sample_bytes: f64,
) -> f64 {
    assert!(interval_s > 0.0);
    let mut worst: f64 = 0.0;
    for n in topology.node_ids() {
        let k = topology.children(n).len() as f64;
        let merge = workload.merge_base + workload.merge_per_input * k;
        let busy = match topology.role(n) {
            Role::FrontEnd => merge + workload.fe_consume,
            Role::Internal => merge + link.transfer_time(sample_bytes),
            Role::BackEnd | Role::Detached => continue,
        };
        worst = worst.max(busy / interval_s);
    }
    worst.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(fe_consume: f64) -> WaveWorkload {
        WaveWorkload {
            leaf_cpu: 0.01,
            merge_base: 0.0005,
            merge_per_input: 0.0005,
            record_bytes: 256.0,
            fe_consume,
        }
    }

    fn no_net() -> LinkModel {
        LinkModel {
            latency: 0.0,
            bandwidth: f64::INFINITY,
        }
    }

    #[test]
    fn waves_complete_in_order_and_all() {
        let out = simulate_waves(&Topology::balanced(4, 2), no_net(), &wl(0.0001), 20);
        assert_eq!(out.wave_done.len(), 20);
        for w in 1..20 {
            assert!(
                out.wave_done[w] >= out.wave_done[w - 1],
                "waves must complete in order"
            );
        }
        assert!(out.wave_done.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn steady_rate_bounded_by_leaf_production() {
        // Source-limited: leaves produce at 100 records/s; nothing
        // downstream can exceed that.
        let out = simulate_waves(&Topology::balanced(2, 2), no_net(), &wl(0.0), 40);
        assert!(out.steady_rate <= 100.0 * 1.01, "rate {}", out.steady_rate);
        assert!(out.steady_rate >= 100.0 * 0.5, "rate {}", out.steady_rate);
    }

    #[test]
    fn fe_consumption_limits_the_rate_when_slower_than_the_source() {
        // The §2.2 saturation: a front-end that needs 50 ms per result
        // caps the wave rate at 20/s even though leaves produce 100/s.
        let topo = Topology::flat(32);
        let slow = simulate_waves(&topo, no_net(), &wl(0.05), 40);
        let fast = simulate_waves(&topo, no_net(), &wl(0.0001), 40);
        assert!(slow.steady_rate < fast.steady_rate);
        assert!(
            (slow.steady_rate - 20.0).abs() < 2.0,
            "rate {}",
            slow.steady_rate
        );
    }

    #[test]
    fn deep_tree_pipelines_as_well_as_flat_in_steady_state() {
        // Steady-state rate is stage-limited, not depth-limited: the deep
        // tree's extra hops add latency, not throughput loss.
        let flat = simulate_waves(&Topology::flat(16), no_net(), &wl(0.0001), 60);
        let deep = simulate_waves(&Topology::balanced(4, 2), no_net(), &wl(0.0001), 60);
        let ratio = deep.steady_rate / flat.steady_rate;
        assert!(
            ratio > 0.8,
            "deep {} vs flat {}",
            deep.steady_rate,
            flat.steady_rate
        );
        // With per-input merge cost, the flat root's 16-way merge is the
        // expensive stage, so the deep tree even wins the first wave here
        // (2 × 4-way merges cost less than 1 × 16-way).
        assert!(deep.wave_done[0] <= flat.wave_done[0] * 1.5);
    }

    #[test]
    fn telemetry_tax_is_tiny_and_scales_with_interval_not_tree_size() {
        let link = LinkModel::gigabit_ethernet();
        let wl = wl(0.0001);
        let small = Topology::balanced(16, 2); // 256 back-ends
        let at_1s = telemetry_tax(&small, link, &wl, 1.0, 256.0);
        let at_100ms = telemetry_tax(&small, link, &wl, 0.1, 256.0);
        assert!(at_1s < 0.05, "1s tax {at_1s} blows the <5% budget");
        assert!(
            (at_100ms / at_1s - 10.0).abs() < 1e-6,
            "tax is linear in publish frequency"
        );
        // Level-by-level merging keeps the tax set by fan-in, not scale: a
        // tree with 16x the back-ends and the same fan-out pays the same.
        let big = Topology::balanced(16, 3); // 4096 back-ends
        let big_1s = telemetry_tax(&big, link, &wl, 1.0, 256.0);
        assert!((big_1s - at_1s).abs() < 1e-9, "{big_1s} vs {at_1s}");
    }

    #[test]
    fn bandwidth_throttles_fan_in() {
        let topo = Topology::flat(8);
        let fast = simulate_waves(&topo, no_net(), &wl(0.0), 30);
        let slow_link = LinkModel {
            latency: 0.0,
            bandwidth: 4096.0, // 16 records/s of 256 B
        };
        let slow = simulate_waves(&topo, slow_link, &wl(0.0), 30);
        assert!(slow.steady_rate < fast.steady_rate);
    }
}
