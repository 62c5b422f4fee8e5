//! The in-band plane mechanism (DESIGN.md §8).
//!
//! Metrics, tracing and incidents are one idea applied three times: a
//! reserved stream whose members include the communication processes
//! themselves, a publisher that self-injects payloads into that stream, a
//! built-in filter that merges those payloads hop by hop, and a typed
//! front-end handle. This module holds the one copy of each part:
//!
//! * the static table of three `PlaneDesc`s — filter, membership,
//!   synchronization and publish policy — that drives the single
//!   plane-open path in `process.rs`;
//! * `PlaneSlots`, the per-process "which planes are open here, and when
//!   do they publish next" state;
//! * [`Batch`], the wire codec of the two concatenating planes, and the
//!   byte-capped [`CappedConcat`] gather behind their filters (the other
//!   merge policy, fold, is `telemetry::MetricsMerge`);
//! * [`PlanePayload`], what the generic front-end handle decodes.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::codec::Reader;
use crate::error::{Result, TbonError};
use crate::filter::{FilterContext, Transformation, Wave};
use crate::packet::Packet;
use crate::stream::{StreamId, Tag};
use crate::telemetry::LogHistogram;
use crate::value::DataValue;

/// The transformation of a metrics drill-down stream: the metrics plane
/// with its fold swapped for pass-through.
pub(crate) const DRILLDOWN_FILTER: &str = "core::identity";

/// One of the three in-band planes. The discriminant indexes [`PLANES`]
/// and [`PlaneSlots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    Metrics = 0,
    Trace = 1,
    Incident = 2,
}

/// Who contributes payloads to a plane's stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Membership {
    /// The root and every internal process.
    CommProcesses,
    /// Every live rank, back-ends included.
    EveryLiveRank,
}

/// When a member publishes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Publish {
    /// Once per interval, from the event loop's deadline scan.
    OnInterval,
    /// Whenever something happens; no timer is armed.
    OnEvent,
}

/// Everything that distinguishes one plane from another.
pub(crate) struct PlaneDesc {
    /// Short name used in event kinds and error messages.
    pub name: &'static str,
    /// Registry name of the plane's merge filter.
    pub filter: &'static str,
    pub membership: Membership,
    /// Registry name of the plane's synchronization filter.
    pub sync: &'static str,
    pub publish: Publish,
}

static PLANES: [PlaneDesc; 3] = [
    // One sample per member per interval, so waves align exactly and fold
    // into a single tree-wide sample.
    PlaneDesc {
        name: "metrics",
        filter: crate::telemetry::METRICS_FILTER,
        membership: Membership::CommProcesses,
        sync: "sync::wait_for_all",
        publish: Publish::OnInterval,
    },
    // Leaves have no timers and piggy-back their spans on sampled sends,
    // so batches arrive irregularly: each hop forwards whatever landed
    // within the window instead of waiting on every child.
    PlaneDesc {
        name: "trace",
        filter: crate::telemetry::TRACE_FILTER,
        membership: Membership::EveryLiveRank,
        sync: "sync::time_out",
        publish: Publish::OnInterval,
    },
    // Captures are rare and urgent: every one forwards immediately.
    PlaneDesc {
        name: "incident",
        filter: crate::health::INCIDENT_FILTER,
        membership: Membership::CommProcesses,
        sync: "sync::null",
        publish: Publish::OnEvent,
    },
];

impl Plane {
    pub(crate) const ALL: [Plane; 3] = [Plane::Metrics, Plane::Trace, Plane::Incident];

    pub(crate) fn desc(self) -> &'static PlaneDesc {
        &PLANES[self as usize]
    }

    /// The plane a stream with this transformation belongs to, *given that
    /// the receiving process is itself a member of the stream* — ordinary
    /// streams only ever have back-end members.
    pub(crate) fn of_filter(name: &str) -> Option<Plane> {
        Plane::ALL
            .into_iter()
            .find(|p| p.desc().filter == name)
            .or((name == DRILLDOWN_FILTER).then_some(Plane::Metrics))
    }

    /// Parameters for the plane's synchronization filter: the time-out
    /// window is the publish interval, the others take none.
    pub(crate) fn sync_params(self, interval: Duration) -> DataValue {
        if self.desc().sync == "sync::time_out" {
            DataValue::U64((interval.as_millis() as u64).max(1))
        } else {
            DataValue::Unit
        }
    }
}

/// One open plane at one process.
struct PlaneSlot {
    stream: StreamId,
    interval: Duration,
    /// Next publish deadline; `None` for on-event planes.
    next_fire: Option<Instant>,
    seq: u64,
}

/// An interval publish that has come due (see [`PlaneSlots::due`]).
pub(crate) struct Due {
    pub stream: StreamId,
    pub seq: u64,
    pub interval: Duration,
}

/// Which planes are open at this process. A plane is open from the
/// `NewStream` that names this process as a member until the matching
/// `CloseStream`.
#[derive(Default)]
pub(crate) struct PlaneSlots([Option<PlaneSlot>; 3]);

impl PlaneSlots {
    pub(crate) fn open(
        &mut self,
        plane: Plane,
        stream: StreamId,
        interval: Duration,
        now: Instant,
    ) {
        let timed = plane.desc().publish == Publish::OnInterval;
        self.0[plane as usize] = Some(PlaneSlot {
            stream,
            interval,
            next_fire: timed.then(|| now + interval),
            seq: 0,
        });
    }

    /// Disarm whichever plane rides `stream`, if any.
    pub(crate) fn close(&mut self, stream: StreamId) {
        for slot in &mut self.0 {
            if slot.as_ref().is_some_and(|s| s.stream == stream) {
                *slot = None;
            }
        }
    }

    /// The plane riding `stream`, if it is a plane stream. Plane traffic is
    /// excluded from the perf counters and never records spans, so the
    /// planes cannot perturb what they measure.
    pub(crate) fn of(&self, stream: StreamId) -> Option<Plane> {
        Plane::ALL
            .into_iter()
            .find(|&p| self.stream(p) == Some(stream))
    }

    pub(crate) fn stream(&self, plane: Plane) -> Option<StreamId> {
        self.0[plane as usize].as_ref().map(|s| s.stream)
    }

    /// Earliest pending publish deadline.
    pub(crate) fn next_fire(&self) -> Option<Instant> {
        self.0.iter().flatten().filter_map(|s| s.next_fire).min()
    }

    /// If `plane`'s publish deadline has passed, advance it past `now`
    /// (missed intervals are skipped, not replayed) and take the next
    /// sequence number.
    pub(crate) fn due(&mut self, plane: Plane, now: Instant) -> Option<Due> {
        let slot = self.0[plane as usize].as_mut()?;
        let next = slot.next_fire.as_mut().filter(|t| **t <= now)?;
        while *next <= now {
            *next += slot.interval;
        }
        slot.seq += 1;
        Some(Due {
            stream: slot.stream,
            seq: slot.seq,
            interval: slot.interval,
        })
    }
}

// ---------------------------------------------------------------------------
// Payloads: what rides a plane stream.
// ---------------------------------------------------------------------------

/// Decode a plane payload: opaque bytes holding exactly one `T`.
pub(crate) fn decode_exact<T>(
    value: &DataValue,
    what: &str,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T>,
) -> Result<T> {
    let bytes = value
        .as_bytes()
        .ok_or_else(|| TbonError::Decode(format!("{what} payload must be Bytes")))?;
    let mut r = Reader::new(bytes);
    let item = decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(TbonError::Decode(format!("trailing bytes after {what}")));
    }
    Ok(item)
}

/// What a [`crate::network::PlaneHandle`] yields: decodable from a plane
/// packet's value.
pub trait PlanePayload: Sized {
    fn from_payload(value: &DataValue) -> Result<Self>;

    /// Fold in state that lives at the front end rather than in the tree.
    /// Only metrics samples have any: the supervisor's recovery latencies.
    fn graft_recovery(&mut self, _recovery: &Mutex<LogHistogram>) {}
}

/// One element of a [`Batch`]: a trace span, an incident bundle.
pub trait BatchItem: Sized {
    /// Lower bound on one item's encoding; guards the batch's length
    /// prefix against hostile counts.
    const MIN_WIRE_LEN: usize;
    /// Name used in decode errors.
    const WHAT: &'static str;

    fn encode(&self, buf: &mut Vec<u8>);
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
    fn encoded_len(&self) -> usize;
}

/// Items in flight on a concatenating plane: one process's publish, or —
/// after passing through a [`CappedConcat`] gather — a subtree's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<T> {
    /// Items lost before the front end: evicted from a contributing ring,
    /// or cut by a gather's byte cap.
    pub dropped: u64,
    pub items: Vec<T>,
}

impl<T> Default for Batch<T> {
    fn default() -> Self {
        Batch {
            dropped: 0,
            items: Vec::new(),
        }
    }
}

impl<T: BatchItem> Batch<T> {
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.dropped.to_le_bytes());
        buf.extend_from_slice(&(self.items.len() as u32).to_le_bytes());
        for item in &self.items {
            item.encode(buf);
        }
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let dropped = r.u64()?;
        let n = r.len_prefix(T::MIN_WIRE_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(Batch { dropped, items })
    }

    pub fn encoded_len(&self) -> usize {
        8 + 4 + self.items.iter().map(T::encoded_len).sum::<usize>()
    }

    /// Pack into the opaque-bytes payload a plane packet carries.
    pub fn to_value(&self) -> DataValue {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        DataValue::Bytes(buf)
    }

    pub fn from_value(v: &DataValue) -> Result<Self> {
        decode_exact(v, T::WHAT, Self::decode)
    }
}

impl<T: BatchItem> PlanePayload for Batch<T> {
    fn from_payload(value: &DataValue) -> Result<Self> {
        Self::from_value(value)
    }
}

/// The capped-concat merge policy. A gather filter is a byte cap plus the
/// item type it concatenates; the one [`Transformation`] impl below does
/// the rest. Concurrent in-network streams share one tree's bandwidth, so
/// every concatenating plane obeys this one rule: a gathered batch carries
/// at most `max_bytes` of encoded items (always at least one item, so a
/// tiny cap cannot wedge the plane), and whatever the cap cuts is counted
/// into `dropped`, never silently lost.
pub trait CappedConcat: Send {
    type Item: BatchItem;

    /// Encoded item bytes one gathered batch may carry.
    fn max_bytes(&self) -> usize;
}

impl<G: CappedConcat> Transformation for G {
    /// Concatenate every decodable batch in the wave, oldest first, under
    /// the cap. Undecodable packets are skipped rather than failing the
    /// wave — a malformed publisher must not take the plane down.
    fn transform(&mut self, wave: Wave, ctx: &mut FilterContext) -> Result<Vec<Packet>> {
        let mut acc: Option<Batch<G::Item>> = None;
        let mut tag = Tag(0);
        for pkt in &wave {
            let Ok(b) = Batch::<G::Item>::from_value(pkt.value()) else {
                continue;
            };
            tag = pkt.tag();
            match &mut acc {
                Some(a) => {
                    a.dropped = a.dropped.saturating_add(b.dropped);
                    a.items.extend(b.items);
                }
                None => acc = Some(b),
            }
        }
        let Some(mut batch) = acc else {
            return Ok(Vec::new());
        };
        let mut used = 0usize;
        let mut keep = 0usize;
        for item in &batch.items {
            used = used.saturating_add(item.encoded_len());
            if used > self.max_bytes() && keep > 0 {
                break;
            }
            keep += 1;
        }
        let cut = batch.items.len() - keep;
        batch.dropped = batch.dropped.saturating_add(cut as u64);
        batch.items.truncate(keep);
        Ok(vec![ctx.make(tag, batch.to_value())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plane_filter_maps_back_to_its_plane() {
        for plane in Plane::ALL {
            assert_eq!(Plane::of_filter(plane.desc().filter), Some(plane));
        }
        assert_eq!(Plane::of_filter(DRILLDOWN_FILTER), Some(Plane::Metrics));
        assert_eq!(Plane::of_filter("builtin::sum"), None);
        // Only the time-out window is parameterised by the interval.
        let interval = Duration::from_millis(250);
        assert_eq!(Plane::Trace.sync_params(interval), DataValue::U64(250));
        assert_eq!(Plane::Metrics.sync_params(interval), DataValue::Unit);
        assert_eq!(Plane::Incident.sync_params(interval), DataValue::Unit);
    }

    #[test]
    fn slots_track_streams_and_publish_deadlines() {
        let t0 = Instant::now();
        let interval = Duration::from_millis(100);
        let mut slots = PlaneSlots::default();
        assert_eq!(slots.of(StreamId(4)), None);
        assert_eq!(slots.next_fire(), None);

        slots.open(Plane::Metrics, StreamId(4), interval, t0);
        slots.open(Plane::Incident, StreamId(5), Duration::ZERO, t0);
        assert_eq!(slots.of(StreamId(4)), Some(Plane::Metrics));
        assert_eq!(slots.of(StreamId(5)), Some(Plane::Incident));
        assert_eq!(slots.stream(Plane::Trace), None);
        // On-event planes arm no timer.
        assert_eq!(slots.next_fire(), Some(t0 + interval));
        assert!(slots.due(Plane::Incident, t0 + interval * 10).is_none());

        // Not due before the deadline; due once, with missed intervals
        // skipped rather than replayed.
        assert!(slots.due(Plane::Metrics, t0 + interval / 2).is_none());
        let late = t0 + interval * 3 + interval / 2;
        let due = slots.due(Plane::Metrics, late).expect("due");
        assert_eq!(
            (due.stream, due.seq, due.interval),
            (StreamId(4), 1, interval)
        );
        assert!(slots.due(Plane::Metrics, late).is_none());
        assert_eq!(slots.next_fire(), Some(t0 + interval * 4));
        assert_eq!(slots.due(Plane::Metrics, t0 + interval * 4).unwrap().seq, 2);

        slots.close(StreamId(4));
        assert_eq!(slots.of(StreamId(4)), None);
        assert_eq!(slots.next_fire(), None);
        assert_eq!(slots.stream(Plane::Incident), Some(StreamId(5)));
    }
}
