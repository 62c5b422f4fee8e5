//! The unified stream-consumer API.
//!
//! Every front-end handle that yields a sequence of values —
//! [`crate::StreamHandle`] (packets) and the in-band planes'
//! [`crate::PlaneHandle`]s (metrics samples, trace batches, incident
//! batches) — implements [`StreamConsumer`]: one `recv(Deadline)` shape
//! for all of them. A missed deadline is `Ok(None)` (normal, retryable), a
//! closed stream is `Err` (terminal), so callers can't confuse the two.

use std::time::{Duration, Instant};

use crate::error::Result;

/// When a [`StreamConsumer::recv`] call must give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Block until a value arrives or the stream closes.
    Never,
    /// Return immediately with whatever is already buffered.
    Now,
    /// Block until the instant passes.
    At(Instant),
}

impl Deadline {
    /// Block forever (equivalent to [`Deadline::Never`]).
    pub fn never() -> Deadline {
        Deadline::Never
    }

    /// Don't block at all (equivalent to [`Deadline::Now`]).
    pub fn now() -> Deadline {
        Deadline::Now
    }

    /// Give up after `timeout` from this call.
    pub fn within(timeout: Duration) -> Deadline {
        Deadline::At(Instant::now() + timeout)
    }

    /// Time left before the deadline: `None` for [`Deadline::Never`],
    /// zero for [`Deadline::Now`] and past instants.
    pub fn remaining(&self) -> Option<Duration> {
        match self {
            Deadline::Never => None,
            Deadline::Now => Some(Duration::ZERO),
            Deadline::At(t) => Some(t.saturating_duration_since(Instant::now())),
        }
    }
}

impl From<Duration> for Deadline {
    fn from(timeout: Duration) -> Deadline {
        Deadline::within(timeout)
    }
}

/// A front-end handle producing a sequence of values.
///
/// The single required method is [`StreamConsumer::recv`]; the
/// convenience forms are provided on top of it, so every implementor
/// behaves identically:
///
/// | call | deadline passes | stream closed |
/// |---|---|---|
/// | `recv(d)` | `Ok(None)` | `Err(...)` |
/// | `recv_within(t)` | `Ok(None)` | `Err(...)` |
/// | `recv_blocking()` | — (never) | `Err(...)` |
/// | `poll()` | `None` | `None` |
pub trait StreamConsumer {
    /// What this consumer yields.
    type Item;

    /// Wait for the next value until `deadline`. `Ok(None)` means the
    /// deadline passed — the stream is still alive and a later call may
    /// succeed. `Err` means the stream is closed or the network is gone.
    fn recv(&self, deadline: Deadline) -> Result<Option<Self::Item>>;

    /// [`StreamConsumer::recv`] with a relative timeout.
    fn recv_within(&self, timeout: Duration) -> Result<Option<Self::Item>> {
        self.recv(Deadline::within(timeout))
    }

    /// Block until a value arrives; only stream closure can fail this.
    fn recv_blocking(&self) -> Result<Self::Item> {
        Ok(self
            .recv(Deadline::Never)?
            .expect("Deadline::Never cannot expire"))
    }

    /// Non-blocking poll; `None` on empty *or* closed (use
    /// [`StreamConsumer::recv`] to distinguish).
    fn poll(&self) -> Option<Self::Item> {
        self.recv(Deadline::Now).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_remaining_semantics() {
        assert_eq!(Deadline::never().remaining(), None);
        assert_eq!(Deadline::now().remaining(), Some(Duration::ZERO));
        let d = Deadline::within(Duration::from_secs(60));
        let left = d.remaining().unwrap();
        assert!(left > Duration::from_secs(59) && left <= Duration::from_secs(60));
        // A past instant reports zero, not an underflow.
        let past = Deadline::At(Instant::now() - Duration::from_secs(1));
        assert_eq!(past.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn duration_converts_to_relative_deadline() {
        let d: Deadline = Duration::from_millis(500).into();
        assert!(matches!(d, Deadline::At(_)));
        assert!(d.remaining().unwrap() <= Duration::from_millis(500));
    }
}
