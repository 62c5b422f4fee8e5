//! Harness-side instruments: in-memory spans around the calls into each
//! layer, and the `/proc` readers behind the `os.*` and `peak_rss_mb`
//! metrics. Nothing here touches the program under test; spans inside the
//! runtime are the trace plane's, read in `traced.rs`.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed call, on the harness clock (microseconds since the first
/// span of the process). `parent` indexes the same thread's log.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<u32>,
    /// The wave (tag) or request the call served; `NO_WAVE` for set-up.
    pub wave: u64,
}

pub const NO_WAVE: u64 = u64::MAX;

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn us_since_epoch(t: Instant) -> f64 {
    t.saturating_duration_since(epoch()).as_secs_f64() * 1e6
}

/// One thread's span log. Recording stops at `wave_cap`: a stream rep
/// moves ~10^5 waves a second through 17 threads, and the per-call
/// medians are settled long before memory is.
#[derive(Debug)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    wave_cap: u64,
}

impl SpanLog {
    pub fn new(wave_cap: u64) -> SpanLog {
        epoch();
        SpanLog {
            spans: Vec::new(),
            wave_cap,
        }
    }

    /// Open a parent span that later calls nest under; close it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str) -> u32 {
        let now = us_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: None,
            wave: NO_WAVE,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_us = us_since_epoch(Instant::now());
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        wave: u64,
        start: Instant,
        end: Instant,
    ) {
        if wave != NO_WAVE && wave >= self.wave_cap {
            return;
        }
        self.spans.push(Span {
            name,
            start_us: us_since_epoch(start),
            end_us: us_since_epoch(end),
            parent: Some(parent),
            wave,
        });
    }

    /// Durations of every span with this name, microseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }
}

/// A back-end thread's log, handed back to the front end when the rep
/// ends. `None` on untraced reps: the back-end then times nothing.
pub type SharedLog = Arc<Mutex<SpanLog>>;

/// Time `f` into `log` if there is one.
pub fn timed<T>(
    log: Option<&SharedLog>,
    name: &'static str,
    parent: u32,
    wave: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(log) = log else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    log.lock()
        .expect("span log poisoned")
        .record(name, parent, wave, start, end);
    out
}

// --- /proc readers -------------------------------------------------------

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// `VmHWM` of this process, MB: the peak resident set since it started.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// A reading of the process-wide counters the `os.*` metrics difference.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsSample {
    /// utime + stime, milliseconds (USER_HZ is 100 on Linux).
    pub cpu_ms: f64,
    pub threads: u64,
    /// Voluntary + involuntary switches summed over the live threads.
    pub ctx_switches: u64,
}

pub fn os_sample() -> Option<OsSample> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the `)`.
    let after = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    let mut threads = 0;
    let mut ctx_switches = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        threads += 1;
        ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(OsSample {
        cpu_ms: ticks as f64 * 10.0,
        threads,
        ctx_switches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_field_reads_kb_and_counts() {
        let s = "Name:\tx\nVmHWM:\t  123456 kB\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(s, "VmHWM"), Some(123_456));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(42));
        assert_eq!(status_field(s, "VmPeak"), None);
    }

    #[test]
    fn span_log_nests_caps_and_filters() {
        let mut log = SpanLog::new(2);
        let root = log.open("rep");
        let t = Instant::now();
        log.record("send", root, 0, t, t);
        log.record("send", root, 1, t, t);
        log.record("send", root, 2, t, t); // beyond the cap
        log.record("launch", root, NO_WAVE, t, t); // set-up is never capped
        log.close(root);
        assert_eq!(log.durations("send").len(), 2);
        assert_eq!(log.durations("launch").len(), 1);
        assert_eq!(log.spans[1].parent, Some(root));
        assert!(log.spans[0].end_us >= log.spans[0].start_us);
    }

    #[test]
    fn proc_readers_work_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
        let s = os_sample().unwrap();
        assert!(s.threads >= 1);
    }
}
