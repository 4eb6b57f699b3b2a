//! Observability: parse-event hooks, a sampling profiler, span
//! tracing for the serve pool, and periodic metrics export.
//!
//! Three layers, all dependency-free:
//!
//! * **Hooks.** The [`Observer`] trait (re-exported from
//!   `flap-staged`) is the event vocabulary the staged engine emits:
//!   committed tokens and skip runs, reductions, nonterminal
//!   dispatches, stream feed boundaries, incremental reuse. Every
//!   hook has an empty `#[inline(always)]` default and the engine is
//!   monomorphized over the observer type, so the unobserved entry
//!   points ([`NoopObserver`]) compile to exactly the code that
//!   existed before the hooks — the *zero-overhead invariant*. The
//!   allocation audit (`crates/integration/tests/alloc.rs`) checks
//!   that the disabled path allocates nothing, and the traced ==
//!   untraced differential (`crates/integration/tests/obs.rs`) that
//!   observing changes no value or error.
//! * **Profiling.** [`ParseProfiler`] accumulates a per-grammar
//!   profile — bytes skipped vs lexed, a token-class histogram,
//!   reductions by rule, automaton-row heat — with bounded
//!   allocation; `flap-bench`'s `profile` binary renders it.
//! * **Tracing & export.** [`TraceRecorder`] collects timed spans
//!   (queue-wait vs execution per pool job, one lane per worker) and
//!   writes them as Chrome trace-event JSON readable by Perfetto or
//!   `chrome://tracing`; [`MetricsEmitter`] snapshots a pool's
//!   [`Metrics`] on an interval as JSON
//!   lines. Attach both through
//!   [`PoolConfig::trace`](crate::serve::PoolConfig::trace) and
//!   [`MetricsEmitter::start`].

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::serve::Metrics;

pub use flap_staged::{NoopObserver, Observer, ParseProfiler};

/// One completed span: a named interval on a worker lane.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// Lane (Chrome `tid`): the pool worker index.
    tid: u32,
    /// Start, µs since the recorder's epoch.
    ts_us: u64,
    /// Duration in µs.
    dur_us: u64,
    /// Payload size recorded in the span's `args`.
    bytes: u64,
}

/// Records timed spans and writes them as Chrome trace-event JSON.
///
/// A recorder is shared (`Arc`) between the code being traced — e.g.
/// a [`ParsePool`](crate::serve::ParsePool) configured with
/// [`PoolConfig::trace`](crate::serve::PoolConfig::trace) — and
/// whoever eventually calls [`TraceRecorder::write_chrome_json`].
/// Recording a span is one `Mutex` push onto a growing vector; this
/// is an explicitly *enabled* diagnostic mode, never on the default
/// path, so the zero-overhead invariant is untouched.
///
/// The output is the Chrome trace-event format: a JSON object whose
/// `traceEvents` array holds one `ph:"X"` (complete) event per span
/// plus `ph:"M"` thread-name metadata per lane. Open it in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub struct TraceRecorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl TraceRecorder {
    /// A recorder whose time origin is "now".
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records one completed span on lane `tid` from `start` to
    /// `end`, with `bytes` of payload noted in the span's args.
    /// Instants before the recorder's epoch clamp to it.
    pub fn span(&self, name: &'static str, tid: u32, start: Instant, end: Instant, bytes: u64) {
        let ts_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = end.saturating_duration_since(start).as_micros() as u64;
        self.spans.lock().unwrap().push(Span {
            name,
            tid,
            ts_us,
            dur_us,
            bytes,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes everything recorded so far as Chrome trace-event JSON:
    /// `{"traceEvents":[...]}` with one complete (`ph:"X"`) event per
    /// span and a `thread_name` metadata event per worker lane.
    ///
    /// # Errors
    ///
    /// Propagates `w`'s I/O errors.
    pub fn write_chrome_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        let spans = self.spans.lock().unwrap();
        write!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for tid in lanes {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"worker-{tid}\"}}}}"
            )?;
        }
        for s in spans.iter() {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"bytes\":{}}}}}",
                escape(s.name),
                s.tid,
                s.ts_us,
                s.dur_us,
                s.bytes
            )?;
        }
        write!(w, "]}}")
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceRecorder {{ spans: {} }}", self.len())
    }
}

/// JSON string escaping (quotes, backslashes, control characters),
/// shared with the metrics JSON emitters.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Periodically writes a pool's metrics snapshot as one JSON line per
/// interval — a scrape loop in a thread, no exporter dependency.
///
/// Start one with [`MetricsEmitter::start`] over the `Arc<Metrics>`
/// from [`ParsePool::metrics_arc`](crate::serve::ParsePool::metrics_arc);
/// the background thread emits a
/// [`MetricsSnapshot::to_json`](crate::serve::MetricsSnapshot::to_json)
/// line every `interval` and one final line on [`MetricsEmitter::stop`]
/// (also run on drop), so even runs shorter than the interval export a
/// terminal snapshot.
pub struct MetricsEmitter {
    stopped: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<thread::JoinHandle<()>>,
    finished: AtomicBool,
}

impl MetricsEmitter {
    /// Spawns the emitter thread: one JSON line to `w` per
    /// `interval`, plus a final line at stop.
    pub fn start<W: Write + Send + 'static>(
        metrics: Arc<Metrics>,
        interval: Duration,
        mut w: W,
    ) -> MetricsEmitter {
        let stopped = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stopped);
        let handle = thread::Builder::new()
            .name("flap-metrics".to_string())
            .spawn(move || {
                let (lock, cv) = &*flag;
                let mut stop = lock.lock().unwrap();
                loop {
                    if *stop {
                        break;
                    }
                    let (guard, timeout) = cv.wait_timeout(stop, interval).unwrap();
                    stop = guard;
                    if !*stop && timeout.timed_out() {
                        let line = metrics.snapshot().to_json();
                        if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
                            break;
                        }
                    }
                }
                // terminal snapshot so short runs still export state
                let line = metrics.snapshot().to_json();
                let _ = writeln!(w, "{line}").and_then(|()| w.flush());
            })
            .expect("spawn metrics emitter");
        MetricsEmitter {
            stopped,
            handle: Some(handle),
            finished: AtomicBool::new(false),
        }
    }

    /// Stops the emitter: writes one final snapshot line and joins
    /// the thread. Implied by drop; explicit for visible sequencing.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if self.finished.swap(true, Ordering::AcqRel) {
            return;
        }
        let (lock, cv) = &*self.stopped;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsEmitter {
    fn drop(&mut self) {
        self.halt();
    }
}

impl fmt::Debug for MetricsEmitter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MetricsEmitter {{ finished: {} }}",
            self.finished.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape() {
        let t = TraceRecorder::new();
        let a = t.epoch;
        let b = a + Duration::from_micros(250);
        let c = a + Duration::from_micros(900);
        t.span("queue-wait", 0, a, b, 0);
        t.span("parse", 0, b, c, 42);
        t.span("parse", 1, a, c, 7);
        assert_eq!(t.len(), 3);
        let mut out = Vec::new();
        t.write_chrome_json(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"traceEvents\":["), "{s}");
        assert!(s.ends_with("]}"), "{s}");
        // one thread_name metadata event per lane
        assert_eq!(s.matches("\"thread_name\"").count(), 2);
        assert_eq!(s.matches("\"ph\":\"X\"").count(), 3);
        assert!(s.contains("\"dur\":250"), "{s}");
        assert!(s.contains("\"bytes\":42"), "{s}");
    }

    #[test]
    fn span_clamps_to_epoch() {
        let t = TraceRecorder::new();
        let before = t
            .epoch
            .checked_sub(Duration::from_secs(5))
            .unwrap_or(t.epoch);
        t.span("x", 0, before, t.epoch, 0);
        let mut out = Vec::new();
        t.write_chrome_json(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("\"ts\":0"), "{s}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
