//! Dependency-free service metrics: atomic counters plus three
//! fixed-bucket histograms (submit-to-completion latency, and its two
//! parts: queue wait and service).
//!
//! Every [`ParsePool`](super::ParsePool) owns one [`Metrics`]; the
//! threads that submit and run jobs update it with relaxed atomics (no
//! locks, no allocation — the counters live on the job hot path and
//! must not disturb the zero-allocation steady state).
//! [`Metrics::snapshot`] reads a consistent-enough point-in-time copy
//! for reporting, and [`MetricsSnapshot`] renders as a compact text
//! report via `Display`.
//!
//! Times are recorded in power-of-two microsecond buckets (bucket *i*
//! holds samples < 2^*i* µs), which is coarse but fixed-size:
//! recording is one `fetch_add` on an array slot, and quantile
//! estimates come out as tight upper bounds.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of latency buckets; bucket `i < BUCKETS-1` counts
/// completions with latency < 2^i µs, the last bucket catches
/// everything slower (≥ ~35 minutes — effectively "stuck").
pub const LATENCY_BUCKETS: usize = 32;

/// Live counters for one [`ParsePool`](super::ParsePool). All updates
/// are relaxed atomics; read a coherent view with
/// [`Metrics::snapshot`].
pub struct Metrics {
    pub(super) label: Box<str>,
    workers: usize,
    queue_capacity: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    parse_errors: AtomicU64,
    panicked: AtomicU64,
    rejected: AtomicU64,
    workers_replaced: AtomicU64,
    bytes_parsed: AtomicU64,
    queue_depth: AtomicU64,
    queue_high_water: AtomicU64,
    latency: Buckets,
    queue_wait: Buckets,
    service: Buckets,
}

impl Metrics {
    pub(super) fn new(label: &str, workers: usize, queue_capacity: usize) -> Metrics {
        Metrics {
            label: label.into(),
            workers,
            queue_capacity,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
            bytes_parsed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            latency: Buckets::new(),
            queue_wait: Buckets::new(),
            service: Buckets::new(),
        }
    }

    pub(super) fn job_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn job_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn session_replaced(&self) {
        self.workers_replaced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the queue length after a push or pop; pushes also
    /// advance the high-water mark.
    pub(super) fn queue_len(&self, len: usize, push: bool) {
        self.queue_depth.store(len as u64, Ordering::Relaxed);
        if push {
            self.queue_high_water
                .fetch_max(len as u64, Ordering::Relaxed);
        }
    }

    /// Records a finished job: its outcome, the bytes it parsed and
    /// its submit-to-completion latency.
    pub(super) fn job_finished(&self, outcome: Outcome, bytes: usize, latency_us: u64) {
        match outcome {
            Outcome::Completed => &self.completed,
            Outcome::ParseError => &self.parse_errors,
            Outcome::Panicked => &self.panicked,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.bytes_parsed.fetch_add(bytes as u64, Ordering::Relaxed);
        self.latency.record(latency_us);
    }

    /// Records the two parts of a job's latency: its queue wait (from
    /// enqueue until a session picks it up) and its service time (from
    /// parse start until the result is ready).
    pub(super) fn job_timed(&self, queue_wait_us: u64, service_us: u64) {
        self.queue_wait.record(queue_wait_us);
        self.service.record(service_us);
    }

    /// A point-in-time copy of every counter, suitable for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            label: self.label.to_string(),
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            submitted: load(&self.submitted),
            completed: load(&self.completed),
            parse_errors: load(&self.parse_errors),
            panicked: load(&self.panicked),
            rejected: load(&self.rejected),
            workers_replaced: load(&self.workers_replaced),
            bytes_parsed: load(&self.bytes_parsed),
            queue_depth: load(&self.queue_depth),
            queue_high_water: load(&self.queue_high_water),
            latency_us: self.latency.snapshot(),
            queue_wait_us: self.queue_wait.snapshot(),
            service_us: self.service.snapshot(),
        }
    }
}

/// One live histogram: a relaxed counter per latency bucket.
struct Buckets([AtomicU64; LATENCY_BUCKETS]);

impl Buckets {
    fn new() -> Buckets {
        Buckets([const { AtomicU64::new(0) }; LATENCY_BUCKETS])
    }

    fn record(&self, us: u64) {
        self.0[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)),
        }
    }
}

/// How a job ended, for [`Metrics::job_finished`].
#[derive(Clone, Copy, Debug)]
pub(super) enum Outcome {
    /// Produced a semantic value.
    Completed,
    /// The input failed to parse.
    ParseError,
    /// A semantic action panicked.
    Panicked,
}

/// The histogram bucket for a latency in microseconds: the number of
/// significant bits, so bucket `i` covers `[2^(i-1), 2^i)` µs and a
/// sample in bucket `i` is guaranteed to be `< 2^i` µs.
fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// A point-in-time copy of a pool's [`Metrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The pool's label (e.g. the grammar it serves).
    pub label: String,
    /// Configured worker count.
    pub workers: usize,
    /// Configured submission-queue capacity.
    pub queue_capacity: usize,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that produced a value.
    pub completed: u64,
    /// Jobs that failed with a parse error.
    pub parse_errors: u64,
    /// Jobs killed by a panicking semantic action.
    pub panicked: u64,
    /// `try_submit` calls refused because the queue was full.
    pub rejected: u64,
    /// Sessions replaced after a panicking action poisoned them,
    /// whichever thread ran the job. The name is kept for its JSON
    /// key: no worker thread is ever replaced.
    pub workers_replaced: u64,
    /// Input bytes handed to finished jobs.
    pub bytes_parsed: u64,
    /// Queue length at snapshot time.
    pub queue_depth: u64,
    /// Deepest the queue has ever been.
    pub queue_high_water: u64,
    /// Submit-to-completion latency histogram.
    pub latency_us: LatencyHistogram,
    /// Queue-wait histogram: from enqueue until a session picks the
    /// job up.
    pub queue_wait_us: LatencyHistogram,
    /// Service-time histogram: from parse start until the result is
    /// ready. Latency is queue wait plus service.
    pub service_us: LatencyHistogram,
}

impl MetricsSnapshot {
    /// Jobs that reached a terminal state, whatever it was.
    pub fn finished(&self) -> u64 {
        self.completed + self.parse_errors + self.panicked
    }

    /// The text report (same as `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// One compact JSON object (no trailing newline) with every
    /// counter, then the percentiles and raw buckets of each histogram
    /// under `"latency"`, `"queue_wait"` and `"service"` — the line
    /// format `flap_serve::MetricsEmitter` writes and `flap-serve
    /// --stats-json` dumps. Hand-rolled; no serializer dependency.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"label\":\"{}\",\"workers\":{},\"queue_capacity\":{},\"submitted\":{},\
             \"completed\":{},\"parse_errors\":{},\"panicked\":{},\"rejected\":{},\
             \"workers_replaced\":{},\"bytes_parsed\":{},\"queue_depth\":{},\
             \"queue_high_water\":{}",
            crate::obs::escape(&self.label),
            self.workers,
            self.queue_capacity,
            self.submitted,
            self.completed,
            self.parse_errors,
            self.panicked,
            self.rejected,
            self.workers_replaced,
            self.bytes_parsed,
            self.queue_depth,
            self.queue_high_water,
        ));
        for (key, h) in [
            ("latency", &self.latency_us),
            ("queue_wait", &self.queue_wait_us),
            ("service", &self.service_us),
        ] {
            s.push_str(&format!(
                ",\"{key}\":{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"buckets\":[",
                h.count(),
                h.p50_us(),
                h.p90_us(),
                h.p99_us(),
            ));
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&b.to_string());
            }
            s.push_str("]}");
        }
        s.push('}');
        s
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pool {:?}: {} workers, queue capacity {}",
            self.label, self.workers, self.queue_capacity
        )?;
        writeln!(
            f,
            "  jobs     submitted {}, completed {}, parse errors {}, panicked {}, rejected {}",
            self.submitted, self.completed, self.parse_errors, self.panicked, self.rejected
        )?;
        writeln!(
            f,
            "  queue    depth {}, high-water {}",
            self.queue_depth, self.queue_high_water
        )?;
        writeln!(f, "  sessions replaced {}", self.workers_replaced)?;
        writeln!(f, "  volume   {} bytes parsed", self.bytes_parsed)?;
        writeln!(f, "{}", HistogramLine("latency", &self.latency_us))?;
        writeln!(f, "{}", HistogramLine("wait", &self.queue_wait_us))?;
        write!(f, "{}", HistogramLine("service", &self.service_us))
    }
}

/// One histogram's line of the text report.
struct HistogramLine<'a>(&'static str, &'a LatencyHistogram);

impl fmt::Display for HistogramLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let HistogramLine(name, h) = *self;
        if h.count() == 0 {
            write!(f, "  {name:<8} no samples")
        } else {
            write!(
                f,
                "  {name:<8} p50 < {}, p90 < {}, p99 < {} ({} samples)",
                format_us(h.quantile_upper_us(0.50)),
                format_us(h.quantile_upper_us(0.90)),
                format_us(h.quantile_upper_us(0.99)),
                h.count()
            )
        }
    }
}

/// Latencies in power-of-two microsecond buckets: `buckets[i]` counts
/// samples < 2^i µs (and ≥ 2^(i-1) µs for i > 0); the last bucket is a
/// catch-all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Raw bucket counts.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (µs) on the median latency; see
    /// [`LatencyHistogram::quantile_upper_us`].
    pub fn p50_us(&self) -> u64 {
        self.quantile_upper_us(0.50)
    }

    /// Upper bound (µs) on the 90th-percentile latency.
    pub fn p90_us(&self) -> u64 {
        self.quantile_upper_us(0.90)
    }

    /// Upper bound (µs) on the 99th-percentile latency.
    pub fn p99_us(&self) -> u64 {
        self.quantile_upper_us(0.99)
    }

    /// An upper bound (in µs) on the `q`-quantile latency: the
    /// exclusive upper edge of the bucket containing it. Returns 0
    /// when no samples have been recorded.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i.min(63);
            }
        }
        u64::MAX
    }
}

/// `123µs` / `1.5ms` / `2.0s`, for the text report.
fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.1}s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let m = Metrics::new("t", 1, 4);
        // 90 fast completions (~100µs bucket) and 10 slow (~10ms)
        for _ in 0..90 {
            m.job_finished(Outcome::Completed, 10, 100);
        }
        for _ in 0..10 {
            m.job_finished(Outcome::Completed, 10, 10_000);
        }
        let s = m.snapshot();
        assert_eq!(s.completed, 100);
        assert_eq!(s.bytes_parsed, 1000);
        assert_eq!(s.latency_us.count(), 100);
        // 100µs has 7 bits -> bucket 7, upper bound 128µs
        assert_eq!(s.latency_us.quantile_upper_us(0.5), 128);
        // 10_000µs has 14 bits -> bucket 14, upper bound 16384µs
        assert_eq!(s.latency_us.quantile_upper_us(0.99), 16384);
        assert!(s.render().contains("p50 < 128µs"), "{}", s.render());
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // bucket i holds samples with < 2^i µs: an exact power 2^k
        // has k+1 significant bits, so it lands in bucket k+1 and its
        // quantile upper bound is 2^(k+1), never its own value
        for k in 0..10u32 {
            let us = 1u64 << k;
            assert_eq!(bucket_of(us), (k + 1) as usize, "2^{k}");
            let m = Metrics::new("b", 1, 1);
            m.job_finished(Outcome::Completed, 0, us);
            assert_eq!(m.snapshot().latency_us.p50_us(), 1u64 << (k + 1), "2^{k}");
        }
        // one below the power stays in the lower bucket
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        assert_eq!(bucket_of(0), 0);
        let m = Metrics::new("z", 1, 1);
        m.job_finished(Outcome::Completed, 0, 0);
        let h = m.snapshot().latency_us;
        assert_eq!(h.buckets[0], 1);
        // the 0-bucket's exclusive upper edge is 2^0 = 1µs
        assert_eq!(h.p50_us(), 1);
        assert_eq!(h.p99_us(), 1);
    }

    #[test]
    fn huge_latencies_saturate_the_last_bucket() {
        let m = Metrics::new("s", 1, 1);
        for us in [u64::MAX, u64::MAX / 2, 1u64 << 40] {
            m.job_finished(Outcome::Completed, 0, us);
        }
        let h = m.snapshot().latency_us;
        assert_eq!(h.buckets[LATENCY_BUCKETS - 1], 3);
        assert_eq!(h.p50_us(), 1u64 << (LATENCY_BUCKETS - 1));
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Metrics::new("e", 1, 1).snapshot().latency_us;
        assert_eq!(h.count(), 0);
        assert_eq!((h.p50_us(), h.p90_us(), h.p99_us()), (0, 0, 0));
    }

    #[test]
    fn snapshot_json_is_complete_and_escaped() {
        let m = Metrics::new("a\"b", 2, 4);
        m.job_submitted();
        m.job_finished(Outcome::Completed, 7, 100);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"label\":\"a\\\"b\""), "{json}");
        for needle in [
            "\"workers\":2",
            "\"queue_capacity\":4",
            "\"submitted\":1",
            "\"completed\":1",
            "\"bytes_parsed\":7",
            "\"p50_us\":128",
            "\"buckets\":[0,",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in {json}");
        }
        assert!(json.ends_with("]}}"), "{json}");
    }

    #[test]
    fn queue_wait_and_service_split_the_latency() {
        let m = Metrics::new("split", 1, 1);
        // a job that waited 20µs and parsed for 100µs: latency 120µs
        m.job_timed(20, 100);
        m.job_finished(Outcome::Completed, 3, 120);
        let s = m.snapshot();
        assert_eq!(s.queue_wait_us.count(), 1);
        assert_eq!(s.service_us.count(), 1);
        assert_eq!(s.queue_wait_us.p50_us(), 32);
        assert_eq!(s.service_us.p50_us(), 128);
        assert_eq!(s.latency_us.p50_us(), 128);
        let json = s.to_json();
        for needle in [
            "\"queue_wait\":{\"count\":1,\"p50_us\":32,",
            "\"service\":{\"count\":1,\"p50_us\":128,",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in {json}");
        }
        let text = s.render();
        for needle in ["wait     p50 < 32µs", "service  p50 < 128µs"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let empty = Metrics::new("e", 1, 1).snapshot().render();
        assert!(empty.contains("wait     no samples"), "{empty}");
    }

    #[test]
    fn snapshot_renders_every_counter() {
        let m = Metrics::new("json", 4, 8);
        m.job_submitted();
        m.job_rejected();
        m.session_replaced();
        m.queue_len(3, true);
        m.job_finished(Outcome::Panicked, 5, 2);
        let s = m.snapshot();
        assert_eq!(
            (s.submitted, s.rejected, s.workers_replaced, s.panicked),
            (1, 1, 1, 1)
        );
        assert_eq!(s.queue_high_water, 3);
        assert_eq!(s.finished(), 1);
        let text = s.render();
        for needle in ["pool \"json\"", "rejected 1", "replaced 1", "high-water 3"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
