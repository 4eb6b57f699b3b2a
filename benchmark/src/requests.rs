//! **small-requests**: a firehose of small framed documents from all
//! six grammars, one client keeping one request outstanding (a closed
//! loop with one client). The client decodes each frame with
//! `flap_serve::frame::FrameReader` and submits it to its grammar's
//! `ParsePool` (one worker per pool), whose parser was booted with
//! `Parser::from_artifact`.
//!
//! *Why:* per-request fixed costs are most of each request: queue
//! handoff, session reset, result delivery and error construction.
//! The VM runs on artifact-borrowed tables rather than compiled ones,
//! and set-up takes the artifact path instead of staging.
//!
//! This workload crosses threads on every request, so it is the one
//! most exposed to other load on the machine: in noisy minutes the
//! pool round trip has been seen to rise from about 46 µs to 63–103
//! µs while single-threaded workloads moved less than 7%.
//!
//! Each round starts with one cold set-up (load all six artifacts and
//! start the pools), sampled into `setup_s`, then replays the whole
//! firehose. In a traced run, traced and untraced rounds alternate;
//! traced rounds record spans for their first [`TRACED_REQUESTS`]
//! requests, also parse each of those directly on the client thread,
//! and time `load_recognizer` on each artifact.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flap::artifact::{load_recognizer, AlignedBuf};
use flap::serve::{JobError, JobHandle, ParsePool, PoolConfig};
use flap::{ParseSession, Parser};
use flap_grammars::GrammarDef;
use flap_serve::frame::FrameReader;

use crate::inputs::{firehose, per_grammar, Request, GRAMMARS};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, Calibration, Reservoir};
use crate::trace::{Tracer, NO_GRAMMAR};

/// Requests in the firehose; every round replays all of them.
const REQUESTS: usize = 16384;
/// Requests per throughput sample.
const BATCH: usize = 256;
/// Requests traced per traced round, which bounds the spans a traced
/// run keeps in memory.
const TRACED_REQUESTS: usize = 4096;
/// Requests between two samples of the calibration kernel (about a
/// tenth of a second).
const CALIBRATE_EVERY: usize = 4096;

/// What a request came back as, with the value already reduced by the
/// grammar's `finish`.
#[derive(Debug, PartialEq)]
enum Outcome {
    Value(i64),
    ParseError,
    /// Refused, panicked or otherwise lost: never expected.
    Failed(String),
}

impl Outcome {
    fn matches(&self, expected: Option<i64>) -> bool {
        match (self, expected) {
            (Outcome::Value(v), Some(e)) => *v == e,
            (Outcome::ParseError, None) => true,
            _ => false,
        }
    }
}

/// Pool counters: completed, parse errors, rejected, panicked.
type Counters = [u64; 4];

/// One grammar's artifact, pool and client-side parser.
trait Lane {
    /// Cold set-up: loads the artifact and starts a one-worker pool.
    /// Returns the seconds it took; the previous pool is shut down
    /// afterwards.
    fn boot(&mut self, t: &mut Tracer) -> f64;
    fn submit(&mut self, payload: &[u8]) -> Result<(), String>;
    fn wait(&mut self) -> Outcome;
    /// Parses `payload` on the calling thread with the booted parser.
    fn direct(&mut self, payload: &[u8]) -> Outcome;
    /// Times `load_recognizer` on the artifact.
    fn load_recognizer(&mut self, t: &mut Tracer) -> bool;
    fn artifact_len(&self) -> usize;
    /// Counters of every pool this lane has started.
    fn counters(&self) -> Counters;
}

struct GrammarLane<V: Send + 'static> {
    g: u8,
    def: GrammarDef<V>,
    artifact: Vec<u8>,
    aligned: Arc<AlignedBuf>,
    parser: Parser<V>,
    session: ParseSession<V>,
    pool: Option<ParsePool<V>>,
    pending: Option<JobHandle<V>>,
    retired: Counters,
}

fn lane<V: Send + 'static>(g: usize, def: GrammarDef<V>) -> Box<dyn Lane> {
    let parser = def.flap_parser();
    let artifact = parser.to_artifact();
    Box::new(GrammarLane {
        g: g as u8,
        aligned: Arc::new(AlignedBuf::from_bytes(&artifact)),
        artifact,
        parser,
        def,
        session: ParseSession::new(),
        pool: None,
        pending: None,
        retired: [0; 4],
    })
}

fn snapshot<V: Send + 'static>(pool: &ParsePool<V>) -> Counters {
    let m = pool.metrics().snapshot();
    [m.completed, m.parse_errors, m.rejected, m.panicked]
}

impl<V: Send + 'static> Lane for GrammarLane<V> {
    fn boot(&mut self, t: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        t.begin("flap-artifact.from_artifact", self.g);
        let parser = Parser::from_artifact(&self.artifact, (self.def.lexer)(), &(self.def.cfe)())
            .expect("a fresh artifact attaches to its own grammar");
        t.end();
        t.begin("flap.serve.pool_start", self.g);
        let config = PoolConfig::default()
            .workers(1)
            .queue_capacity(1)
            .label(self.def.name);
        let pool = parser.serve(config);
        t.end();
        let dt = t0.elapsed().as_secs_f64();
        self.parser = parser;
        if let Some(old) = self.pool.replace(pool) {
            let c = snapshot(&old);
            old.shutdown();
            for (r, c) in self.retired.iter_mut().zip(c) {
                *r += c;
            }
        }
        dt
    }

    fn submit(&mut self, payload: &[u8]) -> Result<(), String> {
        let pool = self.pool.as_ref().expect("the lane is booted");
        let handle = pool.submit(payload).map_err(|e| e.to_string())?;
        self.pending = Some(handle);
        Ok(())
    }

    fn wait(&mut self) -> Outcome {
        let Some(handle) = self.pending.take() else {
            return Outcome::Failed("nothing submitted".into());
        };
        match black_box(handle.wait()) {
            Ok(v) => Outcome::Value((self.def.finish)(v)),
            Err(JobError::Parse(_)) => Outcome::ParseError,
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }

    fn direct(&mut self, payload: &[u8]) -> Outcome {
        match black_box(self.parser.parse_with(&mut self.session, payload)) {
            Ok(v) => Outcome::Value((self.def.finish)(v)),
            Err(_) => Outcome::ParseError,
        }
    }

    fn load_recognizer(&mut self, t: &mut Tracer) -> bool {
        t.begin("flap-artifact.load_recognizer", self.g);
        let loaded = load_recognizer(black_box(&self.aligned));
        t.end();
        black_box(loaded).is_ok()
    }

    fn artifact_len(&self) -> usize {
        self.artifact.len()
    }

    fn counters(&self) -> Counters {
        let live = self.pool.as_ref().map_or([0; 4], snapshot);
        std::array::from_fn(|i| self.retired[i] + live[i])
    }
}

/// What a traced small-requests run hands to the cross-layer checks.
pub struct Ladder {
    /// `Parser::from_artifact` of the six grammars, summed, in µs.
    pub from_artifact_us: f64,
}

/// Runs small-requests for `budget`. With `tracer`, rounds alternate
/// traced and untraced and the per-layer metrics are reported;
/// without, the end-to-end metrics.
pub fn run(
    seed: u64,
    budget: Duration,
    tracer: Option<&mut Tracer>,
    cal: &mut Calibration,
    report: &mut Report,
) -> Ladder {
    let mut untraced = Tracer::new();
    let traced = tracer.is_some();
    let t = tracer.unwrap_or(&mut untraced);
    let (wire, requests) = firehose(seed, REQUESTS);
    let corrupt = requests.iter().filter(|r| r.expected.is_none()).count();
    let mut lanes: Vec<Box<dyn Lane>> = per_grammar!(lane);

    let mut setup = Vec::new();
    let mut latencies_us = Reservoir::new();
    // traced ops, and untraced ops of the same (leading) requests
    let (mut traced_latencies_us, mut untraced_head_us) = (Reservoir::new(), Reservoir::new());
    let mut batch_ops_per_s = Vec::new();
    let mut batch_mb_per_s = Vec::new();
    // traced rounds: client-side parse times and round trip minus
    // direct parse, per valid request
    let (mut direct_ok_us, mut direct_err_us, mut overhead_us) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut sent_corrupt = 0u64;

    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || start.elapsed() < budget {
        t.set_enabled(traced && round.is_multiple_of(2));
        setup.push(lanes.iter_mut().map(|l| l.boot(t)).sum::<f64>());
        if t.enabled() {
            for (g, lane) in lanes.iter_mut().enumerate() {
                let ok = lane.load_recognizer(t);
                report.op(ok, || format!("{}: load_recognizer failed", GRAMMARS[g]));
            }
        }
        let mut reader = FrameReader::new(&wire[..]);
        let (mut busy, mut bytes) = (0.0, 0usize);
        for (i, req) in requests.iter().enumerate() {
            if i == TRACED_REQUESTS {
                t.set_enabled(false);
            }
            t.next_op();
            t.begin("request", req.grammar as u8);
            t.begin("flap-serve.frame_decode", NO_GRAMMAR);
            let frame = reader.next_frame();
            t.end();
            let frame = match frame {
                Ok(Some(f)) => black_box(f),
                other => panic!("frame {i} failed to decode: {other:?}"),
            };
            let lane = &mut lanes[req.grammar];
            let t0 = Instant::now();
            t.begin("flap.serve.round_trip", req.grammar as u8);
            t.begin("flap.serve.submit", req.grammar as u8);
            let submitted = lane.submit(frame);
            t.end();
            t.begin("flap.serve.wait", req.grammar as u8);
            let outcome = match submitted {
                Ok(()) => lane.wait(),
                Err(e) => Outcome::Failed(e),
            };
            t.end();
            t.end();
            let dt = t0.elapsed().as_secs_f64();
            t.end();
            check(report, req, &outcome, "pool");
            sent_corrupt += u64::from(req.expected.is_none());
            if t.enabled() {
                traced_latencies_us.push(dt * 1e6);
                let us = direct_probe(t, lane.as_mut(), frame, req, report);
                if req.expected.is_some() {
                    direct_ok_us.push(us);
                    overhead_us.push(dt * 1e6 - us);
                } else {
                    direct_err_us.push(us);
                }
            } else {
                latencies_us.push(dt * 1e6);
                if traced && i < TRACED_REQUESTS {
                    untraced_head_us.push(dt * 1e6);
                }
            }
            busy += dt;
            bytes += req.len;
            if (i + 1).is_multiple_of(BATCH) {
                batch_ops_per_s.push(BATCH as f64 / busy);
                batch_mb_per_s.push(bytes as f64 / busy / 1e6);
                (busy, bytes) = (0.0, 0);
            }
            if (i + 1).is_multiple_of(CALIBRATE_EVERY) {
                cal.sample();
            }
        }
        round += 1;
    }
    t.set_enabled(false);

    let counters = lanes
        .iter()
        .map(|l| l.counters())
        .fold([0; 4], |a, c| std::array::from_fn(|i| a[i] + c[i]));
    let [completed, parse_errors, rejected, panicked] = counters;
    report.check(parse_errors == sent_corrupt && rejected == 0 && panicked == 0, || {
        format!("pool counters: {parse_errors} parse errors for {sent_corrupt} corrupted requests, {rejected} rejected, {panicked} panicked")
    });
    eprintln!(
        "small-requests: {} requests per round ({corrupt} corrupted), {round} rounds",
        requests.len()
    );
    if !traced {
        report.metric("mb_per_s", median(&batch_mb_per_s), "MB/s");
        report.metric("ops_per_s", median(&batch_ops_per_s), "1/s");
        report.metric("latency_p50_us", latencies_us.quantile(0.5), "us");
        report.metric("latency_p90_us", latencies_us.quantile(0.9), "us");
        report.metric("setup_s", median(&setup), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ladder {
            from_artifact_us: 0.0,
        };
    }

    let n = lanes.len();
    let med = |name: &str, g: u8| median(&t.durations_us(name, g));
    let sum = |name: &str| (0..n as u8).map(|g| med(name, g)).sum::<f64>();
    let all = |name: &str| {
        let spans: Vec<f64> = (0..n as u8).flat_map(|g| t.durations_us(name, g)).collect();
        median(&spans)
    };
    let from_artifact_us = sum("flap-artifact.from_artifact");
    report.metric("flap-artifact.from_artifact_us", from_artifact_us, "us");
    report.metric(
        "flap-artifact.load_recognizer_us",
        sum("flap-artifact.load_recognizer"),
        "us",
    );
    report.metric(
        "flap-artifact.bytes",
        lanes.iter().map(|l| l.artifact_len()).sum::<usize>() as f64,
        "B",
    );
    report.metric(
        "flap-serve.frame_decode_us",
        med("flap-serve.frame_decode", NO_GRAMMAR),
        "us",
    );
    let round_trip = all("flap.serve.round_trip");
    let direct = median(&direct_ok_us);
    report.metric("flap.serve.submit_us", all("flap.serve.submit"), "us");
    report.metric("flap.serve.round_trip_us", round_trip, "us");
    report.metric("flap.serve.overhead_us", median(&overhead_us), "us");
    report.metric("flap-staged.request_parse_us", direct, "us");
    report.metric("flap-staged.error_parse_us", median(&direct_err_us), "us");
    report.metric("flap.serve.completed", completed as f64, "count");
    report.metric("flap.serve.parse_errors", parse_errors as f64, "count");
    report.metric("flap.serve.rejected", rejected as f64, "count");
    report.metric("flap.serve.panicked", panicked as f64, "count");
    report.metric(
        "trace.overhead_share.small-requests",
        traced_latencies_us.quantile(0.5) / untraced_head_us.quantile(0.5) - 1.0,
        "ratio",
    );
    report.check(round_trip >= direct, || {
        format!("ladder order: pool round trip {round_trip:.2} us < direct parse {direct:.2} us")
    });
    Ladder { from_artifact_us }
}

fn check(report: &mut Report, req: &Request, outcome: &Outcome, path: &str) {
    report.op(outcome.matches(req.expected), || {
        format!(
            "{} request via {path}: got {outcome:?}, oracle {:?}",
            GRAMMARS[req.grammar], req.expected
        )
    });
}

/// Traced rounds only: parses the same request on the client thread
/// with the lane's booted parser. Returns the µs it took.
fn direct_probe(
    t: &mut Tracer,
    lane: &mut dyn Lane,
    frame: &[u8],
    req: &Request,
    report: &mut Report,
) -> f64 {
    let name = if req.expected.is_some() {
        "flap-staged.request_parse"
    } else {
        "flap-staged.error_parse"
    };
    let t0 = Instant::now();
    t.begin(name, req.grammar as u8);
    let outcome = lane.direct(frame);
    t.end();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    check(report, req, &outcome, "direct parse");
    us
}
