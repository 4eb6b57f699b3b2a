//! Validates a Chrome trace-event JSON file produced by
//! `flap-serve run --trace-out` (or any [`flap::obs::TraceRecorder`]
//! output) with the harness's dependency-free mini JSON parser.
//!
//! ```text
//! tracecheck <trace.json> [expected-workers]
//! ```
//!
//! Checks, exiting 1 with a message on the first failure:
//!
//! * the file parses as JSON with a `traceEvents` array;
//! * every `ph:"X"` event carries `name`/`tid`/`ts`/`dur`;
//! * at least one complete span exists per worker lane (all lanes
//!   `0..expected-workers` when the count is given), and no lane lies
//!   past the caller lane `expected-workers`, where the pool records
//!   jobs that their waiting callers ran;
//! * the queue-wait vs execution split is present: ≥ 1 `queue-wait`
//!   span and ≥ 1 execution (`parse`) span, and on every lane as many
//!   `queue-wait` as `parse` spans;
//! * every lane carries its `thread_name`: `worker-{tid}` on a worker
//!   lane, `caller` on the caller lane.
//!
//! The report names each lane's job count, the caller lane's apart.

use std::process::ExitCode;

use flap_bench::json::Json;

fn fail(msg: &str) -> ExitCode {
    eprintln!("tracecheck: {msg}");
    ExitCode::from(1)
}

/// The `thread_name` metadata of lane `tid`, if the trace has one.
fn lane_name(doc: &Json, tid: u64) -> Option<&str> {
    doc.get("traceEvents")?
        .as_arr()?
        .iter()
        .find(|ev| {
            ev.get("ph").and_then(Json::as_str) == Some("M")
                && ev.get("name").and_then(Json::as_str) == Some("thread_name")
                && ev.get("tid").and_then(Json::as_num) == Some(tid as f64)
        })?
        .get("args")?
        .get("name")?
        .as_str()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, expected_workers) = match args.as_slice() {
        [path] => (path, None),
        [path, n] => match n.parse::<usize>() {
            Ok(n) => (path, Some(n)),
            Err(_) => return fail("expected-workers must be a number"),
        },
        _ => return fail("usage: tracecheck <trace.json> [expected-workers]"),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("{path} is not valid JSON: {e}")),
    };
    let mut lanes = match flap_bench::trace_lanes(&doc) {
        Ok(lanes) => lanes,
        Err(e) => return fail(&e),
    };
    let queue_waits: usize = lanes.iter().map(|l| l.1).sum();
    let execs: usize = lanes.iter().map(|l| l.2).sum();

    if lanes.is_empty() {
        return fail("no complete (ph:X) spans");
    }
    if queue_waits == 0 {
        return fail("no queue-wait spans: the queue/run split is missing");
    }
    if execs == 0 {
        return fail("no execution (parse) spans");
    }
    for &(tid, waits, parses) in &lanes {
        if waits != parses {
            return fail(&format!(
                "lane {tid} has {waits} queue-wait spans but {parses} parse spans"
            ));
        }
    }
    for &(tid, ..) in &lanes {
        let worker = format!("worker-{tid}");
        let name = lane_name(&doc, tid);
        let named = match expected_workers {
            Some(w) if w as u64 == tid => name == Some("caller"),
            Some(_) => name == Some(worker.as_str()),
            // without a worker count, any lane may be the caller's
            None => name == Some("caller") || name == Some(worker.as_str()),
        };
        if !named {
            return fail(&format!("lane {tid} is misnamed: thread_name {name:?}"));
        }
    }
    let mut caller = None;
    if let Some(workers) = expected_workers {
        let workers = workers as u64;
        for tid in 0..workers {
            if !lanes.iter().any(|l| l.0 == tid) {
                return fail(&format!("worker lane {tid} has no spans"));
            }
        }
        if let Some(l) = lanes.iter().find(|l| l.0 > workers) {
            return fail(&format!("lane {} lies past the caller lane {workers}", l.0));
        }
        caller = Some(lanes.iter().find(|l| l.0 == workers).map_or(0, |l| l.2));
        lanes.retain(|l| l.0 < workers);
    }
    lanes.sort_unstable();
    let jobs: Vec<(u64, usize)> = lanes.iter().map(|l| (l.0, l.2)).collect();
    let caller = match (caller, expected_workers) {
        (Some(n), Some(w)) => format!(", {n} on caller lane {w}"),
        _ => String::new(),
    };
    println!(
        "tracecheck: OK — {queue_waits} queue-wait and {execs} parse spans; \
         jobs per worker lane {jobs:?}{caller}",
    );
    ExitCode::SUCCESS
}
