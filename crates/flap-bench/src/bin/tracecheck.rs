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
//!   `0..expected-workers` when the count is given);
//! * the queue-wait vs execution split is present: ≥ 1 `queue-wait`
//!   span and ≥ 1 execution (`parse`) span.

use std::process::ExitCode;

use flap_bench::json::Json;

fn fail(msg: &str) -> ExitCode {
    eprintln!("tracecheck: {msg}");
    ExitCode::from(1)
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
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return fail("no traceEvents array");
    };

    let mut spans = 0usize;
    let mut queue_waits = 0usize;
    let mut execs = 0usize;
    let mut lanes: Vec<(u64, usize)> = Vec::new(); // (tid, span count)
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "X" {
            continue;
        }
        let Some(name) = ev.get("name").and_then(Json::as_str) else {
            return fail("complete span without a name");
        };
        let Some(tid) = ev.get("tid").and_then(Json::as_num) else {
            return fail("complete span without a tid");
        };
        if ev.get("ts").and_then(Json::as_num).is_none()
            || ev.get("dur").and_then(Json::as_num).is_none()
        {
            return fail(&format!("span {name:?} lacks ts/dur"));
        }
        spans += 1;
        match name {
            "queue-wait" => queue_waits += 1,
            "parse" => execs += 1,
            _ => {}
        }
        let tid = tid as u64;
        match lanes.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, n)) => *n += 1,
            None => lanes.push((tid, 1)),
        }
    }

    if spans == 0 {
        return fail("no complete (ph:X) spans");
    }
    if queue_waits == 0 {
        return fail("no queue-wait spans: the queue/run split is missing");
    }
    if execs == 0 {
        return fail("no execution (parse) spans");
    }
    if let Some(workers) = expected_workers {
        for tid in 0..workers as u64 {
            if !lanes.iter().any(|&(t, _)| t == tid) {
                return fail(&format!("worker lane {tid} has no spans"));
            }
        }
    }
    lanes.sort_unstable();
    println!(
        "tracecheck: OK — {spans} spans ({queue_waits} queue-wait, {execs} exec) across {} lanes {:?}",
        lanes.len(),
        lanes,
    );
    ExitCode::SUCCESS
}
