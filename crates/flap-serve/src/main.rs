//! The `flap-serve` demo server: parses a firehose of length-prefixed
//! requests across a worker pool and prints the pool's metrics.
//!
//! ```text
//! flap-serve gen <grammar> <doc-bytes> <count> <out|-> [seed]
//! flap-serve run <grammar> <file|-> [--workers N] [--queue N]
//!                [--mode block|try] [--check] [--expect-rejections]
//!                [--trace-out <path>] [--stats-json <path>]
//!                [--metrics-jsonl <path>]
//!                [--artifact <path>] [--save-artifact <path>]
//! ```
//!
//! `gen` writes a firehose file: `<count>` generated documents of
//! roughly `<doc-bytes>` bytes each, framed per [`flap_serve::frame`].
//! `run` serves it: every frame becomes one pool job (`--mode block`
//! submits cooperatively, `--mode try` exercises admission control and
//! sheds to waiting only when `Busy`). `--check`
//! verifies the summed semantic values against the grammar's
//! independent reference parser; `--expect-rejections` fails the run
//! unless backpressure actually rejected something (used by CI with a
//! tiny queue).
//!
//! Telemetry: `--trace-out` writes a Chrome trace-event JSON file of
//! every pool job (a queue-wait and a `parse` span each, one lane per
//! worker plus lane `--workers`, named `caller`, for jobs a waiting
//! caller ran — open in Perfetto or `chrome://tracing`); `--stats-json`
//! dumps the final metrics snapshot as one JSON object on exit;
//! `--metrics-jsonl` appends a periodic JSON-lines feed of metrics
//! snapshots ([`flap_serve::MetricsEmitter`]) while the run is in
//! flight.
//!
//! Artifacts: `--save-artifact` writes the parser (tables plus the
//! provenance of its actions) to a `flap-artifact` container;
//! `--artifact` boots from such a file instead of compiling: the named
//! grammar must encode to the bytes the file stores, and its actions
//! are re-bound without type-checking, normalizing, fusing or staging.
//! Together they form the round-trip CI smoke: `run … --save-artifact
//! p`, then `run … --artifact p --save-artifact q --check`, and `p`
//! and `q` are byte-identical.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use flap::obs::TraceRecorder;
use flap_grammars::GrammarDef;
use flap_serve::frame::{write_frame, FrameReader};
use flap_serve::{JobError, JobHandle, MetricsEmitter, ParsePool, PoolConfig, SubmitError};

fn grammar(name: &str) -> Option<GrammarDef<i64>> {
    Some(match name {
        "json" => flap_grammars::json::def(),
        "sexp" => flap_grammars::sexp::def(),
        "csv" => flap_grammars::csv::def(),
        "pgn" => flap_grammars::pgn::def(),
        _ => return None,
    })
}

const USAGE: &str = "usage:
  flap-serve gen <grammar> <doc-bytes> <count> <out|-> [seed]
  flap-serve run <grammar> <file|-> [--workers N] [--queue N]
                 [--mode block|try] [--check] [--expect-rejections]
                 [--trace-out <path>] [--stats-json <path>]
                 [--metrics-jsonl <path>]
                 [--artifact <path>] [--save-artifact <path>]
grammars: json, sexp, csv, pgn";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("flap-serve: {e}");
            ExitCode::from(1)
        }
    }
}

// ---------------------------------------------------------------------------
// gen

fn gen(args: &[String]) -> io::Result<ExitCode> {
    let (name, doc_bytes, count, out, seed) = match args {
        [name, doc_bytes, count, out, rest @ ..] if rest.len() <= 1 => {
            let parse = |s: &String| {
                s.parse::<usize>()
                    .map_err(|e| io::Error::other(e.to_string()))
            };
            let seed = match rest {
                [s] => parse(s)? as u64,
                _ => 42,
            };
            (name, parse(doc_bytes)?, parse(count)?, out, seed)
        }
        _ => {
            eprintln!("{USAGE}");
            return Ok(ExitCode::from(1));
        }
    };
    let def = grammar(name).ok_or_else(|| io::Error::other(format!("unknown grammar {name}")))?;
    let mut sink: Box<dyn Write> = match out.as_str() {
        "-" => Box::new(BufWriter::new(io::stdout().lock())),
        path => Box::new(BufWriter::new(File::create(path)?)),
    };
    let mut total = 0usize;
    for i in 0..count {
        let doc = (def.generate)(seed.wrapping_add(i as u64), doc_bytes);
        total += doc.len();
        write_frame(&mut sink, &doc)?;
    }
    sink.flush()?;
    eprintln!("flap-serve gen: {count} {name} frames, {total} payload bytes");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// run

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Block,
    Try,
}

struct RunOpts {
    workers: usize,
    queue: usize,
    mode: Mode,
    check: bool,
    expect_rejections: bool,
    trace_out: Option<String>,
    stats_json: Option<String>,
    metrics_jsonl: Option<String>,
    artifact: Option<String>,
    save_artifact: Option<String>,
}

/// Completed-handle backlog bound: drain the oldest once this many
/// jobs are outstanding, so an arbitrarily long firehose runs in
/// constant memory.
const MAX_OUTSTANDING: usize = 1024;

fn run(args: &[String]) -> io::Result<ExitCode> {
    let [name, input, flags @ ..] = args else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(1));
    };
    let mut opts = RunOpts {
        workers: 0,
        queue: 0,
        mode: Mode::Block,
        check: false,
        expect_rejections: false,
        trace_out: None,
        stats_json: None,
        metrics_jsonl: None,
        artifact: None,
        save_artifact: None,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| io::Error::other(format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workers" => opts.workers = parse_num(value("a count")?)?,
            "--queue" => opts.queue = parse_num(value("a capacity")?)?,
            "--mode" => {
                opts.mode = match value("block|try")?.as_str() {
                    "block" => Mode::Block,
                    "try" => Mode::Try,
                    other => return Err(io::Error::other(format!("unknown mode {other}"))),
                }
            }
            "--check" => opts.check = true,
            "--expect-rejections" => opts.expect_rejections = true,
            "--trace-out" => opts.trace_out = Some(value("a path")?.clone()),
            "--stats-json" => opts.stats_json = Some(value("a path")?.clone()),
            "--metrics-jsonl" => opts.metrics_jsonl = Some(value("a path")?.clone()),
            "--artifact" => opts.artifact = Some(value("a path")?.clone()),
            "--save-artifact" => opts.save_artifact = Some(value("a path")?.clone()),
            other => return Err(io::Error::other(format!("unknown flag {other}"))),
        }
    }

    let def = grammar(name).ok_or_else(|| io::Error::other(format!("unknown grammar {name}")))?;
    let parser = match &opts.artifact {
        Some(path) => {
            let bytes = std::fs::read(path)?;
            let parser = flap::Parser::from_artifact(&bytes, (def.lexer)(), &(def.cfe)())
                .map_err(|e| io::Error::other(format!("loading artifact {path}: {e}")))?;
            eprintln!(
                "flap-serve: loaded {} bytes of {} tables from {path} in {:?}",
                bytes.len(),
                def.name,
                parser.times().stage,
            );
            parser
        }
        None => def.flap_parser(),
    };
    if let Some(path) = &opts.save_artifact {
        let bytes = parser.to_artifact();
        std::fs::write(path, &bytes)?;
        eprintln!(
            "flap-serve: wrote {} artifact bytes for {} -> {path}",
            bytes.len(),
            def.name
        );
    }
    let trace = opts
        .trace_out
        .as_ref()
        .map(|_| Arc::new(TraceRecorder::new()));
    let mut config = PoolConfig::default()
        .workers(opts.workers)
        .queue_capacity(opts.queue)
        .label(def.name);
    if let Some(t) = &trace {
        config = config.trace(Arc::clone(t));
    }
    let pool = parser.serve(config);
    let emitter = match &opts.metrics_jsonl {
        Some(path) => Some(MetricsEmitter::start(
            pool.metrics_arc(),
            Duration::from_millis(500),
            BufWriter::new(File::create(path)?),
        )),
        None => None,
    };

    let source: Box<dyn Read> = match input.as_str() {
        "-" => Box::new(io::stdin().lock()),
        path => Box::new(File::open(path)?),
    };
    let mut frames = FrameReader::new(BufReader::new(source));

    let mut tally = Tally::default();
    let mut outstanding: VecDeque<JobHandle<i64>> = VecDeque::new();
    let mut expected_sum: i64 = 0;
    while let Some(doc) = frames.next_frame()? {
        if opts.check {
            expected_sum += (def.reference)(doc)
                .map_err(|e| io::Error::other(format!("reference parser rejected a doc: {e}")))?;
        }
        while outstanding.len() >= MAX_OUTSTANDING {
            tally.settle(&def, outstanding.pop_front().expect("non-empty").wait());
        }
        match opts.mode {
            Mode::Block => {
                let handle = pool
                    .submit(doc)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                outstanding.push_back(handle);
            }
            Mode::Try => {
                // admission control: on Busy, make progress by
                // settling the oldest job, then retry the same doc
                let mut job = flap_serve::JobInput::from(doc);
                loop {
                    match pool.try_submit(job) {
                        Ok(handle) => {
                            outstanding.push_back(handle);
                            break;
                        }
                        Err(SubmitError::Busy(back)) => {
                            job = back;
                            match outstanding.pop_front() {
                                Some(h) => tally.settle(&def, h.wait()),
                                None => std::thread::yield_now(),
                            }
                        }
                    }
                }
            }
        }
    }
    for handle in outstanding {
        tally.settle(&def, handle.wait());
    }

    let snapshot = pool.metrics().snapshot();
    pool.shutdown();
    if let Some(e) = emitter {
        e.stop(); // final JSON line covers the whole run
    }
    if let (Some(t), Some(path)) = (&trace, &opts.trace_out) {
        t.write_chrome_json(BufWriter::new(File::create(path)?))?;
        eprintln!("flap-serve: {} trace spans -> {path}", t.len());
    }
    if let Some(path) = &opts.stats_json {
        let mut f = BufWriter::new(File::create(path)?);
        writeln!(f, "{}", snapshot.to_json())?;
        f.flush()?;
    }

    println!(
        "RESULT grammar={} mode={} docs={} ok={} parse_errors={} panicked={} rejected={} sum={}",
        def.name,
        match opts.mode {
            Mode::Block => "block",
            Mode::Try => "try",
        },
        tally.docs,
        tally.ok,
        tally.parse_errors,
        tally.panicked,
        snapshot.rejected,
        tally.sum,
    );
    print!("{snapshot}");
    println!();

    if tally.panicked > 0 || snapshot.workers_replaced > 0 {
        eprintln!("flap-serve: panicking jobs observed");
        return Ok(ExitCode::from(2));
    }
    if opts.check && tally.sum != expected_sum {
        eprintln!(
            "flap-serve: sum mismatch: pool {} vs reference {}",
            tally.sum, expected_sum
        );
        return Ok(ExitCode::from(3));
    }
    if opts.expect_rejections && snapshot.rejected == 0 {
        eprintln!("flap-serve: expected backpressure rejections, saw none");
        return Ok(ExitCode::from(4));
    }
    Ok(ExitCode::SUCCESS)
}

#[derive(Default)]
struct Tally {
    docs: u64,
    ok: u64,
    parse_errors: u64,
    panicked: u64,
    sum: i64,
}

impl Tally {
    fn settle(&mut self, def: &GrammarDef<i64>, result: Result<i64, JobError>) {
        self.docs += 1;
        match result {
            Ok(v) => {
                self.ok += 1;
                self.sum += (def.finish)(v);
            }
            Err(JobError::Parse(_)) => self.parse_errors += 1,
            Err(JobError::Panicked(_)) => self.panicked += 1,
        }
    }
}

fn parse_num(s: &str) -> io::Result<usize> {
    s.parse::<usize>()
        .map_err(|e| io::Error::other(e.to_string()))
}

fn _assert_pool_is_send(p: ParsePool<i64>) -> impl Send {
    p
}
