//! End-to-end observability tests: the differential guarantee that an
//! observed parse returns exactly what the unobserved parse returns
//! (all six grammars, valid and corrupted inputs), profiler
//! accounting against ground truth, Chrome-trace export from a traced
//! worker pool — validated with the harness's dependency-free mini
//! JSON parser — and the periodic metrics emitter.

// FusedParseError inlines its expected-token set (allocation-free
// error paths, a deliberate workspace-wide tradeoff).
#![allow(clippy::result_large_err)]

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flap::obs::{NoopObserver, ParseProfiler, TraceRecorder};
use flap::{Cfe, LexerBuilder, Parser};
use flap_bench::json::Json;
use flap_grammars::GrammarDef;
use flap_serve::{MetricsEmitter, PoolConfig};

/// One grammar's differential check: the observed entry point must
/// return byte-for-byte what the unobserved one returns, on valid
/// input and on two corruptions (a mid-document illegal byte and a
/// truncation), with both the no-op observer and a live profiler.
fn traced_equals_untraced<V: 'static>(def: &GrammarDef<V>) {
    let parser = def.flap_parser();
    let mut session = parser.session();
    let mut prof = ParseProfiler::new();

    let valid = (def.generate)(23, 4 * 1024);
    let mut corrupt = valid.clone();
    corrupt[valid.len() / 2] = 0x01; // byte no grammar's lexer accepts
    let truncated = &valid[..valid.len() * 2 / 3];

    for input in [valid.as_slice(), corrupt.as_slice(), truncated] {
        let plain = parser.parse_with(&mut session, input).map(def.finish);
        let noop = parser
            .parse_with_obs(&mut session, input, &mut NoopObserver)
            .map(def.finish);
        assert_eq!(
            plain, noop,
            "[{}] NoopObserver changed the result",
            def.name
        );
        prof.reset();
        let profiled = parser
            .parse_with_obs(&mut session, input, &mut prof)
            .map(def.finish);
        assert_eq!(
            plain, profiled,
            "[{}] profiling changed the result",
            def.name
        );
    }
}

#[test]
fn observed_parses_agree_with_unobserved_on_all_grammars() {
    traced_equals_untraced(&flap_grammars::json::def());
    traced_equals_untraced(&flap_grammars::sexp::def());
    traced_equals_untraced(&flap_grammars::arith::def());
    traced_equals_untraced(&flap_grammars::csv::def());
    traced_equals_untraced(&flap_grammars::pgn::def());
    traced_equals_untraced(&flap_grammars::ppm::def());
}

#[test]
fn profiler_accounts_for_every_input_byte() {
    // On a successful parse every byte is consumed exactly once,
    // either inside a committed token or in a skip run between
    // tokens — the profiler's phase split must add back up to the
    // document, and the one-shot and streaming paths must agree.
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let input = (def.generate)(42, 8 * 1024);

    let mut session = parser.session();
    let mut prof = ParseProfiler::new();
    parser
        .parse_with_obs(&mut session, &input, &mut prof)
        .expect("generated input parses");
    assert_eq!(
        prof.bytes_lexed + prof.bytes_skipped,
        input.len() as u64,
        "phase split must cover the whole document"
    );
    assert!(prof.tokens() > 0 && prof.reduction_count() > 0);
    assert!(!prof.hottest_rows(1).is_empty(), "rows were dispatched");
    let one_shot = (prof.bytes_lexed, prof.tokens(), prof.reduction_count());

    prof.reset();
    let mut stream = parser.stream(&mut session);
    for piece in input.chunks(512) {
        match stream.feed_obs(piece, &mut prof) {
            flap::Step::NeedMore => {}
            other => panic!("unexpected mid-stream step: {other:?}"),
        }
    }
    match stream.finish_obs(&mut prof) {
        flap::Step::Done(_) => {}
        other => panic!("unexpected final step: {other:?}"),
    }
    assert_eq!(
        (prof.bytes_lexed, prof.tokens(), prof.reduction_count()),
        one_shot,
        "streaming must observe the same work as the one-shot parse"
    );
    assert_eq!(prof.feeds, input.len().div_ceil(512) as u64);
    assert_eq!(prof.feed_bytes, input.len() as u64);
}

/// Per flat production: whether completing it runs a reduce action
/// (a non-identity program), i.e. must fire `Observer::reduce`.
fn reducing_productions<V: 'static>(def: &GrammarDef<V>) -> Vec<bool> {
    let mut lexer = (def.lexer)();
    let dgnf = flap::flap_dgnf::normalize(&(def.cfe)()).expect("normalizes");
    let fused = flap::flap_fuse::fuse(&mut lexer, &dgnf).expect("fuses");
    fused
        .nts()
        .flat_map(|nt| {
            fused.entry(nt).prods.iter().map(|p| {
                p.token
                    .as_ref()
                    .is_some_and(|tok| !tok.reduce.is_identity())
            })
        })
        .collect()
}

/// The observer contract: `reduce(p)` fires exactly once per completed
/// token production `p` with a non-identity reduce, under the flat
/// production index its `token` event used — on a valid document
/// every committed production completes.
fn reductions_match_committed_productions<V: 'static>(def: &GrammarDef<V>) {
    let parser = def.flap_parser();
    let reducing = reducing_productions(def);
    assert_eq!(reducing.len(), parser.compiled().prod_count());
    let input = (def.generate)(42, 8 * 1024);
    let check = |prof: &ParseProfiler, how: &str| {
        let mut expected = 0;
        for (p, &reduces) in reducing.iter().enumerate() {
            let committed = prof.tokens_by_class.get(p).copied().unwrap_or(0);
            let want = if reduces { committed } else { 0 };
            let got = prof.reductions.get(p).copied().unwrap_or(0);
            assert_eq!(
                got, want,
                "[{}] {how}: production {p} committed {committed} times",
                def.name
            );
            expected += want;
        }
        assert!(expected > 0, "[{}] the document reduces", def.name);
        assert_eq!(prof.reduction_count(), expected);
    };

    let mut session = parser.session();
    let mut prof = ParseProfiler::new();
    parser
        .parse_with_obs(&mut session, &input, &mut prof)
        .expect("generated input parses");
    check(&prof, "one-shot");

    prof.reset();
    let mut stream = parser.stream(&mut session);
    for piece in input.chunks(97) {
        assert!(
            matches!(stream.feed_obs(piece, &mut prof), flap::Step::NeedMore),
            "[{}] mid-stream step",
            def.name
        );
    }
    assert!(
        matches!(stream.finish_obs(&mut prof), flap::Step::Done(_)),
        "[{}] final step",
        def.name
    );
    check(&prof, "chunked");
}

#[test]
fn profiler_counts_one_reduction_per_completed_reducing_production() {
    reductions_match_committed_productions(&flap_grammars::json::def());
    reductions_match_committed_productions(&flap_grammars::sexp::def());
    reductions_match_committed_productions(&flap_grammars::arith::def());
    reductions_match_committed_productions(&flap_grammars::csv::def());
    reductions_match_committed_productions(&flap_grammars::pgn::def());
    reductions_match_committed_productions(&flap_grammars::ppm::def());
}

/// A word-counting pool whose semantic action sleeps on the lexeme
/// `slow`, pinning a worker so both lanes reliably receive work.
fn slow_pool(config: PoolConfig) -> flap_serve::ParsePool<i64> {
    let mut b = LexerBuilder::new();
    let word = b.token("word", "[a-z]+").unwrap();
    b.skip(" ").unwrap();
    let lexer = b.build().unwrap();
    let g: Cfe<i64> = Cfe::fix(|x| {
        Cfe::eps_with(|| 0).or(Cfe::tok_with(word, |lexeme| {
            if lexeme == b"slow" {
                std::thread::sleep(Duration::from_millis(120));
            }
            1
        })
        .then(x, |a, b| a + b))
    });
    Parser::compile(lexer, &g).unwrap().serve(config)
}

#[test]
fn pool_trace_exports_valid_chrome_json_with_spans_per_worker() {
    let recorder = Arc::new(TraceRecorder::new());
    let pool = slow_pool(
        PoolConfig::default()
            .workers(2)
            .label("traced")
            .trace(Arc::clone(&recorder)),
    );

    // Two sleeping jobs submitted back-to-back: the first pins one
    // worker for 120ms, so the other worker takes the second — both
    // lanes are guaranteed at least one parse span. Waiting only once
    // both are dequeued keeps a caller from running a job itself.
    let h1 = pool.submit(&b"slow one"[..]).unwrap();
    let h2 = pool.submit(&b"slow two"[..]).unwrap();
    while pool.metrics().snapshot().queue_depth > 0 {
        std::thread::yield_now();
    }
    assert_eq!(h1.wait(), Ok(2));
    assert_eq!(h2.wait(), Ok(2));
    pool.shutdown();
    assert!(!recorder.is_empty());

    let mut out = Vec::new();
    recorder.write_chrome_json(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let doc = Json::parse(&text).expect("trace output must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let mut metadata = 0usize;
    let mut queue_waits = 0usize;
    let mut parse_lanes: Vec<u64> = Vec::new(); // tid of each parse span
    for ev in events {
        match ev.get("ph").and_then(Json::as_str) {
            Some("M") => {
                metadata += 1;
                continue;
            }
            Some("X") => {}
            other => panic!("unexpected event phase {other:?}"),
        }
        let name = ev.get("name").and_then(Json::as_str).expect("span name");
        let tid = ev.get("tid").and_then(Json::as_num).expect("span tid") as u64;
        assert!(ev.get("ts").and_then(Json::as_num).is_some(), "span has ts");
        assert!(
            ev.get("dur").and_then(Json::as_num).is_some(),
            "span has dur"
        );
        assert!(
            ev.get("args").and_then(|a| a.get("bytes")).is_some(),
            "span records its payload size"
        );
        match name {
            "queue-wait" => queue_waits += 1,
            "parse" => parse_lanes.push(tid),
            other => panic!("unexpected span name {other:?}"),
        }
    }

    assert_eq!(parse_lanes.len(), 2, "one parse span per submitted job");
    assert_eq!(
        queue_waits,
        parse_lanes.len(),
        "every parse span is paired with its queue-wait"
    );
    for lane in 0..2u64 {
        assert!(
            parse_lanes.contains(&lane),
            "worker lane {lane} has no parse span"
        );
    }
    assert_eq!(metadata, 2, "one thread_name metadata event per lane");
}

/// A `Write` handle into shared memory, so the emitter thread's
/// output can be inspected after it stops.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn metrics_emitter_writes_parseable_snapshot_lines() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let pool = parser.serve(PoolConfig::default().workers(2).label("emit\"ter"));
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let emitter = MetricsEmitter::start(
        pool.metrics_arc(),
        Duration::from_secs(3600), // only the terminal snapshot fires
        buf.clone(),
    );

    let doc = (def.generate)(9, 2048);
    let expected = parser.parse(&doc).unwrap();
    for _ in 0..8 {
        assert_eq!(pool.submit(doc.as_slice()).unwrap().wait(), Ok(expected));
    }
    pool.shutdown();
    emitter.stop();

    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert!(!lines.is_empty(), "stop must flush a terminal snapshot");
    for line in &lines {
        let snap = Json::parse(line).expect("each metrics line is valid JSON");
        assert_eq!(
            snap.get("label").and_then(Json::as_str),
            Some("emit\"ter"),
            "label round-trips through escaping"
        );
        assert_eq!(snap.get("workers").and_then(Json::as_num), Some(2.0));
        let latency = snap.get("latency").expect("latency object");
        assert!(latency.get("p50_us").and_then(Json::as_num).is_some());
        assert_eq!(
            latency
                .get("buckets")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(32)
        );
    }
    let last = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("submitted").and_then(Json::as_num), Some(8.0));
    assert_eq!(last.get("completed").and_then(Json::as_num), Some(8.0));
    assert_eq!(
        last.get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Json::as_num),
        Some(8.0)
    );
}
