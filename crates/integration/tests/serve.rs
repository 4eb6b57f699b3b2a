//! End-to-end tests for the `flap::serve` worker pool (re-exported by
//! `flap-serve`, which is the path exercised here): differential
//! agreement with one-shot parses, panic isolation and worker
//! replacement, admission-control backpressure, pooled streaming, and
//! graceful shutdown.

// FusedParseError inlines its expected-token set (allocation-free
// error paths, a deliberate workspace-wide tradeoff).
#![allow(clippy::result_large_err)]

use std::sync::Arc;
use std::time::Duration;

use flap::{Cfe, LexerBuilder, Parser};
use flap_serve::{FeedStatus, JobError, ParsePool, PoolConfig, SubmitError};

/// A word-counting grammar whose semantic action has trapdoors: the
/// lexeme `boom` panics (panic-isolation tests) and the lexeme `slow`
/// sleeps (queue-occupancy tests); anything else counts 1.
fn trapdoor_pool(config: PoolConfig) -> (Parser<i64>, ParsePool<i64>) {
    let mut b = LexerBuilder::new();
    let word = b.token("word", "[a-z]+").unwrap();
    b.skip(" ").unwrap();
    let lexer = b.build().unwrap();
    let g: Cfe<i64> = Cfe::fix(|x| {
        Cfe::eps_with(|| 0).or(Cfe::tok_with(word, |lexeme| {
            match lexeme {
                b"boom" => panic!("trapdoor: boom"),
                b"slow" => std::thread::sleep(Duration::from_millis(150)),
                _ => {}
            }
            1
        })
        .then(x, |a, b| a + b))
    });
    let parser = Parser::compile(lexer, &g).unwrap();
    let pool = parser.serve(config);
    (parser, pool)
}

#[test]
fn pooled_results_agree_with_one_shot_differentially() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let pool = parser.serve(PoolConfig::default().workers(3).label("json"));

    // valid docs, plus mutated ones that must fail identically
    let docs: Vec<Vec<u8>> = (0..40u64)
        .map(|seed| {
            let mut d = (def.generate)(seed, 2048);
            if seed % 5 == 3 {
                let mid = d.len() / 2;
                d[mid] = 0x01; // byte no JSON token accepts
            }
            d
        })
        .collect();
    let expected: Vec<Result<i64, JobError>> = docs
        .iter()
        .map(|d| parser.parse(d).map_err(JobError::Parse))
        .collect();

    // submit everything before waiting anything: results must land in
    // the right handles regardless of worker interleaving
    let handles: Vec<_> = docs
        .iter()
        .map(|d| pool.submit(d.as_slice()).unwrap())
        .collect();
    let got: Vec<Result<i64, JobError>> = handles.into_iter().map(|h| h.wait()).collect();
    assert_eq!(got, expected, "pooled results must match one-shot parses");

    // parse_batch facade: same agreement, same order
    assert_eq!(pool.parse_batch(docs.iter().map(Vec::as_slice)), expected);

    let m = pool.metrics().snapshot();
    assert_eq!(m.submitted, 80);
    assert_eq!(m.finished(), 80);
    assert_eq!(m.panicked, 0);
    assert_eq!(
        m.parse_errors,
        2 * docs.iter().filter(|d| parser.parse(d).is_err()).count() as u64
    );
}

#[test]
fn panicking_action_fails_one_job_and_pool_survives() {
    let (parser, pool) = trapdoor_pool(PoolConfig::default().workers(2).label("trapdoor"));

    assert_eq!(pool.submit(&b"a b c"[..]).unwrap().wait(), Ok(3));

    // the panicking job fails alone, with the panic message surfaced
    match pool.submit(&b"a boom c"[..]).unwrap().wait() {
        Err(JobError::Panicked(msg)) => {
            assert!(msg.contains("boom"), "panic payload should surface: {msg}")
        }
        other => panic!("expected a panicked job, got {other:?}"),
    }

    // subsequent jobs on the same pool still succeed and still agree
    // with one-shot parses (the replacement worker has a fresh session)
    for doc in [&b"x y"[..], b"one two three four", b""] {
        assert_eq!(
            pool.submit(doc).unwrap().wait().map_err(|e| format!("{e}")),
            parser.parse(doc).map_err(|e| format!("{e}"))
        );
    }

    let m = pool.metrics().snapshot();
    assert_eq!(m.panicked, 1);
    assert_eq!(m.workers_replaced, 1, "one worker replaced, once");
    assert_eq!(m.completed, 4);

    // a batch isolates the panic too: the middle slot fails, and every
    // other slot equals its one-shot parse, in input order
    let batch: [&[u8]; 5] = [b"a b", b"x", b"boom", b"one two three", b""];
    let got = pool.parse_batch(batch);
    assert_eq!(got.len(), batch.len());
    for (i, (doc, r)) in batch.iter().zip(&got).enumerate() {
        if i == 2 {
            assert!(matches!(r, Err(JobError::Panicked(_))), "slot {i}: {r:?}");
        } else {
            assert_eq!(r, &parser.parse(doc).map_err(JobError::Parse), "slot {i}");
        }
    }
    let m = pool.metrics().snapshot();
    assert_eq!((m.panicked, m.workers_replaced, m.completed), (2, 2, 8));

    // shutdown still joins cleanly with replaced workers in the pool
    pool.shutdown();
}

#[test]
fn repeated_panics_keep_replacing_workers() {
    let (_, pool) = trapdoor_pool(PoolConfig::default().workers(1));
    for round in 1..=3u64 {
        match pool.submit(&b"boom"[..]).unwrap().wait() {
            Err(JobError::Panicked(_)) => {}
            other => panic!("round {round}: expected panic, got {other:?}"),
        }
        assert_eq!(pool.submit(&b"ok fine"[..]).unwrap().wait(), Ok(2));
        assert_eq!(pool.metrics().snapshot().workers_replaced, round);
    }
}

#[test]
fn try_submit_rejects_when_queue_is_full() {
    // one worker, a one-slot queue, and jobs that sleep in their
    // semantic action: the worker occupies itself with the first job,
    // the second fills the queue, and the third must be rejected.
    let (_, pool) = trapdoor_pool(PoolConfig::default().workers(1).queue_capacity(1));

    let h1 = pool.submit(&b"slow a"[..]).unwrap();
    // wait until the worker has actually dequeued job 1 so the queue
    // slot is genuinely free for job 2
    while pool.metrics().snapshot().queue_depth > 0 {
        std::thread::yield_now();
    }
    let h2 = pool.submit(&b"slow b"[..]).unwrap();

    let rejected = match pool.try_submit(&b"c d e"[..]) {
        Err(SubmitError::Busy(input)) => {
            assert_eq!(input.as_bytes(), b"c d e", "input handed back on Busy");
            true
        }
        Ok(h) => {
            // only possible if the worker raced through both sleeps
            // (150ms each) between the two submits — treat as failure,
            // the timing budget is enormous
            drop(h);
            false
        }
        Err(other) => panic!("expected Busy, got {other:?}"),
    };
    assert!(rejected, "bounded queue must reject the overflow job");

    assert_eq!(h1.wait(), Ok(2));
    assert_eq!(h2.wait(), Ok(2));

    let m = pool.metrics().snapshot();
    assert_eq!(m.rejected, 1, "rejection must be counted");
    assert_eq!(m.submitted, 2, "rejected job never entered the queue");
    assert_eq!(m.queue_high_water, 1);

    // after the drain, try_submit accepts again
    assert_eq!(pool.try_submit(&b"f g"[..]).unwrap().wait(), Ok(2));
}

#[test]
fn blocking_submit_waits_out_backpressure_instead() {
    let (_, pool) = trapdoor_pool(PoolConfig::default().workers(1).queue_capacity(1));
    // 4 sleeping jobs through a 1-slot queue: every submit after the
    // second must block until the worker frees a slot, and none may
    // be rejected
    let handles: Vec<_> = (0..4).map(|_| pool.submit(&b"slow"[..]).unwrap()).collect();
    for h in handles {
        assert_eq!(h.wait(), Ok(1));
    }
    let m = pool.metrics().snapshot();
    assert_eq!((m.submitted, m.completed, m.rejected), (4, 4, 0));
}

#[test]
fn pooled_streaming_matches_one_shot_across_chunk_sizes() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let pool = parser.serve(PoolConfig::default().workers(2).label("sexp"));
    let input = (def.generate)(7, 8 * 1024);
    let expected = parser.parse(&input).unwrap();

    for chunk in [1usize, 7, 512, 64 * 1024] {
        let mut stream = pool.open_stream();
        for piece in input.chunks(chunk) {
            match stream.feed(piece).unwrap().wait() {
                Ok(FeedStatus::NeedMore) => {}
                other => panic!("chunk={chunk}: unexpected mid-stream {other:?}"),
            }
        }
        match stream.finish().unwrap().wait() {
            Ok(FeedStatus::Done(v)) => assert_eq!(v, expected, "chunk={chunk}"),
            other => panic!("chunk={chunk}: unexpected final {other:?}"),
        }
    }
}

#[test]
fn stream_error_terminates_the_stream_with_one_shot_error() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let pool = parser.serve(PoolConfig::default().workers(1));
    let bad = b"(a b ! c)";
    let expected_err = parser.parse(bad).unwrap_err();

    let mut stream = pool.open_stream();
    let mut seen_err = None;
    for piece in bad.chunks(2) {
        match stream.feed(piece).unwrap().wait() {
            Ok(FeedStatus::NeedMore) => {}
            Err(JobError::Parse(e)) => {
                seen_err = Some(e);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let e = match seen_err {
        Some(e) => e,
        // error may only be detectable at finish for some splits
        None => match stream.finish().unwrap().wait() {
            Err(JobError::Parse(e)) => e,
            other => panic!("expected a parse error, got {other:?}"),
        },
    };
    assert_eq!(e, expected_err, "streamed error must equal one-shot");
    assert!(stream.is_finished());
    match stream.feed(&b"(x)"[..]) {
        Err(SubmitError::StreamFinished(_)) => {}
        other => panic!("finished stream must refuse feeds, got {other:?}"),
    }
}

#[test]
fn stream_panic_breaks_the_stream_but_not_the_pool() {
    let (_, pool) = trapdoor_pool(PoolConfig::default().workers(1));
    let mut stream = pool.open_stream();
    assert_eq!(
        stream.feed(&b"fine words "[..]).unwrap().wait(),
        Ok(FeedStatus::NeedMore)
    );
    match stream.feed(&b"boom "[..]).unwrap().wait() {
        Err(JobError::Panicked(_)) => {}
        other => panic!("expected panic error, got {other:?}"),
    }
    assert!(stream.is_finished(), "panic must finish the stream");
    match stream.finish() {
        Err(SubmitError::StreamFinished(_)) => {}
        other => panic!("broken stream must refuse finish, got {other:?}"),
    }
    // a stream panic poisons only the stream's parked session — the
    // worker itself survives (no replacement) and serves new work
    assert_eq!(pool.submit(&b"still alive"[..]).unwrap().wait(), Ok(2));
    let m = pool.metrics().snapshot();
    assert_eq!(m.workers_replaced, 0);
    assert_eq!(m.panicked, 1);
}

#[test]
fn feed_ordering_is_enforced() {
    let (_, pool) = trapdoor_pool(PoolConfig::default().workers(1));
    let mut stream = pool.open_stream();
    // the worker is asleep in the first chunk's action, so the second
    // feed is reliably attempted while the first is in flight
    let first = stream.feed(&b"slow "[..]).unwrap();
    match stream.feed(&b"next "[..]) {
        Err(SubmitError::FeedInFlight(input)) => assert_eq!(input.as_bytes(), b"next "),
        other => panic!("expected FeedInFlight, got {other:?}"),
    }
    assert_eq!(first.wait(), Ok(FeedStatus::NeedMore));
    // once settled, feeding resumes
    assert_eq!(
        stream.feed(&b"next "[..]).unwrap().wait(),
        Ok(FeedStatus::NeedMore)
    );
    assert_eq!(
        stream.finish().unwrap().wait().map(FeedStatus::into_value),
        Ok(Some(2))
    );
}

#[test]
fn dropping_the_pool_drains_in_flight_jobs() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(3, 4096);
    let expected = parser.parse(&doc).unwrap();
    let shared: Arc<[u8]> = Arc::from(doc.as_slice());

    let handles: Vec<_> = {
        let pool = parser.serve(PoolConfig::default().workers(2).queue_capacity(64));
        (0..48)
            .map(|_| pool.submit(shared.clone()).unwrap())
            .collect()
        // pool dropped here: close, drain, join
    };
    for h in handles {
        assert_eq!(h.wait(), Ok(expected), "accepted jobs outlive the pool");
    }
}

#[test]
fn wait_timeout_times_out_then_delivers() {
    let (_, pool) = trapdoor_pool(PoolConfig::default().workers(1));
    let mut h = pool.submit(&b"slow done"[..]).unwrap();
    // far shorter than the 150ms action sleep: must time out
    assert_eq!(h.wait_timeout(Duration::from_millis(5)), None);
    assert!(!h.is_done());
    assert_eq!(h.wait_timeout(Duration::from_secs(30)), Some(Ok(2)));
    // the result was taken: further waits observe nothing
    assert_eq!(h.wait_timeout(Duration::from_millis(1)), None);
}

#[test]
fn wait_after_take_reports_result_taken_instead_of_panicking() {
    let (parser, pool) = trapdoor_pool(PoolConfig::default().workers(1));
    let expected = parser.parse(b"ok done").unwrap();

    let mut h = pool.submit(&b"ok done"[..]).unwrap();
    // Poll until the result lands, consuming it.
    loop {
        match h.try_wait() {
            Some(r) => {
                assert_eq!(r, Ok(expected));
                break;
            }
            None => std::thread::yield_now(),
        }
    }
    // PR 4 regression: this used to panic ("job result already taken").
    assert_eq!(h.wait(), Err(JobError::ResultTaken));

    // Same protocol slip via wait_timeout.
    let mut h = pool.submit(&b"ok done"[..]).unwrap();
    assert_eq!(h.wait_timeout(Duration::from_secs(30)), Some(Ok(expected)));
    assert_eq!(h.wait(), Err(JobError::ResultTaken));
}
