//! End-to-end tests for the `flap::serve` worker pool (re-exported by
//! `flap-serve`, which is the path exercised here): differential
//! agreement with one-shot parses, panic isolation and worker
//! replacement, admission-control backpressure, and graceful
//! shutdown.

// FusedParseError inlines its expected-token set (allocation-free
// error paths, a deliberate workspace-wide tradeoff).
#![allow(clippy::result_large_err)]

use std::sync::Arc;
use std::time::Duration;

use flap::{Cfe, LexerBuilder, Parser};
use flap_serve::{JobError, ParsePool, PoolConfig, SubmitError};

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
