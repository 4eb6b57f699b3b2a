//! End-to-end tests for the `flap::serve` worker pool (re-exported by
//! `flap-serve`, which is the path exercised here): differential
//! agreement with one-shot parses, panic isolation and session
//! replacement, admission-control backpressure, the bound of
//! `workers` parses at once whichever thread runs them, FIFO start
//! order, and graceful shutdown.

// FusedParseError inlines its expected-token set (allocation-free
// error paths, a deliberate workspace-wide tradeoff).
#![allow(clippy::result_large_err)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flap::obs::TraceRecorder;
use flap::{Cfe, LexerBuilder, Parser};
use flap_bench::json::Json;
use flap_serve::{JobError, ParsePool, PoolConfig, SubmitError};

/// A word grammar whose value is the sum of `action` over the words'
/// lexemes.
fn word_pool(
    action: impl Fn(&[u8]) -> i64 + Send + Sync + 'static,
    config: PoolConfig,
) -> (Parser<i64>, ParsePool<i64>) {
    let mut b = LexerBuilder::new();
    let word = b.token("word", "[a-z]+").unwrap();
    b.skip(" ").unwrap();
    let lexer = b.build().unwrap();
    let g: Cfe<i64> =
        Cfe::fix(|x| Cfe::eps_with(|| 0).or(Cfe::tok_with(word, action).then(x, |a, b| a + b)));
    let parser = Parser::compile(lexer, &g).unwrap();
    let pool = parser.serve(config);
    (parser, pool)
}

/// A word-counting pool whose semantic action has trapdoors: the
/// lexeme `boom` panics (panic-isolation tests) and the lexeme `slow`
/// sleeps (queue-occupancy tests); anything else counts 1.
fn trapdoor_pool(config: PoolConfig) -> (Parser<i64>, ParsePool<i64>) {
    word_pool(
        |lexeme| {
            match lexeme {
                b"boom" => panic!("trapdoor: boom"),
                b"slow" => std::thread::sleep(Duration::from_millis(150)),
                _ => {}
            }
            1
        },
        config,
    )
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
    // with one-shot parses (the poisoned session was replaced)
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

    // shutdown still joins cleanly after sessions were replaced
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
    // job 1 is a lone job, left for its caller's wait; the blocking
    // submit of job 2 finds the queue full, wakes the worker and
    // returns only once the worker has dequeued job 1
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

#[test]
fn shutdown_wakes_a_worker_left_waiting_for_a_session() {
    // Two workers, so two sessions: worker A holds one parsing `first`,
    // a caller holds the other parsing its own `second`, and the pool
    // is dropped with `last` queued. Worker B finds a job but no
    // session, and waits. A then parses `last` and exits, and the
    // caller returns its session to the drained queue. Unless someone
    // wakes B to see the queue drained, the drop blocks in its join.
    // Gates in the action hold `first` and `second` until released.
    const NOT_STARTED: usize = 0;
    const ON_CALLER: usize = 1;
    const ON_WORKER: usize = 2;
    let gates = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let second_ran = Arc::new(AtomicUsize::new(NOT_STARTED));
    let (_, pool) = word_pool(
        {
            let (gates, second_ran) = (Arc::clone(&gates), Arc::clone(&second_ran));
            move |lexeme| {
                let gate = match lexeme {
                    b"first" => &gates[0],
                    b"second" => {
                        let on_worker = std::thread::current()
                            .name()
                            .is_some_and(|n| n.starts_with("flap-serve:"));
                        let ran = if on_worker { ON_WORKER } else { ON_CALLER };
                        second_ran.store(ran, Ordering::SeqCst);
                        &gates[1]
                    }
                    _ => return 1,
                };
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                1
            }
        },
        PoolConfig::default().workers(2).queue_capacity(4),
    );
    let pool = Arc::new(pool);
    // A lone job waits for its caller, so `first` is queued with a
    // filler: the second queued job wakes both workers, and each
    // takes one.
    let first = pool.submit(&b"first"[..]).unwrap();
    let filler = pool.submit(&b"filler"[..]).unwrap();
    while pool.metrics().snapshot().queue_depth > 0 {
        std::thread::yield_now();
    }
    assert_eq!(filler.wait(), Ok(1));
    // The caller races worker B, which may not yet have returned the
    // filler's session, for the idle session; retry until the caller
    // wins.
    let mut caller = None;
    for _attempt in 0..100 {
        second_ran.store(NOT_STARTED, Ordering::SeqCst);
        gates[1].store(false, Ordering::SeqCst);
        let thread = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let second = pool.submit(&b"second"[..]).unwrap();
                drop(pool);
                second.wait()
            })
        };
        let ran = loop {
            match second_ran.load(Ordering::SeqCst) {
                NOT_STARTED => std::thread::yield_now(),
                ran => break ran,
            }
        };
        if ran == ON_CALLER {
            caller = Some(thread);
            break;
        }
        gates[1].store(true, Ordering::SeqCst);
        assert_eq!(thread.join().unwrap(), Ok(1));
    }
    let caller = caller.expect("no caller ran its own job in 100 attempts");
    let last = pool.submit(&b"last"[..]).unwrap();
    let dropper = std::thread::spawn(move || drop(pool));
    // Let the drop close the queue before A can take `last`. Were it
    // still open, no worker would wait for a session and the test
    // would pass without reaching the case.
    std::thread::sleep(Duration::from_millis(20));
    gates[0].store(true, Ordering::SeqCst);
    assert_eq!(first.wait(), Ok(1));
    assert_eq!(last.wait(), Ok(1));
    gates[1].store(true, Ordering::SeqCst);
    assert_eq!(caller.join().unwrap(), Ok(1));
    let start = std::time::Instant::now();
    while !dropper.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "dropping the pool did not return: a worker was never woken"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    dropper.join().unwrap();
}

#[test]
fn at_most_workers_parses_run_at_once_whoever_runs_them() {
    const WORKERS: usize = 2;
    const CLIENTS: usize = 4;
    // parses inside an action right now, and the most ever at once
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let recorder = Arc::new(TraceRecorder::new());
    let (parser, pool) = word_pool(
        {
            let (live, peak) = (Arc::clone(&live), Arc::clone(&peak));
            move |lexeme| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(300));
                live.fetch_sub(1, Ordering::SeqCst);
                lexeme.len() as i64
            }
        },
        PoolConfig::default()
            .workers(WORKERS)
            .queue_capacity(4)
            .trace(Arc::clone(&recorder)),
    );
    let words = ["a", "bb", "ccc", "dddd", "eeeee"];
    let docs: Vec<Vec<u8>> = (0..24)
        .map(|i| {
            let n = 1 + i % 4;
            (0..n)
                .map(|k| words[(i + k) % words.len()])
                .collect::<Vec<_>>()
                .join(" ")
                .into_bytes()
        })
        .collect();
    let expected: Vec<Result<i64, JobError>> = docs
        .iter()
        .map(|d| parser.parse(d).map_err(JobError::Parse))
        .collect();
    peak.store(0, Ordering::SeqCst);

    // immediate submit -> wait round trips from more clients than
    // there are workers: each caller may run its own job
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (pool, docs, expected) = (&pool, &docs, &expected);
            s.spawn(move || {
                for (i, doc) in docs.iter().enumerate().skip(c).step_by(CLIENTS) {
                    let got = pool.submit(doc.as_slice()).unwrap().wait();
                    assert_eq!(got, expected[i], "client {c}, doc {i}");
                }
            });
        }
    });
    // a pipelined burst larger than the queue, then a batch
    let handles: Vec<_> = docs
        .iter()
        .map(|d| pool.submit(d.as_slice()).unwrap())
        .collect();
    let got: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    assert_eq!(got, expected, "pipelined burst");
    assert_eq!(
        pool.parse_batch(docs.iter().map(Vec::as_slice)),
        expected,
        "batch"
    );

    let peak = peak.load(Ordering::SeqCst);
    assert!(
        (1..=WORKERS).contains(&peak),
        "{peak} parses ran at once with {WORKERS} workers"
    );
    let m = pool.metrics().snapshot();
    let submitted = 3 * docs.len() as u64;
    assert_eq!(m.submitted, submitted);
    assert_eq!(m.finished(), submitted);
    assert_eq!(m.completed, submitted);
    for (name, h) in [
        ("latency", &m.latency_us),
        ("queue wait", &m.queue_wait_us),
        ("service", &m.service_us),
    ] {
        assert_eq!(h.count(), submitted, "{name} samples");
    }
    pool.shutdown();

    // every lane — the workers' and the callers' — pairs each parse
    // span with its queue-wait span
    let mut out = Vec::new();
    recorder.write_chrome_json(&mut out).unwrap();
    let doc = Json::parse(&String::from_utf8(out).unwrap()).expect("valid trace JSON");
    let lanes = flap_bench::trace_lanes(&doc).expect("well-formed spans");
    for &(tid, waits, parses) in &lanes {
        assert!(tid <= WORKERS as u64, "lane {tid} past the caller lane");
        assert_eq!(waits, parses, "lane {tid}: queue-wait vs parse spans");
    }
    let parses: usize = lanes.iter().map(|l| l.2).sum();
    assert_eq!(parses as u64, submitted, "one parse span per job");
}

#[test]
fn waiting_callers_never_start_a_job_out_of_order() {
    // two sessions, one pinned by a slow job that a helper thread's
    // wait runs: the other session is idle when the caller waits on the
    // second of two queued jobs, which is not next in line, so the
    // caller must leave both to start in submission order
    let started = Arc::new(Mutex::new(Vec::new()));
    let (_, pool) = word_pool(
        {
            let started = Arc::clone(&started);
            move |lexeme| {
                if lexeme == b"slow" {
                    std::thread::sleep(Duration::from_millis(40));
                } else {
                    started.lock().unwrap().push(lexeme.to_vec());
                }
                lexeme.len() as i64
            }
        },
        PoolConfig::default().workers(2).queue_capacity(4),
    );
    for round in 0..4 {
        let slow = pool.submit(&b"slow"[..]).unwrap();
        std::thread::scope(|s| {
            let slow = s.spawn(move || slow.wait());
            while pool.metrics().snapshot().queue_depth > 0 {
                std::thread::yield_now();
            }
            let one = pool.submit(&b"one"[..]).unwrap();
            let three = pool.submit(&b"three"[..]).unwrap();
            assert_eq!(three.wait(), Ok(5));
            assert_eq!(
                std::mem::take(&mut *started.lock().unwrap()),
                [&b"one"[..], b"three"],
                "round {round}: jobs start in submission order"
            );
            assert_eq!(one.wait(), Ok(3));
            assert_eq!(slow.join().unwrap(), Ok(4));
        });
    }
}

#[test]
fn a_lone_job_waits_for_its_caller_and_runs_on_its_thread() {
    // A lone job wakes no worker, so no worker starts: it stays queued
    // until its caller waits, and the caller then runs it on its own
    // lane.
    let ran_on = Arc::new(Mutex::new(None));
    let recorder = Arc::new(TraceRecorder::new());
    let (_, pool) = word_pool(
        {
            let ran_on = Arc::clone(&ran_on);
            move |_| {
                *ran_on.lock().unwrap() = Some(std::thread::current().id());
                1
            }
        },
        PoolConfig::default()
            .workers(2)
            .trace(Arc::clone(&recorder)),
    );
    let handle = pool.submit(&b"lone"[..]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(pool.metrics().snapshot().queue_depth, 1, "a worker took it");
    assert_eq!(*ran_on.lock().unwrap(), None, "the job ran before its wait");
    assert_eq!(handle.wait(), Ok(1));
    assert_eq!(*ran_on.lock().unwrap(), Some(std::thread::current().id()));
    pool.shutdown();

    let mut out = Vec::new();
    recorder.write_chrome_json(&mut out).unwrap();
    let trace = String::from_utf8(out).unwrap();
    assert!(
        trace.contains(r#""tid":2,"args":{"name":"caller"}"#),
        "lane 2 is the caller lane: {trace}"
    );
}

#[test]
fn a_second_queued_job_wakes_a_worker_for_each_job() {
    // No worker has started when two jobs queue: the second push
    // wakes one worker per job, so they run at once on two workers,
    // with no wait. Woken once, one worker would run both in turn.
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let (_, pool) = word_pool(
        {
            let ran_on = Arc::clone(&ran_on);
            move |_| {
                ran_on.lock().unwrap().push(std::thread::current().id());
                std::thread::sleep(Duration::from_millis(50));
                1
            }
        },
        PoolConfig::default().workers(2),
    );
    let first = pool.submit(&b"first"[..]).unwrap();
    let second = pool.submit(&b"second"[..]).unwrap();
    let start = std::time::Instant::now();
    while pool.metrics().snapshot().queue_depth > 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "no worker started the jobs"
        );
        std::thread::yield_now();
    }
    assert_eq!(first.wait(), Ok(1));
    assert_eq!(second.wait(), Ok(1));
    let ran_on = ran_on.lock().unwrap();
    assert_eq!(ran_on.len(), 2);
    assert_ne!(ran_on[0], ran_on[1], "one worker ran both jobs");
    assert!(!ran_on.contains(&std::thread::current().id()));
}

#[test]
fn blocked_submitters_all_get_through_a_one_slot_queue() {
    // Three threads block-submit through one worker and a one-slot
    // queue, so up to three submitters block on it at once; each job
    // start must wake one of them, and every job must finish.
    const THREADS: usize = 3;
    const JOBS: usize = 50;
    let (_, pool) = word_pool(
        |lexeme| {
            std::thread::sleep(Duration::from_micros(100));
            lexeme.len() as i64
        },
        PoolConfig::default().workers(1).queue_capacity(1),
    );
    let pool = Arc::new(pool);
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let doc = vec![b'a'; t + 1];
                let handles: Vec<_> = (0..JOBS)
                    .map(|_| pool.submit(doc.as_slice()).unwrap())
                    .collect();
                handles.into_iter().all(|h| h.wait() == Ok(t as i64 + 1))
            })
        })
        .collect();
    let start = std::time::Instant::now();
    while !threads.iter().all(|t| t.is_finished()) {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "blocked submitters did not finish"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for t in threads {
        assert!(t.join().unwrap(), "every job returns its own value");
    }
    let m = pool.metrics().snapshot();
    let jobs = (THREADS * JOBS) as u64;
    assert_eq!((m.submitted, m.completed, m.rejected), (jobs, jobs, 0));
}

#[test]
fn busy_try_submit_starts_the_queued_lone_job() {
    // The lone job fills a one-slot queue and wakes no worker, so none
    // starts. A try_submit that finds the queue full wakes (starts) one
    // before it returns Busy, so the job starts though nobody waits on
    // it.
    let (_, pool) = word_pool(|_| 1, PoolConfig::default().workers(1).queue_capacity(1));
    let handle = pool.submit(&b"lone"[..]).unwrap();
    assert!(matches!(
        pool.try_submit(&b"more"[..]),
        Err(SubmitError::Busy(_))
    ));
    let start = std::time::Instant::now();
    while pool.metrics().snapshot().queue_depth > 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "no worker started the lone job"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.wait(), Ok(1));
    let m = pool.metrics().snapshot();
    assert_eq!((m.submitted, m.completed, m.rejected), (1, 1, 1));
}
