//! Thread-safety tests: one compiled parser shared across threads
//! must behave exactly like the single-threaded unstaged interpreter.
//!
//! The staged side shares a single `flap::Parser` (hence a single
//! `CompiledParser` behind its `Arc`) across 4+ threads, each with its
//! own `ParseSession`. The unstaged oracle side runs `parse_fused`
//! per thread with thread-local lexer/arena state, because the Fig 9
//! interpreter memoizes derivatives into the arena at parse time and
//! is therefore inherently single-threaded — exactly the asymmetry the
//! Arc refactor exists to remove for the staged engine.

// Errors inline their expected-token set (allocation-free); the
// larger Err variant is deliberate.
#![allow(clippy::result_large_err)]

mod common;

use common::workload;
use flap::serve::{JobError, PoolConfig};
use flap_grammars::GrammarDef;

const THREADS: usize = 6;
/// Per-thread start-offset stagger (arbitrary; just ensures threads
/// hit different inputs at the same wall-clock moment).
const THREAD_STRIDE: usize = 3;

/// Runs the differential for one grammar: staged results from many
/// threads sharing one parser vs the unstaged fused interpreter.
fn check_grammar(def: GrammarDef<i64>, seeds: u64) {
    let inputs = workload(&def, seeds);

    // Unstaged oracle, computed up front on this thread.
    let mut lexer = (def.lexer)();
    let grammar = flap::flap_dgnf::normalize(&(def.cfe)()).expect("normalizes");
    let fused = flap::flap_fuse::fuse(&mut lexer, &grammar).expect("fuses");
    let expected: Vec<Result<i64, flap::ParseError>> = inputs
        .iter()
        .map(|i| flap::flap_fuse::parse_fused(&fused, lexer.arena_mut(), i))
        .collect();

    // Staged side: ONE parser, shared by reference across threads.
    let parser = def.flap_parser();
    let parser = &parser;
    let inputs = &inputs;
    let results: Vec<Vec<Result<i64, flap::ParseError>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut session = parser.session();
                    // Each thread walks the whole workload from its own
                    // offset so threads hit different inputs at the
                    // same wall-clock moment.
                    (0..inputs.len())
                        .map(|k| {
                            let i = (k + t * THREAD_STRIDE) % inputs.len();
                            parser.parse_with(&mut session, &inputs[i])
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    for (t, thread_results) in results.iter().enumerate() {
        for (k, got) in thread_results.iter().enumerate() {
            let i = (k + t * THREAD_STRIDE) % inputs.len();
            assert_eq!(
                got, &expected[i],
                "{}: thread {t} disagrees with unstaged oracle on input {i}",
                def.name
            );
        }
    }
}

#[test]
fn shared_parser_agrees_with_unstaged_sexp() {
    check_grammar(flap_grammars::sexp::def(), 6);
}

#[test]
fn shared_parser_agrees_with_unstaged_json() {
    check_grammar(flap_grammars::json::def(), 6);
}

#[test]
fn parse_batch_agrees_with_unstaged_on_mixed_validity() {
    let def = flap_grammars::json::def();
    let inputs = workload(&def, 5);
    let parser = def.flap_parser();

    let mut lexer = (def.lexer)();
    let grammar = flap::flap_dgnf::normalize(&(def.cfe)()).expect("normalizes");
    let fused = flap::flap_fuse::fuse(&mut lexer, &grammar).expect("fuses");
    let expected: Vec<Result<i64, JobError>> = inputs
        .iter()
        .map(|i| {
            flap::flap_fuse::parse_fused(&fused, lexer.arena_mut(), i).map_err(JobError::Parse)
        })
        .collect();

    for workers in [1, 4, 8] {
        let pool = parser.serve(PoolConfig::default().workers(workers));
        assert_eq!(
            pool.parse_batch(inputs.iter().map(Vec::as_slice)),
            expected,
            "workers={workers}"
        );
        assert!(pool.parse_batch(Vec::<Vec<u8>>::new()).is_empty());
    }
}

#[test]
fn compiled_parser_outlives_parser_via_arc() {
    // Workers can hold just the Arc'd tables; dropping the Parser
    // (lexer + intermediate grammars) must not invalidate them.
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let compiled = parser.compiled_arc();
    let doc = (def.generate)(3, 500);
    let expected = parser.parse(&doc);
    drop(parser);
    let compiled = &compiled;
    let doc = &doc;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let expected = expected.clone();
            scope.spawn(move || {
                let mut session = flap::ParseSession::new();
                for _ in 0..10 {
                    assert_eq!(compiled.parse_with(&mut session, doc), expected);
                }
            });
        }
    });
}
