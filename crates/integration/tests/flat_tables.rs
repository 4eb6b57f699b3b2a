//! Differential tests for the flattened, alphabet-compressed
//! automaton tables: on every benchmark grammar, the staged VM —
//! one-shot and chunked-stream — and the unstaged fused interpreter
//! must agree with the grammar's independent reference parser, and
//! the compressed tables must actually be smaller than the dense
//! 256-way representation they replaced.

// Errors inline their expected-token set (allocation-free); the
// larger Err variant is deliberate.
#![allow(clippy::result_large_err)]

use flap::SliceChunks;
use flap_grammars::GrammarDef;

/// One-shot and chunked-stream parses through the flat tables, plus
/// the unstaged interpreter, all against the reference oracle —
/// across several input sizes and chunk sizes (chunk 1 forces a
/// suspension at every byte boundary).
fn check_against_oracle<V: 'static>(def: GrammarDef<V>) {
    let parser = def.flap_parser();
    let mut session = parser.session();

    let mut lexer = (def.lexer)();
    let grammar = flap::flap_dgnf::normalize(&(def.cfe)()).expect("normalizes");
    let fused = flap::flap_fuse::fuse(&mut lexer, &grammar).expect("fuses");

    for (seed, target) in [(1u64, 200), (7, 2_000), (42, 9_000)] {
        let input = (def.generate)(seed, target);
        let expected = (def.reference)(&input).expect("generated input is valid");

        let one_shot = parser
            .parse_with(&mut session, &input)
            .unwrap_or_else(|e| panic!("{}: one-shot parse failed: {e}", def.name));
        assert_eq!(
            (def.finish)(one_shot),
            expected,
            "{}: one-shot disagrees with oracle (seed {seed})",
            def.name
        );

        let unstaged = flap::flap_fuse::parse_fused(&fused, lexer.arena_mut(), &input)
            .unwrap_or_else(|e| panic!("{}: unstaged parse failed: {e}", def.name));
        assert_eq!(
            (def.finish)(unstaged),
            expected,
            "{}: unstaged interpreter disagrees with oracle (seed {seed})",
            def.name
        );

        for chunk in [1usize, 7, 64, 4096] {
            let streamed = parser
                .parse_source_with(&mut session, &mut SliceChunks::new(&input, chunk))
                .unwrap_or_else(|e| {
                    panic!("{}: chunked parse (chunk {chunk}) failed: {e}", def.name)
                });
            assert_eq!(
                (def.finish)(streamed),
                expected,
                "{}: chunk size {chunk} disagrees with one-shot (seed {seed})",
                def.name
            );
        }
    }
}

#[test]
fn all_grammars_agree_with_oracle_one_shot_and_chunked() {
    check_against_oracle(flap_grammars::json::def());
    check_against_oracle(flap_grammars::sexp::def());
    check_against_oracle(flap_grammars::arith::def());
    check_against_oracle(flap_grammars::pgn::def());
    check_against_oracle(flap_grammars::ppm::def());
    check_against_oracle(flap_grammars::csv::def());
}

/// Alphabet compression pays: the flat tables the VM executes must be
/// smaller than dense per-state 256-way `u32` tables over the same
/// states.
fn check_footprint<V: 'static>(def: GrammarDef<V>) {
    let parser = def.flap_parser();
    let fp = parser.compiled().table_footprint();
    assert!(fp.states > 0, "{}: no states? {fp:?}", def.name);
    assert!(
        fp.classes >= 1 && fp.classes <= 256,
        "{}: implausible class count: {fp:?}",
        def.name
    );
    assert!(
        fp.table_bytes < fp.dense_bytes,
        "{}: compression does not pay: {fp:?}",
        def.name
    );
}

#[test]
fn compressed_tables_beat_dense_on_every_grammar() {
    check_footprint(flap_grammars::json::def());
    check_footprint(flap_grammars::sexp::def());
    check_footprint(flap_grammars::arith::def());
    check_footprint(flap_grammars::pgn::def());
    check_footprint(flap_grammars::ppm::def());
    check_footprint(flap_grammars::csv::def());
}
