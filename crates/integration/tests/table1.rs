//! Pins the Table 1 pipeline sizes measured by this reproduction, so
//! that refactors of the normalizer/fuser/stager cannot silently
//! change the grammar shapes. The paper's figures are not pinned: our
//! grammars are Rust transcriptions, so their shapes differ in places.
//! The `table1` binary prints both side by side.

use flap::Parser;
use flap_grammars::GrammarDef;
use flap_staged::SizeReport;

fn sizes<V: 'static>(def: GrammarDef<V>) -> SizeReport {
    Parser::compile((def.lexer)(), &(def.cfe)())
        .expect("compiles")
        .sizes()
}

#[track_caller]
fn check(s: SizeReport, expect: [usize; 6]) {
    assert_eq!(
        [
            s.lex_rules,
            s.cfes,
            s.nts,
            s.prods,
            s.fused_prods,
            s.functions
        ],
        expect,
        "pipeline sizes changed (lex rules, CFEs, NTs, prods, fused, functions)"
    );
}

#[test]
fn sexp_sizes_are_stable() {
    // matches the paper exactly except the CFE count convention
    check(sizes(flap_grammars::sexp::def()), [4, 13, 3, 6, 9, 11]);
}

#[test]
fn json_sizes_are_stable() {
    check(sizes(flap_grammars::json::def()), [12, 52, 10, 26, 36, 84]);
}

#[test]
fn csv_sizes_are_stable() {
    check(sizes(flap_grammars::csv::def()), [4, 21, 4, 15, 15, 28]);
}

#[test]
fn pgn_sizes_are_stable() {
    check(sizes(flap_grammars::pgn::def()), [11, 36, 7, 35, 42, 116]);
}

#[test]
fn ppm_sizes_are_stable() {
    check(sizes(flap_grammars::ppm::def()), [3, 14, 5, 6, 11, 21]);
}

#[test]
fn arith_sizes_are_stable() {
    check(
        sizes(flap_grammars::arith::def()),
        [17, 181, 28, 61, 89, 207],
    );
}

#[test]
fn normalization_is_not_cubic() {
    // Blum–Koch GNF conversion is O(|G|³); the paper's point is that
    // typed-CFE normalization stays essentially linear. Enforce a
    // generous production-to-CFE bound on all six grammars.
    for (name, prods, cfes) in [
        ("sexp", 6, 13),
        ("json", 26, 52),
        ("csv", 15, 21),
        ("pgn", 35, 36),
        ("ppm", 6, 14),
        ("arith", 61, 181),
    ] {
        assert!(
            prods <= 2 * cfes,
            "{name}: {prods} productions from {cfes} CFE nodes suggests a blow-up"
        );
    }
}
