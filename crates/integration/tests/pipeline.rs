//! Cross-crate pipeline tests: every stage agrees with every other
//! stage on all six benchmark grammars, and the whole pipeline is
//! linear-time.

mod common;

use std::time::Instant;

use common::workload;
use flap_grammars::GrammarDef;

fn stage_agreement<V: 'static>(def: &GrammarDef<V>) {
    // staged-fused VM vs unstaged-fused interpreter: identical values
    // and identical errors (position, line/column, expected set).
    // Both vs lex-then-parse (the token-level Fig 8 machine) and the
    // reference oracle: identical accept/reject and values.
    let parser = def.flap_parser();
    let mut lexer = (def.lexer)();
    let grammar = flap_dgnf::normalize(&(def.cfe)()).expect("normalizes");
    grammar.check_dgnf().expect("is DGNF");
    let fused = flap_fuse::fuse(&mut lexer, &grammar).expect("fuses");
    let mut lexer2 = (def.lexer)();
    let clex = flap_lex::CompiledLexer::build(&mut lexer2);
    let machine = flap_dgnf::DgnfParser::new(&grammar);

    for input in &workload(def, 12) {
        let staged = parser.parse(input).map(def.finish);
        let unstaged = flap_fuse::parse_fused(&fused, lexer.arena_mut(), input).map(def.finish);
        assert_eq!(staged, unstaged, "[{}] staged vs unstaged", def.name);
        let staged = staged.ok();
        let tokens = machine
            .parse(input, clex.lexemes(input))
            .ok()
            .map(def.finish);
        assert_eq!(staged, tokens, "[{}] staged vs token-level", def.name);
        let oracle = (def.reference)(input).ok();
        assert_eq!(staged, oracle, "[{}] staged vs oracle", def.name);
    }
}

#[test]
fn all_grammars_all_stages_agree() {
    stage_agreement(&flap_grammars::sexp::def());
    stage_agreement(&flap_grammars::json::def());
    stage_agreement(&flap_grammars::csv::def());
    stage_agreement(&flap_grammars::pgn::def());
    stage_agreement(&flap_grammars::ppm::def());
    stage_agreement(&flap_grammars::arith::def());
}

#[test]
fn fig12_linearity_smoke() {
    // Fig 12: doubling the input roughly doubles the time. Generous
    // tolerance (CI machines are noisy); superlinear behaviour would
    // blow well past it.
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let small = (def.generate)(3, 400_000);
    let large = (def.generate)(3, 1_600_000);
    let time = |input: &[u8]| {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            parser.parse(input).expect("parses");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let (ts, tl) = (time(&small), time(&large));
    let per_byte_ratio = (tl / large.len() as f64) / (ts / small.len() as f64);
    assert!(
        per_byte_ratio < 3.0,
        "per-byte time grew {per_byte_ratio:.2}x from 0.4MB to 1.6MB — not linear"
    );
}

#[test]
fn compile_times_are_interactive() {
    // Table 2's practicality claim: each grammar compiles fast.
    for name in ["sexp", "json", "csv", "pgn", "ppm", "arith"] {
        let t0 = Instant::now();
        match name {
            "sexp" => drop(flap_grammars::sexp::def().flap_parser()),
            "json" => drop(flap_grammars::json::def().flap_parser()),
            "csv" => drop(flap_grammars::csv::def().flap_parser()),
            "pgn" => drop(flap_grammars::pgn::def().flap_parser()),
            "ppm" => drop(flap_grammars::ppm::def().flap_parser()),
            _ => drop(flap_grammars::arith::def().flap_parser()),
        }
        let dt = t0.elapsed();
        assert!(dt.as_secs() < 10, "{name} took {dt:?} to compile");
    }
}

#[test]
fn typed_facade_roundtrips_through_the_pipeline() {
    use flap::typed::{fix, star, tok, TypedCfe};
    let mut b = flap::LexerBuilder::new();
    let num = b.token("num", "[0-9]+").unwrap();
    b.skip(" ").unwrap();
    let semi = b.token("semi", ";").unwrap();
    let lexer = b.build().unwrap();
    // statements: (num ;)+ — sum the numbers, typed
    let stmt: TypedCfe<u64> = tok(num, |lx| {
        std::str::from_utf8(lx).unwrap().parse::<u64>().unwrap()
    })
    .then(tok(semi, |_| ()))
    .map(|(n, ())| n);
    let prog: TypedCfe<u64> = fix(|rest: TypedCfe<u64>| {
        stmt.clone()
            .then(star(stmt.clone()).map(|v: Vec<u64>| v.iter().sum::<u64>()))
            .map(|(a, b)| a + b)
            .or(rest.then(flap::typed::bot()).map(|(a, _): (u64, u64)| a))
    });
    // the `or bot` arm is degenerate; simpler: just one-or-more via star
    let _ = prog;
    let simple = stmt
        .clone()
        .then(star(stmt))
        .map(|(h, t)| h + t.iter().sum::<u64>());
    let p = simple.compile(lexer).unwrap();
    assert_eq!(p.parse(b"1; 2; 39;").unwrap(), 42);
    assert!(p.parse(b"1; 2").is_err());
}
