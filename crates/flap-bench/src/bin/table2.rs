//! Regenerates Table 2 of the paper: grammar compilation time
//! (type-checking, normalization, fusion, code generation).
//!
//! Usage: `cargo run -p flap-bench --release --bin table2`
//!
//! The paper reports 0.33 ms – 460 ms per grammar on an i9-12900K;
//! the claim being reproduced is that every grammar compiles well
//! under the one-second interactivity threshold (§6 cites Nielsen's
//! ten-second rule).

use flap::Parser;
use flap_bench::timing::time;

const RUNS: usize = 9;

fn row<V: 'static>(def: flap_grammars::GrammarDef<V>, paper_ms: f64) {
    // median of several complete pipeline runs; the lexer each one
    // consumes is built outside the timed span
    let cfe = (def.cfe)();
    let mut lexers: Vec<_> = (0..=RUNS).map(|_| (def.lexer)()).collect();
    let total = time(RUNS, || {
        Parser::compile(lexers.pop().expect("one lexer per run"), &cfe).expect("compiles")
    });
    let t = Parser::compile((def.lexer)(), &cfe)
        .expect("compiles")
        .times();
    println!(
        "{:<8}{:>12.3}{:>12.3}   (check {:.3} + normalize {:.3} + fuse {:.3} + stage {:.3}; \
         spread {:.0}%)",
        def.name,
        total.median * 1e3,
        paper_ms,
        t.type_check.as_secs_f64() * 1e3,
        t.normalize.as_secs_f64() * 1e3,
        t.fuse.as_secs_f64() * 1e3,
        t.stage.as_secs_f64() * 1e3,
        100.0 * total.spread(),
    );
}

fn main() {
    println!("Table 2: compilation time (ms)");
    println!("{:<8}{:>12}{:>12}", "grammar", "ours", "paper");
    row(flap_grammars::pgn::def(), 212.0);
    row(flap_grammars::ppm::def(), 3.60);
    row(flap_grammars::sexp::def(), 0.331);
    row(flap_grammars::csv::def(), 0.499);
    row(flap_grammars::json::def(), 28.5);
    row(flap_grammars::arith::def(), 460.0);
}
