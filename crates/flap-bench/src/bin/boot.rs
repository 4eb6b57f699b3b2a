//! Boot latency: cold compilation vs artifact load, for every
//! benchmark grammar — the headline number of the compiled-artifact
//! subsystem.
//!
//! Usage: `cargo run -p flap-bench --release --bin boot --
//! [--json] [--smoke [snapshot]]` (`--json` and `--smoke` as in
//! `flap_bench::cli`, against `BENCH_boot.json`). `--smoke` also
//! asserts the acceptance floor: loading the largest grammar's
//! artifact as a recognizer must be at least 10× faster than
//! cold-compiling it.
//!
//! Four timings per grammar, each a median from `flap_bench::timing`
//! (drops excluded):
//!
//! * **compile** — the full cold path a process pays on first boot:
//!   build the lexer and combinator grammar, then
//!   type-check → normalize → fuse → stage.
//! * **build** — the caller's part of an artifact boot: building the
//!   lexer and combinator grammar that [`Parser::from_artifact`]
//!   takes.
//! * **from_artifact** — [`Parser::from_artifact`] proper: encode
//!   the lexer and grammar, compare with the stored encoding, collect
//!   the actions by provenance and attach the tables zero-copy.
//! * **load** — [`load_recognizer`] over an already-aligned buffer:
//!   validate the container and attach the tables zero-copy, with no
//!   semantic actions.
//!
//! A server restart that runs actions pays build + from_artifact: the
//! headline. A recognizer-only boot pays load.
//!
//! Every loaded parser is checked against the grammar's reference
//! parser on a generated document, so the bench doubles as an
//! end-to-end artifact round-trip test.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

use flap::artifact::{load_recognizer, AlignedBuf};
use flap::Parser;
use flap_bench::cli::Cli;
use flap_bench::json::{obj, Json};
use flap_bench::timing::{time, worst_spread_pct, Timing};
use flap_grammars::GrammarDef;

/// The smoke-mode acceptance floor: a recognizer load must beat cold
/// compile by at least this factor on the largest grammar.
const MIN_LOAD_SPEEDUP: f64 = 10.0;

/// Timed calls per figure, in every mode: the smoke's floor check
/// compares two medians of micro-timings, which a few calls leave
/// noisy.
const ITERS: usize = 15;

struct BootRow {
    name: &'static str,
    artifact_bytes: usize,
    compile: Timing,
    grammar_build: Timing,
    from_artifact: Timing,
    load: Timing,
}

impl BootRow {
    /// `compile / (build + from_artifact)`: how much of a boot that
    /// runs actions the artifact removes.
    fn boot_speedup(&self) -> f64 {
        self.compile.median / (self.grammar_build.median + self.from_artifact.median)
    }

    /// `compile / load`: the same for a recognizer-only boot.
    fn load_speedup(&self) -> f64 {
        self.compile.median / self.load.median
    }
}

fn bench_one<V: 'static>(def: GrammarDef<V>) -> BootRow {
    // Cold compile: everything a fresh process does before its first
    // parse, including building the lexer and grammar definitions.
    let compile = time(ITERS, || {
        Parser::compile((def.lexer)(), &(def.cfe)()).expect("compiles")
    });

    let parser = def.flap_parser();
    let bytes = parser.to_artifact();
    let doc = flap_bench::generator(&def)(42, 16 * 1024);
    let expected = (def.reference)(&doc).expect("generated input is valid");

    // Recognizer load: container validation + zero-copy table attach
    // from an already-aligned buffer — the advertised load contract
    // (a server keeps the file mapped or in an aligned arena; the
    // tables are borrowed from it, never copied).
    let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
    let load = time(ITERS, || {
        let r = load_recognizer(black_box(&buf)).expect("artifact loads");
        assert!(r.tables_shared(), "load must borrow, not copy, tables");
        r
    });

    // Full parser from artifact, split into the caller's grammar
    // construction and the load proper.
    let grammar_build = time(ITERS, || ((def.lexer)(), (def.cfe)()));
    let cfe = (def.cfe)();
    // one lexer per call, warm-up included
    let mut lexers: Vec<_> = (0..=ITERS).map(|_| (def.lexer)()).collect();
    let from_artifact = time(ITERS, || {
        let lexer = lexers.pop().expect("one lexer per iteration");
        Parser::from_artifact(black_box(&bytes), lexer, &cfe).expect("loads")
    });

    // Round-trip correctness: the loaded parser and recognizer agree
    // with the reference on a generated document.
    let loaded = Parser::from_artifact(&bytes, (def.lexer)(), &cfe).expect("loads");
    assert_eq!(
        (def.finish)(loaded.parse(&doc).expect("parses")),
        expected,
        "{}: loaded parser disagrees with oracle",
        def.name
    );
    load_recognizer(&buf)
        .expect("artifact loads")
        .recognize(&doc)
        .unwrap_or_else(|e| panic!("{}: loaded recognizer rejects valid input: {e}", def.name));

    BootRow {
        name: def.name,
        artifact_bytes: bytes.len(),
        compile,
        grammar_build,
        from_artifact,
        load,
    }
}

/// The row whose artifact is biggest — the headline grammar.
fn headline(rows: &[BootRow]) -> &BootRow {
    rows.iter()
        .max_by_key(|r| r.artifact_bytes)
        .expect("at least one grammar")
}

fn report(rows: &[BootRow]) -> Json {
    let round1 = |v: f64| Json::Num((v * 10.0).round() / 10.0);
    let h = headline(rows);
    obj(vec![
        ("bench", Json::Str("boot".to_string())),
        ("iters", Json::Num(ITERS as f64)),
        ("headline_grammar", Json::Str(h.name.to_string())),
        ("headline_boot_speedup", round1(h.boot_speedup())),
        ("headline_load_speedup", round1(h.load_speedup())),
        (
            "grammars",
            Json::Obj(
                rows.iter()
                    .map(|r| {
                        (
                            r.name.to_string(),
                            obj(vec![
                                ("artifact_bytes", Json::Num(r.artifact_bytes as f64)),
                                ("compile_us", round1(r.compile.us())),
                                ("grammar_build_us", round1(r.grammar_build.us())),
                                ("from_artifact_us", round1(r.from_artifact.us())),
                                ("boot_speedup", round1(r.boot_speedup())),
                                ("load_us", round1(r.load.us())),
                                ("load_speedup", round1(r.load_speedup())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(rows: &[BootRow]) {
    println!(
        "boot latency: cold compile vs artifact boot (median of {ITERS}; spread: widest \
         interquartile range in the row, % of its median)"
    );
    println!(
        "{:<8}{:>12}{:>13}{:>11}{:>17}{:>9}{:>11}{:>9}{:>9}",
        "grammar",
        "artifact B",
        "compile µs",
        "build µs",
        "from_artifact µs",
        "boot",
        "load µs",
        "load",
        "spread"
    );
    for r in rows {
        println!(
            "{:<8}{:>12}{:>13.1}{:>11.1}{:>17.1}{:>8.1}x{:>11.1}{:>8.1}x{:>8.0}%",
            r.name,
            r.artifact_bytes,
            r.compile.us(),
            r.grammar_build.us(),
            r.from_artifact.us(),
            r.boot_speedup(),
            r.load.us(),
            r.load_speedup(),
            worst_spread_pct([&r.compile, &r.grammar_build, &r.from_artifact, &r.load])
        );
    }
    let h = headline(rows);
    println!(
        "\nheadline ({}, largest artifact): a parser that runs actions boots {:.1}x faster \
         from its artifact (the caller's lexer() + cfe(), then from_artifact) than by cold \
         compilation;\na recognizer (no actions) loads {:.1}x faster",
        h.name,
        h.boot_speedup(),
        h.load_speedup()
    );
}

fn main() -> ExitCode {
    let cli = Cli::parse("boot", Some("BENCH_boot.json"));

    let rows = vec![
        bench_one(flap_grammars::pgn::def()),
        bench_one(flap_grammars::ppm::def()),
        bench_one(flap_grammars::sexp::def()),
        bench_one(flap_grammars::csv::def()),
        bench_one(flap_grammars::json::def()),
        bench_one(flap_grammars::arith::def()),
    ];
    let doc = report(&rows);
    cli.emit(
        &doc,
        || print_table(&rows),
        || {
            let h = headline(&rows);
            if h.load_speedup() < MIN_LOAD_SPEEDUP {
                return Err(format!(
                    "recognizer load speedup {:.1}x on {} is below the {MIN_LOAD_SPEEDUP}x \
                     acceptance floor",
                    h.load_speedup(),
                    h.name
                ));
            }
            Ok(format!(
                "; recognizer load {:.0}x >= {MIN_LOAD_SPEEDUP}x on {}; full boot {:.1}x",
                h.load_speedup(),
                h.name,
                h.boot_speedup()
            ))
        },
    )
}
