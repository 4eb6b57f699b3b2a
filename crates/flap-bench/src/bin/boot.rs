//! Boot latency: cold compilation vs artifact load, for every
//! benchmark grammar — the headline number of the compiled-artifact
//! subsystem.
//!
//! Usage: `cargo run -p flap-bench --release --bin boot --
//! [--json] [--smoke [snapshot]]`
//!
//! * `--json` prints the results as a JSON document (the schema of
//!   the checked-in `BENCH_boot.json`) instead of the table.
//! * `--smoke [snapshot]` runs a fast pass, compares the document's
//!   *schema* against the checked-in snapshot (default
//!   `BENCH_boot.json`), and additionally asserts the acceptance
//!   floor: loading the largest grammar's artifact as a recognizer
//!   must be at least 10× faster than cold-compiling it. Exits
//!   non-zero on either failure, so CI keeps both the snapshot and
//!   the floor honest.
//!
//! Four timings per grammar, each best-of-N (drops excluded):
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

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use flap::artifact::{load_recognizer, AlignedBuf};
use flap::Parser;
use flap_bench::json::{obj, Json};
use flap_grammars::GrammarDef;

/// The smoke-mode acceptance floor: a recognizer load must beat cold
/// compile by at least this factor on the largest grammar.
const MIN_LOAD_SPEEDUP: f64 = 10.0;

struct BootRow {
    name: &'static str,
    artifact_bytes: usize,
    compile_us: f64,
    grammar_build_us: f64,
    from_artifact_us: f64,
    load_us: f64,
}

impl BootRow {
    /// `compile / (build + from_artifact)`: how much of a boot that
    /// runs actions the artifact removes.
    fn boot_speedup(&self) -> f64 {
        self.compile_us / (self.grammar_build_us + self.from_artifact_us)
    }

    /// `compile / load`: the same for a recognizer-only boot.
    fn load_speedup(&self) -> f64 {
        self.compile_us / self.load_us
    }
}

/// Best of `iters` timed calls of `f`, in µs; each result is dropped
/// outside the timed span.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        drop(out);
    }
    best
}

fn bench_one<V: 'static>(def: GrammarDef<V>, iters: usize) -> BootRow {
    // Cold compile: everything a fresh process does before its first
    // parse, including building the lexer and grammar definitions.
    let compile_us = best_of(iters, || {
        Parser::compile((def.lexer)(), &(def.cfe)()).expect("compiles")
    });

    let parser = def.flap_parser();
    let bytes = parser.to_artifact();
    let doc = (def.generate)(42, 16 * 1024);
    let expected = (def.reference)(&doc).expect("generated input is valid");

    // Recognizer load: container validation + zero-copy table attach
    // from an already-aligned buffer — the advertised load contract
    // (a server keeps the file mapped or in an aligned arena; the
    // tables are borrowed from it, never copied).
    let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
    let load_us = best_of(iters, || {
        let r = load_recognizer(&buf).expect("artifact loads");
        assert!(r.tables_shared(), "load must borrow, not copy, tables");
        r
    });

    // Full parser from artifact, split into the caller's grammar
    // construction and the load proper.
    let grammar_build_us = best_of(iters, || ((def.lexer)(), (def.cfe)()));
    let cfe = (def.cfe)();
    let mut lexers: Vec<_> = (0..iters).map(|_| (def.lexer)()).collect();
    let from_artifact_us = best_of(iters, || {
        let lexer = lexers.pop().expect("one lexer per iteration");
        Parser::from_artifact(&bytes, lexer, &cfe).expect("loads")
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
        compile_us,
        grammar_build_us,
        from_artifact_us,
        load_us,
    }
}

/// The row whose artifact is biggest — the headline grammar.
fn headline(rows: &[BootRow]) -> &BootRow {
    rows.iter()
        .max_by_key(|r| r.artifact_bytes)
        .expect("at least one grammar")
}

fn report(rows: &[BootRow], iters: usize) -> Json {
    let round1 = |v: f64| Json::Num((v * 10.0).round() / 10.0);
    let h = headline(rows);
    obj(vec![
        ("bench", Json::Str("boot".to_string())),
        ("iters", Json::Num(iters as f64)),
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
                                ("compile_us", round1(r.compile_us)),
                                ("grammar_build_us", round1(r.grammar_build_us)),
                                ("from_artifact_us", round1(r.from_artifact_us)),
                                ("boot_speedup", round1(r.boot_speedup())),
                                ("load_us", round1(r.load_us)),
                                ("load_speedup", round1(r.load_speedup())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(rows: &[BootRow], iters: usize) {
    println!("boot latency: cold compile vs artifact boot (best of {iters})");
    println!(
        "{:<8}{:>12}{:>13}{:>11}{:>17}{:>9}{:>11}{:>9}",
        "grammar",
        "artifact B",
        "compile µs",
        "build µs",
        "from_artifact µs",
        "boot",
        "load µs",
        "load"
    );
    for r in rows {
        println!(
            "{:<8}{:>12}{:>13.1}{:>11.1}{:>17.1}{:>8.1}x{:>11.1}{:>8.1}x",
            r.name,
            r.artifact_bytes,
            r.compile_us,
            r.grammar_build_us,
            r.from_artifact_us,
            r.boot_speedup(),
            r.load_us,
            r.load_speedup()
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

struct Options {
    json: bool,
    /// `Some(snapshot_path)` when running as a CI smoke check.
    smoke: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        json: false,
        smoke: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--smoke" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().unwrap(),
                    _ => "BENCH_boot.json".to_string(),
                };
                opts.smoke = Some(path);
            }
            other => {
                eprintln!("boot: unknown argument {other}");
            }
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    // Smoke still needs a stable best-of: the 10x floor check below
    // compares two micro-timings, and best-of-2 is too noisy for it.
    let iters = if opts.smoke.is_some() { 4 } else { 7 };

    let rows = vec![
        bench_one(flap_grammars::pgn::def(), iters),
        bench_one(flap_grammars::ppm::def(), iters),
        bench_one(flap_grammars::sexp::def(), iters),
        bench_one(flap_grammars::csv::def(), iters),
        bench_one(flap_grammars::json::def(), iters),
        bench_one(flap_grammars::arith::def(), iters),
    ];
    let doc = report(&rows, iters);

    if let Some(snapshot) = &opts.smoke {
        let text = match std::fs::read_to_string(snapshot) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("boot --smoke: cannot read snapshot {snapshot}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snap = match Json::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("boot --smoke: snapshot {snapshot} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !snap.same_schema(&doc) {
            eprintln!(
                "boot --smoke: schema drift between {snapshot} and the harness.\n\
                 Regenerate with: cargo run --release -p flap-bench --bin boot -- --json \
                 > BENCH_boot.json\ncurrent harness output:\n{doc}"
            );
            return ExitCode::FAILURE;
        }
        let h = headline(&rows);
        if h.load_speedup() < MIN_LOAD_SPEEDUP {
            eprintln!(
                "boot --smoke: recognizer load speedup {:.1}x on {} is below the \
                 {MIN_LOAD_SPEEDUP}x acceptance floor",
                h.load_speedup(),
                h.name
            );
            return ExitCode::FAILURE;
        }
        println!(
            "boot --smoke: snapshot {snapshot} schema matches; recognizer load {:.0}x >= \
             {MIN_LOAD_SPEEDUP}x on {}; full boot {:.1}x",
            h.load_speedup(),
            h.name,
            h.boot_speedup()
        );
    } else if opts.json {
        println!("{doc}");
    } else {
        print_table(&rows, iters);
    }
    ExitCode::SUCCESS
}
