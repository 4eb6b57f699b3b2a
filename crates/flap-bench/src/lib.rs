//! Benchmark harness for the flap evaluation (§6).
//!
//! This crate wires the six grammars of `flap-grammars` to the parser
//! implementations and provides the measurement loops used by the
//! `fig11`, `fig12`, `table1` and `table2` binaries and the Criterion
//! benches.
//!
//! Implementations measured (names as printed):
//!
//! | name | paper | what it is |
//! |---|---|---|
//! | `flap` | (d) | fused + staged table automaton |
//! | `flap-unstaged` | — | fused grammar run by the Fig 9 interpreter (isolates staging) |
//! | `normalized` | (g) | DGNF grammar over a token stream (isolates fusion) |
//! | `asp` | (e) | typed CFE with First-set dispatch over tokens |
//! | `ll1-table` | ≈(b) | textbook predictive table parser |
//! | `slr` | ≈(a)/(c) | SLR(1) shift/reduce parser |

#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::time::{Duration, Instant};

use flap_baselines::{AspParser, Ll1Parser, LrParser, UnfusedParser};
use flap_grammars::GrammarDef;

/// A boxed parse function: complete input in, reported value out.
pub type RunFn = Box<dyn Fn(&[u8]) -> Result<i64, String>>;

/// One named implementation of one grammar.
pub struct Impl {
    /// Display name (see crate docs).
    pub name: &'static str,
    /// Parses a complete input to the benchmark's reported value.
    pub run: RunFn,
}

/// One grammar with all its implementations.
pub struct BenchCase {
    /// Grammar name (paper order: json, sexp, arith, pgn, ppm, csv).
    pub name: &'static str,
    /// The implementations, in the crate-docs order.
    pub impls: Vec<Impl>,
    /// Workload generator.
    pub generate: fn(u64, usize) -> Vec<u8>,
    /// Independent oracle.
    pub reference: fn(&[u8]) -> Result<i64, String>,
}

/// Builds all implementations for one grammar definition.
pub fn case<V: 'static>(def: GrammarDef<V>) -> BenchCase {
    let finish = def.finish;
    let mut impls: Vec<Impl> = Vec::new();

    // (d) flap: fused + staged
    let parser = def.flap_parser();
    impls.push(Impl {
        name: "flap",
        run: Box::new(move |input| parser.parse(input).map(finish).map_err(|e| e.to_string())),
    });

    // fused but unstaged: the Fig 9 interpreter (derivatives at parse
    // time, memoized in the lexer's arena — hence the RefCell)
    {
        let mut lexer = (def.lexer)();
        let grammar = flap::flap_dgnf::normalize(&(def.cfe)()).expect("normalizes");
        let fused = flap::flap_fuse::fuse(&mut lexer, &grammar).expect("fuses");
        let cell = RefCell::new(lexer);
        impls.push(Impl {
            name: "flap-unstaged",
            run: Box::new(move |input| {
                let mut lexer = cell.borrow_mut();
                flap::flap_fuse::parse_fused(&fused, lexer.arena_mut(), input)
                    .map(finish)
                    .map_err(|e| e.to_string())
            }),
        });
    }

    // (g) normalized, unfused
    {
        let p = UnfusedParser::build((def.lexer)(), &(def.cfe)()).expect("unfused builds");
        impls.push(Impl {
            name: "normalized",
            run: Box::new(move |input| p.parse(input).map(finish).map_err(|e| e.to_string())),
        });
    }

    // (e) asp
    {
        let p = AspParser::build((def.lexer)(), &(def.cfe)()).expect("asp builds");
        impls.push(Impl {
            name: "asp",
            run: Box::new(move |input| p.parse(input).map(finish).map_err(|e| e.to_string())),
        });
    }

    // ≈(b) table-driven LL(1)
    {
        let p = Ll1Parser::build((def.lexer)(), &(def.cfe)()).expect("ll1 builds");
        impls.push(Impl {
            name: "ll1-table",
            run: Box::new(move |input| p.parse(input).map(finish).map_err(|e| e.to_string())),
        });
    }

    // ≈(a)/(c) SLR(1)
    {
        let p = LrParser::build((def.lexer)(), &(def.cfe)()).expect("lr builds");
        impls.push(Impl {
            name: "slr",
            run: Box::new(move |input| p.parse(input).map(finish).map_err(|e| e.to_string())),
        });
    }

    BenchCase {
        name: def.name,
        impls,
        generate: def.generate,
        reference: def.reference,
    }
}

/// All six grammars, in the paper's Fig 11 order.
pub fn all_cases() -> Vec<BenchCase> {
    vec![
        case(flap_grammars::json::def()),
        case(flap_grammars::sexp::def()),
        case(flap_grammars::arith::def()),
        case(flap_grammars::pgn::def()),
        case(flap_grammars::ppm::def()),
        case(flap_grammars::csv::def()),
    ]
}

/// The implementation names, in display order.
pub const IMPL_NAMES: [&str; 6] = [
    "flap",
    "flap-unstaged",
    "normalized",
    "asp",
    "ll1-table",
    "slr",
];

/// Measures the throughput of `run` on `input`: median MB/s over
/// `iters` timed runs after one warm-up run.
///
/// # Panics
///
/// Panics if the implementation rejects the input or disagrees with
/// `expected` — every throughput number doubles as a correctness
/// check.
pub fn throughput_mbps(
    run: &dyn Fn(&[u8]) -> Result<i64, String>,
    input: &[u8],
    expected: i64,
    iters: usize,
) -> f64 {
    let check = run(input).expect("benchmark input must parse");
    assert_eq!(check, expected, "implementation disagrees with the oracle");
    let mut times: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = run(input);
        let dt = t0.elapsed();
        assert!(v.is_ok());
        times.push(dt);
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    input.len() as f64 / median.as_secs_f64() / 1_000_000.0
}

/// Times a single run, returning milliseconds (best of `iters`).
pub fn best_ms(run: &dyn Fn(&[u8]) -> Result<i64, String>, input: &[u8], iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = run(input);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert!(v.is_ok(), "benchmark input must parse");
        if dt < best {
            best = dt;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_build_and_agree_on_small_inputs() {
        for case in all_cases() {
            let input = (case.generate)(7, 1500);
            let expected = (case.reference)(&input).expect("valid input");
            for imp in &case.impls {
                assert_eq!(
                    (imp.run)(&input).as_ref().ok(),
                    Some(&expected),
                    "{}/{} disagrees",
                    case.name,
                    imp.name
                );
            }
        }
    }

    #[test]
    fn throughput_helper_checks_correctness() {
        let c = case(flap_grammars::sexp::def());
        let input = (c.generate)(1, 2000);
        let expected = (c.reference)(&input).unwrap();
        let mbps = throughput_mbps(&c.impls[0].run, &input, expected, 3);
        assert!(mbps > 0.0);
    }
}

/// Recognizers generated by `flap_staged::codegen::emit_rust` at
/// build time (see `build.rs`) and compiled natively into this crate
/// — the genuinely *staged* execution path, analogous to flap's
/// MetaOCaml-generated OCaml.
pub mod generated {
    include!(concat!(env!("OUT_DIR"), "/sexp_gen.rs"));
    include!(concat!(env!("OUT_DIR"), "/json_gen.rs"));
    include!(concat!(env!("OUT_DIR"), "/csv_gen.rs"));
    include!(concat!(env!("OUT_DIR"), "/pgn_gen.rs"));
    include!(concat!(env!("OUT_DIR"), "/ppm_gen.rs"));
    include!(concat!(env!("OUT_DIR"), "/arith_gen.rs"));
}

/// The build-time generated recognizer for a grammar, by Fig 11 name.
pub fn generated_recognizer(name: &str) -> fn(&[u8]) -> Result<(), usize> {
    match name {
        "json" => generated::json_gen::recognize,
        "sexp" => generated::sexp_gen::recognize,
        "arith" => generated::arith_gen::recognize,
        "pgn" => generated::pgn_gen::recognize,
        "ppm" => generated::ppm_gen::recognize,
        "csv" => generated::csv_gen::recognize,
        other => panic!("no generated recognizer for {other}"),
    }
}

#[cfg(test)]
mod generated_tests {
    fn check(
        name: &str,
        gen: fn(&[u8]) -> Result<(), usize>,
        vm: impl Fn(&[u8]) -> bool,
        generate: fn(u64, usize) -> Vec<u8>,
    ) {
        for seed in 0..4u64 {
            let input = generate(seed, 3000);
            assert!(gen(&input).is_ok(), "{name} codegen rejects a valid input");
            assert!(vm(&input), "{name} VM rejects a valid input");
            let mut bad = input.clone();
            let mid = bad.len() / 2;
            bad[mid] = 0x02;
            assert_eq!(
                gen(&bad).is_ok(),
                vm(&bad),
                "{name} codegen and VM disagree on a mutated input"
            );
        }
    }

    #[test]
    fn generated_recognizers_agree_with_the_vm() {
        let d = flap_grammars::sexp::def();
        let p = d.flap_parser();
        check(
            "sexp",
            super::generated::sexp_gen::recognize,
            move |i| p.recognize(i).is_ok(),
            d.generate,
        );
        let d = flap_grammars::json::def();
        let p = d.flap_parser();
        check(
            "json",
            super::generated::json_gen::recognize,
            move |i| p.recognize(i).is_ok(),
            d.generate,
        );
        let d = flap_grammars::csv::def();
        let p = d.flap_parser();
        check(
            "csv",
            super::generated::csv_gen::recognize,
            move |i| p.recognize(i).is_ok(),
            d.generate,
        );
    }
}
