//! Benchmark harness for the flap evaluation (§6).
//!
//! This crate wires the six grammars of `flap-grammars` to the parser
//! implementations, and gives its binaries one timing core
//! ([`timing`]: a warm-up call, then `black_box`ed timed calls
//! reported as a median with quartile spread) and one command line
//! ([`cli`]: `--json` and `--smoke [snapshot]`). The paper-figure
//! binaries are `fig11`, `fig12`, `table1` and `table2`; `parallel`,
//! `streaming`, `incr` and `boot` measure the engine's own subsystems,
//! `profile` prints event counts and `tracecheck` validates a trace.
//! The per-layer cost ladder lives in the separate `benchmark`
//! package (`--trace 1`).
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

pub mod cli;
pub mod json;
pub mod timing;

use std::cell::RefCell;
use std::hint::black_box;

use flap_baselines::{AspParser, Ll1Parser, LrParser, UnfusedParser};
use flap_grammars::GrammarDef;
use json::Json;
use timing::Timing;

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
        generate: generator(&def),
        reference: def.reference,
    }
}

/// The benchmark's document generator for a grammar: its own
/// `generate`, except for arith, whose generator ignores its byte
/// target (seed 42 yields a 15-byte expression). Arith documents are
/// seeded expressions joined up to the target instead.
pub fn generator<V>(def: &GrammarDef<V>) -> fn(u64, usize) -> Vec<u8> {
    if def.name == "arith" {
        arith_document
    } else {
        def.generate
    }
}

/// An arith document of at least `target` bytes: seeded expressions,
/// each in parentheses so that a trailing comparison or `let` body
/// stays well-formed, joined with ` + `.
fn arith_document(seed: u64, target: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(target + 4096);
    let mut k = 0u64;
    while out.len() < target {
        if k > 0 {
            out.extend_from_slice(b" + ");
        }
        out.push(b'(');
        let sub_seed = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        out.extend_from_slice(&flap_grammars::arith::generate(sub_seed, target));
        out.push(b')');
        k += 1;
    }
    out
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

/// Times `run` on `input` with [`timing::time`].
///
/// # Panics
///
/// Panics if the implementation rejects the input or disagrees with
/// `expected` — every throughput number doubles as a correctness
/// check.
pub fn time_impl(
    run: &dyn Fn(&[u8]) -> Result<i64, String>,
    input: &[u8],
    expected: i64,
    iters: usize,
) -> Timing {
    let check = run(input).expect("benchmark input must parse");
    assert_eq!(check, expected, "implementation disagrees with the oracle");
    timing::time(iters, || {
        run(black_box(input)).expect("benchmark input must parse")
    })
}

/// Tallies the pool's spans per lane in a Chrome trace-event document
/// as `flap::obs::TraceRecorder` writes it: `(tid, queue-wait spans,
/// parse spans)` for every lane holding a complete (`ph:"X"`) span, in
/// order of first appearance.
///
/// # Errors
///
/// A message when the document has no `traceEvents` array or a
/// complete span lacks its `name`, `tid`, `ts` or `dur`.
pub fn trace_lanes(doc: &Json) -> Result<Vec<(u64, usize, usize)>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut lanes: Vec<(u64, usize, usize)> = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("complete span without a name")?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or("complete span without a tid")? as u64;
        if ev.get("ts").and_then(Json::as_num).is_none()
            || ev.get("dur").and_then(Json::as_num).is_none()
        {
            return Err(format!("span {name:?} lacks ts/dur"));
        }
        let i = match lanes.iter().position(|l| l.0 == tid) {
            Some(i) => i,
            None => {
                lanes.push((tid, 0, 0));
                lanes.len() - 1
            }
        };
        match name {
            "queue-wait" => lanes[i].1 += 1,
            "parse" => lanes[i].2 += 1,
            _ => {}
        }
    }
    Ok(lanes)
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
        let t = time_impl(&c.impls[0].run, &input, expected, 3);
        assert!(t.mbps(input.len()) > 0.0);
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
    use flap_grammars::GrammarDef;

    /// The generated recognizer must return exactly the error offset
    /// the VM's recognizer reports, on valid documents, on every
    /// truncation point of a short one, and with single bytes
    /// replaced throughout.
    fn agrees_with_the_vm<V: 'static>(def: GrammarDef<V>) {
        let gen = super::generated_recognizer(def.name);
        let parser = def.flap_parser();
        let vm = |doc: &[u8]| parser.recognize(doc).map_err(|e| e.pos());
        let generate = super::generator(&def);
        let mut checked = 0;
        for seed in 0..4u64 {
            let doc = generate(seed, 3000);
            assert_eq!(gen(&doc), Ok(()), "{} rejects seed {seed}", def.name);
            assert_eq!(vm(&doc), Ok(()), "{} VM rejects seed {seed}", def.name);
            let short = &doc[..doc.len().min(200)];
            let cuts = (0..short.len()).map(|n| short[..n].to_vec());
            let mutants = (0..doc.len()).step_by(7).flat_map(|at| {
                [0x02, b' ', b'(', b'"', b'0', b'x', b'\n'].map(|b| {
                    let mut bad = doc.clone();
                    bad[at] = b;
                    bad
                })
            });
            for bad in cuts.chain(mutants) {
                let want = vm(&bad);
                assert_eq!(
                    gen(&bad),
                    want,
                    "{}: generated and VM recognizers disagree on {:?}",
                    def.name,
                    String::from_utf8_lossy(&bad)
                );
                checked += usize::from(want.is_err());
            }
        }
        assert!(checked > 0, "{}: no document was rejected", def.name);
    }

    #[test]
    fn generated_recognizers_agree_with_the_vm() {
        agrees_with_the_vm(flap_grammars::json::def());
        agrees_with_the_vm(flap_grammars::sexp::def());
        agrees_with_the_vm(flap_grammars::arith::def());
        agrees_with_the_vm(flap_grammars::pgn::def());
        agrees_with_the_vm(flap_grammars::ppm::def());
        agrees_with_the_vm(flap_grammars::csv::def());
    }

    /// The generated code keeps the input's nesting and length on the
    /// heap: a 2 MB document runs on the test thread's default stack.
    #[test]
    fn generated_recognizer_needs_no_large_stack() {
        let def = flap_grammars::ppm::def();
        let doc = (def.generate)(42, 2_100_000);
        assert!(doc.len() >= 2_000_000, "{} bytes", doc.len());
        assert_eq!(super::generated_recognizer("ppm")(&doc), Ok(()));
    }
}
