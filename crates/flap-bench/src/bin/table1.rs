//! Regenerates Table 1 of the paper: sizes of inputs, intermediate
//! forms and generated code for each benchmark grammar.
//!
//! Usage: `cargo run -p flap-bench --release --bin table1`
//!
//! The paper's values are printed alongside for comparison. Small
//! CFE-count differences are expected: `flap_cfe::node_count` counts
//! every node of the combinator tree, μ-binders and variables
//! included, while the paper's grammars are written with OCaml
//! combinators whose internal shapes differ. The interesting columns
//! are the normalized/fused/function counts, which show that
//! normalization does not exhibit the cubic GNF blow-up.
//!
//! "functions" counts generated states, the paper's generated
//! functions. The emitted Rust (`flap_staged::codegen`) has no
//! function per state: each state is one match arm of its loop, or a
//! block inlined where its predecessors branch to it.

use flap::Parser;

/// (name, paper row: lex rules, CFEs, NTs, prods, fused, functions)
const PAPER: [(&str, [usize; 6]); 6] = [
    ("pgn", [13, 95, 38, 53, 91, 203]),
    ("ppm", [6, 10, 5, 6, 16, 55]),
    ("sexp", [4, 11, 3, 6, 9, 11]),
    ("csv", [3, 14, 5, 7, 7, 17]),
    ("json", [12, 42, 9, 33, 42, 93]),
    ("arith", [14, 143, 28, 55, 83, 209]),
];

fn row<V: 'static>(def: flap_grammars::GrammarDef<V>) -> (String, [usize; 6]) {
    let p = Parser::compile((def.lexer)(), &(def.cfe)()).expect("compiles");
    let s = p.sizes();
    (
        def.name.to_string(),
        [
            s.lex_rules,
            s.cfes,
            s.nts,
            s.prods,
            s.fused_prods,
            s.functions,
        ],
    )
}

fn footprint<V: 'static>(
    def: flap_grammars::GrammarDef<V>,
) -> (String, flap::flap_staged::TableFootprint, usize) {
    let p = def.flap_parser();
    let artifact_bytes = p.to_artifact().len();
    (
        def.name.to_string(),
        p.compiled().table_footprint(),
        artifact_bytes,
    )
}

fn footprints() -> Vec<(String, flap::flap_staged::TableFootprint, usize)> {
    vec![
        footprint(flap_grammars::pgn::def()),
        footprint(flap_grammars::ppm::def()),
        footprint(flap_grammars::sexp::def()),
        footprint(flap_grammars::csv::def()),
        footprint(flap_grammars::json::def()),
        footprint(flap_grammars::arith::def()),
    ]
}

fn main() {
    let ours = [
        row(flap_grammars::pgn::def()),
        row(flap_grammars::ppm::def()),
        row(flap_grammars::sexp::def()),
        row(flap_grammars::csv::def()),
        row(flap_grammars::json::def()),
        row(flap_grammars::arith::def()),
    ];
    println!("Table 1: sizes of inputs, intermediate forms, and generated code");
    println!("(each cell: ours / paper; functions: generated states, each one match arm");
    println!("or a block inlined at its predecessors in the emitted Rust)");
    println!();
    println!(
        "{:<8}{:>14}{:>12}{:>10}{:>12}{:>12}{:>14}",
        "grammar", "lex rules", "CFEs", "NTs", "prods", "fused", "functions"
    );
    for ((name, mine), (pname, paper)) in ours.iter().zip(PAPER.iter()) {
        assert_eq!(name, pname);
        print!("{:<8}", name);
        for (m, p) in mine.iter().zip(paper.iter()) {
            print!("{:>9}", format!("{m}/{p}"));
            print!("   ");
        }
        println!();
    }
    println!();
    println!(
        "function-to-CFE ratio (paper: barely exceeds 2 except ppm): {}",
        ours.iter()
            .map(|(n, r)| format!("{n}={:.1}", r[5] as f64 / r[1] as f64))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();
    println!("Transition-table footprint (flattened, alphabet-compressed vs dense 256-way),");
    println!("plus the serialized size of the whole parser (flap-artifact container):");
    println!(
        "{:<8}{:>8}{:>10}{:>14}{:>13}{:>8}{:>16}",
        "grammar", "states", "classes", "compressed", "dense", "ratio", "artifact"
    );
    for (name, fp, artifact_bytes) in footprints() {
        println!(
            "{:<8}{:>8}{:>10}{:>12} B{:>11} B{:>7.1}x{:>14} B",
            name,
            fp.states,
            fp.classes,
            fp.table_bytes,
            fp.dense_bytes,
            fp.dense_bytes as f64 / fp.table_bytes as f64,
            artifact_bytes
        );
    }
}
