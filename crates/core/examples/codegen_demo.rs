//! Prints the Rust source flap generates for the s-expression parser
//! — the §5.5 "generated code" excerpt, as a compilable module: one
//! `recognize` function looping over the automaton's states with an
//! explicit stack of nonterminals, emitted from the same flat table
//! the VM runs. It is a recognizer: it returns `Ok(())` or the
//! failure offset and runs no semantic actions.
//!
//! ```text
//! cargo run -p flap --example codegen_demo > sexp_generated.rs
//! rustc --edition 2021 --crate-type lib -D warnings sexp_generated.rs
//! ```
//!
//! The module needs no dependency and compiles without warnings. The
//! `flap-bench` crate compiles the same output for all six benchmark
//! grammars in its build script and benchmarks it as the
//! `flap-codegen-recognizer` row of Fig 11.

use flap::Parser;
use flap_grammars::sexp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let def = sexp::def();
    let parser = Parser::compile((def.lexer)(), &(def.cfe)())?;
    print!("{}", parser.emit_rust("sexp_gen"));
    Ok(())
}
