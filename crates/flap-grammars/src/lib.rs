//! The six benchmark grammars of the flap evaluation (§6), with
//! workload generators and independent reference parsers.
//!
//! | module | paper benchmark | reported result |
//! |---|---|---|
//! | [`sexp`] | s-expressions with alphanumeric atoms | atom count |
//! | [`json`] | JSON (grammar of Jonnalagedda et al. 2014) | object count |
//! | [`csv`] | RFC 4180 CSV with mandatory CRLF | total cell count |
//! | [`pgn`] | Portable Game Notation chess games | sum of result codes |
//! | [`ppm`] | Netpbm P3 images, semantic checks | pixel count (or −1) |
//! | [`arith`] | mini language: arithmetic/comparison/binding/branching | evaluated value |
//!
//! Each module provides the same four artifacts, bundled in a
//! [`GrammarDef`]:
//!
//! * `lexer()` — the flap lexer specification;
//! * `cfe()` — the typed combinator grammar with semantic actions;
//! * `reference()` — a handwritten recursive-descent parser used as
//!   an *independent oracle* (it shares no code with the flap
//!   pipeline);
//! * `generate()` — a seeded synthetic workload generator standing in
//!   for the paper's test corpora (which are not distributed).
//!
//! The paper's corpora are not distributed, so generators stand in
//! for them: they produce the same lexical/structural features the
//! grammars exercise (nesting, escapes, whitespace distribution,
//! numeric fields), are seeded so every run sees the same bytes, and
//! the oracle makes every benchmark run double as a correctness
//! check.

#![warn(missing_docs)]

pub mod arith;
pub mod csv;
pub mod json;
pub mod pgn;
pub mod ppm;
pub mod sexp;

use flap::{Cfe, Lexer};

/// Everything the benchmark harness needs to drive one grammar, for
/// any implementation (flap, unstaged-fused, unfused, asp-style,
/// LL(1), LR).
pub struct GrammarDef<V: 'static> {
    /// Short name, as used in Fig 11/12 and Tables 1/2.
    pub name: &'static str,
    /// Builds the (canonicalized) lexer. Token indices are stable
    /// across calls, so `cfe()` can be paired with a fresh lexer.
    pub lexer: fn() -> Lexer,
    /// Builds the combinator grammar with semantic actions.
    pub cfe: fn() -> Cfe<V>,
    /// Converts the parse value into the benchmark's reported `i64`
    /// (identity for most grammars; evaluation for `arith`).
    pub finish: fn(V) -> i64,
    /// Generates roughly `target` bytes of valid input from a seed.
    pub generate: fn(seed: u64, target: usize) -> Vec<u8>,
    /// The independent oracle: parses with a handwritten parser and
    /// returns the same reported value.
    pub reference: fn(&[u8]) -> Result<i64, String>,
}

impl<V: 'static> GrammarDef<V> {
    /// Convenience: compile the full flap pipeline for this grammar.
    ///
    /// # Panics
    ///
    /// Panics if the grammar fails to compile — the six definitions
    /// here are all well-typed by construction (and tested).
    pub fn flap_parser(&self) -> flap::Parser<V> {
        flap::Parser::compile((self.lexer)(), &(self.cfe)())
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", self.name))
    }
}

/// The names of the six benchmarks, in the paper's Fig 11 order.
pub const BENCHMARK_NAMES: [&str; 6] = ["json", "sexp", "arith", "pgn", "ppm", "csv"];
