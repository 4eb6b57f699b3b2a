//! Baseline parser implementations for the flap evaluation (§6).
//!
//! All of these connect a *separately-run* lexer to a parser through
//! a materialized token stream — the interface whose cost flap
//! eliminates. They share the compiled DFA lexer of `flap-lex`, so
//! every measured difference is attributable to the parser
//! architecture:
//!
//! * [`UnfusedParser`] — implementation (g), "normalized": flap's
//!   DGNF grammar and lowered actions run by the Fig 8 machine
//!   ([`flap_dgnf::DgnfParser`]) over tokens. The gap between this
//!   and flap isolates the value of *fusion*.
//! * [`AspParser`] — implementation (e): Krishnaswami–Yallop typed
//!   combinators with precomputed First-set dispatch.
//! * [`Ll1Parser`] — stand-in for the table-driven parser generators
//!   (implementation (b)): textbook FIRST/FOLLOW predictive table
//!   and stack automaton, built independently of the Fig 8 machinery.
//! * [`LrParser`] — stand-in for the code/table LR tools
//!   (implementations (a)/(c)): an SLR(1) shift/reduce parser
//!   generated from the same BNF.
//!
//! The LL(1) and SLR parsers run the normalized grammar's unlowered
//! [`Reduce`](flap_dgnf::Reduce) programs, so they double as oracles
//! for the lowering that flap and [`UnfusedParser`] share.

#![warn(missing_docs)]

mod asp;
mod bnf;
mod ll1;
mod lr;
mod stream;
mod unfused;

pub use asp::AspParser;
pub use ll1::Ll1Parser;
pub use lr::LrParser;
pub use stream::BaselineError;
pub use unfused::UnfusedParser;
