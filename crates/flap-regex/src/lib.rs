//! Regular expressions with Brzozowski derivatives — the lexing
//! substrate of the flap reproduction.
//!
//! The flap paper (Yallop, Xie & Krishnaswami, PLDI 2023) builds its
//! lexers on the derivative-based approach of Owens, Reppy & Turon
//! (JFP 2009). This crate provides that substrate:
//!
//! * [`ByteSet`] — 256-bit byte sets (character classes);
//! * [`RegexArena`] — hash-consed regexes `⊥ ε c r·s r|s r* r&s ¬r`
//!   with canonicalizing smart constructors, nullability `ν`, and
//!   memoized derivatives `∂_c`;
//! * [`Partition`]/[`ClassCache`] — approximate derivative character
//!   classes, the key to compact generated code (§5.5 of the paper);
//! * [`Dfa`] — derivative-based DFA construction, plus language
//!   [`equivalence`](equivalent) and [`emptiness`](is_empty_lang)
//!   decision procedures used by lexer canonicalization (§4);
//! * [`FlatDfa`] — the flattened, alphabet-compressed table
//!   representation the hot loops execute: exact byte equivalence
//!   classes, one contiguous cache-aligned transition block, a
//!   precomputed sink sentinel, and a SWAR fast path
//!   ([`FastLoop`]) through self-loop states;
//! * a concrete [string syntax](RegexArena::parse) for convenience.
//!
//! # Quickstart
//!
//! ```
//! use flap_regex::{Dfa, RegexArena};
//!
//! let mut ar = RegexArena::new();
//! let ident = ar.parse("[a-z][a-z0-9]*").unwrap();
//! let dfa = Dfa::build(&mut ar, ident);
//! assert!(dfa.matches(b"x42"));
//! assert_eq!(dfa.longest_match(b"abc!"), Some(3));
//! ```

#![warn(missing_docs)]

mod arena;
mod byteset;
mod classes;
mod dfa;
mod display;
mod flatdfa;
mod hash;
pub mod parse;

pub use arena::{Node, RegexArena, RegexId};
pub use byteset::ByteSet;
pub use classes::{ClassCache, Partition};
pub use dfa::{equivalent, is_empty_lang, Dfa, DfaState, EmptinessCheck};
pub use display::DisplayRegex;
pub use flatdfa::{AlignedU32s, ByteClasses, FastLoop, FlatDfa};
pub use parse::RegexParseError;
