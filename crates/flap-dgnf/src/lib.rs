//! Deterministic Greibach Normal Form — the grammar transformation at
//! the heart of flap (§3 of the paper).
//!
//! This crate implements:
//!
//! * [`Grammar`] — normal-form grammars `n → ε | t n̄ | α n̄` with
//!   semantic actions threaded through every production
//!   ([`Reduce`] folds over a value stack, and [`Reduce::lower`]
//!   turns a fold into post-order steps that need no stack
//!   rotations);
//! * [`normalize`] — the normalization function `N⟦·⟧` of Fig 4,
//!   including the fixed-point substitution ("tying the knot") and
//!   the appendix's alias-elimination optimization;
//! * [`Grammar::check_dgnf`] — Definition 2 (determinism and guarded
//!   ε-productions);
//! * [`cont`] — lowered reduce programs as one flat pool of
//!   continuations, the action format that the staged VM and
//!   [`DgnfParser`] run;
//! * [`DgnfParser`] — the DGNF parsing algorithm of Fig 8 over a
//!   lexeme stream, running those continuations;
//! * [`expand_words`] — the expansion relation of Definition 1,
//!   bounded, for soundness testing (Theorem 3.8).
//!
//! # Quickstart
//!
//! ```
//! use flap_cfe::Cfe;
//! use flap_dgnf::{normalize, DgnfParser};
//! use flap_lex::{CompiledLexer, LexerBuilder};
//!
//! let mut b = LexerBuilder::new();
//! let a = b.token("a", "a")?;
//! let z = b.token("z", "z")?;
//! let mut lexer = b.build()?;
//! let clex = CompiledLexer::build(&mut lexer);
//!
//! // μx. a·x ∨ z — count the a's
//! let g: flap_cfe::Cfe<i64> =
//!     Cfe::fix(|x| Cfe::tok_val(a, 0).then(x, |_, n| n + 1).or(Cfe::tok_val(z, 0)));
//! let grammar = normalize(&g)?;
//! grammar.check_dgnf()?;
//!
//! let parser = DgnfParser::new(&grammar);
//! let input = b"aaaz";
//! assert_eq!(parser.parse(input, clex.lexemes(input))?, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cont;
mod expand;
mod grammar;
mod normalize;
mod parse;

pub use expand::{expand_words, expands_to};
pub use grammar::{
    trim, ContOp, DgnfError, DisplayGrammar, Grammar, Lead, NtEntry, NtId, Prod, Reduce, ReduceOp,
};
pub use normalize::{normalize, normalize_untrimmed, NormalizeError};
pub use parse::{DgnfParseError, DgnfParser};
