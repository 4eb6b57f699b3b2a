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
//! * [`parse_tokens`] — the DGNF parsing algorithm of Fig 8 over a
//!   token stream;
//! * [`expand_words`] — the expansion relation of Definition 1,
//!   bounded, for soundness testing (Theorem 3.8).
//!
//! # Quickstart
//!
//! ```
//! use flap_cfe::Cfe;
//! use flap_dgnf::{normalize, parse_tokens};
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
//! let input = b"aaaz";
//! let lexemes = clex.tokenize(input)?;
//! assert_eq!(parse_tokens(&grammar, input, &lexemes)?, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod expand;
mod grammar;
mod normalize;
mod parse;

pub use expand::{expand_words, expands_to};
pub use grammar::{
    trim, ContOp, DgnfError, DisplayGrammar, Grammar, Lead, NtEntry, NtId, Prod, Reduce, ReduceOp,
};
pub use normalize::{normalize, normalize_untrimmed, NormalizeError};
pub use parse::{parse_tokens, DgnfParseError};
