//! Lexer–parser fusion (§4 of the flap paper).
//!
//! Fusion takes a canonicalized lexer and a DGNF grammar — two
//! *separately defined* artifacts connected only by token identities —
//! and produces a [`FusedGrammar`] that never materializes a token:
//! terminals are replaced by the lexer regexes that produce them (F1),
//! skip rules become per-nonterminal self-loops (F2), and
//! ε-productions become complement lookahead rules (F3).
//!
//! [`parse_fused`] runs the Fig 9 algorithm over the result with
//! on-the-fly derivatives, once over a whole input. It is the
//! reproduction's differential oracle: `flap-staged` compiles the same
//! grammar to a table-driven automaton ahead of time, and that VM —
//! the one production engine, with streaming, incremental re-parsing
//! and observer hooks — is tested against this interpreter.
//!
//! # Quickstart
//!
//! ```
//! use flap_cfe::Cfe;
//! use flap_dgnf::normalize;
//! use flap_fuse::{fuse, parse_fused};
//! use flap_lex::LexerBuilder;
//!
//! let mut b = LexerBuilder::new();
//! let word = b.token("word", "[a-z]+")?;
//! b.skip(" ")?;
//! let stop = b.token("stop", r"\.")?;
//! let mut lexer = b.build()?;
//!
//! // words then a period: μx. word·x ∨ '.'  — count the words
//! let g: Cfe<i64> =
//!     Cfe::fix(|x| Cfe::tok_val(word, 0).then(x, |_, n| n + 1).or(Cfe::tok_val(stop, 0)));
//! let grammar = normalize(&g)?;
//! let fused = fuse(&mut lexer, &grammar)?;
//!
//! let n = parse_fused(&fused, lexer.arena_mut(), b"hello brave new world .")?;
//! assert_eq!(n, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// `FusedParseError` inlines its expected-token set (fixed array of
// `Arc<str>`) precisely so error construction never allocates — the
// audited §2.8 property. That makes the Err variant bigger than
// clippy's default threshold; errors are built once per failed parse,
// never on the per-byte hot path, so the tradeoff is deliberate.
#![allow(clippy::result_large_err)]

mod fuse;
mod parse;

pub use fuse::{fuse, DisplayFused, FuseError, FusedGrammar, FusedNt, FusedProd, FusedToken};
pub use parse::{line_col, parse_fused, Expected, FusedParseError};
