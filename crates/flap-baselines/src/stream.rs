//! The token-stream interface of the asp, LL(1) and SLR baselines.
//!
//! This is precisely the interface whose cost flap eliminates (§2.2):
//! a lexer runs ahead of the parser, materializing one token at a
//! time; the parser branches on the token tag. Each baseline pulls
//! lexemes lazily from [`flap_lex::CompiledLexer::lexemes`] and holds
//! one ahead as its lookahead, as the "normalized" baseline's
//! [`flap_dgnf::DgnfParser`] does — the OCaml `Stream` connection of
//! the paper's baselines.

use std::fmt;

use flap_lex::{LexError, Lexeme};

/// Parse failure for the asp, LL(1) and SLR baselines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// Lexing failed.
    Lex(LexError),
    /// The parser rejected the next token (or end of input) at this
    /// byte offset.
    Parse {
        /// Byte offset of the offending lexeme (input length at EOF).
        pos: usize,
    },
    /// Tokens remained after the start symbol completed.
    Trailing {
        /// Byte offset of the first unconsumed lexeme.
        pos: usize,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Lex(e) => write!(f, "{e}"),
            BaselineError::Parse { pos } => write!(f, "parse error at byte {pos}"),
            BaselineError::Trailing { pos } => write!(f, "trailing input at byte {pos}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<LexError> for BaselineError {
    fn from(e: LexError) -> Self {
        BaselineError::Lex(e)
    }
}

/// The parse error for lookahead `next`: at its lexeme, or at the
/// input's end when there is none.
pub(crate) fn parse_error(next: Option<Lexeme>, input: &[u8]) -> BaselineError {
    BaselineError::Parse {
        pos: next.map_or(input.len(), |lx| lx.start),
    }
}
