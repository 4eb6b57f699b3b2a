//! The materialized token stream of the asp, LL(1) and SLR baselines.
//!
//! This is precisely the interface whose cost flap eliminates (§2.2):
//! a lexer runs ahead of the parser, materializing one token at a
//! time; the parser branches on the token tag. The stream is lazy
//! (one token of lookahead), mirroring the OCaml `Stream` connection
//! used by the paper's "normalized" baseline, which pulls the same
//! lexemes from [`CompiledLexer::lexemes`].

use std::fmt;

use flap_lex::{CompiledLexer, LexError, Lexeme};

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

/// A one-token-lookahead stream over a compiled lexer.
pub struct TokenStream<'a, 'b> {
    lexer: &'a CompiledLexer,
    input: &'b [u8],
    pos: usize,
    peeked: Option<Lexeme>,
}

impl<'a, 'b> TokenStream<'a, 'b> {
    /// Starts a stream at the beginning of `input`.
    ///
    /// # Errors
    ///
    /// Fails if the first token cannot be lexed.
    pub fn new(lexer: &'a CompiledLexer, input: &'b [u8]) -> Result<Self, BaselineError> {
        let mut s = TokenStream {
            lexer,
            input,
            pos: 0,
            peeked: None,
        };
        s.fill()?;
        Ok(s)
    }

    fn fill(&mut self) -> Result<(), BaselineError> {
        self.peeked = self.lexer.next_lexeme(self.input, self.pos)?;
        if let Some(lx) = self.peeked {
            self.pos = lx.end;
        }
        Ok(())
    }

    /// The current lookahead token, if any.
    pub fn peek(&self) -> Option<Lexeme> {
        self.peeked
    }

    /// Consumes the current token and advances.
    ///
    /// # Errors
    ///
    /// Fails if the *next* token cannot be lexed.
    ///
    /// # Panics
    ///
    /// Panics when called at end of input.
    pub fn advance(&mut self) -> Result<Lexeme, BaselineError> {
        let lx = self.peeked.expect("advance called at end of input");
        self.fill()?;
        Ok(lx)
    }

    /// The lexeme bytes of a token.
    pub fn bytes(&self, lx: Lexeme) -> &'b [u8] {
        lx.bytes(self.input)
    }

    /// Byte offset for error reporting: the lookahead's start, or the
    /// input length at EOF.
    pub fn error_pos(&self) -> usize {
        self.peeked.map(|lx| lx.start).unwrap_or(self.input.len())
    }
}
