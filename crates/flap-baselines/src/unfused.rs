//! Implementation (g) of §6: parsing with grammars normalized by
//! flap, with the lexer and parser connected by a token stream
//! rather than fused.
//!
//! This is the crucial ablation baseline: it shares the DGNF
//! normalization, the compiled DFA lexer and the lowered semantic
//! actions ([`flap_dgnf::cont`]) with flap, differing *only* in the
//! lexer/parser interface. The throughput gap between this and flap
//! is the paper's headline claim (Fig 11: fusion buys another
//! 1.7–7.4× on top of normalization).

use flap_cfe::Cfe;
use flap_dgnf::{normalize, DgnfParseError, DgnfParser};
use flap_lex::{CompiledLexer, Lexer};

/// The "normalized but unfused" parser: a compiled lexer handing
/// lexemes one at a time to the indexed Fig 8 machine
/// [`DgnfParser`].
pub struct UnfusedParser<V> {
    lexer: CompiledLexer,
    parser: DgnfParser<V>,
}

impl<V: 'static> UnfusedParser<V> {
    /// Normalizes `cfe`, lowers its actions and compiles the lexer.
    ///
    /// # Errors
    ///
    /// A message if the grammar is ill-typed.
    pub fn build(mut lexer: Lexer, cfe: &Cfe<V>) -> Result<Self, String> {
        flap_cfe::type_check(cfe).map_err(|e| e.to_string())?;
        let grammar = normalize(cfe).map_err(|e| e.to_string())?;
        grammar.check_dgnf().map_err(|e| e.to_string())?;
        Ok(UnfusedParser {
            lexer: CompiledLexer::build(&mut lexer),
            parser: DgnfParser::new(&grammar),
        })
    }

    /// Parses a complete input, lexing it one token ahead of the
    /// parse.
    ///
    /// # Errors
    ///
    /// [`DgnfParseError`] on lexing or parsing failure.
    pub fn parse(&self, input: &[u8]) -> Result<V, DgnfParseError> {
        self.parser.parse(input, self.lexer.lexemes(input))
    }
}
