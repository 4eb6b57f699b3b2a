//! The DGNF parsing algorithm of Fig 8, over a lexeme stream.
//!
//! `P` (parse one nonterminal) and `Q` (parse a sequence of
//! nonterminals) become one loop over an explicit control stack of
//! [`Ctl`] words. Each nonterminal dispatches on the lookahead token
//! through a dense `nt × token` table; committing a production pushes
//! the token's value and its lowered continuation
//! ([`crate::cont`]), the same words the staged VM runs. This is the
//! token-level oracle for the fused parsers downstream and the parsing
//! half of the "normalized but unfused" baseline of §6
//! (implementation (g)).

use std::fmt;
use std::sync::Arc;

use flap_lex::{LexError, Lexeme, Token};

use crate::cont::{Conts, Ctl};
use crate::grammar::{Grammar, Lead, NtId};

/// Parse failure for the token-level DGNF parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgnfParseError {
    /// The current nonterminal has no production for the next token
    /// and no ε-production.
    UnexpectedToken {
        /// The offending token.
        token: Token,
        /// Byte offset of the offending lexeme.
        pos: usize,
        /// The nonterminal being parsed.
        nt: NtId,
    },
    /// Input ended while a non-nullable nonterminal was pending.
    UnexpectedEof {
        /// The nonterminal being parsed.
        nt: NtId,
    },
    /// Parsing succeeded but tokens remained.
    TrailingInput {
        /// Byte offset of the first unconsumed lexeme.
        pos: usize,
    },
    /// The lexer failed before parsing could proceed.
    Lex(LexError),
}

impl fmt::Display for DgnfParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgnfParseError::UnexpectedToken { token, pos, nt } => {
                write!(
                    f,
                    "unexpected token {:?} at byte {} while parsing {:?}",
                    token, pos, nt
                )
            }
            DgnfParseError::UnexpectedEof { nt } => {
                write!(f, "unexpected end of input while parsing {:?}", nt)
            }
            DgnfParseError::TrailingInput { pos } => {
                write!(f, "trailing input at byte {}", pos)
            }
            DgnfParseError::Lex(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DgnfParseError {}

impl From<LexError> for DgnfParseError {
    fn from(e: LexError) -> Self {
        DgnfParseError::Lex(e)
    }
}

/// Fig 8 over a stream of lexemes, built once from a DGNF grammar.
///
/// For each pending nonterminal the parser commits to the unique
/// production headed by the next token, and falls back to the
/// ε-production only when no headed production applies (DGNF's
/// guarded-ε condition makes this deterministic).
pub struct DgnfParser<V> {
    /// `table[nt * width + token]`: the production (an index into
    /// `conts`) that `nt` commits to on `token`; `width` is one past
    /// the largest head token.
    table: Vec<Option<u32>>,
    width: usize,
    conts: Conts<V>,
    start: u32,
}

impl<V> DgnfParser<V> {
    /// Lowers every production of `g` into a continuation and indexes
    /// it by nonterminal and head token. `g` should satisfy
    /// [`Grammar::check_dgnf`]; of two productions with one head, the
    /// first is taken.
    ///
    /// # Panics
    ///
    /// If a production still leads with a μ-variable, which
    /// `check_dgnf` rejects.
    pub fn new(g: &Grammar<V>) -> DgnfParser<V> {
        let mut conts = Conts::default();
        let mut heads = Vec::new();
        for nt in g.nts() {
            let e = g.entry(nt);
            for p in &e.prods {
                let (Lead::Tok(t), Some(act)) = (p.lead, &p.tok_action) else {
                    panic!("a production of {nt:?} leads with a variable: not DGNF");
                };
                heads.push((nt.index(), t.index()));
                let tail: Vec<u32> = p.tail.iter().map(|m| m.index() as u32).collect();
                conts.push_token(Arc::clone(act), &tail, p.reduce.lower());
            }
            conts.push_eps(e.eps.first().map(|r| r.lower()));
        }
        let width = heads.iter().map(|&(_, t)| t + 1).max().unwrap_or(0);
        let mut table = vec![None; g.nt_count() * width];
        for (p, &(nt, t)) in heads.iter().enumerate().rev() {
            table[nt * width + t] = Some(p as u32);
        }
        DgnfParser {
            table,
            width,
            conts,
            start: g.start().index() as u32,
        }
    }

    /// Parses `lexemes`, whose bytes are drawn from `input`, returning
    /// the start symbol's value. Lexemes are pulled one at a time, one
    /// ahead of the parse, so a lazy lexer such as
    /// [`flap_lex::CompiledLexer::lexemes`] runs in step with it.
    ///
    /// # Errors
    ///
    /// [`DgnfParseError`] on a lexing failure, token mismatch,
    /// premature end of input, or trailing tokens.
    pub fn parse(
        &self,
        input: &[u8],
        lexemes: impl IntoIterator<Item = Result<Lexeme, LexError>>,
    ) -> Result<V, DgnfParseError> {
        let mut lexemes = lexemes.into_iter();
        let mut next = lexemes.next().transpose()?;
        let mut control = vec![Ctl::nt(self.start)];
        let mut values: Vec<V> = Vec::new();
        while let Some(w) = control.pop() {
            if !w.is_nt() {
                self.conts.run(w, &mut values, |_| {});
                continue;
            }
            let nt = w.payload() as usize;
            let row = &self.table[nt * self.width..(nt + 1) * self.width];
            match next.map(|lx| (lx, row.get(lx.token.index()).copied().flatten())) {
                Some((lx, Some(p))) => {
                    let head = &self.conts.heads()[p as usize];
                    let act = head.tok_action.as_ref().expect("a token production");
                    values.push(act(lx.bytes(input)));
                    control.extend_from_slice(self.conts.slice(head.cont));
                    next = lexemes.next().transpose()?;
                }
                _ => {
                    let Some(eps) = self.conts.eps()[nt] else {
                        let nt = NtId::from_index(nt);
                        return Err(match next {
                            Some(lx) => DgnfParseError::UnexpectedToken {
                                token: lx.token,
                                pos: lx.start,
                                nt,
                            },
                            None => DgnfParseError::UnexpectedEof { nt },
                        });
                    };
                    for &w in self.conts.slice(eps) {
                        self.conts.run(w, &mut values, |_| {});
                    }
                }
            }
        }
        if let Some(lx) = next {
            return Err(DgnfParseError::TrailingInput { pos: lx.start });
        }
        debug_assert_eq!(values.len(), 1, "parse must produce exactly one value");
        Ok(values.pop().expect("parse produced no value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use flap_cfe::Cfe;
    use flap_lex::{CompiledLexer, Lexer, LexerBuilder};

    fn sexp_setup() -> (Lexer, CompiledLexer, Grammar<i64>) {
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let mut lexer = b.build().unwrap();
        let clex = CompiledLexer::build(&mut lexer);
        let sexp: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        flap_cfe::type_check(&sexp).unwrap();
        let g = normalize(&sexp).unwrap();
        g.check_dgnf().unwrap();
        (lexer, clex, g)
    }

    fn count_atoms(input: &[u8]) -> Result<i64, DgnfParseError> {
        let (_, clex, g) = sexp_setup();
        DgnfParser::new(&g).parse(input, clex.lexemes(input))
    }

    #[test]
    fn counts_atoms_in_sexps() {
        assert_eq!(count_atoms(b"a").unwrap(), 1);
        assert_eq!(count_atoms(b"()").unwrap(), 0);
        assert_eq!(count_atoms(b"(a b c)").unwrap(), 3);
        assert_eq!(count_atoms(b"(a (b (c d)) e)").unwrap(), 4 + 1);
        assert_eq!(count_atoms(b"((((x))))").unwrap(), 1);
    }

    #[test]
    fn rejects_malformed_sexps() {
        assert!(matches!(
            count_atoms(b""),
            Err(DgnfParseError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            count_atoms(b"(a"),
            Err(DgnfParseError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            count_atoms(b")"),
            Err(DgnfParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            count_atoms(b"a b"),
            Err(DgnfParseError::TrailingInput { .. })
        ));
        assert!(matches!(
            count_atoms(b"(a))"),
            Err(DgnfParseError::TrailingInput { .. })
        ));
    }

    #[test]
    fn token_actions_see_lexemes() {
        // numbers summed across a separator
        let mut b = LexerBuilder::new();
        let num = b.token("num", "[0-9]+").unwrap();
        let plus = b.token("plus", r"\+").unwrap();
        let mut lexer = b.build().unwrap();
        let clex = CompiledLexer::build(&mut lexer);
        let expr: Cfe<i64> = Cfe::sep_by1(
            Cfe::tok_with(num, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap()),
            Cfe::tok_val(plus, 0),
            || 0,
            |a, b| a + b,
        );
        let g = normalize(&expr).unwrap();
        g.check_dgnf().unwrap();
        let input = b"1+20+300";
        let parser = DgnfParser::new(&g);
        assert_eq!(parser.parse(input, clex.lexemes(input)).unwrap(), 321);
    }

    #[test]
    fn map_wraps_values() {
        let mut b = LexerBuilder::new();
        let num = b.token("num", "[0-9]+").unwrap();
        let mut lexer = b.build().unwrap();
        let clex = CompiledLexer::build(&mut lexer);
        let expr: Cfe<i64> =
            Cfe::tok_with(num, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap())
                .map(|v| v * 10);
        let g = normalize(&expr).unwrap();
        let input = b"7";
        let parser = DgnfParser::new(&g);
        assert_eq!(parser.parse(input, clex.lexemes(input)).unwrap(), 70);
    }

    #[test]
    fn values_thread_through_fix_substitution() {
        // μx. a·x ∨ b over tokens, counting a's and multiplying at each
        // level to exercise non-commutative reduces: value = 2*inner+1
        let mut b = LexerBuilder::new();
        let a = b.token("a", "a").unwrap();
        let end = b.token("b", "b").unwrap();
        let mut lexer = b.build().unwrap();
        let clex = CompiledLexer::build(&mut lexer);
        let g: Cfe<i64> = Cfe::fix(|x| {
            Cfe::tok_val(a, 0)
                .then(x, |_, inner| 2 * inner + 1)
                .or(Cfe::tok_val(end, 100))
        });
        let gram = normalize(&g).unwrap();
        gram.check_dgnf().unwrap();
        // "aab" → 2*(2*100+1)+1 = 403
        let input = b"aab";
        let parser = DgnfParser::new(&gram);
        assert_eq!(parser.parse(input, clex.lexemes(input)).unwrap(), 403);
    }

    #[test]
    fn string_building_actions() {
        // Rebuild the input sexp text (without whitespace) — exercises
        // owned, non-Copy values moving through the stack machinery.
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let mut lexer = b.build().unwrap();
        let clex = CompiledLexer::build(&mut lexer);
        let sexp: Cfe<String> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| {
                Cfe::eps_with(String::new).or(sexp.then(sexps, |a, b| {
                    if b.is_empty() {
                        a
                    } else {
                        format!("{a} {b}")
                    }
                }))
            });
            Cfe::tok_val(lpar, String::new())
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, String::new()), |n, _| format!("({n})"))
                .or(Cfe::tok_with(atom, |lx| {
                    String::from_utf8(lx.to_vec()).unwrap()
                }))
        });
        let g = normalize(&sexp).unwrap();
        let input = b"(foo (bar  baz) ())";
        let parser = DgnfParser::new(&g);
        assert_eq!(
            parser.parse(input, clex.lexemes(input)).unwrap(),
            "(foo (bar baz) ())"
        );
    }
}
