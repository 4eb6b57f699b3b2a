//! A classic table-driven LL(1) parser — the stand-in for the
//! table-mode parser generators of §6 (implementation (b),
//! `menhir --table` architecture).
//!
//! Unlike the [`UnfusedParser`](crate::UnfusedParser) baseline (which
//! runs the Fig 8 machine on lowered continuations), this is an
//! *independent* construction: the grammar is treated as plain BNF,
//! FIRST/FOLLOW sets are computed from scratch, a predictive parse
//! table is built, and parsing runs the textbook stack automaton that
//! pushes terminals and nonterminals alike, folding values with the
//! unlowered `Reduce` programs. Tokens are materialized by the shared
//! compiled lexer.
//!
//! Where a nullable nonterminal's FIRST and FOLLOW overlap (possible:
//! typed CFEs are only "very close to LL(1)", §2.1 fn. 1), the table
//! prefers the headed production — the same committed choice DGNF
//! makes — and records the conflict count.

use flap_cfe::Cfe;
use flap_lex::{CompiledLexer, Lexer};

use crate::bnf::{Bnf, Sym};
use crate::stream::{parse_error, BaselineError};

const NO_PROD: u32 = u32::MAX;

/// The predictive-table parser.
pub struct Ll1Parser<V> {
    lexer: CompiledLexer,
    bnf: Bnf<V>,
    /// `table[nt * (token_count + 1) + tok]` → production
    /// (`token_count` is the end-of-input column).
    table: Vec<u32>,
    conflicts: usize,
}

impl<V: 'static> Ll1Parser<V> {
    /// Builds FIRST/FOLLOW sets and the predictive table.
    ///
    /// # Errors
    ///
    /// A message if the grammar is ill-typed.
    pub fn build(mut lexer: Lexer, cfe: &Cfe<V>) -> Result<Self, String> {
        let bnf = Bnf::build(&lexer, cfe)?;
        let compiled = CompiledLexer::build(&mut lexer);
        let cols = bnf.token_count + 1;
        let mut table = vec![NO_PROD; bnf.nt_count * cols];
        let mut conflicts = 0usize;
        for (pid, p) in bnf.prods.iter().enumerate() {
            let lhs = p.lhs as usize;
            let (f, rhs_nullable) = bnf.first_of_rhs(p);
            let mut set = |cell: usize, headed: bool, table: &mut Vec<u32>| {
                let old = table[cell];
                if old == NO_PROD {
                    table[cell] = pid as u32;
                } else if old != pid as u32 {
                    conflicts += 1;
                    if headed {
                        table[cell] = pid as u32;
                    }
                }
            };
            for t in f.iter() {
                set(lhs * cols + t.index(), !rhs_nullable, &mut table);
            }
            if rhs_nullable {
                for t in bnf.follow[lhs].iter() {
                    set(lhs * cols + t.index(), false, &mut table);
                }
                if bnf.eof_follow[lhs] {
                    set(lhs * cols + bnf.token_count, false, &mut table);
                }
            }
        }
        Ok(Ll1Parser {
            lexer: compiled,
            bnf,
            table,
            conflicts,
        })
    }

    /// Number of table conflicts resolved by committed choice (0 for
    /// a strictly LL(1) grammar).
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Parses a complete input with the textbook predictive stack
    /// automaton.
    ///
    /// # Errors
    ///
    /// [`BaselineError`] on lexing or parsing failure.
    pub fn parse(&self, input: &[u8]) -> Result<V, BaselineError> {
        enum M {
            T(u32, usize), // production id, rhs index (terminal to match)
            N(u32),
            R(u32),
        }
        let cols = self.bnf.token_count + 1;
        let mut lexemes = self.lexer.lexemes(input);
        let mut next = lexemes.next().transpose()?;
        let mut stack: Vec<M> = vec![M::N(self.bnf.start)];
        let mut values: Vec<V> = Vec::new();
        while let Some(m) = stack.pop() {
            match m {
                M::R(pid) => self.bnf.prods[pid as usize].reduce.run(&mut values),
                M::T(pid, idx) => {
                    let Sym::T(t, action) = &self.bnf.prods[pid as usize].rhs[idx] else {
                        unreachable!("M::T always points at a terminal");
                    };
                    match next {
                        Some(lx) if lx.token == *t => {
                            next = lexemes.next().transpose()?;
                            values.push(action(lx.bytes(input)));
                        }
                        _ => return Err(parse_error(next, input)),
                    }
                }
                M::N(nt) => {
                    let col = next.map_or(self.bnf.token_count, |lx| lx.token.index());
                    let pid = self.table[nt as usize * cols + col];
                    if pid == NO_PROD {
                        return Err(parse_error(next, input));
                    }
                    let p = &self.bnf.prods[pid as usize];
                    stack.push(M::R(pid));
                    for (i, sym) in p.rhs.iter().enumerate().rev() {
                        stack.push(match sym {
                            Sym::T(..) => M::T(pid, i),
                            Sym::N(m) => M::N(*m),
                        });
                    }
                }
            }
        }
        if let Some(lx) = next {
            return Err(BaselineError::Trailing { pos: lx.start });
        }
        debug_assert_eq!(values.len(), 1);
        Ok(values.pop().expect("parse produced no value"))
    }
}
