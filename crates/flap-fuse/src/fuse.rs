//! Lexer–parser fusion — the algorithm `F⟦L, G⟧` of Fig 6.
//!
//! Fusion consumes a canonicalized lexer `L` and a DGNF grammar `G`
//! and produces a grammar that never mentions tokens:
//!
//! * **F1** — every production `n → t n̄` becomes `n → r n̄`, where
//!   `r` is the lexer regex returning `t`. Rules returning tokens
//!   that `n` cannot start with are thereby discarded — the implicit
//!   per-nonterminal specialization of §2.7;
//! * **F2** — each nonterminal gets a production `n → r_skip n`
//!   allowing any number of skipped lexemes before its token;
//! * **F3** — each ε-production becomes a lookahead rule `n → ?¬r`,
//!   where `r` is the union of the regexes of the other productions:
//!   ε applies exactly when nothing else can match.

use std::fmt;
use std::sync::Arc;

use flap_cfe::TokAction;
use flap_dgnf::{Grammar, Lead, NtId, Reduce};
use flap_lex::{Lexer, Token};
use flap_regex::{RegexArena, RegexId};

/// A fused production `n → r n̄` (token or skip).
pub struct FusedProd<V> {
    /// The regex replacing the leading terminal (or the skip regex).
    pub regex: RegexId,
    /// Token payload, or `None` for the F2 skip self-loop.
    pub token: Option<FusedToken<V>>,
}

/// The token half of a fused production.
pub struct FusedToken<V> {
    /// The original terminal (kept for diagnostics and metrics).
    pub token: Token,
    /// Trailing nonterminals `n̄`.
    pub tail: Vec<NtId>,
    /// Lead-value action, applied to the lexeme bytes.
    pub tok_action: TokAction<V>,
    /// Folds lead + tail values into the production value.
    pub reduce: Reduce<V>,
}

impl<V> Clone for FusedProd<V> {
    fn clone(&self) -> Self {
        FusedProd {
            regex: self.regex,
            token: self.token.clone(),
        }
    }
}

impl<V> Clone for FusedToken<V> {
    fn clone(&self) -> Self {
        FusedToken {
            token: self.token,
            tail: self.tail.clone(),
            tok_action: Arc::clone(&self.tok_action),
            reduce: self.reduce.clone(),
        }
    }
}

/// One nonterminal of a fused grammar.
pub struct FusedNt<V> {
    /// Productions `n → r n̄` (F1) and the skip self-loop (F2).
    pub prods: Vec<FusedProd<V>>,
    /// The F3 lookahead rule: `(?¬r, ε-reduce)`; `None` when the
    /// nonterminal had no ε-production.
    pub eps: Option<(RegexId, Reduce<V>)>,
}

impl<V> Clone for FusedNt<V> {
    fn clone(&self) -> Self {
        FusedNt {
            prods: self.prods.clone(),
            eps: self.eps.as_ref().map(|(r, e)| (*r, e.clone())),
        }
    }
}

/// A token-free fused grammar (Fig 3a: `F ::= {n → r n̄} ∪ {n → ?r}`).
pub struct FusedGrammar<V> {
    start: NtId,
    nts: Vec<FusedNt<V>>,
    /// The lexer's skip regex (the F2 self-loop), which the
    /// interpreter also consumes after the start symbol completes.
    pub(crate) skip: Option<RegexId>,
    /// Declared token names (indexed by `Token`), carried over from
    /// the lexer for diagnostics: expected-set reporting clones these
    /// `Arc`s into errors without allocating.
    tok_names: Vec<Arc<str>>,
}

impl<V> Clone for FusedGrammar<V> {
    fn clone(&self) -> Self {
        FusedGrammar {
            start: self.start,
            nts: self.nts.clone(),
            skip: self.skip,
            tok_names: self.tok_names.clone(),
        }
    }
}

impl<V> FusedGrammar<V> {
    /// The start nonterminal.
    pub fn start(&self) -> NtId {
        self.start
    }

    /// Number of nonterminals (fusion never changes this).
    pub fn nt_count(&self) -> usize {
        self.nts.len()
    }

    /// Number of fused productions, counting F1 + F2 + F3 rules —
    /// the "Fused Prods" column of Table 1.
    pub fn prod_count(&self) -> usize {
        self.nts
            .iter()
            .map(|e| e.prods.len() + usize::from(e.eps.is_some()))
            .sum()
    }

    /// The fused productions of `nt`.
    pub fn entry(&self, nt: NtId) -> &FusedNt<V> {
        &self.nts[nt.index()]
    }

    /// The declared name of token `t`, as a shared handle suitable
    /// for embedding in errors without allocation.
    pub fn token_name_arc(&self, t: Token) -> &Arc<str> {
        &self.tok_names[t.index()]
    }

    /// The declared token names, indexed by token.
    pub fn token_names(&self) -> &[Arc<str>] {
        &self.tok_names
    }

    /// All nonterminals.
    pub fn nts(&self) -> impl Iterator<Item = NtId> + '_ {
        (0..self.nts.len()).map(|i| {
            // NtIds are dense indices in the source grammar
            nt_from_index(i)
        })
    }

    /// Renders the fused grammar in the style of Fig 3e.
    pub fn display<'a>(&'a self, arena: &'a RegexArena) -> DisplayFused<'a, V> {
        DisplayFused { fused: self, arena }
    }
}

fn nt_from_index(i: usize) -> NtId {
    // NtId construction is crate-private in flap-dgnf; round-trip via
    // the public Debug-stable index. flap-dgnf guarantees density.
    NtId::from_index(i)
}

/// Failures of fusion — all indicate the input grammar was not DGNF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuseError {
    /// A production still led with a μ-variable.
    ResidualVariable,
    /// A nonterminal had more than one ε-production.
    DuplicateEps(NtId),
    /// A production mentioned a token the lexer does not define.
    UnknownToken(Token),
}

impl fmt::Display for FuseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuseError::ResidualVariable => {
                write!(f, "cannot fuse: grammar contains a residual μ-variable")
            }
            FuseError::DuplicateEps(nt) => {
                write!(f, "cannot fuse: {:?} has more than one ε-production", nt)
            }
            FuseError::UnknownToken(t) => {
                write!(f, "cannot fuse: token {:?} is not defined by the lexer", t)
            }
        }
    }
}

impl std::error::Error for FuseError {}

/// Fuses `lexer` into `grammar` (Fig 6). New regexes (the F3
/// complements) are interned into the lexer's arena.
///
/// # Errors
///
/// [`FuseError`] when the grammar is not in DGNF; run
/// [`Grammar::check_dgnf`] for a precise diagnosis.
pub fn fuse<V>(lexer: &mut Lexer, grammar: &Grammar<V>) -> Result<FusedGrammar<V>, FuseError> {
    let skip = lexer.skip_regex();
    let token_count = lexer.token_count();
    let mut nts: Vec<FusedNt<V>> = Vec::with_capacity(grammar.nt_count());
    for nt in grammar.nts() {
        let entry = grammar.entry(nt);
        let mut prods: Vec<FusedProd<V>> = Vec::with_capacity(entry.prods.len() + 1);
        // F1: inline the lexer.
        for p in &entry.prods {
            let t = match p.lead {
                Lead::Tok(t) => t,
                Lead::Var(_) => return Err(FuseError::ResidualVariable),
            };
            if t.index() >= token_count {
                return Err(FuseError::UnknownToken(t));
            }
            prods.push(FusedProd {
                regex: lexer.regex_of(t),
                token: Some(FusedToken {
                    token: t,
                    tail: p.tail.clone(),
                    tok_action: p
                        .tok_action
                        .clone()
                        .expect("token-led DGNF production carries a token action"),
                    reduce: p.reduce.clone(),
                }),
            });
        }
        // F2: whitespace self-loop.
        if let Some(r) = skip {
            prods.push(FusedProd {
                regex: r,
                token: None,
            });
        }
        // F3: ε-production becomes a lookahead on the complement of
        // the other rules.
        let eps = match entry.eps.as_slice() {
            [] => None,
            [e] => {
                let union = {
                    let regexes: Vec<RegexId> = prods.iter().map(|p| p.regex).collect();
                    let ar = lexer.arena_mut();
                    let u = ar.alt_all(&regexes);
                    ar.not(u)
                };
                Some((union, e.clone()))
            }
            _ => return Err(FuseError::DuplicateEps(nt)),
        };
        nts.push(FusedNt { prods, eps });
    }
    Ok(FusedGrammar {
        start: grammar.start(),
        nts,
        skip,
        tok_names: lexer
            .tokens()
            .map(|t| Arc::from(lexer.token_name(t)))
            .collect(),
    })
}

/// Fig 3e-style rendering of a fused grammar; created by
/// [`FusedGrammar::display`].
pub struct DisplayFused<'a, V> {
    fused: &'a FusedGrammar<V>,
    arena: &'a RegexArena,
}

impl<V> fmt::Display for DisplayFused<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "start: {:?}", self.fused.start())?;
        for nt in self.fused.nts() {
            let e = self.fused.entry(nt);
            write!(f, "{:?} ::=", nt)?;
            let mut sep = " ";
            for p in &e.prods {
                write!(f, "{}{}", sep, self.arena.display(p.regex))?;
                sep = "\n    | ";
                match &p.token {
                    Some(tok) => {
                        for m in &tok.tail {
                            write!(f, " {:?}", m)?;
                        }
                    }
                    None => write!(f, " {:?}  (skip)", nt)?,
                }
            }
            if let Some((la, _)) = &e.eps {
                write!(f, "{}?{}", sep, self.arena.display(*la))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
