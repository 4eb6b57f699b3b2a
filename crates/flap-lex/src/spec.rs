//! Lexer specifications and canonicalization.
//!
//! A lexer `L` in the paper (Fig 3a) is a set of rules
//! `r ⇒ Return t` and `r ⇒ Skip`. Fusion (§4) assumes a
//! *canonicalized* lexer:
//!
//! * **disjoint on the left** — no string is matched by more than one
//!   rule's regex;
//! * **disjoint on the right** — exactly one `Skip` rule (possibly
//!   `⊥`) and at most one `Return` rule per token.
//!
//! As the paper notes, "negation and intersection make it easy to
//! transform a lexer that does not obey these constraints into an
//! equivalent lexer that does, so there is no need to restrict the
//! interface exposed to the user". [`LexerBuilder::build`] performs
//! exactly that transformation: rules are prioritized in declaration
//! order (earlier rules win, as in `lex`), each rule's regex is
//! intersected with the complement of all earlier rules, rules
//! returning the same token are merged with `|`, and all `Skip` rules
//! are merged into one.

use std::fmt;

use flap_regex::{EmptinessCheck, RegexArena, RegexId, RegexParseError};

use crate::token::Token;

/// What the lexer does when a rule matches (Fig 3a).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LexAction {
    /// Produce the token and resume lexing.
    Return(Token),
    /// Discard the lexeme (whitespace, comments) and resume lexing.
    Skip,
}

/// One canonicalized lexer rule: `regex ⇒ action`.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// The (canonicalized, pairwise-disjoint) regex.
    pub regex: RegexId,
    /// The action taken on a match.
    pub action: LexAction,
}

/// Errors arising while building a lexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexBuildError {
    /// A rule's regex was syntactically malformed.
    Regex(RegexParseError),
    /// A rule's regex accepts the empty string, which would make the
    /// lexer loop without consuming input.
    NullableRule {
        /// Name of the offending token, or `"<skip>"`.
        name: String,
    },
    /// After disjointness canonicalization a rule matches nothing: it
    /// is completely shadowed by earlier rules.
    ShadowedRule {
        /// Name of the offending token, or `"<skip>"`.
        name: String,
    },
    /// A token name was declared twice.
    DuplicateToken {
        /// The duplicated name.
        name: String,
    },
    /// More tokens were declared than a `TokenSet` can hold.
    TooManyTokens,
}

impl fmt::Display for LexBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexBuildError::Regex(e) => write!(f, "{e}"),
            LexBuildError::NullableRule { name } => {
                write!(f, "lexer rule for {name} matches the empty string")
            }
            LexBuildError::ShadowedRule { name } => {
                write!(
                    f,
                    "lexer rule for {name} is completely shadowed by earlier rules"
                )
            }
            LexBuildError::DuplicateToken { name } => {
                write!(f, "token {name} declared more than once")
            }
            LexBuildError::TooManyTokens => write!(f, "too many tokens for one lexer"),
        }
    }
}

impl std::error::Error for LexBuildError {}

impl From<RegexParseError> for LexBuildError {
    fn from(e: RegexParseError) -> Self {
        LexBuildError::Regex(e)
    }
}

/// Incremental construction of a [`Lexer`].
///
/// # Examples
///
/// The s-expression lexer of Fig 3b:
///
/// ```
/// use flap_lex::LexerBuilder;
///
/// let mut b = LexerBuilder::new();
/// let atom = b.token("atom", "[a-z]+").unwrap();
/// b.skip("[ \n]").unwrap();
/// let lpar = b.token("lpar", r"\(").unwrap();
/// let rpar = b.token("rpar", r"\)").unwrap();
/// let lexer = b.build().unwrap();
/// assert_eq!(lexer.token_name(atom), "atom");
/// assert_eq!(lexer.token_count(), 3);
/// let _ = (lpar, rpar);
/// ```
#[derive(Debug)]
pub struct LexerBuilder {
    arena: RegexArena,
    raw_rules: Vec<(RegexId, LexAction)>,
    token_names: Vec<String>,
}

impl LexerBuilder {
    /// Creates an empty builder with a fresh regex arena.
    pub fn new() -> Self {
        LexerBuilder {
            arena: RegexArena::new(),
            raw_rules: Vec::new(),
            token_names: Vec::new(),
        }
    }

    /// The regex arena used by this builder, for constructing regexes
    /// that the string syntax cannot express (intersection,
    /// complement).
    pub fn arena_mut(&mut self) -> &mut RegexArena {
        &mut self.arena
    }

    /// Declares a token returned when `pattern` (string regex syntax)
    /// matches.
    ///
    /// # Errors
    ///
    /// Fails on malformed patterns, duplicate names, or token-count
    /// overflow.
    pub fn token(&mut self, name: &str, pattern: &str) -> Result<Token, LexBuildError> {
        let r = self.arena.parse(pattern)?;
        self.token_regex(name, r)
    }

    /// Declares a token returned when the literal byte string `lit`
    /// matches.
    pub fn token_literal(&mut self, name: &str, lit: &str) -> Result<Token, LexBuildError> {
        let r = self.arena.literal(lit.as_bytes());
        self.token_regex(name, r)
    }

    /// Declares a token with an already-built regex (which must come
    /// from [`LexerBuilder::arena_mut`]).
    pub fn token_regex(&mut self, name: &str, regex: RegexId) -> Result<Token, LexBuildError> {
        if self.token_names.iter().any(|n| n == name) {
            return Err(LexBuildError::DuplicateToken {
                name: name.to_string(),
            });
        }
        if self.token_names.len() >= crate::TokenSet::CAPACITY {
            return Err(LexBuildError::TooManyTokens);
        }
        let t = Token(self.token_names.len() as u32);
        self.token_names.push(name.to_string());
        self.raw_rules.push((regex, LexAction::Return(t)));
        Ok(t)
    }

    /// Adds an additional pattern for an existing token (e.g. several
    /// spellings of the same keyword). Patterns for one token are
    /// merged with `|` during canonicalization.
    pub fn also(&mut self, token: Token, pattern: &str) -> Result<(), LexBuildError> {
        let r = self.arena.parse(pattern)?;
        self.raw_rules.push((r, LexAction::Return(token)));
        Ok(())
    }

    /// Declares a skip rule (whitespace, comments).
    pub fn skip(&mut self, pattern: &str) -> Result<(), LexBuildError> {
        let r = self.arena.parse(pattern)?;
        self.raw_rules.push((r, LexAction::Skip));
        Ok(())
    }

    /// Declares a skip rule with an already-built regex.
    pub fn skip_regex(&mut self, regex: RegexId) {
        self.raw_rules.push((regex, LexAction::Skip));
    }

    /// Canonicalizes the accumulated rules into a [`Lexer`] (§4 of the
    /// paper).
    ///
    /// Every canonical regex is built before any rule is checked, so
    /// the lexer's regexes, and with them `grammar_key` and an
    /// artifact's shape check, depend only on the declarations. Then
    /// each rule is checked for shadowing in declaration order:
    ///
    /// * a literal rule (one byte string) is shadowed iff an earlier
    ///   rule matches its bytes: an earlier literal when it is the
    ///   same string, any other rule when its derivative along the
    ///   bytes is nullable;
    /// * any other rule is shadowed iff its canonical regex denotes
    ///   the empty language, decided by one [`EmptinessCheck`] for the
    ///   whole build.
    ///
    /// # Errors
    ///
    /// Fails if any rule is nullable, or if a rule is completely
    /// shadowed by earlier rules (its canonicalized regex denotes the
    /// empty language). The first nullable rule in declaration order
    /// is reported before any shadowed one, and the first shadowed
    /// rule before any later one.
    pub fn build(mut self) -> Result<Lexer, LexBuildError> {
        let n_tokens = self.token_names.len();
        // 1. Enforce non-nullability up front.
        for (r, action) in &self.raw_rules {
            if self.arena.nullable(*r) {
                return Err(LexBuildError::NullableRule {
                    name: self.rule_name(*action),
                });
            }
        }
        // 2. Left-disjointness: subtract all earlier rules from each
        //    rule, in declaration priority order.
        let raw = std::mem::take(&mut self.raw_rules);
        let mut seen = RegexArena::EMPTY; // union of earlier regexes
        let canon: Vec<RegexId> = raw
            .iter()
            .map(|&(r, _)| {
                let canon = self.arena.minus(r, seen);
                seen = self.arena.alt(seen, r);
                canon
            })
            .collect();
        // 3. Right-disjointness: one regex per token, one skip regex.
        let mut per_token: Vec<RegexId> = vec![RegexArena::EMPTY; n_tokens];
        let mut skip = RegexArena::EMPTY;
        for (&(_, action), &r) in raw.iter().zip(&canon) {
            match action {
                LexAction::Return(t) => {
                    per_token[t.index()] = self.arena.alt(per_token[t.index()], r);
                }
                LexAction::Skip => skip = self.arena.alt(skip, r),
            }
        }
        // 4. No rule may be shadowed by earlier ones.
        let literals: Vec<Option<Vec<u8>>> = raw
            .iter()
            .map(|&(r, _)| self.arena.literal_bytes(r))
            .collect();
        let mut emptiness = EmptinessCheck::new();
        for (i, (&(_, action), &canon)) in raw.iter().zip(&canon).enumerate() {
            let shadowed = match &literals[i] {
                Some(lit) => (0..i).any(|j| match &literals[j] {
                    Some(earlier) => earlier == lit,
                    None => self.arena.matches(raw[j].0, lit),
                }),
                None => emptiness.is_empty(&mut self.arena, canon),
            };
            if shadowed {
                return Err(LexBuildError::ShadowedRule {
                    name: self.rule_name(action),
                });
            }
        }
        let mut rules: Vec<Rule> = per_token
            .iter()
            .enumerate()
            .map(|(i, &regex)| Rule {
                regex,
                action: LexAction::Return(Token(i as u32)),
            })
            .collect();
        if skip != RegexArena::EMPTY {
            rules.push(Rule {
                regex: skip,
                action: LexAction::Skip,
            });
        }
        Ok(Lexer {
            arena: self.arena,
            rules,
            skip: if skip == RegexArena::EMPTY {
                None
            } else {
                Some(skip)
            },
            token_names: self.token_names,
        })
    }

    fn rule_name(&self, action: LexAction) -> String {
        match action {
            LexAction::Return(t) => self.token_names[t.index()].clone(),
            LexAction::Skip => "<skip>".to_string(),
        }
    }
}

impl Default for LexerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A canonicalized lexer: pairwise-disjoint regexes, one rule per
/// token plus at most one skip rule.
///
/// The lexer owns the [`RegexArena`] in which its rules (and any
/// regexes derived from them during fusion and staging) live.
#[derive(Debug)]
pub struct Lexer {
    arena: RegexArena,
    rules: Vec<Rule>,
    skip: Option<RegexId>,
    token_names: Vec<String>,
}

impl Lexer {
    /// The canonical rules: index `i < token_count` is the rule for
    /// token `i`; a final rule holds the merged skip regex if any skip
    /// rule was declared.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The canonical regex recognizing `t`'s lexemes.
    pub fn regex_of(&self, t: Token) -> RegexId {
        self.rules[t.index()].regex
    }

    /// The merged skip regex, if any skip rule was declared.
    pub fn skip_regex(&self) -> Option<RegexId> {
        self.skip
    }

    /// Number of declared tokens.
    pub fn token_count(&self) -> usize {
        self.token_names.len()
    }

    /// Number of canonical rules (tokens plus skip), the "Lex rules"
    /// column of Table 1.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The declared name of a token.
    pub fn token_name(&self, t: Token) -> &str {
        &self.token_names[t.index()]
    }

    /// All tokens in declaration order.
    pub fn tokens(&self) -> impl Iterator<Item = Token> + '_ {
        (0..self.token_names.len()).map(|i| Token(i as u32))
    }

    /// Shared access to the regex arena.
    pub fn arena(&self) -> &RegexArena {
        &self.arena
    }

    /// Mutable access to the regex arena (used by fusion to build
    /// lookahead complements and by derivative-taking algorithms).
    pub fn arena_mut(&mut self) -> &mut RegexArena {
        &mut self.arena
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use flap_regex::is_empty_lang;

    fn sexp_lexer() -> (Lexer, Token, Token, Token) {
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        (b.build().unwrap(), atom, lpar, rpar)
    }

    #[test]
    fn builds_canonical_sexp_lexer() {
        let (lx, atom, lpar, rpar) = sexp_lexer();
        assert_eq!(lx.token_count(), 3);
        assert_eq!(lx.rule_count(), 4); // 3 tokens + skip
        assert!(lx.skip_regex().is_some());
        assert_eq!(lx.token_name(atom), "atom");
        assert_eq!(lx.token_name(lpar), "lpar");
        assert_eq!(lx.token_name(rpar), "rpar");
    }

    #[test]
    fn canonical_rules_are_pairwise_disjoint() {
        let (mut lx, _, _, _) = sexp_lexer();
        let rules: Vec<RegexId> = lx.rules().iter().map(|r| r.regex).collect();
        for i in 0..rules.len() {
            for j in i + 1..rules.len() {
                let ar = lx.arena_mut();
                let both = ar.and(rules[i], rules[j]);
                assert!(
                    is_empty_lang(ar, both),
                    "rules {i} and {j} overlap after canonicalization"
                );
            }
        }
    }

    #[test]
    fn keyword_vs_identifier_priority() {
        // Earlier rules win: "if" is a keyword, all other words idents.
        let mut b = LexerBuilder::new();
        let kw = b.token("if", "if").unwrap();
        let ident = b.token("ident", "[a-z]+").unwrap();
        let mut lx = b.build().unwrap();
        let (rk, ri) = (lx.regex_of(kw), lx.regex_of(ident));
        let ar = lx.arena_mut();
        assert!(ar.matches(rk, b"if"));
        assert!(!ar.matches(ri, b"if"), "ident must exclude the keyword");
        assert!(ar.matches(ri, b"iff"));
        assert!(ar.matches(ri, b"i"));
    }

    #[test]
    fn merges_multiple_rules_for_one_token() {
        let mut b = LexerBuilder::new();
        let boolean = b.token("bool", "true").unwrap();
        b.also(boolean, "false").unwrap();
        let mut lx = b.build().unwrap();
        let r = lx.regex_of(boolean);
        let ar = lx.arena_mut();
        assert!(ar.matches(r, b"true"));
        assert!(ar.matches(r, b"false"));
        assert!(!ar.matches(r, b"truefalse"));
    }

    #[test]
    fn merges_multiple_skip_rules() {
        let mut b = LexerBuilder::new();
        b.token("x", "x").unwrap();
        b.skip(" ").unwrap();
        b.skip("#[^\n]*\n").unwrap(); // line comments
        let mut lx = b.build().unwrap();
        assert_eq!(lx.rule_count(), 2);
        let s = lx.skip_regex().unwrap();
        let ar = lx.arena_mut();
        assert!(ar.matches(s, b" "));
        assert!(ar.matches(s, b"# hi\n"));
    }

    #[test]
    fn rejects_nullable_rule() {
        let mut b = LexerBuilder::new();
        b.token("bad", "a*").unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, LexBuildError::NullableRule { ref name } if name == "bad"));
    }

    #[test]
    fn rejects_fully_shadowed_rule() {
        let mut b = LexerBuilder::new();
        b.token("word", "[a-z]+").unwrap();
        b.token("abc", "abc").unwrap(); // subsumed by word
        let err = b.build().unwrap_err();
        assert!(matches!(err, LexBuildError::ShadowedRule { ref name } if name == "abc"));
    }

    #[test]
    fn rejects_duplicate_token_names() {
        let mut b = LexerBuilder::new();
        b.token("x", "x").unwrap();
        let err = b.token("x", "y").unwrap_err();
        assert!(matches!(err, LexBuildError::DuplicateToken { .. }));
    }

    #[test]
    fn error_display() {
        let e = LexBuildError::NullableRule { name: "ws".into() };
        assert!(e.to_string().contains("empty string"));
        let e2 = LexBuildError::ShadowedRule { name: "kw".into() };
        assert!(e2.to_string().contains("shadowed"));
    }
}
