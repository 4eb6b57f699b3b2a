//! The parsing algorithm for fused grammars — Fig 9 of the paper,
//! run directly with regex derivatives (unstaged).
//!
//! This combines the lexing loop of Fig 7 with the DGNF parsing loop
//! of Fig 8: `F` scans one token's worth of characters for a single
//! nonterminal, maintaining the set of live regex derivatives and the
//! best match so far; `G` walks a stack of pending nonterminals. No
//! token is ever materialized — on a completed match the production's
//! actions run straight off the input slice.
//!
//! Being unstaged, every input character costs derivative computation
//! and nullability checks; `flap-staged` removes exactly that cost.
//! Benchmarking the two against each other isolates the contribution
//! of staging (§6).
//!
//! The interpreter runs once over a whole input and is kept as the
//! differential oracle for the staged VM, which alone suspends
//! between chunks, re-parses incrementally and reports to observers.
//! Each call owns its per-parse state (control stack, value stack,
//! live derivative set).

use std::fmt;
use std::sync::Arc;

use flap_dgnf::NtId;
use flap_regex::{RegexArena, RegexId};

use crate::fuse::FusedGrammar;

/// 1-based line and column of byte offset `pos` within `input`.
///
/// Columns count bytes since the last `\n` (adequate for the ASCII
/// grammars of the evaluation; multi-byte code points count per byte).
/// Offsets past the end of the input locate one column past the last
/// line's content, which is where "unexpected end of input" points.
pub fn line_col(input: &[u8], pos: usize) -> (usize, usize) {
    let upto = &input[..pos.min(input.len())];
    let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
    (line, col)
}

/// The token names whose regexes were still live when a failing scan
/// stopped — the "expected one of …" half of a parse error.
///
/// The set is stored inline (at most [`Expected::CAPACITY`] names,
/// each a shared `Arc<str>`), so attaching it to an error allocates
/// nothing: error construction stays on the allocation-free hot path.
/// Sets wider than the capacity are truncated and flagged.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Expected {
    names: [Option<Arc<str>>; Expected::CAPACITY],
    len: u8,
    truncated: bool,
}

impl Expected {
    /// Maximum number of names reported before truncation.
    pub const CAPACITY: usize = 8;

    /// An empty set (used by error variants with no token context).
    pub fn none() -> Self {
        Expected::default()
    }

    /// Adds a token name, deduplicating; past capacity the set is
    /// marked truncated instead of growing.
    pub fn push(&mut self, name: &Arc<str>) {
        let len = self.len as usize;
        if self.names[..len].iter().any(|n| n.as_deref() == Some(name)) {
            return;
        }
        if len == Expected::CAPACITY {
            self.truncated = true;
            return;
        }
        self.names[len] = Some(Arc::clone(name));
        self.len += 1;
    }

    /// The expected token names, in grammar production order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names[..self.len as usize]
            .iter()
            .filter_map(|n| n.as_deref())
    }

    /// Number of names reported (not counting any truncated away).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no token context was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when more tokens were live than fit in the inline set.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Marks the set truncated without adding a name — used when
    /// rebuilding a set whose overflow names are no longer known
    /// (artifact decoding preserves the flag, not the lost names).
    pub fn mark_truncated(&mut self) {
        self.truncated = true;
    }
}

impl fmt::Display for Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, name) in self.names().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}")?;
        }
        if self.truncated {
            write!(f, ", …")?;
        }
        Ok(())
    }
}

/// Parse failure for fused parsing (byte-level positions: there are
/// no tokens to report). Each variant also carries the 1-based
/// line/column of the failure, so `Display` messages are actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FusedParseError {
    /// No production of the pending nonterminal matches the input at
    /// `pos`, and the nonterminal has no ε-lookahead rule.
    NoMatch {
        /// Byte offset where the longest-match scan started.
        pos: usize,
        /// 1-based line of `pos`.
        line: usize,
        /// 1-based column of `pos`.
        col: usize,
        /// The nonterminal being parsed.
        nt: NtId,
        /// The token names whose regexes were still live when the
        /// scan stopped — what could have made progress here.
        expected: Expected,
    },
    /// Parsing finished but non-skippable input remains.
    TrailingInput {
        /// Byte offset of the first unconsumed byte.
        pos: usize,
        /// 1-based line of `pos`.
        line: usize,
        /// 1-based column of `pos`.
        col: usize,
    },
}

impl FusedParseError {
    /// The byte offset of the failure.
    pub fn pos(&self) -> usize {
        match self {
            FusedParseError::NoMatch { pos, .. } | FusedParseError::TrailingInput { pos, .. } => {
                *pos
            }
        }
    }

    /// The 1-based (line, column) of the failure.
    pub fn line_col(&self) -> (usize, usize) {
        match self {
            FusedParseError::NoMatch { line, col, .. }
            | FusedParseError::TrailingInput { line, col, .. } => (*line, *col),
        }
    }

    /// The expected-token set of a [`FusedParseError::NoMatch`]
    /// (`None` for trailing-input errors, which have no live scan).
    pub fn expected(&self) -> Option<&Expected> {
        match self {
            FusedParseError::NoMatch { expected, .. } => Some(expected),
            FusedParseError::TrailingInput { .. } => None,
        }
    }

    /// Renders the offending source line with a caret under the
    /// failure column, rustc-style:
    ///
    /// ```text
    /// error: parse error at line 2, column 4 (byte 9) while parsing Nt(0): expected one of: atom, lpar
    ///   |
    /// 2 | (a !)
    ///   |    ^
    /// ```
    ///
    /// `source` must be the same input the failing parse saw (for a
    /// chunked parse, the concatenation of every chunk); positions in
    /// the error index into it.
    pub fn render_snippet(&self, source: &[u8]) -> String {
        let pos = self.pos().min(source.len());
        let start = source[..pos]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |j| j + 1);
        let end = pos
            + source[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(source.len() - pos);
        let (line, col) = self.line_col();
        let text = String::from_utf8_lossy(&source[start..end]);
        let gutter = line.to_string();
        let pad = " ".repeat(gutter.len());
        let caret_pad = " ".repeat(col.saturating_sub(1));
        format!("error: {self}\n{pad} |\n{gutter} | {text}\n{pad} | {caret_pad}^\n")
    }
}

impl fmt::Display for FusedParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusedParseError::NoMatch {
                pos,
                line,
                col,
                nt,
                expected,
            } => {
                write!(
                    f,
                    "parse error at line {}, column {} (byte {}) while parsing {:?}",
                    line, col, pos, nt
                )?;
                if !expected.is_empty() {
                    write!(f, ": expected one of: {expected}")?;
                }
                Ok(())
            }
            FusedParseError::TrailingInput { pos, line, col } => {
                write!(
                    f,
                    "trailing input at line {}, column {} (byte {})",
                    line, col, pos
                )
            }
        }
    }
}

impl std::error::Error for FusedParseError {}

/// Control-stack entry: parse a nonterminal, or run the reduce of
/// production `prods[idx]` of nonterminal `nt`.
///
/// Reduces are addressed by index rather than held by `Arc` clone,
/// so entries stay `Copy`, with no refcount traffic on the per-token
/// path.
#[derive(Clone, Copy)]
enum Ctl {
    Nt(NtId),
    Reduce { nt: NtId, idx: u32 },
}

/// The three continuations of Fig 9 (`no`, `back`, `on n̄`),
/// specialized to production indices.
#[derive(Clone, Copy)]
enum K {
    No,
    Back,
    On(usize),
}

/// The immutable-per-call context of the fused interpreter: the
/// grammar and the derivative arena.
struct Machine<'a, V> {
    fg: &'a FusedGrammar<V>,
    arena: &'a mut RegexArena,
}

impl<V> Machine<'_, V> {
    /// Runs Fig 9 over the whole input and returns the start
    /// symbol's value: `G` pops the control stack, `F` scans one token
    /// for each nonterminal it pops, and once the stack is empty the
    /// trailing skippable input is consumed.
    fn run(&mut self, input: &[u8]) -> Result<V, FusedParseError> {
        let mut control = vec![Ctl::Nt(self.fg.start())];
        let mut values: Vec<V> = Vec::new();
        let mut live: Vec<(RegexId, usize)> = Vec::new();
        let mut pos = 0usize;
        while let Some(ctl) = control.pop() {
            let nt = match ctl {
                Ctl::Reduce { nt, idx } => {
                    let tok = self.fg.entry(nt).prods[idx as usize]
                        .token
                        .as_ref()
                        .expect("Reduce entries address token productions");
                    tok.reduce.run(&mut values);
                    continue;
                }
                Ctl::Nt(nt) => nt,
            };
            let entry = self.fg.entry(nt);
            live.clear();
            live.extend(entry.prods.iter().enumerate().map(|(i, p)| (p.regex, i)));
            let mut k = if entry.eps.is_some() { K::Back } else { K::No };
            // F: scan one token for nonterminal `nt`.
            let (mut rs, mut i) = (pos, pos);
            while i < input.len() {
                let c = input[i];
                live.retain_mut(|(r, _)| {
                    *r = self.arena.deriv(*r, c);
                    *r != RegexArena::EMPTY
                });
                if live.is_empty() {
                    break;
                }
                i += 1;
                let mut nullable = live.iter().filter(|&&(r, _)| self.arena.nullable(r));
                if let Some(&(_, idx)) = nullable.next() {
                    debug_assert!(
                        nullable.next().is_none(),
                        "fused production regexes must be disjoint"
                    );
                    k = K::On(idx);
                    rs = i;
                }
            }
            // Step(k, rs)
            match k {
                K::No => {
                    let (line, col) = line_col(input, pos);
                    return Err(FusedParseError::NoMatch {
                        pos,
                        line,
                        col,
                        nt,
                        expected: self.expected_at(nt, &input[pos..]),
                    });
                }
                K::Back => {
                    // consume nothing: pos stays at the token start
                    let (_, eps) = entry.eps.as_ref().expect("Back implies an ε rule");
                    eps.run(&mut values);
                }
                K::On(idx) => {
                    match &entry.prods[idx].token {
                        // skip self-loop: retry the same nonterminal
                        // after the skipped bytes
                        None => control.push(Ctl::Nt(nt)),
                        Some(tok) => {
                            values.push((tok.tok_action)(&input[pos..rs]));
                            control.push(Ctl::Reduce {
                                nt,
                                idx: idx as u32,
                            });
                            control.extend(tok.tail.iter().rev().map(|&m| Ctl::Nt(m)));
                        }
                    }
                    pos = rs;
                }
            }
        }

        // G exhausted: consume trailing skippable lexemes, each the
        // longest match of the skip regex, then require end of input.
        if let Some(skip) = self.fg.skip {
            loop {
                let (mut r, mut best, mut i) = (skip, 0, pos);
                while r != RegexArena::EMPTY && i < input.len() {
                    r = self.arena.deriv(r, input[i]);
                    i += 1;
                    if self.arena.nullable(r) {
                        best = i - pos;
                    }
                }
                if best == 0 {
                    break;
                }
                pos += best;
            }
        }
        if pos < input.len() {
            let (line, col) = line_col(input, pos);
            return Err(FusedParseError::TrailingInput { pos, line, col });
        }
        debug_assert_eq!(values.len(), 1, "parse must produce exactly one value");
        Ok(values.pop().expect("parse produced no value"))
    }

    /// The expected-token set at a `NoMatch`: replays the failing
    /// scan over the token's bytes (cold path) and reports the
    /// productions that were still live just before the scan died, in
    /// production order.
    fn expected_at(&mut self, nt: NtId, bytes: &[u8]) -> Expected {
        let fg = self.fg;
        let entry = fg.entry(nt);
        let mut cur: Vec<(RegexId, usize)> = entry
            .prods
            .iter()
            .enumerate()
            .map(|(i, p)| (p.regex, i))
            .collect();
        for &b in bytes {
            let survivors: Vec<(RegexId, usize)> = cur
                .iter()
                .map(|&(r, i)| (self.arena.deriv(r, b), i))
                .filter(|&(r, _)| r != RegexArena::EMPTY)
                .collect();
            if survivors.is_empty() {
                break;
            }
            cur = survivors;
        }
        let mut expected = Expected::none();
        for &(_, idx) in &cur {
            if let Some(tok) = &entry.prods[idx].token {
                expected.push(fg.token_name_arc(tok.token));
            }
        }
        expected
    }
}

/// Parses the whole input with the fused grammar, computing
/// derivatives on the fly (the unstaged algorithm of §5.3).
///
/// Trailing skippable input (e.g. final whitespace) is consumed after
/// the start symbol completes.
///
/// Unlike the staged VM, the unstaged interpreter *must* mutate the
/// regex arena (derivatives are computed and memoized at parse time),
/// so concurrent use requires one arena per thread. `arena` must be
/// the one `fg` was fused into, i.e. its lexer's.
///
/// # Errors
///
/// [`FusedParseError`] on mismatch or trailing input.
pub fn parse_fused<V>(
    fg: &FusedGrammar<V>,
    arena: &mut RegexArena,
    input: &[u8],
) -> Result<V, FusedParseError> {
    (Machine { fg, arena }).run(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse;
    use flap_cfe::Cfe;
    use flap_dgnf::normalize;
    use flap_lex::{Lexer, LexerBuilder};

    fn sexp_setup() -> (Lexer, FusedGrammar<i64>) {
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let mut lexer = b.build().unwrap();
        let sexp: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        let g = normalize(&sexp).unwrap();
        g.check_dgnf().unwrap();
        let fused = fuse(&mut lexer, &g).unwrap();
        (lexer, fused)
    }

    fn count(input: &[u8]) -> Result<i64, FusedParseError> {
        let (mut lexer, fused) = sexp_setup();
        parse_fused(&fused, lexer.arena_mut(), input)
    }

    #[test]
    fn parses_sexps_without_tokens() {
        assert_eq!(count(b"a").unwrap(), 1);
        assert_eq!(count(b"()").unwrap(), 0);
        assert_eq!(count(b"(a b c)").unwrap(), 3);
        assert_eq!(count(b"(a (b (c d)) e)").unwrap(), 5);
        assert_eq!(count(b"  ( a\n(b) )  ").unwrap(), 2);
        assert_eq!(count(b"((((x))))").unwrap(), 1);
    }

    #[test]
    fn longest_match_inside_fusion() {
        // "ab" must lex as one atom, not two
        assert_eq!(count(b"(ab)").unwrap(), 1);
        assert_eq!(count(b"(a b)").unwrap(), 2);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(count(b""), Err(FusedParseError::NoMatch { .. })));
        assert!(matches!(count(b"(a"), Err(FusedParseError::NoMatch { .. })));
        assert!(matches!(count(b")"), Err(FusedParseError::NoMatch { .. })));
        assert!(matches!(
            count(b"a b"),
            Err(FusedParseError::TrailingInput { .. })
        ));
        assert!(matches!(
            count(b"(a) !"),
            Err(FusedParseError::TrailingInput { .. })
        ));
    }

    #[test]
    fn expected_dedups_and_truncates() {
        let names: Vec<Arc<str>> = (0..10)
            .map(|i| Arc::from(format!("t{i}").as_str()))
            .collect();
        let mut e = Expected::none();
        e.push(&names[0]);
        e.push(&names[0]);
        assert_eq!(e.len(), 1);
        for n in &names {
            e.push(n);
        }
        assert_eq!(e.len(), Expected::CAPACITY);
        assert!(e.is_truncated());
        assert_eq!(e.to_string(), "t0, t1, t2, t3, t4, t5, t6, t7, …");
    }

    #[test]
    fn line_col_computation() {
        assert_eq!(line_col(b"abc", 0), (1, 1));
        assert_eq!(line_col(b"abc", 2), (1, 3));
        assert_eq!(line_col(b"ab\ncd", 3), (2, 1));
        assert_eq!(line_col(b"ab\ncd", 4), (2, 2));
        assert_eq!(line_col(b"a\n\nb", 3), (3, 1));
        // offsets past the end clamp to just past the last byte
        assert_eq!(line_col(b"ab", 99), (1, 3));
        assert_eq!(line_col(b"", 0), (1, 1));
    }

    #[test]
    fn errors_report_line_and_column() {
        // error on line 2: the second `(` is never closed
        let err = count(b"(a b\n(c").unwrap_err();
        match &err {
            FusedParseError::NoMatch { line, col, .. } => {
                assert_eq!(*line, 2, "{err}");
                assert!(*col >= 1, "{err}");
            }
            other => panic!("expected NoMatch, got {other:?}"),
        }
        assert!(err.to_string().contains("line 2"), "{err}");

        let err = count(b"a\nb").unwrap_err();
        assert!(
            matches!(
                err,
                FusedParseError::TrailingInput {
                    line: 2,
                    col: 1,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("line 2, column 1"), "{err}");
    }

    #[test]
    fn errors_report_expected_tokens() {
        // at end of "(a" the sexps loop has taken its ε-lookahead,
        // so the failing nonterminal is the one demanding `)`
        let err = count(b"(a").unwrap_err();
        let expected = err.expected().expect("NoMatch carries expected set");
        let names: Vec<&str> = expected.names().collect();
        assert_eq!(names, ["rpar"], "{err}");
        assert!(err.to_string().contains("expected one of"), "{err}");

        // at the very start every production of sexp is live
        let err = count(b"").unwrap_err();
        let names: Vec<&str> = err.expected().unwrap().names().collect();
        assert!(names.contains(&"atom"), "{names:?}");
        assert!(names.contains(&"lpar"), "{names:?}");

        // a scan that dies mid-token reports only the productions
        // that survived the consumed prefix
        let mut b = LexerBuilder::new();
        let ab = b.token("ab", "ab").unwrap();
        let cd = b.token("cd", "cd").unwrap();
        let mut lexer = b.build().unwrap();
        let g: Cfe<i64> = Cfe::tok_val(ab, 1).or(Cfe::tok_val(cd, 2));
        let fused = fuse(&mut lexer, &normalize(&g).unwrap()).unwrap();
        let err = parse_fused(&fused, lexer.arena_mut(), b"ax").unwrap_err();
        let names: Vec<&str> = err.expected().unwrap().names().collect();
        assert_eq!(names, ["ab"], "{err}");
        let err = parse_fused(&fused, lexer.arena_mut(), b"x").unwrap_err();
        let names: Vec<&str> = err.expected().unwrap().names().collect();
        assert_eq!(names, ["ab", "cd"], "{err}");
    }

    #[test]
    fn render_snippet_points_at_the_failure() {
        let input = b"(a b\n(c !\nd)";
        let err = count(input).unwrap_err();
        let snippet = err.render_snippet(input);
        assert!(snippet.contains("2 | (c !"), "{snippet}");
        let caret_line = snippet.lines().last().unwrap();
        let (_, col) = err.line_col();
        assert_eq!(caret_line.find('^').unwrap(), 3 + col - 1 + 1, "{snippet}");
    }

    #[test]
    fn trailing_whitespace_is_consumed() {
        assert_eq!(count(b"a   \n ").unwrap(), 1);
        assert_eq!(count(b"(a)\n").unwrap(), 1);
    }

    #[test]
    fn agrees_with_token_level_parser() {
        let (mut lexer, fused) = sexp_setup();
        // rebuild the token-level pipeline for the differential check
        let mut b = LexerBuilder::new();
        b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        b.token("lpar", r"\(").unwrap();
        b.token("rpar", r"\)").unwrap();
        let mut lexer2 = b.build().unwrap();
        let clex = flap_lex::CompiledLexer::build(&mut lexer2);
        let atom = flap_lex::Token::from_index(0);
        let lpar = flap_lex::Token::from_index(1);
        let rpar = flap_lex::Token::from_index(2);
        let sexp: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        let machine = flap_dgnf::DgnfParser::new(&normalize(&sexp).unwrap());
        for input in [
            &b"a"[..],
            b"()",
            b"(a b c)",
            b"((a) (b c) ())",
            b"(a",
            b")",
            b"",
            b"a b",
        ] {
            let fused_res = parse_fused(&fused, lexer.arena_mut(), input);
            let tok_res = machine.parse(input, clex.lexemes(input));
            assert_eq!(
                fused_res.is_ok(),
                tok_res.is_ok(),
                "fused and token-level disagree on {:?}",
                input
            );
            if let (Ok(a), Ok(b)) = (&fused_res, &tok_res) {
                assert_eq!(a, b, "values disagree on {:?}", input);
            }
        }
    }

    #[test]
    fn fig_3e_shape() {
        // Fig 3e / Table 1: the fused s-expression grammar has 9
        // productions over 3 nonterminals.
        let (_, fused) = sexp_setup();
        assert_eq!(fused.nt_count(), 3);
        assert_eq!(fused.prod_count(), 9);
        // sexp: 2 token prods + skip, no lookahead
        let start = fused.entry(fused.start());
        assert_eq!(start.prods.len(), 3);
        assert!(start.eps.is_none());
        assert_eq!(start.prods.iter().filter(|p| p.token.is_none()).count(), 1);
    }

    #[test]
    fn csv_quoted_fields_fused() {
        // multi-character lookahead ("" vs ") straight off bytes
        let mut b = LexerBuilder::new();
        let field = b.token("field", "\"([^\"]|\"\")*\"").unwrap();
        let comma = b.token("comma", ",").unwrap();
        let mut lexer = b.build().unwrap();
        // field (, field)* — count fields
        let row: Cfe<i64> = Cfe::sep_by1(
            Cfe::tok_val(field, 1),
            Cfe::tok_val(comma, 0),
            || 0,
            |a, b| a + b,
        );
        let g = normalize(&row).unwrap();
        let fused = fuse(&mut lexer, &g).unwrap();
        assert_eq!(
            parse_fused(&fused, lexer.arena_mut(), b"\"a\",\"b\"\"c\",\"\"").unwrap(),
            3
        );
        assert!(parse_fused(&fused, lexer.arena_mut(), b"\"a\",").is_err());
    }
}
