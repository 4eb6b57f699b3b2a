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
//! ### One resumable core
//!
//! The interpreter is written as a *stepper*: it runs over whatever
//! contiguous bytes it is given and, when they run out before end of
//! input, suspends into the session — automaton position, live
//! derivative set, longest match so far — and reports how many bytes
//! it fully consumed. One-shot [`parse_fused`]/[`parse_fused_with`]
//! are thin wrappers that hand the stepper the whole input with the
//! end-of-input flag set; [`stream_fused`] feeds it chunk by chunk.
//! Because token actions need their lexeme as one contiguous slice,
//! a suspended session retains the bytes of the in-progress token
//! (the *token tail*) in its [`StreamState`] buffer and resumes the
//! scan after them — see `flap_fuse::stream` for the invariant.
//!
//! Per-parse mutable state (control stack, value stack, live
//! derivative set, suspension point) lives in a caller-owned
//! [`FusedSession`], mirroring `flap-staged`'s `ParseSession`, so the
//! staged/unstaged differential comparison exercises the same
//! ownership discipline on both sides.

use std::fmt;

use flap_dgnf::NtId;
use flap_regex::{RegexArena, RegexId};

use crate::fuse::{FusedGrammar, FusedProd};
use crate::obs::{NoopObserver, Observer};
use crate::stream::{ByteSource, Expected, Step, StreamError, StreamState};

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

/// Parse failure for fused parsing (byte-level positions: there are
/// no tokens to report). Each variant also carries the 1-based
/// line/column of the failure — computed from the input (one-shot) or
/// from the session's incremental accounting (streaming) — so
/// `Display` messages are actionable.
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
    /// streaming parse, the concatenation of every chunk); positions
    /// in the error index into it.
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
/// Reduces are addressed by index rather than held by borrow or
/// `Arc` clone, so entries stay `Copy` and the stack can live in a
/// session that outlives any single call without refcount traffic on
/// the per-token hot path (as the staged VM's one-word control entries
/// index its action tables).
#[derive(Clone, Copy)]
pub(crate) enum Ctl {
    Nt(NtId),
    Reduce { nt: NtId, idx: u32 },
}

/// The three continuations of Fig 9 (`no`, `back`, `on n̄`),
/// specialized to production indices.
#[derive(Clone, Copy)]
pub(crate) enum K {
    No,
    Back,
    On(usize),
}

/// Where a suspended fused parse resumes — the automaton position
/// saved when a feed runs out of bytes.
#[derive(Clone, Copy)]
pub(crate) enum Resume {
    /// No stream is active (fresh session, or the last parse ended).
    Idle,
    /// At the top of the control loop, about to pop the next entry.
    Control,
    /// Mid-scan of one token of `nt`: the first `scanned` buffered
    /// bytes have been fed to the live derivatives, the longest match
    /// so far is `rs_len` bytes, and `k` is the pending continuation.
    Token {
        nt: NtId,
        k: K,
        rs_len: usize,
        scanned: usize,
    },
    /// Mid-scan of one trailing skip lexeme: `r` is the current
    /// derivative of the skip regex (fallback path, taken when the
    /// grammar carries no flat skip DFA for the caller's regex).
    Trailing {
        r: RegexId,
        best_len: usize,
        scanned: usize,
    },
    /// Mid-scan of one trailing skip lexeme in the flattened skip
    /// DFA: `st` is a `FlatDfa` row.
    TrailingFlat {
        st: u32,
        best_len: usize,
        scanned: usize,
    },
}

/// Caller-owned scratch state for fused parsing: the control stack,
/// value stack and live-derivative set of the Fig 9 interpreter,
/// plus the suspension state and retained byte tail of an in-progress
/// streaming parse. The unstaged counterpart of
/// `flap_staged::ParseSession`.
pub struct FusedSession<V> {
    pub(crate) control: Vec<Ctl>,
    pub(crate) values: Vec<V>,
    /// Reused scratch buffer for the live derivative set.
    pub(crate) live: Vec<(RegexId, usize)>,
    /// Suspension point of an in-progress streaming parse.
    pub(crate) resume: Resume,
    /// `stream_id` of the grammar that created the suspension, so a
    /// suspended session cannot be resumed against different tables.
    pub(crate) owner: u64,
    /// Retained bytes + line/column accounting for streaming.
    pub(crate) stream: StreamState,
}

impl<V> FusedSession<V> {
    /// An empty session; buffers grow on first use and are then
    /// retained across parses.
    pub fn new() -> Self {
        FusedSession {
            control: Vec::new(),
            values: Vec::new(),
            live: Vec::new(),
            resume: Resume::Idle,
            owner: 0,
            stream: StreamState::new(),
        }
    }

    /// Abandons any suspended stream and clears all per-parse state,
    /// retaining buffer capacity.
    pub fn reset(&mut self) {
        self.control.clear();
        self.values.clear();
        self.live.clear();
        self.resume = Resume::Idle;
        self.owner = 0;
        self.stream.reset();
    }
}

impl<V> Default for FusedSession<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// What one run of the stepper produced. Positions are relative to
/// the byte slice the stepper was given; wrappers translate them to
/// global stream offsets and line/columns.
enum Flow {
    /// Out of bytes before end of input (only when `last == false`):
    /// everything before `keep_from` is fully consumed; the caller
    /// must retain the rest (the in-progress token's tail).
    More { keep_from: usize },
    /// Parse and trailing skips completed exactly at end of input.
    Done,
    /// No production of `nt` matched at `pos`.
    NoMatch { pos: usize, nt: NtId },
    /// The start symbol completed but non-skippable input remains.
    TrailingInput { pos: usize },
}

/// The immutable-per-call context of the fused interpreter: the
/// grammar, the derivative arena and the skip regex.
struct Machine<'a, V> {
    fg: &'a FusedGrammar<V>,
    arena: &'a mut RegexArena,
    skip: Option<RegexId>,
}

impl<V> Machine<'_, V> {
    /// The resumable Fig 9 stepper. Runs over `input` until it either
    /// needs more bytes (`last == false`), finishes, or fails. All
    /// hot-loop state lives in the session halves passed in, so a
    /// suspended run can continue on the next feed exactly where it
    /// stopped.
    ///
    /// `obs` receives per-event hooks (token commits, skips,
    /// reductions); monomorphized over [`NoopObserver`] the calls
    /// vanish and this compiles to the unobserved stepper.
    // The session halves are deliberately separate parameters: they
    // must be borrowed disjointly from the caller's session struct.
    #[allow(clippy::too_many_arguments)]
    fn run<O: Observer>(
        &mut self,
        control: &mut Vec<Ctl>,
        values: &mut Vec<V>,
        live: &mut Vec<(RegexId, usize)>,
        resume: &mut Resume,
        input: &[u8],
        last: bool,
        obs: &mut O,
    ) -> Flow {
        let mut pos = 0usize;
        if !matches!(
            *resume,
            Resume::Trailing { .. } | Resume::TrailingFlat { .. }
        ) {
            let mut suspended = match *resume {
                Resume::Token {
                    nt,
                    k,
                    rs_len,
                    scanned,
                } => Some((nt, k, rs_len, scanned)),
                _ => None,
            };
            'outer: loop {
                // Resume a suspended scan (the token tail starts at
                // buffer offset 0 by the retention invariant), or pop
                // the next control entry and start a fresh one.
                let (nt, tok_start, mut k, mut rs, mut i) = match suspended.take() {
                    Some((nt, k, rs_len, scanned)) => (nt, 0, k, rs_len, scanned),
                    None => match control.pop() {
                        None => break 'outer,
                        Some(Ctl::Reduce { nt, idx }) => {
                            let tok = self.fg.entry(nt).prods[idx as usize]
                                .token
                                .as_ref()
                                .expect("Reduce entries address token productions");
                            tok.reduce.run(values);
                            obs.reduce(nt.index() as u32);
                            continue 'outer;
                        }
                        Some(Ctl::Nt(n)) => {
                            let entry = self.fg.entry(n);
                            live.clear();
                            live.extend(entry.prods.iter().enumerate().map(|(i, p)| (p.regex, i)));
                            let k = if entry.eps.is_some() { K::Back } else { K::No };
                            (n, pos, k, pos, pos)
                        }
                    },
                };
                // F: scan one token for nonterminal `nt`.
                while i < input.len() && !live.is_empty() {
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
                if i >= input.len() && !last && !live.is_empty() {
                    // Out of bytes with the scan still live: a longer
                    // match may arrive in the next chunk. Suspend,
                    // retaining the token's bytes from tok_start on.
                    *resume = Resume::Token {
                        nt,
                        k,
                        rs_len: rs - tok_start,
                        scanned: i - tok_start,
                    };
                    return Flow::More {
                        keep_from: tok_start,
                    };
                }
                // Step(k, rs)
                match k {
                    K::No => {
                        // drop partially-reduced values now rather
                        // than holding them until the session's next
                        // parse
                        control.clear();
                        values.clear();
                        *resume = Resume::Idle;
                        return Flow::NoMatch { pos: tok_start, nt };
                    }
                    K::Back => {
                        let entry = self.fg.entry(nt);
                        let (_, eps) = entry.eps.as_ref().expect("Back implies an ε rule");
                        eps.run(values);
                        obs.eps_reduce();
                        // consume nothing: pos stays at tok_start
                        pos = tok_start;
                    }
                    K::On(idx) => {
                        pos = rs;
                        let FusedProd { token, .. } = &self.fg.entry(nt).prods[idx];
                        match token {
                            None => {
                                // skip self-loop: retry the same
                                // nonterminal after the skipped bytes
                                obs.skipped(rs - tok_start);
                                control.push(Ctl::Nt(nt));
                            }
                            Some(tok) => {
                                obs.token(tok.token.index() as u32, rs - tok_start);
                                values.push((tok.tok_action)(&input[tok_start..rs]));
                                control.push(Ctl::Reduce {
                                    nt,
                                    idx: idx as u32,
                                });
                                for &m in tok.tail.iter().rev() {
                                    control.push(Ctl::Nt(m));
                                }
                            }
                        }
                    }
                }
            }
        }

        // G exhausted (or resuming here): consume trailing skippable
        // lexemes, then require end of input.
        let Some(skip) = self.skip else {
            let at = if matches!(
                *resume,
                Resume::Trailing { .. } | Resume::TrailingFlat { .. }
            ) {
                0
            } else {
                pos
            };
            if at < input.len() {
                control.clear();
                values.clear();
                *resume = Resume::Idle;
                return Flow::TrailingInput { pos: at };
            }
            if !last {
                *resume = Resume::Trailing {
                    r: RegexArena::EMPTY,
                    best_len: 0,
                    scanned: 0,
                };
                return Flow::More { keep_from: at };
            }
            *resume = Resume::Idle;
            return Flow::Done;
        };
        // Flat fast path: the fused grammar carries a flattened DFA
        // for its own skip regex (sink precomputed, SWAR through the
        // whitespace self-loop). A caller passing some other regex —
        // or a session suspended on the derivative path — falls back
        // to stepping derivatives below.
        let flat = match *resume {
            Resume::Trailing { .. } => None,
            _ => self.fg.skip_dfa(skip),
        };
        if let Some(flat) = flat {
            let (mut tok_start, mut row, mut best, mut i) = match *resume {
                Resume::TrailingFlat {
                    st,
                    best_len,
                    scanned,
                } => (0, st, best_len, scanned),
                _ => (pos, 0, 0, pos),
            };
            loop {
                // longest-match scan of one skip lexeme from tok_start
                let (r2, j, b, dead) = flat.run_longest(input, row, i, tok_start, best);
                row = r2;
                i = j;
                best = b;
                if !dead && !last {
                    *resume = Resume::TrailingFlat {
                        st: row,
                        best_len: best,
                        scanned: i - tok_start,
                    };
                    return Flow::More {
                        keep_from: tok_start,
                    };
                }
                if best == 0 {
                    break;
                }
                // commit the lexeme; rescan lookahead bytes beyond it
                obs.skipped(best);
                tok_start += best;
                i = tok_start;
                row = 0;
                best = 0;
            }
            if tok_start < input.len() {
                control.clear();
                values.clear();
                *resume = Resume::Idle;
                return Flow::TrailingInput { pos: tok_start };
            }
            *resume = Resume::Idle;
            return Flow::Done;
        }
        let (mut tok_start, mut r, mut best, mut i) = match *resume {
            Resume::Trailing {
                r,
                best_len,
                scanned,
            } => (0, r, best_len, scanned),
            _ => (pos, skip, 0, pos),
        };
        loop {
            // longest-match scan of one skip lexeme from tok_start
            loop {
                if r == RegexArena::EMPTY {
                    break;
                }
                if i >= input.len() {
                    if last {
                        break;
                    }
                    *resume = Resume::Trailing {
                        r,
                        best_len: best,
                        scanned: i - tok_start,
                    };
                    return Flow::More {
                        keep_from: tok_start,
                    };
                }
                r = self.arena.deriv(r, input[i]);
                i += 1;
                if self.arena.nullable(r) {
                    best = i - tok_start;
                }
            }
            if best == 0 {
                break;
            }
            // commit the lexeme; rescan any lookahead bytes beyond it
            obs.skipped(best);
            tok_start += best;
            i = tok_start;
            r = skip;
            best = 0;
        }
        if tok_start < input.len() {
            control.clear();
            values.clear();
            *resume = Resume::Idle;
            return Flow::TrailingInput { pos: tok_start };
        }
        *resume = Resume::Idle;
        Flow::Done
    }

    /// The expected-token set at a `NoMatch`: replays the failing
    /// scan over the token's bytes (cold path — the bytes are always
    /// at hand, one-shot from the input slice and streaming from the
    /// retained tail) and reports the productions that were still
    /// live just before the scan died, in production order.
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
/// Convenience wrapper over [`parse_fused_with`] that allocates a
/// fresh [`FusedSession`] per call.
///
/// Trailing skippable input (e.g. final whitespace) is consumed after
/// the start symbol completes.
///
/// # Errors
///
/// [`FusedParseError`] on mismatch or trailing input.
pub fn parse_fused<V>(
    fg: &FusedGrammar<V>,
    arena: &mut RegexArena,
    skip: Option<RegexId>,
    input: &[u8],
) -> Result<V, FusedParseError> {
    parse_fused_with(fg, arena, skip, &mut FusedSession::new(), input)
}

/// As [`parse_fused`], with caller-owned scratch state — a thin
/// wrapper handing the resumable stepper the whole input at once, so
/// the one-shot and streaming paths share a single hot loop.
///
/// Note that unlike the staged VM, the unstaged interpreter *must*
/// mutate the regex arena (derivatives are computed and memoized at
/// parse time), so concurrent use requires one arena per thread as
/// well as one session per thread. Any stream suspended in `session`
/// is abandoned.
///
/// # Errors
///
/// [`FusedParseError`] on mismatch or trailing input.
pub fn parse_fused_with<V>(
    fg: &FusedGrammar<V>,
    arena: &mut RegexArena,
    skip: Option<RegexId>,
    session: &mut FusedSession<V>,
    input: &[u8],
) -> Result<V, FusedParseError> {
    parse_fused_obs(fg, arena, skip, session, input, &mut NoopObserver)
}

/// As [`parse_fused_with`], with an [`Observer`] receiving the
/// parse's events (token commits, skips, reductions — see
/// [`crate::obs`]). The observed and unobserved paths run the same
/// stepper, so results and errors are byte-identical.
///
/// # Errors
///
/// [`FusedParseError`] on mismatch or trailing input.
pub fn parse_fused_obs<V, O: Observer>(
    fg: &FusedGrammar<V>,
    arena: &mut RegexArena,
    skip: Option<RegexId>,
    session: &mut FusedSession<V>,
    input: &[u8],
    obs: &mut O,
) -> Result<V, FusedParseError> {
    session.reset();
    session.control.push(Ctl::Nt(fg.start()));
    session.resume = Resume::Control;
    let FusedSession {
        control,
        values,
        live,
        resume,
        ..
    } = session;
    let mut m = Machine { fg, arena, skip };
    match m.run(control, values, live, resume, input, true, obs) {
        Flow::Done => {
            debug_assert_eq!(values.len(), 1, "parse must produce exactly one value");
            Ok(values.pop().expect("parse produced no value"))
        }
        Flow::NoMatch { pos, nt } => {
            let (line, col) = line_col(input, pos);
            Err(FusedParseError::NoMatch {
                pos,
                line,
                col,
                nt,
                expected: m.expected_at(nt, &input[pos..]),
            })
        }
        Flow::TrailingInput { pos } => {
            let (line, col) = line_col(input, pos);
            Err(FusedParseError::TrailingInput { pos, line, col })
        }
        Flow::More { .. } => unreachable!("one-shot parses never suspend"),
    }
}

/// Begins (or continues) a suspendable fused parse backed by
/// caller-owned session state.
///
/// If `session` holds a stream suspended by *this* grammar (any
/// clone — they share tables), the returned handle continues it;
/// otherwise — fresh session, completed stream, or a suspension left
/// by a different grammar — a fresh parse starts. (The arena must be
/// the one the suspension's derivatives live in, i.e. the same
/// lexer's; ids only guard the grammar.) Feed chunks with
/// [`FusedStream::feed`] and signal end of input with
/// [`FusedStream::finish`]:
///
/// ```
/// use flap_cfe::Cfe;
/// use flap_dgnf::normalize;
/// use flap_fuse::{fuse, stream_fused, FusedSession, Step};
/// use flap_lex::LexerBuilder;
///
/// let mut b = LexerBuilder::new();
/// let num = b.token("num", "[0-9]+")?;
/// let mut lexer = b.build()?;
/// let g: Cfe<i64> = Cfe::tok_with(num, |lx| lx.len() as i64);
/// let fused = fuse(&mut lexer, &normalize(&g)?)?;
///
/// let mut session = FusedSession::new();
/// let skip = lexer.skip_regex();
/// let mut s = stream_fused(&fused, lexer.arena_mut(), skip, &mut session);
/// assert!(matches!(s.feed(b"12"), Step::NeedMore)); // "123…"? wait for more
/// assert!(matches!(s.feed(b"3"), Step::NeedMore));
/// match s.finish() {
///     Step::Done(n) => assert_eq!(n, 3),
///     other => panic!("{other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn stream_fused<'a, V>(
    fg: &'a FusedGrammar<V>,
    arena: &'a mut RegexArena,
    skip: Option<RegexId>,
    session: &'a mut FusedSession<V>,
) -> FusedStream<'a, V> {
    if !matches!(session.resume, Resume::Idle) && session.owner != fg.stream_id() {
        // a suspension from some other grammar: its state indices
        // would be meaningless here — abandon it
        session.reset();
    }
    if matches!(session.resume, Resume::Idle) {
        session.reset();
        session.control.push(Ctl::Nt(fg.start()));
        session.resume = Resume::Control;
        session.owner = fg.stream_id();
    }
    FusedStream {
        fg,
        arena,
        skip,
        session,
    }
}

/// A suspendable fused parse in progress; created by [`stream_fused`].
///
/// Dropping the handle mid-stream keeps the suspension in the
/// session: call [`stream_fused`] again to continue, or
/// [`FusedSession::reset`] to abandon.
pub struct FusedStream<'a, V> {
    fg: &'a FusedGrammar<V>,
    arena: &'a mut RegexArena,
    skip: Option<RegexId>,
    session: &'a mut FusedSession<V>,
}

impl<V> FusedStream<'_, V> {
    /// Feeds one chunk, returning [`Step::NeedMore`] or [`Step::Err`].
    ///
    /// # Panics
    ///
    /// Panics if the stream already completed (returned `Done` or
    /// `Err`); start a new parse with [`stream_fused`] instead.
    pub fn feed(&mut self, chunk: &[u8]) -> Step<V> {
        self.feed_obs(chunk, &mut NoopObserver)
    }

    /// As [`FusedStream::feed`], with an [`Observer`] receiving the
    /// feed boundary and the chunk's parse events.
    ///
    /// # Panics
    ///
    /// As for [`FusedStream::feed`].
    pub fn feed_obs<O: Observer>(&mut self, chunk: &[u8], obs: &mut O) -> Step<V> {
        assert!(
            !matches!(self.session.resume, Resume::Idle),
            "no active stream: the previous parse completed; call stream_fused again"
        );
        obs.feed(chunk.len(), self.session.stream.buf().len());
        if self.session.stream.buf().is_empty() {
            // no token tail retained: scan the caller's chunk in
            // place and copy only what suspension must keep
            self.step(Some(chunk), false, obs)
        } else {
            self.session.stream.push_chunk(chunk);
            self.step(None, false, obs)
        }
    }

    /// Signals end of input, returning [`Step::Done`] or
    /// [`Step::Err`].
    ///
    /// # Panics
    ///
    /// As for [`FusedStream::feed`].
    pub fn finish(self) -> Step<V> {
        self.finish_obs(&mut NoopObserver)
    }

    /// As [`FusedStream::finish`], with an [`Observer`] receiving the
    /// final events.
    ///
    /// # Panics
    ///
    /// As for [`FusedStream::feed`].
    pub fn finish_obs<O: Observer>(mut self, obs: &mut O) -> Step<V> {
        assert!(
            !matches!(self.session.resume, Resume::Idle),
            "no active stream: the previous parse completed; call stream_fused again"
        );
        self.step(None, true, obs)
    }

    /// Drains `source` through [`FusedStream::feed`] and then
    /// [`FusedStream::finish`] — parse an entire [`ByteSource`].
    ///
    /// # Errors
    ///
    /// [`StreamError`] on either an I/O failure of the source or a
    /// parse failure of the input.
    pub fn parse_source(mut self, source: &mut impl ByteSource) -> Result<V, StreamError> {
        while let Some(chunk) = source.next_chunk()? {
            match self.feed(chunk) {
                Step::NeedMore => {}
                Step::Err(e) => return Err(StreamError::Parse(e)),
                Step::Done(_) => unreachable!("feed never completes a parse"),
            }
        }
        match self.finish() {
            Step::Done(v) => Ok(v),
            Step::Err(e) => Err(StreamError::Parse(e)),
            Step::NeedMore => unreachable!("finish never suspends"),
        }
    }

    /// One stepper run over either the retained buffer (`chunk ==
    /// None`) or a caller's chunk scanned in place (fast path, buffer
    /// empty). Either way `bytes[0]` sits at the stream's global
    /// offset.
    fn step<O: Observer>(&mut self, chunk: Option<&[u8]>, last: bool, obs: &mut O) -> Step<V> {
        let FusedSession {
            control,
            values,
            live,
            resume,
            stream,
            ..
        } = &mut *self.session;
        let mut m = Machine {
            fg: self.fg,
            arena: &mut *self.arena,
            skip: self.skip,
        };
        let flow = match chunk {
            Some(c) => m.run(control, values, live, resume, c, last, obs),
            None => m.run(control, values, live, resume, stream.buf(), last, obs),
        };
        match flow {
            Flow::More { keep_from } => {
                match chunk {
                    Some(c) => stream.absorb(c, keep_from),
                    None => stream.consume(keep_from),
                }
                Step::NeedMore
            }
            Flow::Done => {
                debug_assert_eq!(values.len(), 1, "parse must produce exactly one value");
                let v = values.pop().expect("parse produced no value");
                stream.reset();
                Step::Done(v)
            }
            Flow::NoMatch { pos, nt } => {
                let bytes = chunk.unwrap_or_else(|| stream.buf());
                let (line, col) = stream.line_col_in(bytes, pos);
                let err = FusedParseError::NoMatch {
                    pos: stream.global(pos),
                    line,
                    col,
                    nt,
                    expected: m.expected_at(nt, &bytes[pos..]),
                };
                stream.reset();
                Step::Err(err)
            }
            Flow::TrailingInput { pos } => {
                let bytes = chunk.unwrap_or_else(|| stream.buf());
                let (line, col) = stream.line_col_in(bytes, pos);
                let err = FusedParseError::TrailingInput {
                    pos: stream.global(pos),
                    line,
                    col,
                };
                stream.reset();
                Step::Err(err)
            }
        }
    }
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
        let skip = lexer.skip_regex();
        parse_fused(&fused, lexer.arena_mut(), skip, input)
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
    fn session_reuse_agrees_with_fresh_sessions() {
        let (mut lexer, fused) = sexp_setup();
        let skip = lexer.skip_regex();
        let mut session = FusedSession::new();
        for input in [&b"(a (b c))"[..], b"a", b"(a", b"(x y z)", b"", b"(p q)"] {
            let reused = parse_fused_with(&fused, lexer.arena_mut(), skip, &mut session, input);
            let fresh = parse_fused(&fused, lexer.arena_mut(), skip, input);
            assert_eq!(reused, fresh, "on {input:?}");
        }
    }

    #[test]
    fn chunked_stream_agrees_with_one_shot() {
        let (mut lexer, fused) = sexp_setup();
        let skip = lexer.skip_regex();
        let mut session = FusedSession::new();
        for input in [
            &b"(a (b c))"[..],
            b"a",
            b"  ( a\n(b) )  ",
            b"(longatom (another) end)",
            b"(a",
            b")",
            b"",
            b"a b",
            b"(a) !",
        ] {
            let expected = parse_fused(&fused, lexer.arena_mut(), skip, input);
            for chunk in [1usize, 2, 3, 7] {
                let mut s = stream_fused(&fused, lexer.arena_mut(), skip, &mut session);
                let mut result = None;
                for piece in input.chunks(chunk) {
                    match s.feed(piece) {
                        Step::NeedMore => {}
                        Step::Err(e) => {
                            result = Some(Err(e));
                            break;
                        }
                        Step::Done(_) => unreachable!(),
                    }
                }
                let result = result.unwrap_or_else(|| match s.finish() {
                    Step::Done(v) => Ok(v),
                    Step::Err(e) => Err(e),
                    Step::NeedMore => unreachable!(),
                });
                assert_eq!(result, expected, "chunk={chunk} on {input:?}");
                session.reset(); // abandon any suspension left by early errors
            }
        }
    }

    #[test]
    fn stream_parse_source_drives_byte_sources() {
        use crate::stream::{ReadSource, SliceChunks};
        let (mut lexer, fused) = sexp_setup();
        let skip = lexer.skip_regex();
        let mut session = FusedSession::new();
        let input = b"(a (b c) (d e f))";

        let s = stream_fused(&fused, lexer.arena_mut(), skip, &mut session);
        let v = s.parse_source(&mut SliceChunks::new(input, 3)).unwrap();
        assert_eq!(v, 6);

        let s = stream_fused(&fused, lexer.arena_mut(), skip, &mut session);
        let mut src = ReadSource::with_capacity(std::io::Cursor::new(&input[..]), 5);
        assert_eq!(s.parse_source(&mut src).unwrap(), 6);
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
        let skip = lexer.skip_regex();
        let err = parse_fused(&fused, lexer.arena_mut(), skip, b"ax").unwrap_err();
        let names: Vec<&str> = err.expected().unwrap().names().collect();
        assert_eq!(names, ["ab"], "{err}");
        let err = parse_fused(&fused, lexer.arena_mut(), skip, b"x").unwrap_err();
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
        let g = normalize(&sexp).unwrap();
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
            let skip = lexer.skip_regex();
            let fused_res = parse_fused(&fused, lexer.arena_mut(), skip, input);
            let tok_res = clex
                .tokenize(input)
                .map_err(|e| e.pos)
                .and_then(|lx| flap_dgnf::parse_tokens(&g, input, &lx).map_err(|_| usize::MAX));
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
        let skip = lexer.skip_regex();
        assert_eq!(
            parse_fused(&fused, lexer.arena_mut(), skip, b"\"a\",\"b\"\"c\",\"\"").unwrap(),
            3
        );
        assert!(parse_fused(&fused, lexer.arena_mut(), skip, b"\"a\",").is_err());

        // the quoted-field lexeme straddling chunk boundaries must
        // still reach the action as one contiguous slice
        let mut session = FusedSession::new();
        let input = b"\"a\",\"b\"\"c\",\"\"";
        for chunk in 1..=4usize {
            let s = stream_fused(&fused, lexer.arena_mut(), skip, &mut session);
            let v = s
                .parse_source(&mut crate::stream::SliceChunks::new(input, chunk))
                .unwrap();
            assert_eq!(v, 3, "chunk={chunk}");
        }
    }
}
