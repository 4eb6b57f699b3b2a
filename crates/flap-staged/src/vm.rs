//! Execution of compiled parsers — the second stage of Fig 10.
//!
//! The per-character work here matches flap's generated OCaml (§5.5):
//! map the input byte to its equivalence class, index the flat
//! alphabet-compressed table and jump. (Trailing skip input is
//! scanned by the skip DFA's [`flap_regex::FlatDfa::run_longest`]
//! kernel, whose self-loop states with small stay sets go eight
//! bytes at a time via SWAR; inside this token loop the same
//! acceleration measured net-negative — token-shaped runs are too
//! short to amortize the scanner dispatch — so per-byte stepping
//! stays unconditional.) Longest-match bookkeeping is one conditional
//! move (the mark bit).
//!
//! ### The control stack
//!
//! Nested calls become an explicit stack of one-word entries, so
//! deeply nested inputs cannot overflow the machine stack. Each entry
//! is a nonterminal to parse or an action to apply (see
//! [`flap_dgnf::cont`]). Committing a token production pushes the token's
//! value and copies the production's pre-reversed continuation — its
//! tail nonterminals interleaved with its lowered reduce actions —
//! onto the control stack with one `extend_from_slice`; when the
//! continuation begins with a nonterminal, scanning jumps straight
//! into it. Popping an action word applies the action to the topmost
//! values: binary actions pop two and push one, maps replace the top.
//! The production is complete when its last word has run, which is
//! where [`Observer::reduce`] fires. ε rules run their (action-only)
//! programs inline at the ε stop. With actions compiled out, a
//! production pushes only its tail nonterminals, so recognition and
//! validation carry no action words at all.
//!
//! ### One resumable hot loop
//!
//! The VM is a *stepper*: it runs the automaton over whatever
//! contiguous bytes it is given, and when they run out before end of
//! input it suspends — current state, longest match so far, pending
//! continuation — into the caller's [`ParseSession`] and reports how
//! many bytes it fully consumed. One function, `CompiledParser::feed`,
//! runs that loop for every entry point: it scans a chunk in place
//! while the session retains no token tail (after the tail
//! otherwise), keeps what a suspension must, and turns the loop's
//! outcome into completion or an error with global position and
//! line/column. The one-shot [`CompiledParser::parse`] /
//! [`CompiledParser::parse_with`] / [`CompiledParser::recognize`]
//! hand it the whole slice with the end-of-input flag set (no
//! buffering, no copying), [`CompiledParser::stream`] feeds it chunk
//! by chunk for network-style workloads, and the incremental layer
//! feeds it the document between checkpoints.
//!
//! ### The chunk-boundary token-tail invariant
//!
//! Token actions receive their lexeme as one contiguous slice
//! (`tok_action(&input[tok_start..rs])`). A suspended session
//! therefore retains every byte from the start of the in-progress
//! token onward in its [`StreamState`] buffer; the next feed appends
//! its chunk after that tail and resumes the scan mid-token, so a
//! lexeme straddling any number of chunk boundaries is still handed
//! to the action in one piece. Fully parsed bytes are dropped at each
//! suspension (their newlines folded into incremental line/column
//! accounting), which bounds streaming memory by one chunk plus the
//! longest lexeme — never the whole input.
//!
//! ### Allocation discipline
//!
//! All tables are preallocated at compile time, and all *per-parse*
//! mutable state — control stack, value stack, suspension point,
//! retained tail — lives in a caller-owned [`ParseSession`]. Parsing
//! through [`CompiledParser::parse_with`] (or feeding a stream) with
//! a reused session performs no allocation on the hot path once the
//! session's buffers have grown to the workload's high-water mark;
//! semantic values are built only by the user's own actions — the
//! "no allocation, except where these elements are inserted by the
//! user" property of §2.8. The convenience [`CompiledParser::parse`]
//! allocates a fresh session per call; servers and benchmarks should
//! hold one session per worker thread and reuse it.

use flap_dgnf::cont::Ctl;
use flap_fuse::FusedParseError;

use crate::compile::{decode_stop, CompiledParser, StopAction, STOP};
use crate::obs::{NoopObserver, Observer};
use crate::stream::{ByteSource, Step, StreamError, StreamState};

/// Where a suspended parse resumes — the automaton position saved
/// when a feed runs out of bytes.
///
/// `PartialEq` lets the incremental layer detect *state convergence*:
/// two suspended parses with equal `(control, resume)` at the same
/// global offset behave identically on all remaining input.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// No stream is active (fresh session, or the last parse ended).
    Idle,
    /// At the top of the control loop, about to pop the next entry.
    Control,
    /// Mid-scan of one token of `nt`: the first `scanned` buffered
    /// bytes have been fed to the automaton (now at flat-table row
    /// `st`), and the longest match so far is `rs_len` bytes.
    Token {
        nt: u32,
        st: u32,
        rs_len: usize,
        scanned: usize,
    },
    /// Mid-scan of one trailing skip lexeme in the skip DFA (`st` is
    /// a [`flap_regex::FlatDfa`] row).
    Trailing {
        st: u32,
        best_len: usize,
        scanned: usize,
    },
}

/// What one run of the stepper produced. Positions are relative to
/// the byte slice the stepper was given; `CompiledParser::feed`
/// translates them to global stream offsets and line/columns.
pub(crate) enum Flow {
    /// Out of bytes before end of input (only when `last == false`):
    /// everything before `keep_from` is fully consumed; the caller
    /// must retain the rest (the in-progress token's tail).
    More { keep_from: usize },
    /// Parse and trailing skips completed exactly at end of input.
    Done,
    /// No production of `nt` matched at `pos`; `state` identifies the
    /// automaton state whose live set is the expected-token report.
    NoMatch { pos: usize, nt: u32, state: u32 },
    /// The start symbol completed but non-skippable input remains.
    TrailingInput { pos: usize },
}

/// Caller-owned per-parse scratch state: the control stack (one word
/// per pending nonterminal or action) and value stack of the Fig 10
/// machine, plus the suspension point and retained byte tail of an
/// in-progress streaming parse.
///
/// A [`CompiledParser`] is immutable (and `Send + Sync`) after
/// compilation; every piece of state that parsing mutates lives here
/// instead. Reusing one session across parses makes the steady state
/// allocation-free, and giving each thread its own session lets one
/// parser serve any number of threads concurrently:
///
/// ```
/// use flap_cfe::Cfe;
/// use flap_dgnf::normalize;
/// use flap_fuse::fuse;
/// use flap_lex::LexerBuilder;
/// use flap_staged::{CompiledParser, ParseSession};
///
/// let mut b = LexerBuilder::new();
/// let num = b.token("num", "[0-9]+")?;
/// let mut lexer = b.build()?;
/// let g: Cfe<i64> = Cfe::tok_with(num, |lx| lx.len() as i64);
/// let fused = fuse(&mut lexer, &normalize(&g)?)?;
/// let parser = CompiledParser::compile(&mut lexer, &fused);
///
/// let mut session = ParseSession::new();
/// for input in [&b"123"[..], b"7", b"999999"] {
///     let n = parser.parse_with(&mut session, input)?;
///     assert_eq!(n, input.len() as i64);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ParseSession<V> {
    pub(crate) control: Vec<Ctl>,
    pub(crate) values: Vec<V>,
    /// Suspension point of an in-progress streaming parse.
    pub(crate) resume: Resume,
    /// `stream_id` of the parser that created the suspension, so a
    /// suspended session cannot be resumed against different tables.
    pub(crate) owner: u64,
    /// Retained bytes + line/column accounting for streaming.
    pub(crate) stream: StreamState,
}

impl<V> ParseSession<V> {
    /// An empty session; stacks grow on first use and are then
    /// retained across parses.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// A session with preallocated stacks, for callers that know the
    /// nesting depth of their workload and want the very first parse
    /// to be allocation-free too.
    pub fn with_capacity(control: usize, values: usize) -> Self {
        ParseSession {
            control: Vec::with_capacity(control),
            values: Vec::with_capacity(values),
            resume: Resume::Idle,
            owner: 0,
            stream: StreamState::new(),
        }
    }

    /// Current capacity of the (control, value) stacks — the
    /// high-water mark of past parses. Exposed so tests can assert
    /// steady-state behaviour.
    pub fn capacities(&self) -> (usize, usize) {
        (self.control.capacity(), self.values.capacity())
    }

    /// Abandons any suspended stream and clears all per-parse state,
    /// retaining buffer capacity.
    pub fn reset(&mut self) {
        self.control.clear();
        self.values.clear();
        self.resume = Resume::Idle;
        self.owner = 0;
        self.stream.reset();
    }

    /// Starts a fresh parse of `start_nt` in this session, owned by
    /// the parser with streaming id `owner`.
    pub(crate) fn begin(&mut self, start_nt: u32, owner: u64) {
        self.reset();
        self.control.push(Ctl::nt(start_nt));
        self.resume = Resume::Control;
        self.owner = owner;
    }

    /// Takes the value a completed parse left on the value stack.
    pub(crate) fn take_value(&mut self) -> V {
        debug_assert_eq!(self.values.len(), 1, "parse must produce exactly one value");
        self.values.pop().expect("parse produced no value")
    }
}

impl<V> Default for ParseSession<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> CompiledParser<V> {
    /// The resumable Fig 10 stepper — the single hot loop behind
    /// every parse entry point.
    ///
    /// Runs the automaton over `input` until it needs more bytes
    /// (`last == false`), finishes, or fails. With `ACTIONS == false`
    /// semantic actions (and the value stack) are skipped entirely —
    /// productions push their nonterminal-only slices — which is what
    /// [`CompiledParser::recognize`] measures.
    ///
    /// `obs` receives per-event hooks (token commits, skips,
    /// reductions, nonterminal dispatches — never per byte);
    /// monomorphized over [`NoopObserver`] the calls vanish and the
    /// loop compiles to the unobserved automaton.
    pub(crate) fn engine<const ACTIONS: bool, O: Observer>(
        &self,
        control: &mut Vec<Ctl>,
        values: &mut Vec<V>,
        resume: &mut Resume,
        input: &[u8],
        last: bool,
        obs: &mut O,
    ) -> Flow {
        let mut pos = 0usize;
        if !matches!(*resume, Resume::Trailing { .. }) {
            let mut suspended = match *resume {
                Resume::Token {
                    nt,
                    st,
                    rs_len,
                    scanned,
                } => Some((nt, st as usize, rs_len, scanned)),
                _ => None,
            };
            let conts = &self.conts;
            'outer: loop {
                // Resume a suspended scan (the token tail starts at
                // buffer offset 0 by the retention invariant), or pop
                // control words — running action words in place —
                // until a nonterminal starts a fresh scan.
                let (mut nt, mut tok_start, mut row, mut rs, mut i) = match suspended.take() {
                    Some((nt, row, rs_len, scanned)) => (nt, 0, row, rs_len, scanned),
                    None => loop {
                        let Some(w) = control.pop() else {
                            break 'outer;
                        };
                        if w.is_nt() {
                            let nt = w.payload();
                            let row = self.nt_start_row[nt as usize];
                            obs.nt_row(row);
                            break (nt, pos, row as usize, pos, pos);
                        }
                        if ACTIONS {
                            conts.run(w, values, |p| obs.reduce(p));
                        }
                    },
                };
                // skip productions (F2 self-loops) and continuations
                // that begin with a nonterminal restart the scan
                // inline, without a control-stack round trip
                'token: loop {
                    let stop = loop {
                        if i >= input.len() {
                            if last {
                                break decode_stop(self.trans[row]);
                            }
                            // Out of bytes with the scan still live:
                            // a longer match may arrive in the next
                            // chunk. Suspend, retaining the token's
                            // bytes from tok_start on.
                            *resume = Resume::Token {
                                nt,
                                st: row as u32,
                                rs_len: rs - tok_start,
                                scanned: i - tok_start,
                            };
                            return Flow::More {
                                keep_from: tok_start,
                            };
                        }
                        let e = self.trans[row + self.class_map[input[i] as usize] as usize];
                        if e == STOP {
                            break decode_stop(self.trans[row]);
                        }
                        i += 1;
                        if e & 1 == 1 {
                            rs = i;
                        }
                        row = (e >> 2) as usize;
                    };
                    match stop {
                        StopAction::Fail => {
                            // drop partially-reduced values now
                            // rather than holding them until the
                            // session's next parse
                            control.clear();
                            values.clear();
                            *resume = Resume::Idle;
                            return Flow::NoMatch {
                                pos: tok_start,
                                nt,
                                state: (row / self.stride as usize) as u32,
                            };
                        }
                        StopAction::Eps(n) => {
                            if ACTIONS {
                                let eps = conts.eps()[n as usize]
                                    .expect("Eps stop action implies an ε rule");
                                for &w in conts.slice(eps) {
                                    conts.run(w, values, |p| obs.reduce(p));
                                }
                            }
                            obs.eps_reduce();
                            pos = tok_start;
                            continue 'outer;
                        }
                        StopAction::Match(p) => {
                            pos = rs;
                            let head = &conts.heads()[p as usize];
                            let cont = match &head.tok_action {
                                None => {
                                    obs.skipped(pos - tok_start);
                                    tok_start = pos;
                                    row = self.nt_start_row[nt as usize] as usize;
                                    obs.nt_row(row as u32);
                                    rs = pos;
                                    i = pos;
                                    continue 'token;
                                }
                                Some(tok_action) => {
                                    obs.token(p, rs - tok_start);
                                    if ACTIONS {
                                        values.push(tok_action(&input[tok_start..rs]));
                                        conts.slice(head.cont)
                                    } else {
                                        conts.slice(head.nts)
                                    }
                                }
                            };
                            // The continuation's last word runs first:
                            // when it is a nonterminal, scan it now.
                            match cont.split_last() {
                                Some((&top, rest)) if top.is_nt() => {
                                    control.extend_from_slice(rest);
                                    nt = top.payload();
                                    tok_start = pos;
                                    row = self.nt_start_row[nt as usize] as usize;
                                    obs.nt_row(row as u32);
                                    rs = pos;
                                    i = pos;
                                    continue 'token;
                                }
                                _ => {
                                    control.extend_from_slice(cont);
                                    continue 'outer;
                                }
                            }
                        }
                    }
                }
            }
        }

        // Control exhausted (or resuming here): consume trailing
        // skippable lexemes, then require end of input.
        let Some(skip) = &self.skip else {
            let at = if matches!(*resume, Resume::Trailing { .. }) {
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
                    st: 0,
                    best_len: 0,
                    scanned: 0,
                };
                return Flow::More { keep_from: at };
            }
            *resume = Resume::Idle;
            return Flow::Done;
        };
        let (mut tok_start, mut row, mut best, mut i) = match *resume {
            Resume::Trailing {
                st,
                best_len,
                scanned,
            } => (0, st, best_len, scanned),
            _ => (pos, 0, 0, pos),
        };
        loop {
            // longest-match scan of one skip lexeme from tok_start;
            // the flat skip DFA's sink is the DEAD sentinel, so the
            // kernel needs no arena probe per byte
            let (r, j, b, dead) = skip.run_longest(input, row, i, tok_start, best);
            row = r;
            i = j;
            best = b;
            if !dead && !last {
                *resume = Resume::Trailing {
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
            // commit the lexeme; rescan any lookahead bytes beyond it
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
        Flow::Done
    }

    /// The one caller of [`CompiledParser::engine`]: every entry
    /// point — one-shot, streaming and incremental — feeds its input
    /// through here.
    ///
    /// While the session retains no token tail, `chunk` is scanned in
    /// place, so a one-shot parse never copies its input, and a
    /// suspension keeps only the tail it must; otherwise `chunk` is
    /// appended after the tail and the retained buffer is scanned.
    /// `last` marks end of input.
    ///
    /// Returns `Ok(false)` when the parse suspended for more input,
    /// and `Ok(true)` (only when `last`) when it completed, leaving
    /// the value — with actions — on the session's value stack.
    /// Errors carry their global position and line/column, exactly as
    /// a one-shot parse of the concatenated input reports them.
    pub(crate) fn feed<const ACTIONS: bool, O: Observer>(
        &self,
        session: &mut ParseSession<V>,
        chunk: &[u8],
        last: bool,
        obs: &mut O,
    ) -> Result<bool, FusedParseError> {
        let ParseSession {
            control,
            values,
            resume,
            stream,
            ..
        } = session;
        let in_place = stream.buf().is_empty();
        if !in_place {
            stream.push_chunk(chunk);
        }
        let bytes = if in_place { chunk } else { stream.buf() };
        let end = match self.engine::<ACTIONS, O>(control, values, resume, bytes, last, obs) {
            Flow::More { keep_from } => {
                if in_place {
                    stream.absorb(chunk, keep_from);
                } else {
                    stream.consume(keep_from);
                }
                return Ok(false);
            }
            Flow::Done => Ok(true),
            Flow::NoMatch { pos, nt, state } => {
                let (line, col) = stream.line_col_in(bytes, pos);
                Err(FusedParseError::NoMatch {
                    pos: stream.global(pos),
                    line,
                    col,
                    nt: flap_dgnf::NtId::from_index(nt as usize),
                    // inline `Arc`s: the clone allocates nothing
                    expected: self.state_expected[state as usize].clone(),
                })
            }
            Flow::TrailingInput { pos } => {
                let (line, col) = stream.line_col_in(bytes, pos);
                Err(FusedParseError::TrailingInput {
                    pos: stream.global(pos),
                    line,
                    col,
                })
            }
        };
        stream.reset();
        end
    }

    /// A one-shot parse of the whole of `input` in `session`: `feed`
    /// scans the caller's slice in place, so nothing is copied into
    /// the session's stream buffer.
    pub(crate) fn one_shot<const ACTIONS: bool, O: Observer>(
        &self,
        session: &mut ParseSession<V>,
        input: &[u8],
        obs: &mut O,
    ) -> Result<(), FusedParseError> {
        session.begin(self.start_nt, self.stream_id);
        self.feed::<ACTIONS, O>(session, input, true, obs).map(drop)
    }

    /// Parses the whole input, returning the semantic value.
    ///
    /// Convenience wrapper over [`CompiledParser::parse_with`] that
    /// allocates a fresh [`ParseSession`] per call. Loops that parse
    /// many inputs should create one session and reuse it.
    ///
    /// Trailing skippable input (e.g. final whitespace) is consumed
    /// after the start symbol completes.
    ///
    /// # Errors
    ///
    /// [`FusedParseError`] — the same error type as the unstaged
    /// fused parser, so the two can be compared differentially.
    pub fn parse(&self, input: &[u8]) -> Result<V, FusedParseError> {
        self.parse_with(&mut ParseSession::new(), input)
    }

    /// Parses the whole input using caller-owned scratch state — the
    /// allocation-free entry point, a thin wrapper handing the
    /// resumable stepper the whole slice at once (no buffering, no
    /// copying).
    ///
    /// `&self` is shared: one compiled parser can run concurrently on
    /// any number of threads, each holding its own session. The
    /// session is cleared on entry (abandoning any suspended stream),
    /// so sessions can be reused freely after both successful and
    /// failed parses; failed parses also clear their partially-built
    /// value stack before returning, so an idle session never pins
    /// semantic values.
    ///
    /// # Errors
    ///
    /// As for [`CompiledParser::parse`].
    pub fn parse_with(
        &self,
        session: &mut ParseSession<V>,
        input: &[u8],
    ) -> Result<V, FusedParseError> {
        self.parse_with_obs(session, input, &mut NoopObserver)
    }

    /// As [`CompiledParser::parse_with`], with an [`Observer`]
    /// receiving the parse's events (token commits, skips, reductions,
    /// nonterminal dispatches — see [`Observer`]). The observed
    /// and unobserved paths run the same stepper, so results and
    /// errors are byte-identical; with [`NoopObserver`] this *is*
    /// [`CompiledParser::parse_with`].
    ///
    /// # Errors
    ///
    /// As for [`CompiledParser::parse`].
    pub fn parse_with_obs<O: Observer>(
        &self,
        session: &mut ParseSession<V>,
        input: &[u8],
        obs: &mut O,
    ) -> Result<V, FusedParseError> {
        self.one_shot::<true, O>(session, input, obs)?;
        Ok(session.take_value())
    }

    /// Recognizes the input without running any semantic action —
    /// the pure cost of fused, staged scanning (used by the ablation
    /// benchmarks to separate action cost from parsing cost). Runs
    /// the same stepper as [`CompiledParser::parse_with`] with
    /// actions compiled out.
    ///
    /// # Errors
    ///
    /// [`FusedParseError`], as for [`CompiledParser::parse`].
    pub fn recognize(&self, input: &[u8]) -> Result<(), FusedParseError> {
        self.one_shot::<false, _>(&mut ParseSession::new(), input, &mut NoopObserver)
    }

    /// Begins (or continues) a suspendable streaming parse backed by
    /// caller-owned session state.
    ///
    /// If `session` holds a stream suspended by an earlier handle of
    /// *this* parser, the returned handle continues it; otherwise —
    /// fresh session, completed stream, or a suspension left by a
    /// *different* parser (detected via a per-parser id, since its
    /// state indices would be meaningless here) — a fresh parse
    /// starts. Feed chunks with [`StreamParse::feed`] and
    /// signal end of input with [`StreamParse::finish`]; the session
    /// retains the automaton state, the partial-token byte tail and
    /// the line/column accounting between feeds (see the module docs).
    ///
    /// ```
    /// use flap_cfe::Cfe;
    /// use flap_dgnf::normalize;
    /// use flap_fuse::fuse;
    /// use flap_lex::LexerBuilder;
    /// use flap_staged::{CompiledParser, ParseSession, Step};
    ///
    /// let mut b = LexerBuilder::new();
    /// let num = b.token("num", "[0-9]+")?;
    /// let mut lexer = b.build()?;
    /// let g: Cfe<i64> = Cfe::tok_with(num, |lx| lx.len() as i64);
    /// let fused = fuse(&mut lexer, &normalize(&g)?)?;
    /// let parser = CompiledParser::compile(&mut lexer, &fused);
    ///
    /// let mut session = ParseSession::new();
    /// let mut s = parser.stream(&mut session);
    /// assert!(matches!(s.feed(b"12"), Step::NeedMore));
    /// assert!(matches!(s.feed(b"345"), Step::NeedMore)); // one lexeme, three chunks
    /// match s.finish() {
    ///     Step::Done(n) => assert_eq!(n, 5),
    ///     other => panic!("{other:?}"),
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn stream<'a>(&'a self, session: &'a mut ParseSession<V>) -> StreamParse<'a, V> {
        if !matches!(session.resume, Resume::Idle) && session.owner != self.stream_id {
            // a suspension from some other parser: abandon it
            session.reset();
        }
        if matches!(session.resume, Resume::Idle) {
            session.begin(self.start_nt, self.stream_id);
        }
        StreamParse {
            parser: self,
            session,
        }
    }

    /// Parses an entire [`ByteSource`] through a streaming session:
    /// pull chunks, feed them, finish at end of input.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on either an I/O failure of the source or a
    /// parse failure of the input.
    pub fn parse_source_with(
        &self,
        session: &mut ParseSession<V>,
        source: &mut impl ByteSource,
    ) -> Result<V, StreamError> {
        session.reset();
        self.stream(session).parse_source(source)
    }

    /// As [`CompiledParser::parse_source_with`] with a fresh session
    /// per call.
    ///
    /// # Errors
    ///
    /// As for [`CompiledParser::parse_source_with`].
    pub fn parse_source(&self, source: &mut impl ByteSource) -> Result<V, StreamError> {
        self.parse_source_with(&mut ParseSession::new(), source)
    }
}

/// A suspendable streaming parse in progress; created by
/// [`CompiledParser::stream`].
///
/// Dropping the handle mid-stream keeps the suspension in the
/// session: call [`CompiledParser::stream`] again (on the same
/// parser) to continue, or [`ParseSession::reset`] to abandon.
pub struct StreamParse<'a, V> {
    parser: &'a CompiledParser<V>,
    session: &'a mut ParseSession<V>,
}

impl<V> StreamParse<'_, V> {
    /// Feeds one chunk, returning [`Step::NeedMore`] or [`Step::Err`].
    ///
    /// Errors are reported as soon as they are provable — a dead
    /// byte fails at the feed that contains it, without waiting for
    /// end of input — with positions and line/columns identical to a
    /// one-shot parse of the concatenated input.
    ///
    /// # Panics
    ///
    /// Panics if the stream already completed (returned `Done` or
    /// `Err`); start a new parse with [`CompiledParser::stream`].
    pub fn feed(&mut self, chunk: &[u8]) -> Step<V> {
        self.feed_obs(chunk, &mut NoopObserver)
    }

    /// As [`StreamParse::feed`], with an [`Observer`] receiving the
    /// feed boundary and the chunk's parse events.
    ///
    /// # Panics
    ///
    /// As for [`StreamParse::feed`].
    pub fn feed_obs<O: Observer>(&mut self, chunk: &[u8], obs: &mut O) -> Step<V> {
        assert!(
            !matches!(self.session.resume, Resume::Idle),
            "no active stream: the previous parse completed; call stream() again"
        );
        obs.feed(chunk.len(), self.session.stream.buf().len());
        match self.parser.feed::<true, O>(self.session, chunk, false, obs) {
            Ok(_) => Step::NeedMore,
            Err(e) => Step::Err(e),
        }
    }

    /// Signals end of input, returning [`Step::Done`] or
    /// [`Step::Err`].
    ///
    /// # Panics
    ///
    /// As for [`StreamParse::feed`].
    pub fn finish(self) -> Step<V> {
        self.finish_obs(&mut NoopObserver)
    }

    /// As [`StreamParse::finish`], with an [`Observer`] receiving the
    /// final events.
    ///
    /// # Panics
    ///
    /// As for [`StreamParse::feed`].
    pub fn finish_obs<O: Observer>(self, obs: &mut O) -> Step<V> {
        assert!(
            !matches!(self.session.resume, Resume::Idle),
            "no active stream: the previous parse completed; call stream() again"
        );
        match self.parser.feed::<true, O>(self.session, &[], true, obs) {
            Ok(_) => Step::Done(self.session.take_value()),
            Err(e) => Step::Err(e),
        }
    }

    /// Drains `source` through [`StreamParse::feed`] and then
    /// [`StreamParse::finish`].
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_cfe::Cfe;
    use flap_dgnf::normalize;
    use flap_fuse::fuse;
    use flap_lex::LexerBuilder;

    fn sexp_parser() -> CompiledParser<i64> {
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
        CompiledParser::compile(&mut lexer, &fused)
    }

    #[test]
    fn parses_sexps() {
        let p = sexp_parser();
        assert_eq!(p.parse(b"a").unwrap(), 1);
        assert_eq!(p.parse(b"()").unwrap(), 0);
        assert_eq!(p.parse(b"(a b c)").unwrap(), 3);
        assert_eq!(p.parse(b"(a (b (c d)) e)").unwrap(), 5);
        assert_eq!(p.parse(b"  ( a\n(b) )  ").unwrap(), 2);
    }

    #[test]
    fn session_reuse_agrees_with_fresh_parses() {
        let p = sexp_parser();
        let mut session = ParseSession::new();
        for input in [
            &b"(a (b c))"[..],
            b"a",
            b"(x)",
            b"(a", // error in the middle of the sequence
            b"(a b c d e)",
            b"", // another error
            b"((((x))))",
        ] {
            assert_eq!(
                p.parse_with(&mut session, input),
                p.parse(input),
                "on {input:?}"
            );
        }
    }

    #[test]
    fn session_stacks_reach_steady_state() {
        let p = sexp_parser();
        let mut session = ParseSession::new();
        let input = b"(a (b (c d)) e)";
        p.parse_with(&mut session, input).unwrap();
        let caps = session.capacities();
        for _ in 0..100 {
            p.parse_with(&mut session, input).unwrap();
        }
        assert_eq!(
            session.capacities(),
            caps,
            "stacks must not regrow on repeats"
        );
    }

    #[test]
    fn recognizes_without_actions() {
        let p = sexp_parser();
        assert!(p.recognize(b"(a (b c))").is_ok());
        assert!(p.recognize(b"(a").is_err());
        assert!(p.recognize(b"x y").is_err());
    }

    #[test]
    fn recognize_errors_match_parse_errors() {
        let p = sexp_parser();
        for input in [&b"(a"[..], b")", b"", b"a b", b"(a) !", b"ab!"] {
            assert_eq!(
                p.recognize(input).unwrap_err(),
                p.parse(input).unwrap_err(),
                "on {input:?}"
            );
        }
    }

    #[test]
    fn error_positions_match_unstaged() {
        let p = sexp_parser();
        for input in [&b"(a"[..], b")", b"", b"a b", b"(a) !", b"ab!"] {
            let staged = p.parse(input);
            assert!(staged.is_err(), "{:?} should fail", input);
        }
    }

    #[test]
    fn deep_nesting_does_not_overflow() {
        let p = sexp_parser();
        let depth = 100_000;
        let mut input = Vec::with_capacity(2 * depth + 1);
        input.extend(std::iter::repeat_n(b'(', depth));
        input.push(b'x');
        input.extend(std::iter::repeat_n(b')', depth));
        assert_eq!(p.parse(&input).unwrap(), 1);
    }

    #[test]
    fn state_count_is_modest() {
        // Table 1 reports 11 generated functions for sexp.
        let p = sexp_parser();
        assert!(
            (4..=24).contains(&p.state_count()),
            "suspicious state count {}",
            p.state_count()
        );
    }

    #[test]
    fn chunked_stream_agrees_with_one_shot() {
        let p = sexp_parser();
        let mut session = ParseSession::new();
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
            b"(a b\n(c",
        ] {
            let expected = p.parse(input);
            for chunk in [1usize, 2, 3, 7, 4096] {
                let mut s = p.stream(&mut session);
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
    fn stream_survives_handle_drops_between_feeds() {
        let p = sexp_parser();
        let mut session = ParseSession::new();
        for piece in [&b"(a"[..], b"tom (b", b" c) d)"] {
            let mut s = p.stream(&mut session); // re-acquired each time
            assert!(matches!(s.feed(piece), Step::NeedMore));
        }
        match p.stream(&mut session).finish() {
            Step::Done(n) => assert_eq!(n, 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_source_drives_byte_sources() {
        use crate::{IterSource, ReadSource, SliceChunks};
        let p = sexp_parser();
        let input = b"(a (b c) (d e f))";
        let mut session = ParseSession::new();
        assert_eq!(
            p.parse_source_with(&mut session, &mut SliceChunks::new(input, 4))
                .unwrap(),
            6
        );
        assert_eq!(
            p.parse_source(&mut ReadSource::with_capacity(
                std::io::Cursor::new(&input[..]),
                3
            ))
            .unwrap(),
            6
        );
        let chunks: Vec<Vec<u8>> = input.chunks(5).map(<[u8]>::to_vec).collect();
        assert_eq!(p.parse_source(&mut IterSource::new(chunks)).unwrap(), 6);
        // whole-slice source: the degenerate one-chunk stream
        assert_eq!(p.parse_source(&mut &input[..]).unwrap(), 6);
    }

    #[test]
    fn streaming_errors_carry_global_positions() {
        let p = sexp_parser();
        let input = b"(a b\n(c !";
        let expected = p.parse(input).unwrap_err();
        let mut session = ParseSession::new();
        let mut s = p.stream(&mut session);
        let mut got = None;
        for piece in input.chunks(2) {
            if let Step::Err(e) = s.feed(piece) {
                got = Some(e);
                break;
            }
        }
        assert_eq!(got.expect("must fail"), expected);
    }

    #[test]
    fn differential_vs_unstaged_fused() {
        let p = sexp_parser();
        // rebuild unstaged pipeline
        let mut b = LexerBuilder::new();
        b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        b.token("lpar", r"\(").unwrap();
        b.token("rpar", r"\)").unwrap();
        let mut lexer = b.build().unwrap();
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
        let fused = fuse(&mut lexer, &g).unwrap();
        for input in [
            &b"a"[..],
            b"()",
            b"(a b c)",
            b"((a) (b c) ())",
            b" ( x ) ",
            b"(a",
            b")",
            b"",
            b"a b",
            b"(a) !",
            b"ab!",
            b"(((((deep)))))",
        ] {
            let unstaged = flap_fuse::parse_fused(&fused, lexer.arena_mut(), input);
            let staged = p.parse(input);
            assert_eq!(unstaged, staged, "disagreement on {:?}", input);
        }
    }
}
