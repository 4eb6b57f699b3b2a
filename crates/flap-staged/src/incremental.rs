//! Incremental re-parsing: checkpointed sessions that reuse work
//! across edits (the editor/LSP workload class) — prefix reuse for
//! value parses, prefix *plus suffix-convergence* reuse for
//! validation.
//!
//! flap's determinism means the automaton state at any byte offset is
//! a *pure function of the input prefix* — nothing later in the input
//! can ever send the parse back. A session that records suspended VM
//! states ("checkpoints") as it goes can therefore re-parse an edited
//! document by restarting from the last checkpoint at or before the
//! edit instead of from byte 0. The checkpoint log, `splice`
//! coordinate shifting and reuse statistics live in
//! `crate::edit_log`; this module binds them to the VM and adds the
//! one thing only an action-free parse can have: **suffix reuse**.
//! It runs the VM through `CompiledParser::feed`, as one-shot and
//! streaming parses do: one bounded feed of the document up to each
//! checkpoint or convergence test, then a final feed that marks end
//! of input.
//! Validation runs the engine with actions compiled out, so its entire
//! automaton state is `(control stack, resume point)` — no semantic
//! values. When a post-edit re-validation, stopping at the previous
//! run's (position-shifted) checkpoints, finds its own suspended state
//! *equal* to the recorded one, determinism guarantees every remaining
//! byte behaves identically — the previous outcome is returned with
//! shifted positions and the parse stops there. A 1-byte edit in a
//! multi-MB document then costs about one gap between validation
//! checkpoints, not the document; those checkpoints are spaced by
//! their own cost (a few KiB apart, see
//! [`IncrementalConfig::interval`]).
//!
//! Value parses ([`CompiledParser::parse_incremental`]) cannot reuse
//! suffixes: semantic actions are opaque folds, so a value built from
//! edited bytes invalidates every value downstream of it. They still
//! reuse the unedited prefix, which is the dominant saving for
//! append-heavy and late-edit workloads.

use std::mem::size_of;
use std::ops::Range;

use flap_dgnf::cont::Ctl;
use flap_fuse::FusedParseError;

use crate::compile::CompiledParser;
use crate::edit_log::{Ckpt, EditLog, IncrementalConfig, ReuseStats};
use crate::obs::{NoopObserver, Observer};
use crate::vm::{ParseSession, Resume};

/// Suspended state of the staged VM at a checkpoint.
struct VmState<V> {
    control: Vec<Ctl>,
    values: Vec<V>,
    resume: Resume,
}

/// Which engine instantiation a session's checkpoints belong to.
/// Value checkpoints carry cloned value stacks; validation
/// checkpoints have empty ones (and control stacks free of action
/// words), so the two are not interchangeable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Value,
    Validate,
}

/// An edit-aware parse session for a [`CompiledParser`]: owns the
/// document, a checkpoint log and reuse statistics.
///
/// Apply edits with [`IncrementalSession::splice`], then re-parse
/// with [`CompiledParser::parse_incremental`] (semantic value,
/// prefix reuse) or [`CompiledParser::validate_incremental`]
/// (validation, prefix + suffix reuse). Results and errors are
/// byte-identical to a from-scratch parse of the current document.
///
/// ```
/// use flap_cfe::Cfe;
/// use flap_dgnf::normalize;
/// use flap_fuse::fuse;
/// use flap_lex::LexerBuilder;
/// use flap_staged::{CompiledParser, IncrementalSession};
///
/// let mut b = LexerBuilder::new();
/// let num = b.token("num", "[0-9]+")?;
/// b.skip(" ")?;
/// let plus = b.token("plus", r"\+")?;
/// let mut lexer = b.build()?;
/// let sum: Cfe<i64> = Cfe::sep_by1(
///     Cfe::tok_with(num, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap()),
///     Cfe::tok_val(plus, 0),
///     || 0,
///     |a, b| a + b,
/// );
/// let fused = fuse(&mut lexer, &normalize(&sum)?)?;
/// let parser = CompiledParser::compile(&mut lexer, &fused);
///
/// let mut inc = IncrementalSession::new();
/// inc.splice(0..0, b"1 + 2 + 39");          // initial load
/// assert_eq!(parser.parse_incremental(&mut inc)?, 42);
/// inc.splice(4..5, b"7");                   // "2" -> "7"
/// assert_eq!(parser.parse_incremental(&mut inc)?, 47);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct IncrementalSession<V> {
    log: EditLog<VmState<V>>,
    interval: usize,
    /// `stream_id` of the parser the checkpoints belong to.
    owner: u64,
    mode: Mode,
    stats: ReuseStats,
    scratch: ParseSession<V>,
}

impl<V> IncrementalSession<V> {
    /// An empty session with the default checkpoint interval.
    pub fn new() -> Self {
        Self::with_config(IncrementalConfig::default())
    }

    /// An empty session with explicit checkpoint density.
    pub fn with_config(config: IncrementalConfig) -> Self {
        IncrementalSession {
            log: EditLog::new(),
            interval: config.interval.max(1),
            owner: 0,
            mode: Mode::Value,
            stats: ReuseStats::default(),
            scratch: ParseSession::new(),
        }
    }

    /// The current document contents.
    pub fn doc(&self) -> &[u8] {
        &self.log.doc
    }

    /// Replaces `doc[range]` with `replacement`. Load the initial
    /// document with `splice(0..0, text)`; multiple splices between
    /// re-parses accumulate (checkpoints between two pending edits
    /// are dropped).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or reversed.
    pub fn splice(&mut self, range: Range<usize>, replacement: &[u8]) {
        // post-edit checkpoints are re-usable only via validation's
        // state-convergence check; value checkpoints can never be
        // resumed past an edit, so keeping them would only cost memory
        self.log
            .splice(range, replacement, self.mode == Mode::Validate);
    }

    /// Reuse accounting for the most recent re-parse.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }
}

impl<V> Default for IncrementalSession<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// What a checkpoint of a state with these stack depths retains.
fn state_bytes<V>(control: usize, values: usize) -> usize {
    size_of::<Ckpt<VmState<V>>>() + control * size_of::<Ctl>() + values * size_of::<V>()
}

fn ckpt_bytes<V>(c: &Ckpt<VmState<V>>) -> usize {
    state_bytes::<V>(c.state.control.len(), c.state.values.len())
}

/// Validation checkpoints are spaced by their own cost: one that
/// retains `b` bytes is recorded only once `min(interval, COVER * b)`
/// document bytes separate it from the previous one. Each retained
/// checkpoint is then paid for by the bytes before it, so while none
/// retains more than `interval / COVER` bytes, all of them together
/// retain at most `doc_len / COVER`.
const COVER: usize = 16;

impl<V> CompiledParser<V> {
    /// Re-parses an [`IncrementalSession`]'s document after edits,
    /// reusing the longest unedited checkpointed prefix. The value,
    /// or the error with its position and line/column, is identical
    /// to a from-scratch [`CompiledParser::parse`] of the current
    /// document.
    ///
    /// `V: Clone` because checkpoints snapshot the value stack;
    /// clones must be true value copies for restored parses to agree
    /// with from-scratch ones. Suffix reuse is structurally
    /// impossible here — semantic actions are opaque folds — so for
    /// pure diagnostics use [`CompiledParser::validate_incremental`],
    /// which converges shortly after the edit instead of running to
    /// end of input.
    ///
    /// # Errors
    ///
    /// [`FusedParseError`] exactly as a from-scratch parse would
    /// report.
    pub fn parse_incremental(&self, inc: &mut IncrementalSession<V>) -> Result<V, FusedParseError>
    where
        V: Clone,
    {
        self.parse_incremental_obs(inc, &mut NoopObserver)
    }

    /// As [`CompiledParser::parse_incremental`], with an [`Observer`]
    /// receiving the re-parsed span's events plus one
    /// [`Observer::reuse`] call when the run's accounting is final.
    ///
    /// # Errors
    ///
    /// As for [`CompiledParser::parse_incremental`].
    pub fn parse_incremental_obs<O: Observer>(
        &self,
        inc: &mut IncrementalSession<V>,
        obs: &mut O,
    ) -> Result<V, FusedParseError>
    where
        V: Clone,
    {
        self.reparse::<true, O>(
            inc,
            Mode::Value,
            |src, dst| {
                dst.extend(src.iter().cloned());
            },
            obs,
        )
        .map(|v| v.expect("a completed value parse produces a value"))
    }

    /// Re-validates an [`IncrementalSession`]'s document after edits,
    /// with actions compiled out (the incremental analogue of
    /// [`CompiledParser::recognize`]). Reuses the unedited prefix
    /// *and* — once the automaton state re-converges with the
    /// previous run's recorded state beyond the edit — the entire
    /// remaining suffix, returning the previous outcome with
    /// positions shifted into post-edit coordinates.
    ///
    /// This is the editor/LSP diagnostics workload: for a small edit
    /// in a large document the cost is about one gap between
    /// validation checkpoints (a few KiB; see
    /// [`IncrementalConfig::interval`]), independent of document size
    /// ([`ReuseStats::converged`] reports whether the short-circuit
    /// happened).
    ///
    /// # Errors
    ///
    /// [`FusedParseError`] exactly as a from-scratch
    /// [`CompiledParser::recognize`] of the current document would
    /// report.
    pub fn validate_incremental(
        &self,
        inc: &mut IncrementalSession<V>,
    ) -> Result<(), FusedParseError> {
        self.validate_incremental_obs(inc, &mut NoopObserver)
    }

    /// As [`CompiledParser::validate_incremental`], with an
    /// [`Observer`] receiving the re-validated span's events plus one
    /// [`Observer::reuse`] call when the run's accounting is final.
    ///
    /// # Errors
    ///
    /// As for [`CompiledParser::validate_incremental`].
    pub fn validate_incremental_obs<O: Observer>(
        &self,
        inc: &mut IncrementalSession<V>,
        obs: &mut O,
    ) -> Result<(), FusedParseError> {
        self.reparse::<false, O>(inc, Mode::Validate, |_, _| {}, obs)
            .map(|_| ())
    }

    /// The shared incremental driver. `fill_values` clones a value
    /// stack into checkpoint storage (a no-op for validation, whose
    /// value stacks are empty) — passed as a closure so the `V:
    /// Clone` bound lives only on the value-mode entry point.
    fn reparse<const A: bool, O: Observer>(
        &self,
        inc: &mut IncrementalSession<V>,
        mode: Mode,
        fill_values: impl Fn(&[V], &mut Vec<V>),
        obs: &mut O,
    ) -> Result<Option<V>, FusedParseError> {
        if inc.owner != self.stream_id || inc.mode != mode {
            // different tables, or checkpoints of the other engine
            // instantiation: both make the recorded state meaningless
            inc.log.invalidate();
            inc.owner = self.stream_id;
            inc.mode = mode;
        }
        let doc_len = inc.log.doc.len();

        // Restart point: the last confirmed checkpoint at or before
        // the dirty window (or the last one outright when clean).
        let limit = inc.log.dirty.as_ref().map_or(doc_len, |d| d.start);
        let cut = inc.log.confirmed.partition_point(|c| c.scan_pos() <= limit);
        inc.log.confirmed.truncate(cut);
        let mut pos = 0usize;
        match inc.log.confirmed.last() {
            Some(c) => {
                pos = c.scan_pos();
                let s = &mut inc.scratch;
                s.control.clear();
                s.control.extend_from_slice(&c.state.control);
                s.values.clear();
                fill_values(&c.state.values, &mut s.values);
                s.resume = c.state.resume;
                s.owner = self.stream_id;
                s.stream.restore(
                    c.snap,
                    &inc.log.doc[c.snap.offset..c.snap.offset + c.scanned],
                );
            }
            None => inc.scratch.begin(self.start_nt, self.stream_id),
        }
        inc.stats = ReuseStats {
            doc_len,
            prefix_reused: pos,
            ..ReuseStats::default()
        };

        // Value checkpoints clone value stacks and keep the interval;
        // validation checkpoints are spaced by their cost (see
        // `COVER`). `last_ck` is the previous retained checkpoint's
        // position: the restart point, or 0.
        let interval = inc.interval;
        let gap = |s: &ParseSession<V>| {
            if A {
                interval
            } else {
                interval.min(COVER * state_bytes::<V>(s.control.len(), 0))
            }
        };
        let mut si = 0usize; // next stale checkpoint to compare against
        let mut last_ck = pos;
        let mut next_ck = pos + gap(&inc.scratch);
        let outcome = loop {
            if pos >= doc_len {
                break self
                    .feed::<A, O>(&mut inc.scratch, &[], true, obs)
                    .map(drop);
            }
            // stop at the next stale checkpoint's position (to test
            // for convergence) or at the next checkpoint boundary,
            // whichever comes first
            while si < inc.log.stale.len() && inc.log.stale[si].scan_pos() <= pos {
                si += 1;
            }
            let mut target = next_ck.min(doc_len);
            if !A {
                if let Some(c) = inc.log.stale.get(si) {
                    target = target.min(c.scan_pos());
                }
            }
            debug_assert!(target > pos, "feed targets must advance");
            let fed = self.feed::<A, O>(&mut inc.scratch, &inc.log.doc[pos..target], false, obs);
            inc.stats.parsed += target - pos;
            if let Err(e) = fed {
                break Err(e);
            }
            pos = target;
            if pos >= doc_len {
                continue;
            }
            if !A {
                if let Some(c) = inc.log.stale.get(si) {
                    if c.scan_pos() == pos
                        && inc.scratch.resume == c.state.resume
                        && inc.scratch.control == c.state.control
                    {
                        // Convergence: the suspended state equals the
                        // previous run's at the same position, and the
                        // remaining bytes are the same document suffix
                        // — by determinism the rest of the parse is
                        // identical. Promote the surviving stale
                        // checkpoints and return the recorded outcome.
                        inc.stats.converged = true;
                        inc.stats.suffix_reused = doc_len - pos;
                        // the checkpoint converged on keeps its place
                        // only if the bytes since `last_ck` pay for it;
                        // the ones after it kept their spacing
                        let from = si + usize::from(pos - last_ck < gap(&inc.scratch));
                        inc.log.confirmed.extend(inc.log.stale.drain(from..));
                        let out = inc
                            .log
                            .outcome
                            .clone()
                            .expect("stale checkpoints imply a recorded outcome");
                        inc.log.dirty = None;
                        inc.log.stale.clear();
                        inc.stats.checkpoints = inc.log.confirmed.len();
                        inc.stats.retained_bytes = inc.log.confirmed.iter().map(ckpt_bytes).sum();
                        obs.reuse(&inc.stats);
                        return out.map(|()| None);
                    }
                }
            }
            if pos >= next_ck {
                let s = &inc.scratch;
                let g = gap(s);
                // (a state that got costlier since the target was set
                // waits for the bytes that pay for it)
                if pos - last_ck >= g {
                    debug_assert_eq!(
                        s.stream.offset() + s.stream.buf().len(),
                        pos,
                        "suspension must have scanned every fed byte"
                    );
                    let mut values = Vec::new();
                    fill_values(&s.values, &mut values);
                    inc.log.confirmed.push(Ckpt {
                        snap: s.stream.snapshot(),
                        scanned: s.stream.buf().len(),
                        state: VmState {
                            control: s.control.clone(),
                            values,
                            resume: s.resume,
                        },
                    });
                    last_ck = pos;
                }
                next_ck = last_ck + g;
            }
        };

        inc.stats.checkpoints = inc.log.confirmed.len();
        inc.stats.retained_bytes = inc.log.confirmed.iter().map(ckpt_bytes).sum();
        obs.reuse(&inc.stats);
        match outcome {
            Ok(()) => {
                inc.log.complete(Ok(()));
                Ok(A.then(|| inc.scratch.take_value()))
            }
            Err(e) => {
                inc.log.complete(Err(e.clone()));
                Err(e)
            }
        }
    }
}
