//! The bookkeeping half of incremental re-parsing: checkpoint
//! spacing ([`IncrementalConfig`]), reuse accounting ([`ReuseStats`])
//! and the edit log.
//!
//! [`EditLog`] owns the document and the checkpoints of the previous
//! runs. It applies `splice` edits, partitions checkpoints into
//! still-valid and potentially-reusable sets, and shifts recorded
//! positions (byte offsets *and* line/column accounting) into
//! post-edit coordinates. `crate::incremental` binds it to the VM.

use std::fmt;
use std::ops::Range;

use flap_fuse::FusedParseError;

use crate::stream::StreamSnapshot;

/// Tuning for an incremental session's checkpoint density.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IncrementalConfig {
    /// Distance in bytes between value-parse checkpoints, and the
    /// largest distance between validation checkpoints (default 64
    /// KiB).
    ///
    /// A value re-parse restarts at the last checkpoint before the
    /// edit, so it repeats up to one interval of work before it
    /// reaches the edit; about `doc_len / interval` checkpoints are
    /// retained, each cloning the stepper's stacks and every pending
    /// semantic value.
    ///
    /// Validation checkpoints hold only a control stack, whose depth
    /// tracks grammar nesting, so they are spaced by their own cost:
    /// one that retains `b` bytes is recorded only once
    /// `min(interval, 16 * b)` bytes separate it from the previous
    /// one. While no checkpoint retains more than
    /// `interval / 16` bytes, all of them together retain at most
    /// `doc_len / 16`. A re-validation re-scans a whole gap (it
    /// restarts at the checkpoint before the edit and converges at
    /// the one after), which is a few KiB for the bundled grammars.
    /// Intervals below that spacing cap it, trading retained state
    /// for fewer re-scanned bytes.
    pub interval: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            interval: 64 * 1024,
        }
    }
}

/// Reuse accounting for the most recent incremental re-parse — how
/// much work the checkpoint log saved.
///
/// `prefix_reused + parsed + suffix_reused == doc_len` whenever the
/// re-parse ran to a verdict (shortfall only on an error, which stops
/// the parse early).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Document length at the time of the re-parse.
    pub doc_len: usize,
    /// Bytes skipped by restarting from a checkpoint at or before the
    /// edit instead of byte 0.
    pub prefix_reused: usize,
    /// Bytes skipped by stopping at state re-convergence with the
    /// previous run (always 0 for value parses, which must re-run
    /// their semantic actions).
    pub suffix_reused: usize,
    /// Bytes actually fed through the automaton.
    pub parsed: usize,
    /// Checkpoints retained after the re-parse.
    pub checkpoints: usize,
    /// Approximate heap footprint of the retained checkpoints
    /// (shallow: counts stack entries at their in-line size, not what
    /// semantic values own behind pointers).
    pub retained_bytes: usize,
    /// Whether the re-parse ended early via suffix convergence.
    pub converged: bool,
}

/// Human-readable one-line summary, e.g.
/// `reused 93.7% of 1048576 B (prefix 65536, suffix 917504, parsed 65536), 15 ckpts / 4 KiB retained, converged`.
impl fmt::Display for ReuseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reused = self.prefix_reused + self.suffix_reused;
        let pct = if self.doc_len == 0 {
            0.0
        } else {
            100.0 * reused as f64 / self.doc_len as f64
        };
        write!(
            f,
            "reused {:.1}% of {} B (prefix {}, suffix {}, parsed {}), {} ckpts / {} KiB retained{}",
            pct,
            self.doc_len,
            self.prefix_reused,
            self.suffix_reused,
            self.parsed,
            self.checkpoints,
            self.retained_bytes / 1024,
            if self.converged { ", converged" } else { "" },
        )
    }
}

/// One recorded suspension of the streaming VM: its stacks plus
/// position accounting.
pub(crate) struct Ckpt<S> {
    /// Position accounting at suspension; `snap.offset` is the global
    /// offset of the first byte of the retained token tail.
    pub snap: StreamSnapshot,
    /// Length of the retained tail. Every suspension has scanned
    /// exactly the bytes it retains, so the tail is reconstructed as
    /// `doc[snap.offset .. snap.offset + scanned]` at restore time and
    /// need not be stored.
    pub scanned: usize,
    /// Suspended state (stacks + resume point).
    pub state: S,
}

impl<S> Ckpt<S> {
    /// The global byte offset this checkpoint resumes scanning at.
    pub fn scan_pos(&self) -> usize {
        self.snap.offset + self.scanned
    }
}

/// The document half of an incremental session: the document, the
/// checkpoint logs, the previous outcome and the dirty window —
/// everything `splice` has to maintain, independent of what the
/// checkpoints' suspended states hold.
pub(crate) struct EditLog<S> {
    /// Current document contents.
    pub doc: Vec<u8>,
    /// Checkpoints whose prefix of `doc` is unedited, ascending by
    /// scan position; restoring any of them is always sound.
    pub confirmed: Vec<Ckpt<S>>,
    /// Checkpoints from the previous *completed* parse that lie
    /// beyond every edit since, shifted into current-document
    /// coordinates. Sound to reuse only if the new parse's automaton
    /// state re-converges with one of them at its (shifted) position.
    pub stale: Vec<Ckpt<S>>,
    /// Outcome of the previous completed parse, positions shifted
    /// into current-document coordinates; returned verbatim on suffix
    /// convergence.
    pub outcome: Option<Result<(), FusedParseError>>,
    /// Union of the edited byte ranges since the last completed
    /// parse, in current-document coordinates (`None` = clean).
    pub dirty: Option<Range<usize>>,
}

fn count_nl(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Shifts a `col_base` (global offset one past the last `\n` before
/// some reference position `>= range.end` in the *old* document, 0 if
/// none) across the edit `range -> replacement`.
fn shift_col_base(
    cb: usize,
    range: &Range<usize>,
    replacement: &[u8],
    doc_new: &[u8],
    delta: isize,
) -> usize {
    if cb > range.end {
        // the governing newline sits strictly after the edit: shifted
        (cb as isize + delta) as usize
    } else if let Some(j) = replacement.iter().rposition(|&b| b == b'\n') {
        // the replacement introduces a later newline
        range.start + j + 1
    } else if cb <= range.start {
        // the governing newline (or start of input) precedes the edit
        cb
    } else {
        // the governing newline was removed and nothing replaced it:
        // rescan the unedited prefix for the previous one
        doc_new[..range.start]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |j| j + 1)
    }
}

/// Shifts an error recorded against the old document (at `pos >=
/// range.end`) into post-edit coordinates: byte offset by `delta`,
/// line by `dl`, column via the shifted line start.
fn shift_err(
    e: FusedParseError,
    range: &Range<usize>,
    replacement: &[u8],
    doc_new: &[u8],
    delta: isize,
    dl: isize,
) -> FusedParseError {
    let shift = |pos: usize, line: usize, col: usize| {
        // col == pos - line_start + 1, so recover the line start,
        // shift it like any other col_base, and rederive the column.
        let cb = pos + 1 - col;
        let pos2 = (pos as isize + delta) as usize;
        let line2 = (line as isize + dl) as usize;
        let cb2 = shift_col_base(cb, range, replacement, doc_new, delta);
        (pos2, line2, pos2 - cb2 + 1)
    };
    match e {
        FusedParseError::NoMatch {
            pos,
            line,
            col,
            nt,
            expected,
        } => {
            let (pos, line, col) = shift(pos, line, col);
            FusedParseError::NoMatch {
                pos,
                line,
                col,
                nt,
                expected,
            }
        }
        FusedParseError::TrailingInput { pos, line, col } => {
            let (pos, line, col) = shift(pos, line, col);
            FusedParseError::TrailingInput { pos, line, col }
        }
    }
}

impl<S> EditLog<S> {
    /// An empty log over an empty document.
    pub fn new() -> Self {
        EditLog {
            doc: Vec::new(),
            confirmed: Vec::new(),
            stale: Vec::new(),
            outcome: None,
            dirty: None,
        }
    }

    /// Applies the edit `range -> replacement` to the document and
    /// reconciles all recorded state:
    ///
    /// * checkpoints with `scan_pos <= range.start` stay confirmed
    ///   (their prefix is untouched);
    /// * with `keep_stale`, checkpoints whose retained tail starts at
    ///   or after the end of the post-edit dirty window become (or
    ///   stay) stale, offsets and line/column accounting shifted into
    ///   post-edit coordinates — a checkpoint before any pending edit
    ///   must never be a convergence target, or validation would
    ///   return the outcome from before that edit;
    /// * everything else — checkpoints overlapping an edit or lying
    ///   between two — is dropped, as is a recorded outcome located
    ///   inside the edit.
    ///
    /// Both logs are partitioned in place: each outcome above is a
    /// contiguous run of the sorted logs.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or reversed.
    pub fn splice(&mut self, range: Range<usize>, replacement: &[u8], keep_stale: bool) {
        assert!(
            range.start <= range.end && range.end <= self.doc.len(),
            "splice range {range:?} out of bounds for document of {} bytes",
            self.doc.len()
        );
        let delta = replacement.len() as isize - range.len() as isize;
        let dl = count_nl(replacement) as isize - count_nl(&self.doc[range.clone()]) as isize;
        let _ = self.doc.splice(range.clone(), replacement.iter().copied());
        let new_end = range.start + replacement.len();

        // widen the dirty window (shifting any prior window's
        // post-edit part by delta; interior points collapse onto the
        // replacement, which the union with the new range covers)
        let shift_pt = |p: usize| {
            if p <= range.start {
                p
            } else if p >= range.end {
                (p as isize + delta) as usize
            } else {
                new_end
            }
        };
        let dirty = match self.dirty.take() {
            None => range.start..new_end,
            Some(d) => shift_pt(d.start).min(range.start)..shift_pt(d.end).max(new_end),
        };

        // shift (or drop) the recorded outcome the same way
        self.outcome = match self.outcome.take() {
            Some(Ok(())) => Some(Ok(())),
            Some(Err(e)) if e.pos() >= range.end => {
                Some(Err(shift_err(e, &range, replacement, &self.doc, delta, dl)))
            }
            _ => None,
        };

        // Partition the checkpoint logs. Both are sorted by scan
        // position and by tail offset (a stream only consumes from its
        // front), and confirmed precedes stale, so the stale survivors
        // are a suffix of the two logs chained: those with a tail
        // offset at or past the dirty window's end, which is
        // `dirty.end - delta` in pre-edit coordinates. Without an
        // outcome to return, convergence would be meaningless (and an
        // error inside the edit means no checkpoint beyond it was ever
        // taken anyway).
        let keep = self
            .confirmed
            .partition_point(|c| c.scan_pos() <= range.start);
        if keep_stale && self.outcome.is_some() {
            let from = (dirty.end as isize - delta) as usize;
            let first = self.stale.partition_point(|c| c.snap.offset < from);
            let tail = keep + self.confirmed[keep..].partition_point(|c| c.snap.offset < from);
            debug_assert!(tail == self.confirmed.len() || first == 0);
            self.stale.drain(..first);
            let _ = self.stale.splice(0..0, self.confirmed.drain(tail..));
            for c in &mut self.stale {
                c.snap.col_base =
                    shift_col_base(c.snap.col_base, &range, replacement, &self.doc, delta);
                c.snap.offset = (c.snap.offset as isize + delta) as usize;
                c.snap.lines_consumed = (c.snap.lines_consumed as isize + dl) as usize;
            }
        } else {
            self.stale.clear();
        }
        self.confirmed.truncate(keep);
        self.dirty = Some(dirty);
    }

    /// Records the verdict of a completed re-parse: the document is
    /// clean, the previous parse's leftovers are gone.
    pub fn complete(&mut self, outcome: Result<(), FusedParseError>) {
        self.outcome = Some(outcome);
        self.dirty = None;
        self.stale.clear();
    }

    /// Drops everything derived from past parses (grammar or mode
    /// changed); the document itself is kept and marked fully dirty.
    pub fn invalidate(&mut self) {
        self.confirmed.clear();
        self.stale.clear();
        self.outcome = None;
        self.dirty = Some(0..self.doc.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_stats_display_is_readable() {
        let s = ReuseStats {
            doc_len: 1000,
            prefix_reused: 600,
            suffix_reused: 150,
            parsed: 250,
            checkpoints: 3,
            retained_bytes: 4096,
            converged: true,
        };
        let text = s.to_string();
        assert!(text.contains("reused 75.0% of 1000 B"), "{text}");
        assert!(text.contains("prefix 600"), "{text}");
        assert!(text.contains("suffix 150"), "{text}");
        assert!(text.contains("3 ckpts / 4 KiB"), "{text}");
        assert!(text.ends_with("converged"), "{text}");

        // the empty document must not divide by zero
        let empty = ReuseStats::default().to_string();
        assert!(empty.contains("reused 0.0% of 0 B"), "{empty}");
        assert!(!empty.contains("converged"), "{empty}");
    }
}
