//! Parse-time observability hooks.
//!
//! The staged engine is generic over an [`Observer`] that is notified
//! at the *event* granularity of a parse: a committed token, a
//! committed skip run, a reduction, a nonterminal dispatch, a stream
//! feed, an incremental re-parse. There are deliberately no per-byte
//! hooks: the scanning inner loops stay exactly as tight as before.
//!
//! # The zero-overhead invariant
//!
//! Every hook has an empty `#[inline(always)]` default body, and every
//! unobserved entry point passes [`NoopObserver`]. Because the engine
//! is monomorphized over the observer type, the `NoopObserver`
//! instantiation compiles to exactly the code that existed before the
//! hooks: the hook arguments are values the engine already holds in
//! locals at each call site, so the calls vanish entirely. Two tests
//! guard the invariant: the allocation audit
//! (`crates/integration/tests/alloc.rs`) finds zero allocations on
//! the disabled path, and the traced == untraced differential
//! (`crates/integration/tests/obs.rs`) finds identical values and
//! errors with and without a live observer.
//!
//! # Observers
//!
//! * [`NoopObserver`] — the disabled path; observes nothing.
//! * [`ParseProfiler`] — an accumulating profile: bytes skipped vs
//!   lexed, a token histogram by class, reductions by grammar rule,
//!   automaton-row heat, feed boundaries and incremental reuse. Its
//!   counter tables grow to the grammar's high-water mark and are then
//!   reused, so even the *enabled* path allocates nothing in steady
//!   state.
//!
//! Custom observers are ordinary trait impls; see the trait docs for
//! the meaning of each event.

use crate::edit_log::ReuseStats;

/// Receives parse-time events from an execution engine.
///
/// All methods have empty defaults, so an observer implements only the
/// events it cares about. Hooks fire per *event* (token, reduction,
/// feed), never per byte; implementations should still be cheap —
/// counters, not I/O — since a large input produces millions of
/// events.
///
/// The `class`, `rule` and `row` identifiers are kept raw so the hot
/// path never does translation work: the engine reports its flat
/// production index as the token class and reduction rule, and its
/// premultiplied transition-table row. Render them with the owning
/// [`CompiledParser`](crate::CompiledParser)'s `prod_label`, `prod_nt`
/// and `row_state`.
pub trait Observer {
    /// A run of `bytes` skippable bytes (whitespace, comments) was
    /// consumed outside any token.
    #[inline(always)]
    fn skipped(&mut self, bytes: usize) {
        let _ = bytes;
    }

    /// A token of class `class` and length `len` bytes was committed.
    #[inline(always)]
    fn token(&mut self, class: u32, len: usize) {
        let _ = (class, len);
    }

    /// The reduction action of rule `rule` ran.
    #[inline(always)]
    fn reduce(&mut self, rule: u32) {
        let _ = rule;
    }

    /// An ε-production's reduction ran (the F3 lookahead rule applied).
    #[inline(always)]
    fn eps_reduce(&mut self) {}

    /// The engine dispatched a nonterminal and began scanning its next
    /// token from automaton row `row`.
    #[inline(always)]
    fn nt_row(&mut self, row: u32) {
        let _ = row;
    }

    /// A streaming feed boundary: `chunk_len` new bytes arrived while
    /// `retained` bytes of partial-token tail were carried over.
    #[inline(always)]
    fn feed(&mut self, chunk_len: usize, retained: usize) {
        let _ = (chunk_len, retained);
    }

    /// An incremental re-parse finished; `stats` reports how much of
    /// the previous run was reused.
    #[inline(always)]
    fn reuse(&mut self, stats: &ReuseStats) {
        let _ = stats;
    }
}

/// The disabled path: observes nothing, costs nothing.
///
/// The engine monomorphized over `NoopObserver` compiles to the same
/// code as an engine without hooks: every hook's default body is
/// empty and `#[inline(always)]`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// An accumulating, allocation-bounded parse profile.
///
/// Attach one to any observed entry point (`parse_with_obs`,
/// `feed_obs`, …) and read the public counters afterwards; the
/// same profiler can be fed by many parses to profile a workload. The
/// per-class/per-rule/per-row tables grow on first sight of a new
/// index and are then reused, so steady-state profiling allocates
/// nothing (audited).
///
/// Row-heat recording can be *sampled* ([`ParseProfiler::with_sampling`])
/// to bound its cost on pathological grammars with huge tables: only
/// every `n`-th nonterminal dispatch is recorded.
#[derive(Clone, Debug, Default)]
pub struct ParseProfiler {
    /// Bytes consumed by skip runs (outside tokens).
    pub bytes_skipped: u64,
    /// Bytes consumed by committed tokens.
    pub bytes_lexed: u64,
    /// Committed tokens, indexed by engine class id.
    pub tokens_by_class: Vec<u64>,
    /// Reduction-action runs, indexed by engine rule id.
    pub reductions: Vec<u64>,
    /// ε-reductions (F3 lookahead rules applied).
    pub eps_reductions: u64,
    /// Nonterminal dispatches by (sampled) automaton row.
    pub row_hits: Vec<u64>,
    /// Stream feed boundaries observed.
    pub feeds: u64,
    /// Total bytes fed across stream boundaries.
    pub feed_bytes: u64,
    /// High-water mark of partial-token bytes retained across feeds.
    pub retained_max: usize,
    /// Stats of the most recent incremental re-parse, if any.
    pub last_reuse: Option<ReuseStats>,
    sample: u32,
    phase: u32,
}

impl ParseProfiler {
    /// A profiler recording every event.
    pub fn new() -> ParseProfiler {
        ParseProfiler {
            sample: 1,
            ..ParseProfiler::default()
        }
    }

    /// A profiler recording only every `n`-th nonterminal dispatch in
    /// the row-heat table (`n == 0` is treated as 1). Token, skip and
    /// reduction counters are exact regardless.
    pub fn with_sampling(n: u32) -> ParseProfiler {
        ParseProfiler {
            sample: n.max(1),
            ..ParseProfiler::default()
        }
    }

    /// Total committed tokens.
    pub fn tokens(&self) -> u64 {
        self.tokens_by_class.iter().sum()
    }

    /// Total reduction-action runs (excluding ε-reductions).
    pub fn reduction_count(&self) -> u64 {
        self.reductions.iter().sum()
    }

    /// The `(row, hits)` pairs with the most hits, descending, at most
    /// `n` of them.
    pub fn hottest_rows(&self, n: usize) -> Vec<(u32, u64)> {
        let mut rows: Vec<(u32, u64)> = self
            .row_hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h > 0)
            .map(|(i, &h)| (i as u32, h))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Clears every counter; table capacity is retained.
    pub fn reset(&mut self) {
        let sample = self.sample.max(1);
        self.bytes_skipped = 0;
        self.bytes_lexed = 0;
        self.tokens_by_class.iter_mut().for_each(|c| *c = 0);
        self.reductions.iter_mut().for_each(|c| *c = 0);
        self.eps_reductions = 0;
        self.row_hits.iter_mut().for_each(|c| *c = 0);
        self.feeds = 0;
        self.feed_bytes = 0;
        self.retained_max = 0;
        self.last_reuse = None;
        self.sample = sample;
        self.phase = 0;
    }
}

#[inline]
fn bump(table: &mut Vec<u64>, idx: usize) {
    if idx >= table.len() {
        table.resize(idx + 1, 0);
    }
    table[idx] += 1;
}

impl Observer for ParseProfiler {
    #[inline]
    fn skipped(&mut self, bytes: usize) {
        self.bytes_skipped += bytes as u64;
    }

    #[inline]
    fn token(&mut self, class: u32, len: usize) {
        self.bytes_lexed += len as u64;
        bump(&mut self.tokens_by_class, class as usize);
    }

    #[inline]
    fn reduce(&mut self, rule: u32) {
        bump(&mut self.reductions, rule as usize);
    }

    #[inline]
    fn eps_reduce(&mut self) {
        self.eps_reductions += 1;
    }

    #[inline]
    fn nt_row(&mut self, row: u32) {
        self.phase += 1;
        if self.phase >= self.sample {
            self.phase = 0;
            bump(&mut self.row_hits, row as usize);
        }
    }

    #[inline]
    fn feed(&mut self, chunk_len: usize, retained: usize) {
        self.feeds += 1;
        self.feed_bytes += chunk_len as u64;
        self.retained_max = self.retained_max.max(retained);
    }

    #[inline]
    fn reuse(&mut self, stats: &ReuseStats) {
        self.last_reuse = Some(*stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
    }

    #[test]
    fn profiler_accumulates_and_resets() {
        let mut p = ParseProfiler::new();
        p.skipped(3);
        p.token(2, 5);
        p.token(2, 1);
        p.token(0, 4);
        p.reduce(7);
        p.eps_reduce();
        p.nt_row(1);
        p.nt_row(1);
        p.feed(128, 9);
        p.feed(64, 2);
        assert_eq!(p.bytes_skipped, 3);
        assert_eq!(p.bytes_lexed, 10);
        assert_eq!(p.tokens(), 3);
        assert_eq!(p.tokens_by_class[2], 2);
        assert_eq!(p.reduction_count(), 1);
        assert_eq!(p.eps_reductions, 1);
        assert_eq!(p.hottest_rows(4), vec![(1, 2)]);
        assert_eq!(p.feeds, 2);
        assert_eq!(p.feed_bytes, 192);
        assert_eq!(p.retained_max, 9);
        p.reset();
        assert_eq!(p.tokens(), 0);
        assert_eq!(p.bytes_skipped + p.bytes_lexed, 0);
        assert!(p.hottest_rows(4).is_empty());
    }

    #[test]
    fn sampling_records_every_nth_dispatch() {
        let mut p = ParseProfiler::with_sampling(3);
        for _ in 0..9 {
            p.nt_row(5);
        }
        assert_eq!(p.row_hits[5], 3);
        // exact counters are unaffected by sampling
        p.token(1, 2);
        assert_eq!(p.tokens(), 1);
    }

    #[test]
    fn hottest_rows_orders_and_truncates() {
        let mut p = ParseProfiler::new();
        for (row, hits) in [(4u32, 5u64), (1, 9), (7, 5), (2, 1)] {
            for _ in 0..hits {
                p.nt_row(row);
            }
        }
        assert_eq!(p.hottest_rows(3), vec![(1, 9), (4, 5), (7, 5)]);
    }
}
