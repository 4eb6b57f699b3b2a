//! Streaming input for the staged VM: chunked byte sources and the
//! suspend/resume bookkeeping.
//!
//! The VM depends on the input only through `input[i]` and the
//! current token's span, so a parse does not need the whole input up
//! front. This module provides the pieces every streaming entry point
//! shares:
//!
//! * [`Step`] — the result of feeding one chunk to a suspendable
//!   session;
//! * [`ByteSource`] — a pull-based source of chunks, with adapters
//!   for slices ([`SliceChunks`]), chunk iterators ([`IterSource`])
//!   and [`std::io::Read`] ([`ReadSource`]);
//! * [`StreamError`] — parse or I/O failure while draining a source;
//! * [`StreamState`] — the per-session buffer that keeps a suspended
//!   parse's *partial-token byte tail* contiguous across chunk
//!   boundaries, plus incremental line/column accounting so errors in
//!   chunk N report the same positions a one-shot parse of the
//!   concatenated input would.
//!
//! ### The token-tail invariant
//!
//! Token actions run on the raw lexeme bytes (`tok_action(&input
//! [tok_start..rs])`), which must be one contiguous slice even when
//! the lexeme straddles a chunk boundary. A suspended session
//! therefore retains every byte from the start of the in-progress
//! token onward in [`StreamState`]'s buffer; bytes before the token
//! start are dropped (and their newlines counted) as soon as a feed
//! suspends. Steady-state memory is bounded by one chunk plus the
//! longest lexeme, never by the whole input, and a session that has
//! grown to its workload's high-water mark feeds without allocating.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use flap_fuse::FusedParseError;

/// Allocates a process-unique id for a streaming *owner* (a compiled
/// parser). Suspended sessions record the owner that created them, so
/// resuming with a different owner — whose state and production
/// indices would be meaningless — is detected and treated as starting
/// a fresh parse instead of corrupting the automaton.
pub(crate) fn next_owner_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The outcome of feeding one chunk to a suspendable parse session.
///
/// `feed` only ever returns [`Step::NeedMore`] or [`Step::Err`];
/// [`Step::Done`] is produced by `finish`, since only end of input
/// can prove that no trailing garbage follows the start symbol.
#[derive(Debug)]
#[must_use]
pub enum Step<V> {
    /// The input so far is consistent; feed another chunk, or call
    /// `finish` to signal end of input.
    NeedMore,
    /// The parse completed, yielding the semantic value.
    Done(V),
    /// The parse failed. Positions are *global* byte offsets into the
    /// concatenation of every chunk fed so far, with matching
    /// line/column, so the error is identical to the one a one-shot
    /// parse of the whole input would report.
    Err(FusedParseError),
}

/// A pull-based source of input chunks for `parse_source`-style
/// drivers.
///
/// Implementations return borrowed chunks, so a source can hand out
/// views into an internal buffer (as [`ReadSource`] does) without
/// copying. Returning `Ok(None)` signals end of input.
pub trait ByteSource {
    /// Pulls the next chunk; `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying source (sources that cannot fail
    /// always return `Ok`).
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>>;
}

impl<S: ByteSource + ?Sized> ByteSource for &mut S {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        (**self).next_chunk()
    }
}

/// A complete in-memory input, delivered as one chunk.
impl ByteSource for &[u8] {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        let chunk = std::mem::take(self);
        Ok(if chunk.is_empty() { None } else { Some(chunk) })
    }
}

/// A slice delivered in fixed-size chunks — the simplest way to
/// exercise (or benchmark) chunk-boundary handling deterministically.
#[derive(Debug, Clone)]
pub struct SliceChunks<'a> {
    rest: &'a [u8],
    chunk: usize,
}

impl<'a> SliceChunks<'a> {
    /// Chunks `bytes` into pieces of at most `chunk` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(bytes: &'a [u8], chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be non-zero");
        SliceChunks { rest: bytes, chunk }
    }
}

impl ByteSource for SliceChunks<'_> {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let n = self.chunk.min(self.rest.len());
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(Some(head))
    }
}

/// Adapts any iterator of byte chunks (e.g. a `Vec<Vec<u8>>`, lines
/// from a channel, frames from a decoder) into a [`ByteSource`].
#[derive(Debug, Clone)]
pub struct IterSource<I: Iterator> {
    iter: I,
    current: Option<I::Item>,
}

impl<I: Iterator> IterSource<I>
where
    I::Item: AsRef<[u8]>,
{
    /// Wraps `iter`; each item becomes one chunk.
    pub fn new(iter: impl IntoIterator<IntoIter = I>) -> Self {
        IterSource {
            iter: iter.into_iter(),
            current: None,
        }
    }
}

impl<I: Iterator> ByteSource for IterSource<I>
where
    I::Item: AsRef<[u8]>,
{
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        self.current = self.iter.next();
        Ok(self.current.as_ref().map(|c| c.as_ref()))
    }
}

/// Adapts a [`std::io::Read`] into a [`ByteSource`] through a reused
/// internal buffer — parse straight from a file, socket or pipe
/// without materializing the input.
///
/// ```
/// use flap_staged::{ByteSource, ReadSource};
///
/// let mut src = ReadSource::with_capacity(std::io::Cursor::new(b"hello"), 2);
/// assert_eq!(src.next_chunk().unwrap(), Some(&b"he"[..]));
/// assert_eq!(src.next_chunk().unwrap(), Some(&b"ll"[..]));
/// assert_eq!(src.next_chunk().unwrap(), Some(&b"o"[..]));
/// assert_eq!(src.next_chunk().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct ReadSource<R> {
    reader: R,
    buf: Vec<u8>,
}

impl<R: io::Read> ReadSource<R> {
    /// Default chunk-buffer size (8 KiB, one `read` per chunk).
    pub const DEFAULT_CAPACITY: usize = 8 * 1024;

    /// Wraps `reader` with the default buffer size.
    pub fn new(reader: R) -> Self {
        Self::with_capacity(reader, Self::DEFAULT_CAPACITY)
    }

    /// Wraps `reader`, reading at most `capacity` bytes per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(reader: R, capacity: usize) -> Self {
        assert!(capacity > 0, "read buffer must be non-empty");
        ReadSource {
            reader,
            buf: vec![0; capacity],
        }
    }

    /// Unwraps the source, returning the reader.
    pub fn into_inner(self) -> R {
        self.reader
    }
}

impl<R: io::Read> ByteSource for ReadSource<R> {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            match self.reader.read(&mut self.buf) {
                Ok(0) => return Ok(None),
                Ok(n) => return Ok(Some(&self.buf[..n])),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Failure while parsing from a [`ByteSource`]: either the source
/// failed or the input did not parse.
#[derive(Debug)]
pub enum StreamError {
    /// The byte source reported an I/O error.
    Io(io::Error),
    /// The input failed to parse (positions are global offsets).
    Parse(FusedParseError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "input source error: {e}"),
            StreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<FusedParseError> for StreamError {
    fn from(e: FusedParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// Per-session streaming bookkeeping: the retained byte buffer and
/// incremental line/column accounting.
///
/// The buffer holds the unconsumed suffix of the input — during a
/// feed, the partial-token tail carried over from earlier chunks plus
/// the newly appended chunk; between feeds, just the tail (see the
/// module docs for the token-tail invariant). Consumed bytes are
/// dropped eagerly, after folding their newlines into the running
/// line/column state, so positions keep matching a one-shot parse of
/// the whole input without retaining it.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    buf: Vec<u8>,
    /// Global byte offset of `buf[0]`.
    offset: usize,
    /// Newlines among the consumed (dropped) bytes.
    lines_consumed: usize,
    /// Global offset one past the last consumed `\n` (0 if none).
    col_base: usize,
}

impl StreamState {
    /// Fresh state for a new parse stream.
    pub fn new() -> Self {
        StreamState::default()
    }

    /// Resets for a new stream, retaining buffer capacity.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.offset = 0;
        self.lines_consumed = 0;
        self.col_base = 0;
    }

    /// Appends one input chunk to the retained buffer.
    pub fn push_chunk(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// The retained bytes: global offsets `[offset(), offset() + len)`.
    pub fn buf(&self) -> &[u8] {
        &self.buf
    }

    /// Global byte offset of the start of the retained buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Translates a buffer-relative offset to a global one.
    pub fn global(&self, rel: usize) -> usize {
        self.offset + rel
    }

    /// 1-based (line, column) of offset `rel` within `bytes`, the
    /// unconsumed input currently being scanned — the retained
    /// buffer, or a caller's chunk being scanned in place while the
    /// buffer is empty. `bytes[0]` is global offset
    /// [`StreamState::offset`] either way, and the result equals what
    /// [`flap_fuse::line_col`] would report at the same global offset
    /// of the concatenated input.
    pub fn line_col_in(&self, bytes: &[u8], rel: usize) -> (usize, usize) {
        let upto = &bytes[..rel.min(bytes.len())];
        let nl = upto.iter().filter(|&&b| b == b'\n').count();
        let line = 1 + self.lines_consumed + nl;
        let col = match upto.iter().rposition(|&b| b == b'\n') {
            Some(j) => rel - j,
            None => self.global(rel) - self.col_base + 1,
        };
        (line, col)
    }

    /// Folds a run of consumed bytes into the line/column accounting
    /// and advances the global offset past them.
    fn account(&mut self, dropped: &[u8]) {
        let nl = dropped.iter().filter(|&&b| b == b'\n').count();
        if let Some(j) = dropped.iter().rposition(|&b| b == b'\n') {
            self.col_base = self.offset + j + 1;
        }
        self.lines_consumed += nl;
        self.offset += dropped.len();
    }

    /// Drops the first `n` buffered bytes (they are fully parsed),
    /// folding their newlines into the line/column accounting.
    pub fn consume(&mut self, n: usize) {
        // moved out (no allocation) so `account` can borrow `self`
        let mut buf = std::mem::take(&mut self.buf);
        self.account(&buf[..n]);
        buf.drain(..n);
        self.buf = buf;
    }

    /// Zero-copy fast-path bookkeeping: `chunk` was scanned in place
    /// while the buffer was empty, and everything before `keep_from`
    /// was fully parsed. Accounts the consumed prefix and retains
    /// only the unconsumed tail — the one copy the token-tail
    /// invariant actually requires.
    pub fn absorb(&mut self, chunk: &[u8], keep_from: usize) {
        debug_assert!(self.buf.is_empty(), "absorb requires an empty buffer");
        self.account(&chunk[..keep_from]);
        self.buf.extend_from_slice(&chunk[keep_from..]);
    }

    /// Captures the position accounting as a compact [`StreamSnapshot`].
    ///
    /// The retained bytes themselves are *not* copied: a checkpointing
    /// layer that owns the full document can reconstruct them from
    /// `doc[offset() .. offset() + buf().len()]` at restore time, so a
    /// snapshot costs three words regardless of tail length.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            offset: self.offset,
            lines_consumed: self.lines_consumed,
            col_base: self.col_base,
        }
    }

    /// Restores accounting from a snapshot and replaces the retained
    /// buffer with `tail` (the bytes at global offsets
    /// `[snap.offset, snap.offset + tail.len())` of the original
    /// input). Inverse of [`StreamState::snapshot`].
    pub fn restore(&mut self, snap: StreamSnapshot, tail: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(tail);
        self.offset = snap.offset;
        self.lines_consumed = snap.lines_consumed;
        self.col_base = snap.col_base;
    }
}

/// A compact copy of a [`StreamState`]'s position accounting — what a
/// checkpoint must persist besides the automaton stacks. The retained
/// token tail is deliberately excluded (see [`StreamState::snapshot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StreamSnapshot {
    /// Global byte offset of the first retained byte.
    pub offset: usize,
    /// Newlines among the consumed bytes `[0, offset)`.
    pub lines_consumed: usize,
    /// Global offset one past the last consumed `\n` (0 if none).
    pub col_base: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_fuse::line_col;

    #[test]
    fn slice_chunks_cover_input() {
        let mut src = SliceChunks::new(b"abcdefg", 3);
        let mut got = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            got.extend_from_slice(c);
        }
        assert_eq!(got, b"abcdefg");
    }

    #[test]
    fn slice_source_yields_once() {
        let mut src: &[u8] = b"xyz";
        assert_eq!(src.next_chunk().unwrap(), Some(&b"xyz"[..]));
        assert_eq!(src.next_chunk().unwrap(), None);
    }

    #[test]
    fn iter_source_walks_items() {
        let chunks: Vec<Vec<u8>> = vec![b"ab".to_vec(), b"".to_vec(), b"c".to_vec()];
        let mut src = IterSource::new(chunks);
        assert_eq!(src.next_chunk().unwrap(), Some(&b"ab"[..]));
        assert_eq!(src.next_chunk().unwrap(), Some(&b""[..]));
        assert_eq!(src.next_chunk().unwrap(), Some(&b"c"[..]));
        assert_eq!(src.next_chunk().unwrap(), None);
    }

    #[test]
    fn one_shot_parses_leave_the_buffer_unallocated() {
        // parse_with and recognize scan the caller's slice in place:
        // none of it is copied into the session's stream buffer
        use crate::obs::NoopObserver;
        use crate::{CompiledParser, ParseSession};
        use flap_cfe::Cfe;
        let mut b = flap_lex::LexerBuilder::new();
        let num = b.token("num", "[0-9]+").unwrap();
        b.skip(" ").unwrap();
        let mut lexer = b.build().unwrap();
        let g: Cfe<i64> = Cfe::tok_with(num, |lx| lx.len() as i64);
        let fused = flap_fuse::fuse(&mut lexer, &flap_dgnf::normalize(&g).unwrap()).unwrap();
        let parser = CompiledParser::compile(&mut lexer, &fused);
        let mut session = ParseSession::new();
        assert_eq!(parser.parse_with(&mut session, b" 123 "), Ok(3));
        assert_eq!(session.stream.buf.capacity(), 0);
        // what recognize runs, on a session the test can inspect
        parser
            .one_shot::<false, _>(&mut session, b" 123 ", &mut NoopObserver)
            .unwrap();
        assert_eq!(session.stream.buf.capacity(), 0);
    }

    #[test]
    fn stream_state_line_col_matches_one_shot() {
        let input = b"ab\ncd\n\nxy z";
        // consume in awkward pieces and compare every surviving offset
        for split in 0..input.len() {
            let mut st = StreamState::new();
            st.push_chunk(&input[..split]);
            st.consume(split);
            st.push_chunk(&input[split..]);
            for rel in 0..=(input.len() - split) {
                assert_eq!(
                    st.line_col_in(st.buf(), rel),
                    line_col(input, split + rel),
                    "split {split} rel {rel}"
                );
            }
        }
    }
}
