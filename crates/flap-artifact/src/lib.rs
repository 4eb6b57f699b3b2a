//! The on-disk container for compiled flap parsers: a versioned,
//! checksummed, dependency-free binary format designed for
//! mmap-style zero-copy loading.
//!
//! flap's value proposition is that all expensive work — typing,
//! normalization, fusion, staging — happens at compile time. This
//! crate lets that work be paid *once per grammar*, not once per
//! process: a [`CompiledParser`](../flap_staged/struct.CompiledParser.html)
//! serializes into one artifact file, and any later process loads the
//! tables back without recompiling (and, from an aligned buffer,
//! without copying them).
//!
//! This crate knows nothing about parsers. It provides the *container*:
//!
//! * [`ArtifactWriter`] — accumulates numbered sections and emits the
//!   framed file (header, section table, 64-byte-aligned sections)
//!   sealed by one checksum;
//! * [`Artifact`] — validates a byte buffer (magic, version, endian
//!   tag, total length, body checksum, 64-byte buffer alignment) and
//!   exposes the sections as borrowed slices. Validation never
//!   panics; every rejection is a typed [`ArtifactError`];
//! * [`AlignedBuf`] — an owned 64-byte-aligned byte buffer, the
//!   backing store for zero-copy table views (`Arc<AlignedBuf>`
//!   clones are refcount bumps, so sharing a loaded table block
//!   across parsers allocates nothing);
//! * [`SectionBuf`] / [`SectionReader`] — little-endian field
//!   encode/decode helpers for section payloads;
//! * [`checksum`] — the body checksum, which hashes each byte once,
//!   eight at a time;
//! * [`Fnv64`] — the FNV-1a hash behind grammar keys
//!   (`flap::artifact::grammar_key`). No dependencies.
//!
//! What the sections *mean* is defined by the writer — for compiled
//! parsers, by `flap_staged::artifact` (transition block, class map,
//! production table, …) and `flap-regex` (flat skip-DFA blocks).
//!
//! # File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic "FLAPART\0"
//! 8       4     format version (ARTIFACT_VERSION, little-endian)
//! 12      4     endian tag 0x0A0B0C0D, writer-native order
//!               (byte-swapped on read => foreign endian)
//! 16      4     section count
//! 20      4     reserved (zero)
//! 24      8     total file length
//! 32      8     body checksum: checksum(bytes[40..])
//! 40      24    header padding (zero; covered by the body checksum)
//! 64      24*n  section table: {id u32, pad u32, offset u64, len u64}
//!               per section, offsets 64-byte-aligned
//! ...           section payloads, each starting at a 64-byte boundary,
//!               zero padding between (covered by the body checksum)
//! ```
//!
//! Header and section-payload scalar fields are little-endian *in
//! the file*; table-word sections are written in the *writer's*
//! native order so readers can view them in place, and the endian
//! tag rejects artifacts that crossed to a foreign-endian host.
//! The body checksum covers the section table and every payload, so
//! a section needs no checksum of its own. Any single-byte
//! corruption anywhere in the file trips either a structural check
//! (bytes 0–32; the last section must end the file, which pins the
//! section count) or the body checksum (bytes 32–end), so corrupted
//! artifacts are always rejected rather than misloaded.

#![warn(missing_docs)]

use std::fmt;

/// Current artifact format version. Bump whenever the header, the
/// section-table entry layout, or any writer's section encoding
/// changes shape — readers reject artifacts from other versions.
pub const ARTIFACT_VERSION: u32 = 3;

/// The artifact magic bytes.
pub const MAGIC: [u8; 8] = *b"FLAPART\0";

/// The endian sentinel stored (little-endian) in the header. A
/// reader that finds its byte-swap wrote the file on a foreign-endian
/// pipeline.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Header size in bytes (the first section-table entry starts here).
pub const HEADER_LEN: usize = 64;

/// Size of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Required alignment of section offsets and of caller-provided
/// load buffers: one cache line, so `u32` table sections can be
/// viewed in place with their cache-line alignment intact.
pub const ALIGN: usize = 64;

// ---------------------------------------------------------------------------
// Errors

/// Why a byte buffer was rejected as an artifact. Loading never
/// panics: every malformed, truncated, corrupted, foreign-endian or
/// mismatched input maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The buffer is shorter than a claimed structure requires.
    Truncated {
        /// Bytes needed by the structure being read.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first 8 bytes are not [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The artifact was written by a different format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands ([`ARTIFACT_VERSION`]).
        expected: u32,
    },
    /// The endian tag is byte-swapped: foreign-endian artifact.
    ForeignEndian,
    /// The caller-provided buffer is not 64-byte aligned, so
    /// zero-copy table views would be misaligned. Copy the bytes
    /// into an [`AlignedBuf`] first.
    Misaligned,
    /// The body checksum does not match: the file was corrupted in
    /// transit or at rest.
    Checksum,
    /// A required section is absent.
    MissingSection {
        /// The absent section's id.
        id: u32,
    },
    /// A structural invariant of the container or of a section
    /// payload is violated (bad offsets, impossible counts, …).
    Malformed(&'static str),
    /// Action re-attachment was attempted with a lexer or grammar
    /// whose structure (token names, canonical regexes, combinator
    /// tree) differs from the pair this artifact was compiled from.
    ShapeMismatch(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { need, have } => {
                write!(f, "truncated artifact: need {need} bytes, have {have}")
            }
            ArtifactError::BadMagic => write!(f, "not a flap artifact (bad magic)"),
            ArtifactError::BadVersion { found, expected } => {
                write!(
                    f,
                    "artifact format version {found}, reader expects {expected}"
                )
            }
            ArtifactError::ForeignEndian => {
                write!(f, "artifact written with foreign endianness")
            }
            ArtifactError::Misaligned => {
                write!(
                    f,
                    "artifact buffer is not 64-byte aligned (copy into AlignedBuf)"
                )
            }
            ArtifactError::Checksum => {
                write!(f, "artifact body checksum mismatch (corrupted file)")
            }
            ArtifactError::MissingSection { id } => {
                write!(f, "artifact is missing required section {id}")
            }
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            ArtifactError::ShapeMismatch(why) => {
                write!(f, "grammar shape mismatch: {why}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

// ---------------------------------------------------------------------------
// Checksums

/// Two odd multipliers (2⁶⁴ over the golden ratio, and FxHash's).
const CHECKSUM_K: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0x517C_C1B7_2722_0A95];

/// The artifact body checksum: folds the bytes in as little-endian
/// 64-bit words, then a zero-padded last word and the length. The
/// result does not depend on the host's byte order.
///
/// Each word is xored into the state, which is then multiplied,
/// rotated and multiplied again: a bijection of the state for a fixed
/// word, and injective in the word for a fixed state. So two inputs
/// that differ only inside one 8-byte word always hash differently,
/// and every single-bit flip is caught. The second multiply is there
/// for changes that span words: a multiply turns a flip of its
/// input's top bit into a flip of its output's top bit, whatever the
/// other bits, so with one multiply and a rotation per word, flipping
/// bit 63 of one word and the bit the rotation moves it to in the
/// next word would always cancel.
pub fn checksum(bytes: &[u8]) -> u64 {
    let [k1, k2] = CHECKSUM_K;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(k1).rotate_left(29).wrapping_mul(k2);
    let mut words = bytes.chunks_exact(8);
    let mut h = 0;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    h = step(h, u64::from_le_bytes(last));
    step(h, bytes.len() as u64)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a — the content hash behind grammar keys
/// (`flap::artifact::grammar_key`).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs a little-endian `u32` (a length-framed convenience
    /// for hashing structured keys unambiguously).
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a little-endian `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string, so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn update_str(&mut self, s: &str) {
        self.update_u32(s.len() as u32);
        self.update(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Aligned owned buffer

/// An owned, 64-byte-aligned byte buffer.
///
/// [`Artifact::load`] demands 64-byte alignment so table sections can
/// be viewed in place as cache-line-aligned `u32` blocks. `Vec<u8>`
/// and `fs::read` give no such guarantee, so callers route file bytes
/// through this type; behind an `Arc`, it is the shared backing store
/// for every zero-copy table view of a loaded parser (cloning the
/// `Arc` is a refcount bump — no allocation, no copy).
pub struct AlignedBuf {
    lines: Box<[Line64]>,
    len: usize,
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBuf({} bytes)", self.len)
    }
}

#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Line64([u8; 64]);

impl AlignedBuf {
    /// Copies `bytes` into a fresh 64-byte-aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let nlines = bytes.len().div_ceil(64);
        let mut lines = vec![Line64([0u8; 64]); nlines].into_boxed_slice();
        for (i, chunk) in bytes.chunks(64).enumerate() {
            lines[i].0[..chunk.len()].copy_from_slice(chunk);
        }
        AlignedBuf {
            lines,
            len: bytes.len(),
        }
    }

    /// The buffer contents; the slice's base pointer is 64-byte
    /// aligned.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: Line64 is #[repr(C, align(64))] over [u8; 64], so a
        // boxed slice of lines is one contiguous run of initialized
        // bytes of length lines.len() * 64 >= self.len.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<u8>(), self.len) }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------------
// Writer

/// Accumulates numbered sections and emits the framed artifact file.
///
/// Section ids are writer-defined (see `flap_staged::artifact` for
/// the compiled-parser schema) and must be unique within one
/// artifact.
#[derive(Default)]
pub struct ArtifactWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// A writer with no sections.
    pub fn new() -> ArtifactWriter {
        ArtifactWriter::default()
    }

    /// Appends a section. Panics (writer-side programming error, not
    /// input validation) on a duplicate id.
    pub fn add_section(&mut self, id: u32, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|&(existing, _)| existing != id),
            "duplicate artifact section id {id}"
        );
        self.sections.push((id, payload));
    }

    /// Emits the artifact bytes: header, section table,
    /// 64-byte-aligned sections, then the body checksum over them.
    pub fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let mut cursor = align_up(HEADER_LEN + table_len, ALIGN);
        let mut entries = Vec::with_capacity(self.sections.len());
        for (id, payload) in &self.sections {
            entries.push((*id, cursor as u64, payload.len() as u64));
            cursor = align_up(cursor + payload.len(), ALIGN);
        }
        let total_len = if let Some((_, off, len)) = entries.last() {
            // the file ends at the last payload byte, unpadded
            (*off + *len) as usize
        } else {
            align_up(HEADER_LEN, ALIGN)
        };

        let mut out = vec![0u8; total_len];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        // Native byte order on purpose: table sections are viewed in
        // place as native u32s, so the tag must record the writer's
        // endianness, not a fixed file order.
        out[12..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        out[16..20].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        // bytes 20..24 reserved (zero)
        out[24..32].copy_from_slice(&(total_len as u64).to_le_bytes());
        // body checksum written last, over bytes 40..

        for (i, (id, off, len)) in entries.iter().enumerate() {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            // bytes e+4..e+8 pad (zero)
            out[e + 8..e + 16].copy_from_slice(&off.to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&len.to_le_bytes());
        }
        for ((_, payload), (_, off, len)) in self.sections.iter().zip(&entries) {
            out[*off as usize..(*off + *len) as usize].copy_from_slice(payload);
        }
        let body = checksum(&out[40..]);
        out[32..40].copy_from_slice(&body.to_le_bytes());
        out
    }
}

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

// ---------------------------------------------------------------------------
// Reader

/// A validated view of an artifact byte buffer.
///
/// [`Artifact::load`] performs *all* validation up front — alignment,
/// magic, version, endianness, length, body checksum and
/// section-table sanity (in-bounds, aligned, non-overlapping
/// offsets, the last section ending the file) — so section accessors
/// afterwards are infallible lookups. The view borrows the caller's buffer; for
/// owned, shareable zero-copy loading wrap the bytes in
/// `Arc<`[`AlignedBuf`]`>` and load from `buf.as_slice()`.
pub struct Artifact<'a> {
    data: &'a [u8],
    /// `(id, offset, len)` per section, in file order.
    sections: Vec<(u32, usize, usize)>,
}

impl<'a> Artifact<'a> {
    /// Validates `data` as an artifact.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`ArtifactError`];
    /// this function never panics on any byte string.
    pub fn load(data: &'a [u8]) -> Result<Artifact<'a>, ArtifactError> {
        if (data.as_ptr() as usize) % ALIGN != 0 {
            return Err(ArtifactError::Misaligned);
        }
        if data.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated {
                need: HEADER_LEN,
                have: data.len(),
            });
        }
        if data[0..8] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let u32_at = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::BadVersion {
                found: version,
                expected: ARTIFACT_VERSION,
            });
        }
        let endian = u32::from_ne_bytes(data[12..16].try_into().expect("4 bytes"));
        if endian == ENDIAN_TAG.swap_bytes() {
            return Err(ArtifactError::ForeignEndian);
        }
        if endian != ENDIAN_TAG {
            return Err(ArtifactError::Malformed("bad endian tag"));
        }
        let count = u32_at(16) as usize;
        if u32_at(20) != 0 {
            return Err(ArtifactError::Malformed("reserved header bytes set"));
        }
        let total_len = u64_at(24);
        if total_len != data.len() as u64 {
            return Err(ArtifactError::Truncated {
                need: total_len as usize,
                have: data.len(),
            });
        }
        if checksum(&data[40..]) != u64_at(32) {
            return Err(ArtifactError::Checksum);
        }
        let table_end = HEADER_LEN
            .checked_add(
                count
                    .checked_mul(SECTION_ENTRY_LEN)
                    .ok_or(ArtifactError::Malformed("section count overflows"))?,
            )
            .ok_or(ArtifactError::Malformed("section table overflows"))?;
        if table_end > data.len() {
            return Err(ArtifactError::Truncated {
                need: table_end,
                have: data.len(),
            });
        }
        let mut sections = Vec::with_capacity(count);
        let mut prev_end = table_end;
        for i in 0..count {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id = u32_at(e);
            let off = u64_at(e + 8) as usize;
            let len = u64_at(e + 16) as usize;
            if off % ALIGN != 0 {
                return Err(ArtifactError::Malformed("unaligned section offset"));
            }
            if off < prev_end {
                return Err(ArtifactError::Malformed("overlapping sections"));
            }
            let end = off
                .checked_add(len)
                .ok_or(ArtifactError::Malformed("section length overflows"))?;
            if end > data.len() {
                return Err(ArtifactError::Truncated {
                    need: end,
                    have: data.len(),
                });
            }
            if sections.iter().any(|&(other, _, _)| other == id) {
                return Err(ArtifactError::Malformed("duplicate section id"));
            }
            sections.push((id, off, len));
            prev_end = end;
        }
        // The writer ends the file with the last section. Without this
        // check a lowered section count would drop sections unnoticed:
        // the count lies outside the checksummed body.
        if prev_end != data.len() {
            return Err(ArtifactError::Malformed("bytes after the last section"));
        }
        Ok(Artifact { data, sections })
    }

    /// The underlying buffer the sections borrow from.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Ids of the sections present, in file order.
    pub fn section_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|&(id, _, _)| id)
    }

    /// A required section's bytes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::MissingSection`] when absent.
    pub fn section(&self, id: u32) -> Result<&'a [u8], ArtifactError> {
        self.section_opt(id)
            .ok_or(ArtifactError::MissingSection { id })
    }

    /// An optional section's bytes.
    pub fn section_opt(&self, id: u32) -> Option<&'a [u8]> {
        self.section_range(id)
            .map(|(off, len)| &self.data[off..off + len])
    }

    /// Byte `(offset, len)` of a section within the buffer — what a
    /// zero-copy loader hands to a shared table view together with
    /// the `Arc<AlignedBuf>` backing. The offset is 64-byte aligned.
    pub fn section_range(&self, id: u32) -> Option<(usize, usize)> {
        self.sections
            .iter()
            .find(|&&(other, _, _)| other == id)
            .map(|&(_, off, len)| (off, len))
    }
}

// ---------------------------------------------------------------------------
// Section payload field helpers

/// Little-endian field encoder for section payloads.
#[derive(Default)]
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// An empty payload.
    pub fn new() -> SectionBuf {
        SectionBuf::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (unframed; pair with an explicit length
    /// field when the length is not implied).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
    }

    /// Appends a `u32` length prefix followed by the string bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }

    /// The accumulated payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Current payload length.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Little-endian field decoder for section payloads. Every accessor
/// is bounds-checked and returns [`ArtifactError::Truncated`] instead
/// of panicking, so decoders stay total on corrupted-but-checksummed
/// (i.e. maliciously crafted) input.
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> SectionReader<'a> {
    /// A reader over a section payload.
    pub fn new(bytes: &'a [u8]) -> SectionReader<'a> {
        SectionReader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(ArtifactError::Malformed("field length overflows"))?;
        if end > self.bytes.len() {
            return Err(ArtifactError::Truncated {
                need: end,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] past the end of the payload.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As for [`SectionReader::u8`].
    pub fn u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As for [`SectionReader::u8`].
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As for [`SectionReader::u8`].
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// As for [`SectionReader::u8`].
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] or, on invalid UTF-8,
    /// [`ArtifactError::Malformed`].
    pub fn str(&mut self) -> Result<&'a str, ArtifactError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| ArtifactError::Malformed("invalid UTF-8 in string field"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::Malformed("trailing bytes in section"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.add_section(1, b"hello".to_vec());
        w.add_section(7, (0u32..40).flat_map(|v| v.to_le_bytes()).collect());
        w.finish()
    }

    #[test]
    fn round_trips_sections() {
        let bytes = sample();
        let buf = AlignedBuf::from_bytes(&bytes);
        let a = Artifact::load(buf.as_slice()).unwrap();
        assert_eq!(a.section(1).unwrap(), b"hello");
        assert_eq!(a.section(7).unwrap().len(), 160);
        assert_eq!(a.section_ids().collect::<Vec<_>>(), vec![1, 7]);
        assert_eq!(a.section(2), Err(ArtifactError::MissingSection { id: 2 }));
        // section offsets are cache-line aligned
        for id in [1, 7] {
            let (off, _) = a.section_range(id).unwrap();
            assert_eq!(off % ALIGN, 0);
        }
    }

    #[test]
    fn empty_artifact_loads() {
        let bytes = ArtifactWriter::new().finish();
        let buf = AlignedBuf::from_bytes(&bytes);
        let a = Artifact::load(buf.as_slice()).unwrap();
        assert_eq!(a.section_ids().count(), 0);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let buf = AlignedBuf::from_bytes(&bad);
            assert!(
                Artifact::load(buf.as_slice()).is_err(),
                "flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for keep in 0..bytes.len() {
            let buf = AlignedBuf::from_bytes(&bytes[..keep]);
            assert!(
                Artifact::load(buf.as_slice()).is_err(),
                "truncation to {keep} bytes was accepted"
            );
        }
    }

    #[test]
    fn misaligned_buffers_are_rejected() {
        let bytes = sample();
        let mut padded = vec![0u8; 1];
        padded.extend_from_slice(&bytes);
        let buf = AlignedBuf::from_bytes(&padded);
        // one byte in: definitely not 64-aligned
        assert_eq!(
            Artifact::load(&buf.as_slice()[1..]).err(),
            Some(ArtifactError::Misaligned)
        );
    }

    #[test]
    fn foreign_endian_is_detected() {
        let mut bytes = sample();
        bytes[12..16].copy_from_slice(&ENDIAN_TAG.swap_bytes().to_ne_bytes());
        // re-seal the body checksum so the endian check is what fires
        let sum = checksum(&bytes[40..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        let buf = AlignedBuf::from_bytes(&bytes);
        assert_eq!(
            Artifact::load(buf.as_slice()).err(),
            Some(ArtifactError::ForeignEndian)
        );
    }

    #[test]
    fn checksum_catches_bit_flips() {
        let base: Vec<u8> = (0u8..=200).collect();
        let sum = checksum(&base);
        for at in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "flip of bit {bit} at byte {at}");
            }
        }
        // a word's top bit, flipped with any bit of the next word
        for word in 0..base.len() / 8 - 1 {
            for bit in 0..64 {
                let mut two = base.clone();
                two[word * 8 + 7] ^= 0x80;
                two[(word + 1) * 8 + bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    checksum(&two),
                    sum,
                    "word {word}'s top bit and bit {bit} of the next"
                );
            }
        }
        // length is part of the sum: trailing zeros are not free
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 9]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn version_drift_is_rejected() {
        // version 2 (per-section FNV-1a checksums) and a future one;
        // the version is read before anything its layout decides
        for version in [2, ARTIFACT_VERSION + 1] {
            let mut bytes = sample();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let sum = checksum(&bytes[40..]);
            bytes[32..40].copy_from_slice(&sum.to_le_bytes());
            let buf = AlignedBuf::from_bytes(&bytes);
            assert_eq!(
                Artifact::load(buf.as_slice()).err(),
                Some(ArtifactError::BadVersion {
                    found: version,
                    expected: ARTIFACT_VERSION
                })
            );
        }
    }

    #[test]
    fn section_reader_is_total() {
        let mut b = SectionBuf::new();
        b.put_u32(7);
        b.put_str("name");
        b.put_u16(3);
        let bytes = b.into_vec();
        let mut r = SectionReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.str().unwrap(), "name");
        assert_eq!(r.u16().unwrap(), 3);
        r.finish().unwrap();
        // over-reads error rather than panic
        let mut r = SectionReader::new(&bytes);
        assert!(r.bytes(bytes.len() + 1).is_err());
        let mut r = SectionReader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(r.str().is_err(), "absurd string length must not panic");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn aligned_buf_is_aligned() {
        for n in [0usize, 1, 63, 64, 65, 1000] {
            let src: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let buf = AlignedBuf::from_bytes(&src);
            assert_eq!(buf.as_slice(), &src[..]);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
        }
    }
}
