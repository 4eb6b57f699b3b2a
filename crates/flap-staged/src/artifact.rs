//! Serialization of compiled parsers into flap artifacts, and their
//! zero-copy re-load.
//!
//! [`CompiledParser::to_artifact`] writes every grammar-derived table
//! the parser owns — the alphabet-compressed transition block, the
//! class map, per-nonterminal starts, the flat production table, the
//! lowered continuation pool, per-state expected-token sets, and the
//! skip DFA — into a [`flap_artifact`] container. Semantic actions
//! are closures and cannot be serialized; [`to_artifact_with`] also
//! stores the parser's [`Origin`]: which grammar node owns each action
//! slot's closure, and the grammar's structural encoding. Two loaders
//! read the result:
//!
//! * [`load_recognizer`] rebuilds a `CompiledParser<()>` with unit
//!   actions: a full recognizer/validator with no grammar in sight;
//! * [`load_parser`] checks that a supplied lexer and grammar encode
//!   to the stored bytes, then binds each action slot to the closure
//!   of the grammar node the provenance names — a full
//!   `CompiledParser<V>` with no type-check, normalization, fusion or
//!   staging.
//!
//! Both borrow the transition blocks from the caller's
//! `Arc<AlignedBuf>` (zero table copies; cloning shares), and both
//! revalidate every structural invariant of the tables and of the
//! continuation words (stop tags, premultiplied targets, class-map
//! range, payload ranges, spans, value-stack effects, …), so a
//! corrupted-but-checksummed or crafted artifact yields a typed
//! error, never an out-of-bounds or panicking parser.
//!
//! The flat transition block is the parser's one table form: the VM
//! runs it, and [`codegen`](crate::codegen) emits Rust from it, so a
//! loaded parser does everything a compiled one does.
//!
//! [`to_artifact_with`]: CompiledParser::to_artifact_with

use std::collections::HashMap;
use std::sync::Arc;

use flap_artifact::{
    AlignedBuf, Artifact, ArtifactError, ArtifactWriter, SectionBuf, SectionReader,
};
use flap_cfe::{Cfe, EpsAction, MapAction, SeqAction, TokAction};
use flap_dgnf::cont::{Actions, Conts, Ctl, Layout, Span};
use flap_fuse::Expected;
use flap_lex::Lexer;
use flap_regex::{AlignedU32s, FlatDfa};

use crate::compile::{decode_stop, CompiledParser, StopAction, STOP};
use crate::origin::Origin;

/// Scalar header fields: stride, state count, counts, grammar key.
pub const SEC_META: u32 = 1;
/// 256 × `u16` byte → 1-based class id.
pub const SEC_CLASS_MAP: u32 = 2;
/// The flat transition block, native-endian `u32` words (zero-copy
/// viewed in place on load).
pub const SEC_TRANS: u32 = 3;
/// Per-nonterminal start state and ε-program span.
pub const SEC_NT: u32 = 4;
/// Flat production records: kind, owner, name, continuation and
/// tail spans.
pub const SEC_PRODS: u32 = 5;
/// Per-state expected-token sets (string-table ids).
pub const SEC_EXPECTED: u32 = 6;
/// Skip-DFA metadata ([`FlatDfa::encode_meta`]); present iff the
/// lexer had a skip rule.
pub const SEC_SKIP_META: u32 = 7;
/// Skip-DFA transition words, native-endian (zero-copy on load).
pub const SEC_SKIP_TRANS: u32 = 8;
/// Deduplicated token-name strings.
pub const SEC_STRINGS: u32 = 9;
/// The continuation pool: action-table lengths, then its words.
pub const SEC_CONTS: u32 = 10;
/// Per action slot, the pre-order index of the grammar node owning
/// its closure, then the Table 1 counts; present iff written with an
/// [`Origin`].
pub const SEC_PROVENANCE: u32 = 11;
/// The structural encoding of the lexer and grammar (see
/// [`origin`](crate::origin)); present iff written with an
/// [`Origin`].
pub const SEC_GRAMMAR: u32 = 12;

/// Sentinel name id for productions without a token name (F2 skip
/// self-loops).
const NO_NAME: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Encoding

impl<V> CompiledParser<V> {
    /// Serializes the parser's tables as one artifact file, without
    /// provenance: [`load_recognizer`] reads it, [`load_parser`]
    /// rejects it. Its fingerprint is 0.
    pub fn to_artifact(&self) -> Vec<u8> {
        self.write_artifact(None)
    }

    /// Serializes the parser's tables together with its `origin`, so
    /// [`load_parser`] can re-bind the actions. The fingerprint is
    /// the grammar key ([`Origin::key`]).
    pub fn to_artifact_with(&self, origin: &Origin) -> Vec<u8> {
        self.write_artifact(Some(origin))
    }

    fn write_artifact(&self, origin: Option<&Origin>) -> Vec<u8> {
        let nstates = self.state_count();
        let mut strings = StringTable::default();
        let span = |b: &mut SectionBuf, s: Span| {
            b.put_u32(s.start);
            b.put_u32(s.end);
        };

        // PRODS first so the string table is populated in production
        // order (stable, independent of expected-set iteration).
        let mut prods = SectionBuf::new();
        prods.put_u32(self.prod_count() as u32);
        for (i, head) in self.conts.heads().iter().enumerate() {
            prods.put_u8(u8::from(head.tok_action.is_some()));
            prods.put_u32(self.prod_owner[i]);
            let name_id = match &self.prod_names[i] {
                Some(n) => strings.intern(n),
                None => NO_NAME,
            };
            prods.put_u32(name_id);
            if head.tok_action.is_some() {
                span(&mut prods, head.cont);
                span(&mut prods, head.nts);
            }
        }

        let mut expected = SectionBuf::new();
        for e in &self.state_expected {
            expected.put_u8(e.len() as u8);
            expected.put_u8(u8::from(e.is_truncated()));
            for name in e.names() {
                expected.put_u32(strings.intern(name));
            }
        }

        let mut nt = SectionBuf::new();
        nt.put_u32(self.nt_start_row.len() as u32);
        for (&row, eps) in self.nt_start_row.iter().zip(self.conts.eps()) {
            nt.put_u32(row / self.stride);
            nt.put_u8(u8::from(eps.is_some()));
            if let Some(eps) = eps {
                span(&mut nt, *eps);
            }
        }

        let mut conts = SectionBuf::new();
        for len in self.conts.table_lens() {
            conts.put_u32(len as u32);
        }
        conts.put_u32(self.conts.pool().len() as u32);
        for w in self.conts.pool() {
            conts.put_u32(w.word());
        }

        let mut class_map = SectionBuf::new();
        for &c in self.class_map.iter() {
            class_map.put_u16(c);
        }

        let mut meta = SectionBuf::new();
        meta.put_u32(self.stride);
        meta.put_u32(nstates as u32);
        meta.put_u32(self.start_nt);
        meta.put_u32(self.nt_start_row.len() as u32);
        meta.put_u32(self.prod_count() as u32);
        meta.put_u8(u8::from(self.skip.is_some()));
        meta.put_u64(origin.map_or(0, Origin::key));

        let mut w = ArtifactWriter::new();
        w.add_section(SEC_META, meta.into_vec());
        w.add_section(SEC_CLASS_MAP, class_map.into_vec());
        w.add_section(SEC_TRANS, words_to_bytes(self.trans.as_slice()));
        w.add_section(SEC_NT, nt.into_vec());
        w.add_section(SEC_PRODS, prods.into_vec());
        w.add_section(SEC_EXPECTED, expected.into_vec());
        if let Some(skip) = &self.skip {
            w.add_section(SEC_SKIP_META, skip.encode_meta());
            w.add_section(SEC_SKIP_TRANS, words_to_bytes(skip.trans_words()));
        }
        w.add_section(SEC_STRINGS, strings.encode());
        w.add_section(SEC_CONTS, conts.into_vec());
        if let Some(origin) = origin {
            w.add_section(SEC_PROVENANCE, origin.provenance());
            w.add_section(SEC_GRAMMAR, origin.encoding().to_vec());
        }
        w.finish()
    }

    /// Whether every transition block borrows from a shared artifact
    /// buffer — true exactly for zero-copy loaded parsers (used by
    /// allocation audits).
    pub fn tables_shared(&self) -> bool {
        self.trans.is_shared() && self.skip.as_ref().is_none_or(FlatDfa::is_shared)
    }
}

fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    // Native order: the endian tag in the artifact header guards
    // against crossing to a foreign-endian host, and same-endian
    // readers view the section in place.
    words.iter().flat_map(|w| w.to_ne_bytes()).collect()
}

#[derive(Default)]
struct StringTable {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl StringTable {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = SectionBuf::new();
        b.put_u32(self.strings.len() as u32);
        for s in &self.strings {
            b.put_str(s);
        }
        b.into_vec()
    }
}

// ---------------------------------------------------------------------------
// Decoding

/// Everything action-independent, decoded and validated once; the
/// two loaders differ only in where the actions come from.
struct DecodedTables {
    class_map: Box<[u16; 256]>,
    stride: u32,
    trans: AlignedU32s,
    nt_start_row: Vec<u32>,
    layout: Layout,
    skip: Option<FlatDfa>,
    start_nt: u32,
    state_expected: Vec<Expected>,
    prod_names: Vec<Option<Arc<str>>>,
    prod_owner: Vec<u32>,
    fingerprint: u64,
}

fn read_span(r: &mut SectionReader<'_>) -> Result<Span, ArtifactError> {
    Ok(Span {
        start: r.u32()?,
        end: r.u32()?,
    })
}

fn decode_tables(
    art: &Artifact<'_>,
    buf: &Arc<AlignedBuf>,
) -> Result<DecodedTables, ArtifactError> {
    let mut meta = SectionReader::new(art.section(SEC_META)?);
    let stride = meta.u32()?;
    let nstates = meta.u32()? as usize;
    let start_nt = meta.u32()?;
    let nt_count = meta.u32()? as usize;
    let prod_count = meta.u32()? as usize;
    let has_skip = meta.u8()?;
    let fingerprint = meta.u64()?;
    meta.finish()?;
    if !(2..=257).contains(&stride) {
        return Err(ArtifactError::Malformed("stride out of range"));
    }
    if nstates == 0 {
        return Err(ArtifactError::Malformed("parser with no states"));
    }
    if has_skip > 1 {
        return Err(ArtifactError::Malformed("bad skip flag"));
    }
    if (start_nt as usize) >= nt_count {
        return Err(ArtifactError::Malformed("start nonterminal out of range"));
    }

    // Strings (needed by prods and expected sets).
    let mut sr = SectionReader::new(art.section(SEC_STRINGS)?);
    let nstrings = sr.u32()? as usize;
    let mut strings: Vec<Arc<str>> = Vec::with_capacity(nstrings.min(1 << 16));
    for _ in 0..nstrings {
        strings.push(Arc::from(sr.str()?));
    }
    sr.finish()?;

    let mut cm = SectionReader::new(art.section(SEC_CLASS_MAP)?);
    let mut class_map = Box::new([0u16; 256]);
    for slot in class_map.iter_mut() {
        let c = cm.u16()?;
        if c == 0 || u32::from(c) >= stride {
            return Err(ArtifactError::Malformed("class map entry out of range"));
        }
        *slot = c;
    }
    cm.finish()?;

    let mut nt = SectionReader::new(art.section(SEC_NT)?);
    if nt.u32()? as usize != nt_count {
        return Err(ArtifactError::Malformed("nonterminal count mismatch"));
    }
    // Counts are stored words too: a capacity never exceeds what the
    // section could hold, so a huge count is a short read, not an
    // allocation failure.
    let mut nt_start = Vec::with_capacity(nt_count.min(nt.remaining()));
    let mut eps = Vec::with_capacity(nt_count.min(nt.remaining()));
    for _ in 0..nt_count {
        let start = nt.u32()?;
        if start as usize >= nstates {
            return Err(ArtifactError::Malformed("nonterminal start out of range"));
        }
        nt_start.push(start);
        eps.push(match nt.u8()? {
            0 => None,
            1 => Some(read_span(&mut nt)?),
            _ => return Err(ArtifactError::Malformed("bad eps flag")),
        });
    }
    nt.finish()?;

    let mut pr = SectionReader::new(art.section(SEC_PRODS)?);
    if pr.u32()? as usize != prod_count {
        return Err(ArtifactError::Malformed("production count mismatch"));
    }
    let mut heads = Vec::with_capacity(prod_count.min(pr.remaining()));
    let mut prod_owner = Vec::with_capacity(prod_count.min(pr.remaining()));
    let mut prod_names = Vec::with_capacity(prod_count.min(pr.remaining()));
    for _ in 0..prod_count {
        let kind = pr.u8()?;
        let owner = pr.u32()?;
        if owner as usize >= nt_count {
            return Err(ArtifactError::Malformed("production owner out of range"));
        }
        let name_id = pr.u32()?;
        let name = if name_id == NO_NAME {
            None
        } else {
            Some(Arc::clone(strings.get(name_id as usize).ok_or(
                ArtifactError::Malformed("production name out of range"),
            )?))
        };
        heads.push(match kind {
            0 if name.is_none() => None,
            0 => return Err(ArtifactError::Malformed("skip production with a name")),
            1 => Some((read_span(&mut pr)?, read_span(&mut pr)?)),
            _ => return Err(ArtifactError::Malformed("bad production kind")),
        });
        prod_owner.push(owner);
        prod_names.push(name);
    }
    pr.finish()?;

    let mut cr = SectionReader::new(art.section(SEC_CONTS)?);
    let tables = [cr.u32()? as usize, cr.u32()? as usize, cr.u32()? as usize];
    let pool_len = cr.u32()? as usize;
    if pool_len > cr.remaining() / 4 {
        return Err(ArtifactError::Malformed(
            "continuation pool longer than its section",
        ));
    }
    let mut pool = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        pool.push(Ctl::from_word(cr.u32()?));
    }
    cr.finish()?;
    let layout = Layout {
        pool,
        heads,
        eps,
        tables,
    };
    layout
        .validate(nt_count)
        .map_err(ArtifactError::Malformed)?;

    let mut ex = SectionReader::new(art.section(SEC_EXPECTED)?);
    let mut state_expected = Vec::with_capacity(nstates.min(ex.remaining()));
    for _ in 0..nstates {
        let len = ex.u8()? as usize;
        if len > Expected::CAPACITY {
            return Err(ArtifactError::Malformed("expected set too wide"));
        }
        let truncated = ex.u8()?;
        if truncated > 1 {
            return Err(ArtifactError::Malformed("bad truncation flag"));
        }
        let mut e = Expected::none();
        for _ in 0..len {
            let id = ex.u32()? as usize;
            e.push(
                strings
                    .get(id)
                    .ok_or(ArtifactError::Malformed("expected name out of range"))?,
            );
        }
        if e.len() != len {
            return Err(ArtifactError::Malformed("duplicate expected name"));
        }
        if truncated == 1 {
            e.mark_truncated();
        }
        state_expected.push(e);
    }
    ex.finish()?;

    // The transition block: viewed in place (zero-copy) from the
    // shared buffer. Section offsets are 64-byte aligned by the
    // container, so the view keeps cache-line alignment.
    let (trans_off, trans_len) = art
        .section_range(SEC_TRANS)
        .ok_or(ArtifactError::MissingSection { id: SEC_TRANS })?;
    if trans_len % 4 != 0 {
        return Err(ArtifactError::Malformed("transition block not whole words"));
    }
    let words = trans_len / 4;
    if words != nstates * stride as usize {
        return Err(ArtifactError::Malformed("transition block size mismatch"));
    }
    let trans = AlignedU32s::shared(Arc::clone(buf), trans_off, words)?;

    // Validate every entry before the VM ever indexes with one.
    for row in trans.as_slice().chunks_exact(stride as usize) {
        match decode_stop(row[0]) {
            StopAction::Fail => {}
            StopAction::Eps(n) => {
                if layout.eps.get(n as usize).is_none_or(Option::is_none) {
                    return Err(ArtifactError::Malformed("stop eps out of range"));
                }
            }
            StopAction::Match(p) => {
                if p as usize >= prod_count {
                    return Err(ArtifactError::Malformed("stop match out of range"));
                }
            }
        }
        for &e in &row[1..] {
            if e == STOP {
                continue;
            }
            if e & 2 != 0 {
                return Err(ArtifactError::Malformed("reserved entry bit set"));
            }
            let target_row = e >> 2;
            if target_row % stride != 0 || (target_row / stride) as usize >= nstates {
                return Err(ArtifactError::Malformed("transition target out of range"));
            }
        }
    }
    reject_empty_matches(trans.as_slice(), stride as usize, &nt_start)?;

    let skip = match (has_skip, art.section_opt(SEC_SKIP_META)) {
        (0, None) => None,
        (1, Some(skip_meta)) => {
            let (off, len) = art
                .section_range(SEC_SKIP_TRANS)
                .ok_or(ArtifactError::MissingSection { id: SEC_SKIP_TRANS })?;
            if len % 4 != 0 {
                return Err(ArtifactError::Malformed("skip block not whole words"));
            }
            let skip_trans = AlignedU32s::shared(Arc::clone(buf), off, len / 4)?;
            Some(FlatDfa::decode(skip_meta, skip_trans)?)
        }
        _ => {
            return Err(ArtifactError::Malformed(
                "skip flag disagrees with sections",
            ))
        }
    };

    let nt_start_row = nt_start.iter().map(|&s| s * stride).collect();
    Ok(DecodedTables {
        class_map,
        stride,
        trans,
        nt_start_row,
        layout,
        skip,
        start_nt,
        state_expected,
        prod_names,
        prod_owner,
        fingerprint,
    })
}

/// A scan starts at a nonterminal's start row with its match mark at
/// the scan's start, and commits a production only at a `Match` stop.
/// Compiled tables reach `Match` stops only through a marked
/// transition, since no lexer rule matches the empty string. A table
/// that reaches one through unmarked transitions alone would commit
/// an empty token: forever, for a skip production. This rejects such
/// tables with one walk of the unmarked transitions from every start
/// row.
fn reject_empty_matches(
    trans: &[u32],
    stride: usize,
    nt_start: &[u32],
) -> Result<(), ArtifactError> {
    let mut seen = vec![false; trans.len() / stride];
    let mut stack = Vec::new();
    let mut visit = |s: usize, stack: &mut Vec<usize>| {
        if !std::mem::replace(&mut seen[s], true) {
            stack.push(s);
        }
    };
    for &s in nt_start {
        visit(s as usize, &mut stack);
    }
    while let Some(s) = stack.pop() {
        let row = &trans[s * stride..(s + 1) * stride];
        if matches!(decode_stop(row[0]), StopAction::Match(_)) {
            return Err(ArtifactError::Malformed(
                "a scan can match the empty string",
            ));
        }
        for &e in &row[1..] {
            if e != STOP && e & 1 == 0 {
                visit((e >> 2) as usize / stride, &mut stack);
            }
        }
    }
    Ok(())
}

impl DecodedTables {
    /// Assembles the parser around `actions`, one per slot.
    fn into_parser<V>(self, actions: Actions<V>) -> Result<CompiledParser<V>, ArtifactError> {
        if actions.counts() != self.layout.counts() {
            return Err(ArtifactError::Malformed(
                "provenance disagrees with the action tables",
            ));
        }
        Ok(CompiledParser {
            class_map: self.class_map,
            stride: self.stride,
            trans: self.trans,
            nt_start_row: self.nt_start_row,
            conts: Conts::assemble(self.layout, actions),
            skip: self.skip,
            start_nt: self.start_nt,
            // Fresh identity: suspended streaming sessions must not
            // resume against a different load of the same tables.
            stream_id: crate::stream::next_owner_id(),
            state_expected: self.state_expected,
            prod_names: self.prod_names,
            prod_owner: self.prod_owner,
        })
    }
}

/// Loads an artifact as a *recognizer*: a `CompiledParser<()>` whose
/// actions are no-ops. Validation, streaming, error positions and
/// expected-token diagnostics all behave exactly as the originating
/// parser; only semantic values are gone. The stored continuations
/// run with unit actions, so a parse still yields exactly one `()`.
///
/// The transition blocks borrow from `buf` — no table bytes are
/// copied or allocated, and cloning the result shares them.
///
/// # Errors
///
/// Any container or table defect, as a typed [`ArtifactError`];
/// never panics.
pub fn load_recognizer(buf: &Arc<AlignedBuf>) -> Result<CompiledParser<()>, ArtifactError> {
    let art = Artifact::load(buf.as_slice())?;
    let t = decode_tables(&art, buf)?;
    let [tok, user, map, eps] = t.layout.counts();
    let actions = Actions {
        tok: vec![Arc::new(|_: &[u8]| ()) as TokAction<()>; tok],
        user: vec![Arc::new(|(), ()| ()) as SeqAction<()>; user],
        map: vec![Arc::new(|()| ()) as MapAction<()>; map],
        eps: vec![Arc::new(|| ()) as EpsAction<()>; eps],
    };
    t.into_parser(actions)
}

/// Loads an artifact written by [`CompiledParser::to_artifact_with`]
/// and binds its actions to `grammar`'s closures, yielding a full
/// `CompiledParser<V>` and its [`Origin`] without type-checking,
/// normalizing, fusing or staging anything.
///
/// `lexer` and `grammar` must encode to the stored bytes
/// (see [`origin`](crate::origin)): the same token
/// names, canonical regexes and combinator tree as the pair the
/// artifact was compiled from. Each action slot then takes the
/// closure of the grammar node its provenance names. Action *bodies*
/// are not (and cannot be) checked: a grammar of the same shape with
/// other closures yields those closures' semantics.
///
/// # Errors
///
/// [`ArtifactError::ShapeMismatch`] when the encodings differ,
/// [`ArtifactError::MissingSection`] for an artifact written without
/// provenance, or any container, table or provenance defect; never
/// panics.
pub fn load_parser<V>(
    buf: &Arc<AlignedBuf>,
    lexer: &Lexer,
    grammar: &Cfe<V>,
) -> Result<(CompiledParser<V>, Origin), ArtifactError> {
    let art = Artifact::load(buf.as_slice())?;
    let provenance = art.section(SEC_PROVENANCE)?;
    let stored = art.section(SEC_GRAMMAR)?;
    let (origin, actions) = Origin::bind(lexer, grammar, stored, provenance)?;
    let t = decode_tables(&art, buf)?;
    if t.fingerprint != origin.key() {
        return Err(ArtifactError::Malformed(
            "fingerprint disagrees with the grammar encoding",
        ));
    }
    Ok((t.into_parser(actions)?, origin))
}

/// The fingerprint stored in an artifact, without decoding the
/// tables: the grammar key ([`Origin::key`]) for an artifact written
/// with provenance, 0 otherwise.
///
/// # Errors
///
/// Container defects, as for [`load_recognizer`].
pub fn peek_fingerprint(data: &[u8]) -> Result<u64, ArtifactError> {
    let art = Artifact::load(data)?;
    let mut meta = SectionReader::new(art.section(SEC_META)?);
    let _stride = meta.u32()?;
    let _nstates = meta.u32()?;
    let _start = meta.u32()?;
    let _nts = meta.u32()?;
    let _prods = meta.u32()?;
    let _skip = meta.u8()?;
    meta.u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_pipeline, ParseProfiler, ParseSession};
    use flap_lex::{LexerBuilder, Token};

    fn lexer() -> Lexer {
        let mut b = LexerBuilder::new();
        b.token("num", "[0-9]+").unwrap();
        b.skip("[ \t\n]").unwrap();
        b.token("plus", r"\+").unwrap();
        b.token("neg", "-").unwrap();
        b.build().unwrap()
    }

    /// Sums of numbers and negated, scaled numbers: every closure
    /// kind (token, seq, map, ε) owns at least one action slot.
    fn grammar() -> Cfe<i64> {
        let [num, plus, neg] = [0, 1, 2].map(Token::from_index);
        let int = |lx: &[u8]| std::str::from_utf8(lx).unwrap().parse::<i64>().unwrap();
        let atom = Cfe::tok_with(num, int).or(Cfe::tok_val(neg, 0)
            .then(Cfe::tok_with(num, int), |_, n| -n)
            .map(|v| v * 10));
        Cfe::sep_by1(atom, Cfe::tok_val(plus, 0), || 0, |a, b| a + b)
    }

    fn compiled() -> (CompiledParser<i64>, Origin) {
        let (mut lexer, g) = (lexer(), grammar());
        let (p, sizes, _) = measure_pipeline(&mut lexer, &g).unwrap();
        let origin = Origin::trace(&lexer, &g, &p, sizes);
        (p, origin)
    }

    fn load(bytes: &[u8]) -> Result<(CompiledParser<i64>, Origin), ArtifactError> {
        load_parser(
            &Arc::new(AlignedBuf::from_bytes(bytes)),
            &lexer(),
            &grammar(),
        )
    }

    #[test]
    fn recognizer_round_trips() {
        let (p, origin) = compiled();
        for bytes in [p.to_artifact(), p.to_artifact_with(&origin)] {
            let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
            let r = load_recognizer(&buf).unwrap();
            assert!(r.tables_shared(), "load must borrow the tables");
            assert_eq!(r.state_count(), p.state_count());
            assert!(r.recognize(b"1 + -2 + 39").is_ok());
            assert_eq!(r.parse(b"1 + -2 + 39"), Ok(()));
            assert!(r.recognize(b"1 +").is_err());
            // diagnostics survive: same expected set, same position
            let e1 = p.parse(b"1 + + 2").unwrap_err();
            let e2 = r.parse(b"1 + + 2").unwrap_err();
            assert_eq!(format!("{e1}"), format!("{e2}"));
        }
    }

    #[test]
    fn attach_restores_semantics() {
        let (p, origin) = compiled();
        let bytes = p.to_artifact_with(&origin);
        let (full, loaded_origin) = load(&bytes).unwrap();
        assert!(full.tables_shared());
        assert_eq!(full.parse(b"1 + -2 + 39").unwrap(), 20);
        assert_eq!(p.parse(b"1 + -2 + 39").unwrap(), 20);
        assert_eq!(
            format!("{}", full.parse(b"x").unwrap_err()),
            format!("{}", p.parse(b"x").unwrap_err()),
        );
        assert_eq!(loaded_origin, origin);
        assert_eq!(full.to_artifact_with(&loaded_origin), bytes);

        // Reductions are reported under the same productions: the
        // loader re-derives which action completes each one.
        let profile = |q: &CompiledParser<i64>| {
            let mut prof = ParseProfiler::new();
            q.parse_with_obs(&mut ParseSession::new(), b"1 + -2 + -3 + 4", &mut prof)
                .unwrap();
            prof.reductions
        };
        assert_eq!(profile(&full), profile(&p));
    }

    #[test]
    fn attach_rejects_different_shape() {
        let (p, origin) = compiled();
        let buf = Arc::new(AlignedBuf::from_bytes(&p.to_artifact_with(&origin)));
        let mut b = LexerBuilder::new();
        let word = b.token("word", "[a-z]+").unwrap();
        let other: Cfe<i64> = Cfe::tok_with(word, |lx| lx.len() as i64);
        // Same grammar over a lexer whose `num` rule differs; then
        // another grammar over the right lexer.
        let mut b2 = LexerBuilder::new();
        b2.token("num", "[0-7]+").unwrap();
        b2.skip("[ \t\n]").unwrap();
        b2.token("plus", r"\+").unwrap();
        b2.token("neg", "-").unwrap();
        for result in [
            load_parser(&buf, &b2.build().unwrap(), &grammar()),
            load_parser(&buf, &lexer(), &other),
            load_parser(&buf, &b.build().unwrap(), &other),
        ] {
            match result {
                Err(ArtifactError::ShapeMismatch(_)) => {}
                Err(e) => panic!("expected ShapeMismatch, got {e:?}"),
                Ok(_) => panic!("expected ShapeMismatch, got a parser"),
            }
        }
    }

    #[test]
    fn artifact_bytes_are_deterministic() {
        let (p, origin) = compiled();
        assert_eq!(p.to_artifact(), p.to_artifact());
        assert_eq!(
            p.to_artifact_with(&origin),
            compiled().0.to_artifact_with(&origin)
        );
    }

    /// Layout guard: the section schema and container constants are
    /// part of the format. If this test fails, bump
    /// `flap_artifact::ARTIFACT_VERSION` (and keep the old decoder
    /// out of scope — readers reject other versions wholesale).
    #[test]
    fn format_version_guards_section_layout() {
        assert_eq!(flap_artifact::ARTIFACT_VERSION, 3);
        assert_eq!(flap_artifact::HEADER_LEN, 64);
        assert_eq!(flap_artifact::SECTION_ENTRY_LEN, 24);
        let all = [
            SEC_META,
            SEC_CLASS_MAP,
            SEC_TRANS,
            SEC_NT,
            SEC_PRODS,
            SEC_EXPECTED,
            SEC_SKIP_META,
            SEC_SKIP_TRANS,
            SEC_STRINGS,
            SEC_CONTS,
            SEC_PROVENANCE,
            SEC_GRAMMAR,
        ];
        assert_eq!(all, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let (p, origin) = compiled();
        for (bytes, sections) in [(p.to_artifact(), 10), (p.to_artifact_with(&origin), 12)] {
            let buf = AlignedBuf::from_bytes(&bytes);
            let art = Artifact::load(buf.as_slice()).unwrap();
            // a skip-bearing grammar emits exactly this section sequence
            assert_eq!(art.section_ids().collect::<Vec<_>>(), all[..sections]);
            // META is seven fixed fields: 5×u32 + u8 + u64 = 29 bytes
            assert_eq!(art.section(SEC_META).unwrap().len(), 29);
            // CLASS_MAP is always 256 u16 slots
            assert_eq!(art.section(SEC_CLASS_MAP).unwrap().len(), 512);
        }
    }

    #[test]
    fn artifacts_without_provenance_load_only_as_recognizers() {
        let (p, _) = compiled();
        let bytes = p.to_artifact();
        let aligned = AlignedBuf::from_bytes(&bytes);
        assert_eq!(peek_fingerprint(aligned.as_slice()), Ok(0));
        assert!(matches!(
            load(&bytes),
            Err(ArtifactError::MissingSection { id: SEC_PROVENANCE })
        ));
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        assert!(load_recognizer(&buf).is_ok());
    }

    #[test]
    fn loaded_parsers_emit_the_compiled_source() {
        let (p, _) = compiled();
        let bytes = p.to_artifact();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let r = load_recognizer(&buf).unwrap();
        assert_eq!(
            crate::codegen::emit_rust(&r, "m"),
            crate::codegen::emit_rust(&p, "m"),
            "code generation reads only what the artifact carries"
        );
    }

    // -----------------------------------------------------------------
    // Hostile artifacts: well-framed, checksummed, and wrong inside.

    /// `bytes` re-framed with section `id`'s payload replaced by
    /// `edit` of it, or dropped when `edit` returns `None`; every
    /// checksum stays valid.
    fn rewrite(bytes: &[u8], id: u32, edit: impl FnOnce(&[u8]) -> Option<Vec<u8>>) -> Vec<u8> {
        let buf = AlignedBuf::from_bytes(bytes);
        let art = Artifact::load(buf.as_slice()).unwrap();
        let mut edit = Some(edit);
        let mut w = ArtifactWriter::new();
        for sid in art.section_ids() {
            let payload = art.section(sid).unwrap();
            if sid != id {
                w.add_section(sid, payload.to_vec());
            } else if let Some(p) = (edit.take().unwrap())(payload) {
                w.add_section(sid, p);
            }
        }
        w.finish()
    }

    fn words(payload: &[u8]) -> Vec<u32> {
        payload
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Section `id` of `bytes`, read as little-endian `u32`s.
    fn section_words(bytes: &[u8], id: u32) -> Vec<u32> {
        let buf = AlignedBuf::from_bytes(bytes);
        words(Artifact::load(buf.as_slice()).unwrap().section(id).unwrap())
    }

    /// As [`rewrite`], for a section made of little-endian `u32`s.
    fn rewrite_words(bytes: &[u8], id: u32, edit: impl FnOnce(&mut Vec<u32>)) -> Vec<u8> {
        rewrite(bytes, id, |payload| {
            let mut w = words(payload);
            edit(&mut w);
            Some(w.iter().flat_map(|w| w.to_le_bytes()).collect())
        })
    }

    /// The provenance lists `[tok, user, map, eps]`, each as the word
    /// range of its entries.
    fn provenance_lists(words: &[u32]) -> [std::ops::Range<usize>; 4] {
        let mut at = 0;
        [(); 4].map(|()| {
            let n = words[at] as usize;
            at += 1 + n;
            at - n..at
        })
    }

    /// Token productions' `(cont, nts)` spans as stored in PRODS, with
    /// the byte offset of each span's first word.
    fn token_spans(bytes: &[u8]) -> Vec<(usize, [u32; 4])> {
        let buf = AlignedBuf::from_bytes(bytes);
        let art = Artifact::load(buf.as_slice()).unwrap();
        let payload = art.section(SEC_PRODS).unwrap();
        let mut r = SectionReader::new(payload);
        let mut out = Vec::new();
        for _ in 0..r.u32().unwrap() {
            let kind = r.u8().unwrap();
            r.u32().unwrap();
            r.u32().unwrap();
            if kind == 1 {
                let at = payload.len() - r.remaining();
                out.push((at, [(); 4].map(|()| r.u32().unwrap())));
            }
        }
        out
    }

    fn expect_malformed(bytes: &[u8], what: &str) {
        match load(bytes) {
            Err(ArtifactError::Malformed(why)) => assert!(
                why.contains(what),
                "expected a defect naming {what:?}, got {why:?}"
            ),
            Err(e) => panic!("expected Malformed({what:?}), got {e:?}"),
            Ok(_) => panic!("expected Malformed({what:?}), got a parser"),
        }
    }

    #[test]
    fn hostile_provenance_is_a_typed_error() {
        let (p, origin) = compiled();
        let bytes = p.to_artifact_with(&origin);
        let cfe_nodes = origin.sizes().cfes as u32;

        let out_of_range = rewrite_words(&bytes, SEC_PROVENANCE, |w| {
            let [tok, ..] = provenance_lists(w);
            w[tok.start] = cfe_nodes;
        });
        expect_malformed(&out_of_range, "out of range");

        let map_at_seq = rewrite_words(&bytes, SEC_PROVENANCE, |w| {
            let [_, user, map, _] = provenance_lists(w);
            assert!(!map.is_empty(), "the test grammar has a map slot");
            w[map.start] = w[user.start];
        });
        expect_malformed(&map_at_seq, "wrong kind");

        let missing = rewrite(&bytes, SEC_PROVENANCE, |_| None);
        assert!(matches!(
            load(&missing),
            Err(ArtifactError::MissingSection { id: SEC_PROVENANCE })
        ));

        // Swapping two slots of one kind passes every check and runs
        // other closures: the differential tests exist for that.
        let swapped = rewrite_words(&bytes, SEC_PROVENANCE, |w| {
            let [_, user, ..] = provenance_lists(w);
            w.swap(user.start, user.end - 1);
        });
        assert!(load(&swapped).is_ok());
    }

    #[test]
    fn hostile_counts_are_a_typed_error() {
        let (p, origin) = compiled();
        let bytes = p.to_artifact_with(&origin);
        // META: stride, states, start, nonterminals, productions, …;
        // NT and PRODS each open with their own count
        for (field, section) in [(3, SEC_NT), (4, SEC_PRODS)] {
            let huge = rewrite(&bytes, SEC_META, |meta| {
                let mut b = meta.to_vec();
                b[field * 4..field * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                Some(b)
            });
            let huge = rewrite(&huge, section, |payload| {
                let mut b = payload.to_vec();
                b[..4].copy_from_slice(&u32::MAX.to_le_bytes());
                Some(b)
            });
            assert!(load(&huge).is_err());
            let buf = Arc::new(AlignedBuf::from_bytes(&huge));
            assert!(load_recognizer(&buf).is_err());
        }
    }

    #[test]
    fn hostile_continuations_are_a_typed_error() {
        let (p, origin) = compiled();
        let bytes = p.to_artifact_with(&origin);
        let nt_count = p.nt_start_row.len() as u32;
        // CONTS: user, map and ε table lengths, pool length, words
        const POOL: usize = 4;

        let nt_past_count = rewrite_words(&bytes, SEC_CONTS, |w| {
            let at = POOL + w[POOL..].iter().position(|&x| x & 3 == 0).unwrap();
            w[at] = nt_count << 2;
        });
        expect_malformed(&nt_past_count, "word out of range");

        let conts = section_words(&bytes, SEC_CONTS);
        let pool_len = conts[POOL - 1];
        let (at, [_, cont_end, ..]) = token_spans(&bytes)[0];
        let past_pool = rewrite(&bytes, SEC_PRODS, |payload| {
            let mut b = payload.to_vec();
            b[at..at + 8]
                .copy_from_slice(&[cont_end.to_le_bytes(), (pool_len + 1).to_le_bytes()].concat());
            Some(b)
        });
        expect_malformed(&past_pool, "outside the pool");

        // Point a token production's continuation at a lone binary
        // action: run after the lead value, it pops two.
        let user_word = conts[POOL..].iter().position(|&x| x & 3 == 1).unwrap() as u32;
        let underflow = rewrite(&bytes, SEC_PRODS, |payload| {
            let mut b = payload.to_vec();
            let spans = [user_word, user_word + 1, 0, 0];
            b[at..at + 16].copy_from_slice(&spans.map(u32::to_le_bytes).concat());
            Some(b)
        });
        expect_malformed(&underflow, "did not push");

        // A start row that stops on a match would commit empty
        // tokens without end.
        let start = p.nt_start_row[p.start_nt as usize] as usize;
        let empty_match = rewrite(&bytes, SEC_TRANS, |payload| {
            let mut b = payload.to_vec();
            let stop = crate::compile::encode_stop(StopAction::Match(0));
            b[start * 4..start * 4 + 4].copy_from_slice(&stop.to_ne_bytes());
            Some(b)
        });
        expect_malformed(&empty_match, "empty string");

        // Each defect also stops the recognizer loader.
        for bad in [&nt_past_count, &past_pool, &underflow, &empty_match] {
            let buf = Arc::new(AlignedBuf::from_bytes(bad));
            assert!(matches!(
                load_recognizer(&buf),
                Err(ArtifactError::Malformed(_))
            ));
        }
    }
}
