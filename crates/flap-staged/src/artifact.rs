//! Serialization of compiled parsers into flap artifacts, and their
//! zero-copy re-load.
//!
//! [`CompiledParser::to_artifact`] writes every grammar-derived table
//! the parser owns — the alphabet-compressed transition block, the
//! class map, per-nonterminal starts and ε flags, the flat production
//! table, per-state expected-token sets, and the skip DFA — into a
//! [`flap_artifact`] container. Semantic actions are deliberately
//! *not* serialized (they are arbitrary closures); instead:
//!
//! * [`load_recognizer`] rebuilds a `CompiledParser<()>` directly
//!   from the artifact: a full recognizer/validator with no grammar
//!   in sight, its transition blocks borrowing from the caller's
//!   `Arc<AlignedBuf>` (zero table copies; cloning shares);
//! * [`attach`] re-attaches the actions of a [`FusedGrammar`] whose
//!   *shape* — production count, kinds, owners, tails, reduce
//!   arities, ε-rules — matches the grammar the artifact was
//!   compiled from, yielding a full `CompiledParser<V>` without
//!   recompiling. A mismatch is [`ArtifactError::ShapeMismatch`].
//!
//! Both loaders revalidate every structural invariant of the tables
//! (stop tags, premultiplied targets, class-map range, …), so a
//! corrupted-but-checksummed or crafted artifact yields a typed
//! error, never an out-of-bounds parser.
//!
//! The staged per-state structure ([`State`](crate::State)) is not
//! serialized: it exists for code generation and Table 1 metrics,
//! both of which operate on freshly compiled parsers.

use std::collections::HashMap;
use std::sync::Arc;

use flap_artifact::{
    AlignedBuf, Artifact, ArtifactError, ArtifactWriter, Fnv64, SectionBuf, SectionReader,
};
use flap_cfe::{EpsAction, SeqAction, TokAction};
use flap_dgnf::ContOp;
use flap_fuse::{Expected, FusedGrammar};
use flap_regex::{AlignedU32s, FlatDfa};

use crate::compile::{decode_stop, CompiledParser, StopAction, STOP};
use crate::cont::Conts;

/// Scalar header fields: stride, state count, counts, fingerprint.
pub const SEC_META: u32 = 1;
/// 256 × `u16` byte → 1-based class id.
pub const SEC_CLASS_MAP: u32 = 2;
/// The flat transition block, native-endian `u32` words (zero-copy
/// viewed in place on load).
pub const SEC_TRANS: u32 = 3;
/// Per-nonterminal start state and ε flag.
pub const SEC_NT: u32 = 4;
/// Flat production records: kind, owner, name, arity, tail.
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

/// Sentinel name id for productions without a token name (F2 skip
/// self-loops).
const NO_NAME: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Encoding

impl<V> CompiledParser<V> {
    /// Serializes the parser's tables as one artifact file.
    ///
    /// The bytes are deterministic for a given compiled parser, and
    /// reloadable by [`load_recognizer`] (actions dropped) or
    /// [`attach`] (actions re-bound from an equal-shape grammar).
    pub fn to_artifact(&self) -> Vec<u8> {
        let nstates = self.state_count();
        let mut strings = StringTable::default();

        // PRODS first so the string table is populated in production
        // order (stable, independent of expected-set iteration).
        let mut prods = SectionBuf::new();
        prods.put_u32(self.prod_count() as u32);
        for i in 0..self.prod_count() {
            let (kind, arity, tail) = self.prod_shape(i);
            prods.put_u8(kind);
            prods.put_u32(self.prod_owner[i]);
            let name_id = match &self.prod_names[i] {
                Some(n) => strings.intern(n),
                None => NO_NAME,
            };
            prods.put_u32(name_id);
            prods.put_u16(arity);
            prods.put_u32(tail.len() as u32);
            for t in tail {
                prods.put_u32(t);
            }
        }

        let mut expected = SectionBuf::new();
        for e in &self.state_expected {
            expected.put_u8(e.len() as u8);
            expected.put_u8(u8::from(e.is_truncated()));
            for name in e.names() {
                expected.put_u32(strings.intern_str(name));
            }
        }

        let mut nt = SectionBuf::new();
        nt.put_u32(self.nt_start.len() as u32);
        for (i, &start) in self.nt_start.iter().enumerate() {
            nt.put_u32(start);
            nt.put_u8(u8::from(self.conts.eps[i].is_some()));
        }

        let mut class_map = SectionBuf::new();
        for &c in self.class_map.iter() {
            class_map.put_u16(c);
        }

        let mut meta = SectionBuf::new();
        meta.put_u32(self.stride);
        meta.put_u32(nstates as u32);
        meta.put_u32(self.start_nt);
        meta.put_u32(self.nt_start.len() as u32);
        meta.put_u32(self.prod_count() as u32);
        meta.put_u8(u8::from(self.skip.is_some()));
        meta.put_u64(self.shape_fingerprint());

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
        w.finish()
    }

    /// FNV-1a fingerprint of the grammar *shape* this parser was
    /// compiled from: nonterminal/production counts, production
    /// kinds, owners, tails, reduce arities and ε flags — everything
    /// [`attach`] checks, nothing about actions or tables.
    pub fn shape_fingerprint(&self) -> u64 {
        let mut h = shape_hasher(
            self.nt_start.len(),
            self.prod_count(),
            self.start_nt,
            self.conts.eps.iter().map(Option::is_some),
        );
        for i in 0..self.prod_count() {
            let (kind, arity, tail) = self.prod_shape(i);
            hash_prod(&mut h, kind, self.prod_owner[i], arity, &tail);
        }
        h.finish()
    }

    /// Kind (0 skip, 1 token), reduce arity and tail of flat
    /// production `p`, read back from the continuation pool. A token
    /// production's reduce consumes its lead value and one value per
    /// tail nonterminal (lowering checks exactly that).
    fn prod_shape(&self, p: usize) -> (u8, u16, Vec<u32>) {
        if self.conts.is_skip(p) {
            return (0, 0, Vec::new());
        }
        let tail = self.conts.tail(p);
        (1, tail.len() as u16 + 1, tail)
    }

    /// Whether every transition block borrows from a shared artifact
    /// buffer — true exactly for zero-copy loaded parsers (used by
    /// allocation audits).
    pub fn tables_shared(&self) -> bool {
        self.trans.is_shared() && self.skip.as_ref().is_none_or(FlatDfa::is_shared)
    }
}

/// The shape fingerprint of a fused grammar — what
/// [`CompiledParser::shape_fingerprint`] computes for its compiled
/// form, computable without compiling (the [`attach`] fast check).
pub fn fused_shape_fingerprint<V>(fused: &FusedGrammar<V>) -> u64 {
    let mut h = shape_hasher(
        fused.nt_count(),
        // flat production count: ε-rules live in their own table,
        // matching CompiledParser::prods (not fused.prod_count(),
        // which also counts ε-productions for Table 1)
        fused.nts().map(|nt| fused.entry(nt).prods.len()).sum(),
        fused.start().index() as u32,
        fused.nts().map(|nt| fused.entry(nt).eps.is_some()),
    );
    for nt in fused.nts() {
        for p in &fused.entry(nt).prods {
            match &p.token {
                None => hash_prod(&mut h, 0, nt.index() as u32, 0, &[]),
                Some(t) => {
                    let tail: Vec<u32> = t.tail.iter().map(|m| m.index() as u32).collect();
                    hash_prod(&mut h, 1, nt.index() as u32, t.reduce.arity(), &tail);
                }
            }
        }
    }
    h.finish()
}

fn shape_hasher(
    nt_count: usize,
    prod_count: usize,
    start_nt: u32,
    eps_flags: impl Iterator<Item = bool>,
) -> Fnv64 {
    let mut h = Fnv64::new();
    h.update_str("flap-shape-v1");
    h.update_u32(nt_count as u32);
    h.update_u32(prod_count as u32);
    h.update_u32(start_nt);
    for eps in eps_flags {
        h.update_u32(u32::from(eps));
    }
    h
}

fn hash_prod(h: &mut Fnv64, kind: u8, owner: u32, arity: u16, tail: &[u32]) {
    h.update_u32(u32::from(kind));
    h.update_u32(owner);
    h.update_u32(u32::from(arity));
    h.update_u32(tail.len() as u32);
    for &t in tail {
        h.update_u32(t);
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
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        self.intern_str(s)
    }

    fn intern_str(&mut self, s: &str) -> u32 {
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
/// two loaders differ only in how they manufacture actions.
struct DecodedTables {
    class_map: Box<[u16; 256]>,
    stride: u32,
    trans: AlignedU32s,
    nt_start: Vec<u32>,
    nt_start_row: Vec<u32>,
    eps_flags: Vec<bool>,
    prods: Vec<ProdRecord>,
    skip: Option<FlatDfa>,
    start_nt: u32,
    state_expected: Vec<Expected>,
    prod_names: Vec<Option<Arc<str>>>,
    fingerprint: u64,
}

struct ProdRecord {
    kind: u8,
    owner: u32,
    arity: u16,
    tail: Vec<u32>,
}

fn decode_tables(buf: &Arc<AlignedBuf>) -> Result<DecodedTables, ArtifactError> {
    let art = Artifact::load(buf.as_slice())?;

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
    let mut nt_start = Vec::with_capacity(nt_count);
    let mut eps_flags = Vec::with_capacity(nt_count);
    for _ in 0..nt_count {
        let start = nt.u32()?;
        if start as usize >= nstates {
            return Err(ArtifactError::Malformed("nonterminal start out of range"));
        }
        nt_start.push(start);
        match nt.u8()? {
            0 => eps_flags.push(false),
            1 => eps_flags.push(true),
            _ => return Err(ArtifactError::Malformed("bad eps flag")),
        }
    }
    nt.finish()?;

    let mut pr = SectionReader::new(art.section(SEC_PRODS)?);
    if pr.u32()? as usize != prod_count {
        return Err(ArtifactError::Malformed("production count mismatch"));
    }
    let mut prods = Vec::with_capacity(prod_count);
    let mut prod_names = Vec::with_capacity(prod_count);
    for _ in 0..prod_count {
        let kind = pr.u8()?;
        if kind > 1 {
            return Err(ArtifactError::Malformed("bad production kind"));
        }
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
        let arity = pr.u16()?;
        let tail_len = pr.u32()? as usize;
        let mut tail = Vec::with_capacity(tail_len.min(prod_count));
        for _ in 0..tail_len {
            let t = pr.u32()?;
            if t as usize >= nt_count {
                return Err(ArtifactError::Malformed("tail nonterminal out of range"));
            }
            tail.push(t);
        }
        if kind == 0 && (!tail.is_empty() || arity != 0 || name.is_some()) {
            return Err(ArtifactError::Malformed("skip production with token data"));
        }
        if kind == 1 && arity as usize != tail.len() + 1 {
            return Err(ArtifactError::Malformed(
                "production arity disagrees with its tail",
            ));
        }
        prods.push(ProdRecord {
            kind,
            owner,
            arity,
            tail,
        });
        prod_names.push(name);
    }
    pr.finish()?;

    let mut ex = SectionReader::new(art.section(SEC_EXPECTED)?);
    let mut state_expected = Vec::with_capacity(nstates);
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
                if n as usize >= nt_count || !eps_flags[n as usize] {
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
        nt_start,
        nt_start_row,
        eps_flags,
        prods,
        skip,
        start_nt,
        state_expected,
        prod_names,
        fingerprint,
    })
}

impl DecodedTables {
    /// Assembles the parser around caller-provided actions.
    fn into_parser<V>(
        self,
        conts: Conts<V>,
        prod_names: Vec<Option<Arc<str>>>,
    ) -> CompiledParser<V> {
        CompiledParser {
            // The staged state list exists for code generation and
            // does not travel in artifacts; state_count() and the VM
            // run from the flat table alone.
            states: Vec::new(),
            class_map: self.class_map,
            stride: self.stride,
            trans: self.trans,
            nt_start: self.nt_start,
            nt_start_row: self.nt_start_row,
            conts,
            skip: self.skip,
            start_nt: self.start_nt,
            // Fresh identity: suspended streaming sessions must not
            // resume against a different load of the same tables.
            stream_id: flap_fuse::stream::next_owner_id(),
            state_expected: self.state_expected,
            prod_names,
            prod_owner: self.prods.iter().map(|p| p.owner).collect(),
        }
    }
}

/// Loads an artifact as a *recognizer*: a `CompiledParser<()>` whose
/// actions are no-ops. Validation, streaming, error positions and
/// expected-token diagnostics all behave exactly as the originating
/// parser; only semantic values are gone. Each token production folds
/// its tail's unit values left to right, so a parse still yields
/// exactly one `()`.
///
/// The transition blocks borrow from `buf` — no table bytes are
/// copied or allocated, and cloning the result shares them.
///
/// # Errors
///
/// Any container or table defect, as a typed [`ArtifactError`];
/// never panics.
pub fn load_recognizer(buf: &Arc<AlignedBuf>) -> Result<CompiledParser<()>, ArtifactError> {
    let t = decode_tables(buf)?;
    let noop: TokAction<()> = Arc::new(|_| ());
    let unit: SeqAction<()> = Arc::new(|(), ()| ());
    let unit_eps: EpsAction<()> = Arc::new(|| ());
    let mut conts = Conts::new();
    for p in &t.prods {
        if p.kind == 0 {
            conts.push_skip();
        } else {
            // the lowered unit left fold: each tail value is folded in
            // as soon as its nonterminal completes
            let fold = (0..p.tail.len() as u16)
                .flat_map(|i| [ContOp::Tail(i), ContOp::User(Arc::clone(&unit))])
                .collect();
            conts.push_token(Arc::clone(&noop), &p.tail, fold);
        }
    }
    for &flag in &t.eps_flags {
        conts.push_eps(flag.then(|| vec![ContOp::Eps(Arc::clone(&unit_eps))]));
    }
    let prod_names = t.prod_names.clone();
    Ok(t.into_parser(conts, prod_names))
}

/// Loads an artifact and re-attaches the semantic actions of
/// `fused`, yielding a full `CompiledParser<V>` without recompiling.
///
/// The grammar must have the same *shape* as the one the artifact
/// was compiled from: nonterminal and production counts, production
/// kinds and owners, tail lists, reduce arities, ε-rules and the
/// start symbol must all agree (flattened in the same order as
/// [`CompiledParser::compile`]). Anything else is
/// [`ArtifactError::ShapeMismatch`] — tables compiled for one
/// grammar never run another grammar's actions.
///
/// Action *bodies* are not (and cannot be) checked: attaching a
/// same-shape grammar with different closures silently yields those
/// closures' semantics, which is the point of re-attachment.
///
/// # Errors
///
/// [`ArtifactError::ShapeMismatch`] on shape disagreement, or any
/// container/table defect; never panics.
pub fn attach<V>(
    buf: &Arc<AlignedBuf>,
    fused: &FusedGrammar<V>,
) -> Result<CompiledParser<V>, ArtifactError> {
    let t = decode_tables(buf)?;
    let mismatch = |why: String| ArtifactError::ShapeMismatch(why);
    if fused.nt_count() != t.eps_flags.len() {
        return Err(mismatch(format!(
            "grammar has {} nonterminals, artifact has {}",
            fused.nt_count(),
            t.eps_flags.len()
        )));
    }
    let flat_prods: usize = fused.nts().map(|nt| fused.entry(nt).prods.len()).sum();
    if flat_prods != t.prods.len() {
        return Err(mismatch(format!(
            "grammar has {flat_prods} flat productions, artifact has {}",
            t.prods.len()
        )));
    }
    if fused.start().index() as u32 != t.start_nt {
        return Err(mismatch(format!(
            "grammar starts at nonterminal {}, artifact at {}",
            fused.start().index(),
            t.start_nt
        )));
    }

    let mut conts = Conts::new();
    let mut prod_names: Vec<Option<Arc<str>>> = Vec::with_capacity(t.prods.len());
    let mut flat = 0usize;
    for nt in fused.nts() {
        let entry = fused.entry(nt);
        if entry.eps.is_some() != t.eps_flags[nt.index()] {
            return Err(mismatch(format!(
                "nonterminal {} {} an ε-production in the grammar but {} in the artifact",
                nt.index(),
                if entry.eps.is_some() { "has" } else { "lacks" },
                if t.eps_flags[nt.index()] {
                    "has one"
                } else {
                    "lacks one"
                },
            )));
        }
        conts.push_fused_eps(entry);
        for p in &entry.prods {
            let rec = &t.prods[flat];
            if rec.owner != nt.index() as u32 {
                return Err(mismatch(format!(
                    "production {flat} belongs to nonterminal {} in the grammar, {} in the artifact",
                    nt.index(),
                    rec.owner
                )));
            }
            match &p.token {
                None => {
                    if rec.kind != 0 {
                        return Err(mismatch(format!(
                            "production {flat} is a skip rule in the grammar, a token in the artifact"
                        )));
                    }
                    prod_names.push(None);
                }
                Some(tok) => {
                    if rec.kind != 1 {
                        return Err(mismatch(format!(
                            "production {flat} is a token in the grammar, a skip rule in the artifact"
                        )));
                    }
                    if tok.reduce.arity() != rec.arity {
                        return Err(mismatch(format!(
                            "production {flat} has reduce arity {} in the grammar, {} in the artifact",
                            tok.reduce.arity(),
                            rec.arity
                        )));
                    }
                    let tail: Vec<u32> = tok.tail.iter().map(|m| m.index() as u32).collect();
                    if tail != rec.tail {
                        return Err(mismatch(format!(
                            "production {flat} has a different tail in the grammar"
                        )));
                    }
                    prod_names.push(Some(Arc::clone(fused.token_name_arc(tok.token))));
                }
            }
            conts.push_fused(p);
            flat += 1;
        }
    }
    debug_assert_eq!(flat, t.prods.len());
    // Belt and braces: the detailed checks above imply fingerprint
    // equality; disagreement means the artifact lied about its own
    // fingerprint.
    if fused_shape_fingerprint(fused) != t.fingerprint {
        return Err(ArtifactError::Malformed("fingerprint disagrees with shape"));
    }
    Ok(t.into_parser(conts, prod_names))
}

/// The shape fingerprint stored in an artifact, without decoding the
/// tables — what a cache keyed on grammar shape reads first.
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
    use flap_cfe::Cfe;
    use flap_dgnf::normalize;
    use flap_fuse::fuse;
    use flap_lex::LexerBuilder;

    fn arith() -> (flap_lex::Lexer, FusedGrammar<i64>) {
        let mut b = LexerBuilder::new();
        let num = b.token("num", "[0-9]+").unwrap();
        b.skip("[ \t\n]").unwrap();
        let plus = b.token("plus", r"\+").unwrap();
        let lexer = b.build().unwrap();
        let sum: Cfe<i64> = Cfe::sep_by1(
            Cfe::tok_with(num, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap()),
            Cfe::tok_val(plus, 0),
            || 0,
            |a, b| a + b,
        );
        let grammar = normalize(&sum).unwrap();
        let mut lexer = lexer;
        let fused = fuse(&mut lexer, &grammar).unwrap();
        (lexer, fused)
    }

    fn compiled() -> (CompiledParser<i64>, FusedGrammar<i64>) {
        let (mut lexer, fused) = arith();
        let p = CompiledParser::compile(&mut lexer, &fused);
        (p, fused)
    }

    #[test]
    fn recognizer_round_trips() {
        let (p, _) = compiled();
        let bytes = p.to_artifact();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let r = load_recognizer(&buf).unwrap();
        assert!(r.tables_shared(), "load must borrow the tables");
        assert_eq!(r.state_count(), p.state_count());
        assert!(r.recognize(b"1 + 2 + 39").is_ok());
        assert!(r.recognize(b"1 +").is_err());
        // diagnostics survive: same expected set, same position
        let e1 = p.parse(b"1 + + 2").unwrap_err();
        let e2 = r.parse(b"1 + + 2").unwrap_err();
        assert_eq!(format!("{e1}"), format!("{e2}"));
    }

    #[test]
    fn attach_restores_semantics() {
        let (p, fused) = compiled();
        let bytes = p.to_artifact();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let full = attach(&buf, &fused).unwrap();
        assert!(full.tables_shared());
        assert_eq!(full.parse(b"1 + 2 + 39").unwrap(), 42);
        assert_eq!(
            format!("{}", full.parse(b"x").unwrap_err()),
            format!("{}", p.parse(b"x").unwrap_err()),
        );
    }

    #[test]
    fn attach_rejects_different_shape() {
        let (p, _) = compiled();
        let bytes = p.to_artifact();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        // A different grammar: one token, no skip tail shape.
        let mut b = LexerBuilder::new();
        let word = b.token("word", "[a-z]+").unwrap();
        let mut lexer = b.build().unwrap();
        let g: Cfe<i64> = Cfe::tok_with(word, |lx| lx.len() as i64);
        let fused = fuse(&mut lexer, &normalize(&g).unwrap()).unwrap();
        match attach(&buf, &fused) {
            Err(ArtifactError::ShapeMismatch(_)) => {}
            Err(other) => panic!("expected ShapeMismatch, got {other:?}"),
            Ok(_) => panic!("expected ShapeMismatch, got a parser"),
        }
    }

    #[test]
    fn fingerprints_agree_between_compiled_and_fused() {
        let (p, fused) = compiled();
        assert_eq!(p.shape_fingerprint(), fused_shape_fingerprint(&fused));
        let bytes = p.to_artifact();
        let buf = AlignedBuf::from_bytes(&bytes);
        assert_eq!(
            peek_fingerprint(buf.as_slice()).unwrap(),
            p.shape_fingerprint()
        );
    }

    #[test]
    fn artifact_bytes_are_deterministic() {
        let (p, _) = compiled();
        assert_eq!(p.to_artifact(), p.to_artifact());
    }

    /// Layout guard: the section schema and container constants are
    /// part of the format. If this test fails, bump
    /// `flap_artifact::ARTIFACT_VERSION` (and keep the old decoder
    /// out of scope — readers reject other versions wholesale).
    #[test]
    fn format_version_guards_section_layout() {
        assert_eq!(flap_artifact::ARTIFACT_VERSION, 1);
        assert_eq!(flap_artifact::HEADER_LEN, 64);
        assert_eq!(flap_artifact::SECTION_ENTRY_LEN, 32);
        assert_eq!(
            [
                SEC_META,
                SEC_CLASS_MAP,
                SEC_TRANS,
                SEC_NT,
                SEC_PRODS,
                SEC_EXPECTED,
                SEC_SKIP_META,
                SEC_SKIP_TRANS,
                SEC_STRINGS
            ],
            [1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
        let (p, _) = compiled();
        let bytes = p.to_artifact();
        let buf = AlignedBuf::from_bytes(&bytes);
        let art = Artifact::load(buf.as_slice()).unwrap();
        // a skip-bearing grammar emits exactly this section sequence
        assert_eq!(
            art.section_ids().collect::<Vec<_>>(),
            vec![
                SEC_META,
                SEC_CLASS_MAP,
                SEC_TRANS,
                SEC_NT,
                SEC_PRODS,
                SEC_EXPECTED,
                SEC_SKIP_META,
                SEC_SKIP_TRANS,
                SEC_STRINGS
            ]
        );
        // META is seven fixed fields: 5×u32 + u8 + u64 = 29 bytes
        assert_eq!(art.section(SEC_META).unwrap().len(), 29);
        // CLASS_MAP is always 256 u16 slots
        assert_eq!(art.section(SEC_CLASS_MAP).unwrap().len(), 512);
    }

    #[test]
    fn emit_rust_panics_on_loaded_parsers() {
        let (p, _) = compiled();
        let bytes = p.to_artifact();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let r = load_recognizer(&buf).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::codegen::emit_rust(&r, "m")
        }));
        assert!(err.is_err(), "codegen must refuse artifact-loaded parsers");
    }
}
