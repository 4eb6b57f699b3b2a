//! Staged compilation of fused grammars — the algorithm of Fig 10.
//!
//! The staged parsing algorithm turns the unstaged fused parser
//! (Fig 9) into a parser *generator*: everything that depends only on
//! the grammar — derivative vectors, nullability, character classes —
//! is computed now; what remains at parse time depends only on the
//! input string.
//!
//! MetaOCaml lets flap splice the residual program together as typed
//! code and compile it. Rust has no typed run-time staging, so this
//! crate materializes the same residual program as data: one state
//! per indexed function `S_{F_n,k}` (memoized on the pair of
//! derivative vector and continuation, exactly as §5.4 memoizes
//! generated functions), each one row of a single cache-aligned,
//! alphabet-compressed transition block (exact byte equivalence
//! classes over the whole automaton, premultiplied row targets, the
//! stop action stored in slot 0 of each row). That block is the one
//! table form: the [`vm`](crate::vm) module executes it with a loop
//! that does per character exactly what flap's generated OCaml does
//! (one class-map load, one table lookup and a jump; no derivative
//! computation, no token materialization, no allocation), artifacts
//! store it, and [`codegen`](crate::codegen) prints it as Rust.
//! Trailing skip input goes through the skip DFA's SWAR self-loop
//! fast path.
//!
//! What a production does once its token matches is compiled ahead of
//! time too. Each token production's reduce program is lowered
//! ([`flap_dgnf::Reduce::lower`]) into post-order action steps
//! interleaved with its tail nonterminals, and every continuation is
//! stored pre-reversed in one flat pool of one-word control entries
//! (see [`crate::cont`]); ε programs lower the same way. Like flap's
//! generated code (§2.8), the VM then applies each semantic action
//! directly to its operands: no value-stack rotations and no
//! per-production program interpreter remain at parse time.

use std::collections::HashMap;
use std::sync::Arc;

use flap_fuse::{Expected, FusedGrammar};
use flap_lex::{Lexer, Token};
use flap_regex::{AlignedU32s, ByteClasses, ClassCache, FlatDfa, RegexArena, RegexId};

use crate::cont::Conts;

/// Transition-table entry: `STOP`, or `(target_row << 2) | mark`,
/// where the target row is premultiplied by the stride and the
/// *mark* bit records that entering the target establishes a new
/// longest match (the `rs := cs` update of Fig 10). Bit 1 is unused;
/// the layout mirrors [`FlatDfa`](flap_regex::FlatDfa), whose bit 1
/// is the accel flag.
pub(crate) const STOP: u32 = u32::MAX;

/// Encodes a [`StopAction`] into row slot 0 of the flat table
/// (2-bit tag, payload above).
pub(crate) fn encode_stop(s: StopAction) -> u32 {
    match s {
        StopAction::Fail => 0,
        StopAction::Eps(n) => (n << 2) | 1,
        StopAction::Match(p) => (p << 2) | 2,
    }
}

/// Inverse of [`encode_stop`].
#[inline]
pub(crate) fn decode_stop(e: u32) -> StopAction {
    match e & 3 {
        0 => StopAction::Fail,
        1 => StopAction::Eps(e >> 2),
        _ => StopAction::Match(e >> 2),
    }
}

/// What `Step(k, rs)` does in the state's stop situation (dead input
/// byte or end of input) — determined statically by the state's
/// continuation index `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum StopAction {
    /// `k = no`: parsing this nonterminal fails.
    Fail,
    /// `k = back`: take the ε-production of the nonterminal
    /// (identified by its dense index), consuming nothing.
    Eps(u32),
    /// `k = on n̄`: commit to the fused production with this flat
    /// index, consuming up to the last mark.
    Match(u32),
}

/// A fused grammar compiled to transition tables — flap's "generated
/// code", executable via [`CompiledParser::parse`] or printable as
/// Rust source via [`crate::codegen::emit_rust`].
pub struct CompiledParser<V> {
    /// Byte → 1-based class id; class 0 of every row is the encoded
    /// stop action, so the VM's per-byte index is `row + map[b]`
    /// with no offset arithmetic. `u16` because a pathological
    /// automaton can have up to 256 classes (257 row slots).
    pub(crate) class_map: Box<[u16; 256]>,
    /// Row stride of the flat table: class count + 1 (stop slot).
    pub(crate) stride: u32,
    /// Alphabet-compressed flat transition table in one
    /// cache-aligned block. Row of state `s` starts at `s * stride`;
    /// slot 0 holds [`encode_stop`]`(stop)`, the remaining slots
    /// hold `STOP` or `(target_row << 2) | mark`.
    pub(crate) trans: AlignedU32s,
    /// Start row per nonterminal (dense `NtId` index; premultiplied,
    /// so the state is `row / stride`).
    pub(crate) nt_start_row: Vec<u32>,
    /// Per flat production (`StopAction::Match`) and per ε rule
    /// (`StopAction::Eps`): the lowered continuations, one-word
    /// control entries in one flat pool (see [`crate::cont`]).
    pub(crate) conts: Conts<V>,
    /// Flattened DFA for the skip regex (sink precomputed as the
    /// `DEAD` sentinel), used to consume trailing skippable input;
    /// `None` when the lexer had no skip rule.
    pub(crate) skip: Option<FlatDfa>,
    pub(crate) start_nt: u32,
    /// Streaming-owner id (`crate::stream::next_owner_id`):
    /// suspended sessions record it so they cannot be resumed
    /// against a different parser's tables.
    pub(crate) stream_id: u64,
    /// Per-state expected-token sets for `NoMatch` diagnostics: the
    /// names of the token productions still live in each state,
    /// precomputed here so error construction at parse time is a
    /// clone of inline `Arc`s — no allocation on the error path.
    pub(crate) state_expected: Vec<Expected>,
    /// Token name per flat production (`None` for F2 skip
    /// self-loops), retained for observability: hooks report raw flat
    /// production indices, and [`CompiledParser::prod_label`] renders
    /// them.
    pub(crate) prod_names: Vec<Option<Arc<str>>>,
    /// Owning nonterminal (dense `NtId` index) per flat production,
    /// retained so profile reports can group rules by nonterminal.
    pub(crate) prod_owner: Vec<u32>,
}

impl<V> CompiledParser<V> {
    /// Compiles `fused` ahead of parse time (the first stage of
    /// Fig 10).
    ///
    /// All derivative and character-class computation happens here,
    /// against the lexer's regex arena; the resulting parser is
    /// self-contained.
    pub fn compile(lexer: &mut Lexer, fused: &FusedGrammar<V>) -> CompiledParser<V> {
        let skip = lexer
            .skip_regex()
            .map(|r| FlatDfa::build(lexer.arena_mut(), r));
        let mut c = Compiler {
            arena: lexer.arena_mut(),
            cache: ClassCache::new(),
            stops: Vec::new(),
            rows: Vec::new(),
            memo: HashMap::new(),
            worklist: Vec::new(),
        };

        // Flatten productions, lowering each reduce program into its
        // continuation, and pre-allocate per-NT tables.
        let nt_count = fused.nt_count();
        let mut conts = Conts::new();
        let mut prod_token: Vec<Option<Token>> = Vec::new();
        let mut prod_owner: Vec<u32> = Vec::new();
        let mut per_nt_prods: Vec<Vec<(RegexId, u32)>> = Vec::with_capacity(nt_count);
        for nt in fused.nts() {
            let entry = fused.entry(nt);
            let mut list = Vec::with_capacity(entry.prods.len());
            for p in &entry.prods {
                let flat = conts.heads.len() as u32;
                conts.push_fused(p);
                prod_token.push(p.token.as_ref().map(|t| t.token));
                prod_owner.push(nt.index() as u32);
                list.push((p.regex, flat));
            }
            per_nt_prods.push(list);
            conts.push_fused_eps(entry);
        }

        // One start state per nonterminal: k = back iff it has ε.
        let mut nt_start = Vec::with_capacity(nt_count);
        for (nt, (live, eps)) in per_nt_prods.iter().zip(&conts.eps).enumerate() {
            let k = if eps.is_some() {
                StopAction::Eps(nt as u32)
            } else {
                StopAction::Fail
            };
            let id = c.intern(live.clone(), k);
            nt_start.push(id);
        }
        c.run();

        // Expected-set per state: the token productions of a state's
        // live derivative vector, in production order. Equal by
        // construction to what the unstaged interpreter's failure
        // replay reports, so staged/unstaged errors stay comparable.
        let mut state_expected = vec![Expected::none(); c.stops.len()];
        for ((live, _k), &id) in &c.memo {
            let e = &mut state_expected[id as usize];
            for &(_, prod) in live {
                if let Some(t) = prod_token[prod as usize] {
                    e.push(fused.token_name_arc(t));
                }
            }
        }

        // Flatten: exact byte equivalence classes over the whole
        // automaton, then one contiguous aligned table of compressed
        // rows with premultiplied targets — one class-map load plus
        // one table load per input byte.
        let classes =
            ByteClasses::from_columns(|b| c.rows.iter().map(|r| r[b as usize]).collect::<Vec<_>>());
        let ncls = classes.len();
        let stride = (ncls + 1) as u32;
        let mut class_map = Box::new([0u16; 256]);
        let mut reps: Vec<u8> = vec![0; ncls];
        for b in (0..=255u8).rev() {
            let cls = classes.class_of(b);
            class_map[b as usize] = (cls + 1) as u16;
            reps[cls] = b;
        }
        let mut trans = AlignedU32s::filled(c.rows.len() * stride as usize, STOP);
        {
            let t = trans.as_mut_slice();
            for (sid, (r, &stop)) in c.rows.iter().zip(&c.stops).enumerate() {
                let row = sid * stride as usize;
                t[row] = encode_stop(stop);
                for (cls, &rep) in reps.iter().enumerate() {
                    let e = r[rep as usize];
                    if e != STOP {
                        t[row + 1 + cls] = (((e >> 2) * stride) << 2) | (e & 1);
                    }
                }
            }
        }
        let nt_start_row = nt_start.iter().map(|&s| s * stride).collect();
        let prod_names = prod_token
            .iter()
            .map(|t| t.map(|t| Arc::clone(fused.token_name_arc(t))))
            .collect();
        CompiledParser {
            class_map,
            stride,
            trans,
            nt_start_row,
            conts,
            skip,
            start_nt: fused.start().index() as u32,
            stream_id: crate::stream::next_owner_id(),
            state_expected,
            prod_names,
            prod_owner,
        }
    }

    /// Number of generated states — the analogue of the "Output
    /// functions" column of Table 1 (flap memoizes one generated
    /// function per `(F_n, k)` pair; so do we).
    ///
    /// Every state owns exactly one row of the flat table.
    pub fn state_count(&self) -> usize {
        self.trans.len() / self.stride as usize
    }

    /// Number of flat fused productions — the index space of the
    /// `class`/`rule` identifiers this parser's engine reports to an
    /// [`Observer`](crate::Observer).
    pub fn prod_count(&self) -> usize {
        self.conts.heads.len()
    }

    /// Token name of flat production `p`, or `None` for F2 skip
    /// self-loops (and out-of-range indices). Renders the raw
    /// `class`/`rule` ids the engine hands to an
    /// [`Observer`](crate::Observer).
    pub fn prod_label(&self, p: u32) -> Option<&str> {
        self.prod_names.get(p as usize)?.as_deref()
    }

    /// Dense `NtId` index of the nonterminal owning flat production
    /// `p`, or `None` when out of range.
    pub fn prod_nt(&self, p: u32) -> Option<u32> {
        self.prod_owner.get(p as usize).copied()
    }

    /// State id of a premultiplied transition-table `row` as reported
    /// by [`Observer::nt_row`](crate::Observer::nt_row).
    pub fn row_state(&self, row: u32) -> u32 {
        row / self.stride
    }

    /// The flat transition block, as the VM indexes it. Exposed for
    /// zero-copy audits: for an artifact-loaded parser the returned
    /// slice lies inside the originating `AlignedBuf`, which pointer
    /// comparison can verify.
    pub fn table_words(&self) -> &[u32] {
        self.trans.as_slice()
    }
}

struct Compiler<'a> {
    arena: &'a mut RegexArena,
    cache: ClassCache,
    /// Stop action per state.
    stops: Vec<StopAction>,
    /// Per state, per byte: `STOP` or a table entry whose target is
    /// still a state id, premultiplied by the stride on flattening.
    rows: Vec<[u32; 256]>,
    /// `(live derivative vector, k)` → state id; the memoization that
    /// guarantees termination of generation (§5.4).
    memo: HashMap<(Vec<(RegexId, u32)>, StopAction), u32>,
    worklist: Vec<(Vec<(RegexId, u32)>, u32)>,
}

impl Compiler<'_> {
    fn intern(&mut self, live: Vec<(RegexId, u32)>, k: StopAction) -> u32 {
        if let Some(&id) = self.memo.get(&(live.clone(), k)) {
            return id;
        }
        let id = self.stops.len() as u32;
        self.stops.push(k);
        self.rows.push([STOP; 256]);
        self.memo.insert((live.clone(), k), id);
        self.worklist.push((live, id));
        id
    }

    fn run(&mut self) {
        while let Some((live, id)) = self.worklist.pop() {
            let regexes: Vec<RegexId> = live.iter().map(|&(r, _)| r).collect();
            let part = self.cache.classes_of_vector(self.arena, &regexes);
            let mut row = [STOP; 256];
            for set in part.sets() {
                let rep = set.min_byte().expect("partition classes are non-empty");
                // L'_c: the non-⊥ derivatives.
                let mut succ: Vec<(RegexId, u32)> = Vec::with_capacity(live.len());
                for &(r, prod) in &live {
                    let d = self.arena.deriv(r, rep);
                    if d != RegexArena::EMPTY {
                        succ.push((d, prod));
                    }
                }
                let entry = if succ.is_empty() {
                    STOP
                } else {
                    // K: the (unique, by lexer disjointness) nullable rule.
                    let mut nullable = succ.iter().filter(|&&(r, _)| self.arena.nullable(r));
                    let (k2, mark) = match nullable.next() {
                        Some(&(_, prod)) => {
                            debug_assert!(
                                nullable.next().is_none(),
                                "fused production regexes must be disjoint"
                            );
                            (StopAction::Match(prod), 1)
                        }
                        None => (self.stops[id as usize], 0),
                    };
                    (self.intern(succ, k2) << 2) | mark
                };
                for b in set.iter() {
                    row[b as usize] = entry;
                }
            }
            self.rows[id as usize] = row;
        }
    }
}
