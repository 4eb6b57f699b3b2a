//! Lowered continuations: what a parser does after committing a
//! token.
//!
//! Every token production's reduce program is lowered ahead of time
//! ([`Reduce::lower`](crate::Reduce::lower)) into post-order action
//! steps interleaved with its tail nonterminals, and stored
//! *pre-reversed* in one flat pool of one-word [`Ctl`] entries.
//! Committing a token then pushes the token's value and copies the
//! production's slice onto the control stack in one
//! `extend_from_slice`; popping an action word applies the action to
//! the topmost values. No value is ever rotated, and no per-production
//! program is interpreted.
//!
//! Each production also owns a second slice holding only its tail
//! nonterminals, which is all that action-free recognition and
//! validation push. ε programs (an ε value followed by maps) lower
//! the same way but are stored in execution order: they run inline
//! at the ε stop and never touch the control stack.
//!
//! Two engines run these pools: the staged VM of `flap-staged`, and
//! the token-level Fig 8 machine [`DgnfParser`](crate::DgnfParser).
//! An artifact stores the pool's words and spans as a [`Layout`];
//! [`Conts::assemble`] binds a validated layout to one closure per
//! action slot, so a loader never lowers a program.

use std::sync::Arc;

use flap_cfe::{EpsAction, MapAction, SeqAction, TokAction};

use crate::ContOp;

/// A control-stack word: a 2-bit tag and a 30-bit payload — a
/// nonterminal to parse, or an index into one of the action tables.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Ctl(u32);

impl Ctl {
    const NT: u32 = 0;
    const USER: u32 = 1;
    const MAP: u32 = 2;
    const EPS: u32 = 3;

    fn new(tag: u32, payload: usize) -> Ctl {
        let payload = u32::try_from(payload)
            .ok()
            .filter(|&p| p < 1 << 30)
            .expect("continuation payload exceeds 30 bits");
        Ctl((payload << 2) | tag)
    }

    /// Parse nonterminal `nt` (dense index).
    pub fn nt(nt: u32) -> Ctl {
        Ctl::new(Ctl::NT, nt as usize)
    }

    /// A stored word, unchecked: [`Layout::validate`] range-checks
    /// it before any engine runs it.
    pub fn from_word(w: u32) -> Ctl {
        Ctl(w)
    }

    /// The word as stored.
    pub fn word(self) -> u32 {
        self.0
    }

    fn tag(self) -> u32 {
        self.0 & 3
    }

    /// Whether this word names a nonterminal rather than an action.
    #[inline(always)]
    pub fn is_nt(self) -> bool {
        self.0 & 3 == Ctl::NT
    }

    /// The nonterminal or action-table index.
    #[inline(always)]
    pub fn payload(self) -> u32 {
        self.0 >> 2
    }
}

/// A `start..end` range of the pool.
#[derive(Clone, Copy, Default)]
pub struct Span {
    /// First word.
    pub start: u32,
    /// One past the last word.
    pub end: u32,
}

/// Action-table marker: this step completes no production.
const NO_PROD: u32 = u32::MAX;

/// A flat production's entry into the pool.
pub struct Head<V> {
    /// Lead-value action; `None` for an F2 skip self-loop.
    pub tok_action: Option<TokAction<V>>,
    /// The lowered continuation, pre-reversed: its last word runs
    /// first.
    pub cont: Span,
    /// The tail nonterminals alone, pre-reversed.
    pub nts: Span,
}

/// Every production's continuation plus the actions its words name.
///
/// Every span lies inside the pool, and every action word indexes its
/// table: the `push_` methods keep that true, and
/// [`Conts::assemble`] relies on [`Layout::validate`] for it.
pub struct Conts<V> {
    /// Per flat production, in the order they were pushed.
    heads: Vec<Head<V>>,
    /// ε program per nonterminal in execution order; `None` without
    /// an ε rule.
    eps: Vec<Option<Span>>,
    pool: Vec<Ctl>,
    /// Binary actions, each with the flat production whose
    /// continuation it completes (or `NO_PROD`), for the reduce hook
    /// of [`Conts::run`].
    user: Vec<(SeqAction<V>, u32)>,
    /// Map actions, with completion markers as for `user`.
    map: Vec<(MapAction<V>, u32)>,
    eps_actions: Vec<EpsAction<V>>,
}

impl<V> Default for Conts<V> {
    fn default() -> Self {
        Conts {
            heads: Vec::new(),
            eps: Vec::new(),
            pool: Vec::new(),
            user: Vec::new(),
            map: Vec::new(),
            eps_actions: Vec::new(),
        }
    }
}

impl<V> Conts<V> {
    /// Rebuilds a pool from its stored `layout`, already checked by
    /// [`Layout::validate`], binding `actions`, whose
    /// [`Actions::counts`] must equal the layout's.
    pub fn assemble(layout: Layout, actions: Actions<V>) -> Conts<V> {
        let mut tok = actions.tok.into_iter();
        let heads: Vec<Head<V>> = layout
            .heads
            .iter()
            .map(|head| match *head {
                None => Head {
                    tok_action: None,
                    cont: Span::default(),
                    nts: Span::default(),
                },
                Some((cont, nts)) => Head {
                    tok_action: tok.next(),
                    cont,
                    nts,
                },
            })
            .collect();
        let mut user: Vec<_> = actions.user.into_iter().map(|f| (f, NO_PROD)).collect();
        let mut map: Vec<_> = actions.map.into_iter().map(|f| (f, NO_PROD)).collect();
        // A continuation's first stored word runs last: when it is an
        // action, it completes the production (as `push_token` marks).
        for (p, head) in heads.iter().enumerate() {
            if head.cont.start == head.cont.end {
                continue;
            }
            let Some(&w) = layout.pool.get(head.cont.start as usize) else {
                continue;
            };
            let done = match w.tag() {
                Ctl::USER => user.get_mut(w.payload() as usize).map(|(_, d)| d),
                Ctl::MAP => map.get_mut(w.payload() as usize).map(|(_, d)| d),
                _ => None,
            };
            if let Some(done) = done {
                *done = p as u32;
            }
        }
        Conts {
            heads,
            eps: layout.eps,
            pool: layout.pool,
            user,
            map,
            eps_actions: actions.eps,
        }
    }

    /// Per flat production, in the order they were pushed.
    #[inline(always)]
    pub fn heads(&self) -> &[Head<V>] {
        &self.heads
    }

    /// ε program per nonterminal, in execution order; `None` without
    /// an ε rule.
    #[inline(always)]
    pub fn eps(&self) -> &[Option<Span>] {
        &self.eps
    }

    /// The words every [`Span`] indexes.
    pub fn pool(&self) -> &[Ctl] {
        &self.pool
    }

    /// Lengths of the binary, map and ε action tables.
    pub fn table_lens(&self) -> [usize; 3] {
        [self.user.len(), self.map.len(), self.eps_actions.len()]
    }

    /// The address of every action's closure, in [`Actions`] order:
    /// token productions' lead actions, then the binary, map and ε
    /// tables.
    pub fn closure_addrs(&self) -> [Vec<usize>; 4] {
        [
            self.heads
                .iter()
                .filter_map(|h| h.tok_action.as_ref().map(closure_addr))
                .collect(),
            self.user.iter().map(|(f, _)| closure_addr(f)).collect(),
            self.map.iter().map(|(f, _)| closure_addr(f)).collect(),
            self.eps_actions.iter().map(closure_addr).collect(),
        ]
    }

    /// The words of `span`.
    #[inline(always)]
    pub fn slice(&self, span: Span) -> &[Ctl] {
        &self.pool[span.start as usize..span.end as usize]
    }

    /// Appends an F2 skip production.
    pub fn push_skip(&mut self) {
        self.heads.push(Head {
            tok_action: None,
            cont: Span::default(),
            nts: Span::default(),
        });
    }

    /// Appends a token production with tail nonterminals `tail` whose
    /// reduce program lowered to `ops`.
    ///
    /// # Panics
    ///
    /// If `ops` does not parse exactly the tail — a reduce arity that
    /// is not one more than the tail length.
    pub fn push_token(&mut self, tok_action: TokAction<V>, tail: &[u32], ops: Vec<ContOp<V>>) {
        let prod = u32::try_from(self.heads.len()).expect("production index overflow");
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, ContOp::Tail(_)))
                .count(),
            tail.len(),
            "reduce arity must be one more than the production's tail length"
        );
        let last = ops.len().saturating_sub(1);
        let mut words: Vec<Ctl> = Vec::with_capacity(ops.len());
        for (k, op) in ops.into_iter().enumerate() {
            words.push(match op {
                ContOp::Tail(i) => Ctl::nt(tail[i as usize]),
                // the last step (the root of the program's tree) is
                // where the production completes
                op => self.action(op, if k == last { prod } else { NO_PROD }),
            });
        }
        let cont = self.extend(words.into_iter().rev());
        let nts = self.extend(tail.iter().rev().map(|&m| Ctl::nt(m)));
        self.heads.push(Head {
            tok_action: Some(tok_action),
            cont,
            nts,
        });
    }

    /// Appends the next nonterminal's ε program (lowered), if any.
    pub fn push_eps(&mut self, ops: Option<Vec<ContOp<V>>>) {
        let span = ops.map(|ops| {
            let words: Vec<Ctl> = ops.into_iter().map(|op| self.action(op, NO_PROD)).collect();
            self.extend(words.into_iter())
        });
        self.eps.push(span);
    }

    /// Registers an action step, returning its word.
    ///
    /// # Panics
    ///
    /// On a [`ContOp::Tail`]: an ε program has no tail to parse.
    fn action(&mut self, op: ContOp<V>, done: u32) -> Ctl {
        match op {
            ContOp::User(f) => {
                self.user.push((f, done));
                Ctl::new(Ctl::USER, self.user.len() - 1)
            }
            ContOp::Map(f) => {
                self.map.push((f, done));
                Ctl::new(Ctl::MAP, self.map.len() - 1)
            }
            ContOp::Eps(f) => {
                self.eps_actions.push(f);
                Ctl::new(Ctl::EPS, self.eps_actions.len() - 1)
            }
            ContOp::Tail(_) => panic!("an ε program has no tail to parse"),
        }
    }

    fn extend(&mut self, words: impl Iterator<Item = Ctl>) -> Span {
        let start = self.pool.len();
        self.pool.extend(words);
        let end = u32::try_from(self.pool.len()).expect("continuation pool overflow");
        Span {
            start: start as u32,
            end,
        }
    }

    /// Whether flat production `p` is an F2 skip self-loop.
    pub fn is_skip(&self, p: usize) -> bool {
        self.heads[p].tok_action.is_none()
    }

    /// The tail nonterminals of flat production `p`, in order (empty
    /// for skip productions).
    pub fn tail(&self, p: usize) -> Vec<u32> {
        self.slice(self.heads[p].nts)
            .iter()
            .rev()
            .map(|w| w.payload())
            .collect()
    }

    /// Runs action word `w` on the top of the value stack, passing
    /// the flat production it completes (if any) to `reduce`.
    #[inline(always)]
    pub fn run(&self, w: Ctl, values: &mut Vec<V>, mut reduce: impl FnMut(u32)) {
        let i = w.payload() as usize;
        match w.0 & 3 {
            Ctl::USER => {
                let (f, done) = &self.user[i];
                let b = values.pop().expect("value stack underflow");
                let a = values.pop().expect("value stack underflow");
                values.push(f(a, b));
                if *done != NO_PROD {
                    reduce(*done);
                }
            }
            Ctl::MAP => {
                let (f, done) = &self.map[i];
                let v = values.pop().expect("value stack underflow");
                values.push(f(v));
                if *done != NO_PROD {
                    reduce(*done);
                }
            }
            Ctl::EPS => values.push((self.eps_actions[i])()),
            _ => unreachable!("nonterminal words are dispatched by the engine"),
        }
    }
}

/// The address of the closure behind an action: its identity.
pub fn closure_addr<T: ?Sized>(f: &Arc<T>) -> usize {
    Arc::as_ptr(f) as *const () as usize
}

/// One closure per action slot of a pool.
pub struct Actions<V> {
    /// The lead action of each token production, in production order.
    pub tok: Vec<TokAction<V>>,
    /// The binary action table.
    pub user: Vec<SeqAction<V>>,
    /// The map action table.
    pub map: Vec<MapAction<V>>,
    /// The ε action table.
    pub eps: Vec<EpsAction<V>>,
}

impl<V> Actions<V> {
    /// Token productions, then binary, map and ε slots.
    pub fn counts(&self) -> [usize; 4] {
        [
            self.tok.len(),
            self.user.len(),
            self.map.len(),
            self.eps.len(),
        ]
    }
}

/// A pool as an artifact stores it: its words and spans, without
/// actions.
pub struct Layout {
    /// The words, as [`Conts::pool`].
    pub pool: Vec<Ctl>,
    /// Per flat production: `None` for a skip production, else its
    /// continuation and tail spans.
    pub heads: Vec<Option<(Span, Span)>>,
    /// Per nonterminal: its ε program, if any.
    pub eps: Vec<Option<Span>>,
    /// Lengths of the binary, map and ε action tables.
    pub tables: [usize; 3],
}

impl Layout {
    /// As [`Actions::counts`]: the slots an [`Actions`] must fill.
    pub fn counts(&self) -> [usize; 4] {
        let [user, map, eps] = self.tables;
        [self.heads.iter().flatten().count(), user, map, eps]
    }

    /// Checks every stored word and span against what the engines
    /// assume, so a crafted layout cannot make them index out of
    /// bounds, pop a missing value or meet a word they cannot run:
    ///
    /// * payloads are below the nonterminal count or their action
    ///   table's length, and spans lie inside the pool;
    /// * a token production's continuation, run after its lead value
    ///   is pushed, never pops a value the production did not push
    ///   and leaves exactly one; its tail span holds exactly the
    ///   continuation's nonterminals, in order;
    /// * an ε program parses no nonterminal and leaves exactly one
    ///   value.
    pub fn validate(&self, nt_count: usize) -> Result<(), &'static str> {
        let [user, map, eps] = self.tables;
        for w in &self.pool {
            let bound = match w.tag() {
                Ctl::NT => nt_count,
                Ctl::USER => user,
                Ctl::MAP => map,
                _ => eps,
            };
            if w.payload() as usize >= bound {
                return Err("continuation word out of range");
            }
        }
        let words = |s: Span| {
            self.pool
                .get(s.start as usize..s.end as usize)
                .ok_or("continuation span outside the pool")
        };
        for &(cont, nts) in self.heads.iter().flatten() {
            let (cont, nts) = (words(cont)?, words(nts)?);
            if stack_effect(cont.iter().rev(), 1)? != 1 {
                return Err("a token production does not leave exactly one value");
            }
            if !cont.iter().filter(|w| w.is_nt()).eq(nts) {
                return Err("tail span disagrees with its continuation");
            }
        }
        for &span in self.eps.iter().flatten() {
            let program = words(span)?;
            if program.iter().any(|w| w.is_nt()) {
                return Err("an ε program parses a nonterminal");
            }
            if stack_effect(program.iter(), 0)? != 1 {
                return Err("an ε program does not leave exactly one value");
            }
        }
        Ok(())
    }
}

/// The value-stack depth after running `words` (in execution order)
/// from `depth` values, every nonterminal pushing one.
fn stack_effect<'a>(
    words: impl Iterator<Item = &'a Ctl>,
    mut depth: usize,
) -> Result<usize, &'static str> {
    const UNDERFLOW: &str = "a continuation pops a value its production did not push";
    for w in words {
        depth = match w.tag() {
            Ctl::USER => depth.checked_sub(2).ok_or(UNDERFLOW)? + 1,
            Ctl::MAP if depth == 0 => return Err(UNDERFLOW),
            Ctl::MAP => depth,
            _ => depth + 1,
        };
    }
    Ok(depth)
}
