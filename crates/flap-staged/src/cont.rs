//! Lowered continuations: what the VM does after committing a token.
//!
//! Every token production's reduce program is lowered ahead of time
//! ([`flap_dgnf::Reduce::lower`]) into post-order action steps
//! interleaved with its tail nonterminals, and stored *pre-reversed*
//! in one flat pool of one-word [`Ctl`] entries. Committing a token
//! then pushes the token's value and copies the production's slice
//! onto the control stack in one `extend_from_slice`; popping an
//! action word applies the action to the topmost values. No value is
//! ever rotated, and no per-production program is interpreted.
//!
//! Each production also owns a second slice holding only its tail
//! nonterminals, which is all that action-free recognition and
//! validation push. ε programs (an ε value followed by maps) lower
//! the same way but are stored in execution order: they run inline
//! at the ε stop and never touch the control stack.

use std::sync::Arc;

use flap_cfe::{EpsAction, MapAction, SeqAction, TokAction};
use flap_dgnf::ContOp;
use flap_fuse::{FusedNt, FusedProd, Observer};

/// A control-stack word: a 2-bit tag and a 30-bit payload — a
/// nonterminal to parse, or an index into one of the action tables.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ctl(u32);

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
    pub(crate) fn nt(nt: u32) -> Ctl {
        Ctl::new(Ctl::NT, nt as usize)
    }

    /// Whether this word names a nonterminal rather than an action.
    #[inline(always)]
    pub(crate) fn is_nt(self) -> bool {
        self.0 & 3 == Ctl::NT
    }

    /// The nonterminal or action-table index.
    #[inline(always)]
    pub(crate) fn payload(self) -> u32 {
        self.0 >> 2
    }
}

/// A `start..end` range of the pool.
#[derive(Clone, Copy, Default)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

/// Action-table marker: this step completes no production.
const NO_PROD: u32 = u32::MAX;

/// A flat production's entry into the pool.
pub(crate) struct Head<V> {
    /// Lead-value action; `None` for an F2 skip self-loop.
    pub(crate) tok_action: Option<TokAction<V>>,
    /// The lowered continuation, pre-reversed: its last word runs
    /// first.
    pub(crate) cont: Span,
    /// The tail nonterminals alone, pre-reversed.
    pub(crate) nts: Span,
}

/// Every production's continuation plus the actions its words name.
pub(crate) struct Conts<V> {
    /// Per flat production (`StopAction::Match` indexes it).
    pub(crate) heads: Vec<Head<V>>,
    /// ε program per nonterminal in execution order (`StopAction::Eps`
    /// indexes it); `None` without an ε rule.
    pub(crate) eps: Vec<Option<Span>>,
    pool: Vec<Ctl>,
    /// Binary actions, each with the flat production whose
    /// continuation it completes (or `NO_PROD`), for
    /// [`Observer::reduce`].
    user: Vec<(SeqAction<V>, u32)>,
    /// Map actions, with completion markers as for `user`.
    map: Vec<(MapAction<V>, u32)>,
    eps_actions: Vec<EpsAction<V>>,
}

impl<V> Conts<V> {
    pub(crate) fn new() -> Self {
        Conts {
            heads: Vec::new(),
            eps: Vec::new(),
            pool: Vec::new(),
            user: Vec::new(),
            map: Vec::new(),
            eps_actions: Vec::new(),
        }
    }

    /// The words of `span`.
    #[inline(always)]
    pub(crate) fn slice(&self, span: Span) -> &[Ctl] {
        &self.pool[span.start as usize..span.end as usize]
    }

    /// Appends a fused production, lowering its reduce program.
    pub(crate) fn push_fused(&mut self, p: &FusedProd<V>) {
        match &p.token {
            None => self.push_skip(),
            Some(t) => {
                let tail: Vec<u32> = t.tail.iter().map(|m| m.index() as u32).collect();
                self.push_token(Arc::clone(&t.tok_action), &tail, t.reduce.lower());
            }
        }
    }

    /// Appends a fused nonterminal's ε rule (lowered), if any.
    pub(crate) fn push_fused_eps(&mut self, nt: &FusedNt<V>) {
        self.push_eps(nt.eps.as_ref().map(|(_, e)| e.lower()));
    }

    /// Appends an F2 skip production.
    pub(crate) fn push_skip(&mut self) {
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
    pub(crate) fn push_token(
        &mut self,
        tok_action: TokAction<V>,
        tail: &[u32],
        ops: Vec<ContOp<V>>,
    ) {
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
    pub(crate) fn push_eps(&mut self, ops: Option<Vec<ContOp<V>>>) {
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
    pub(crate) fn is_skip(&self, p: usize) -> bool {
        self.heads[p].tok_action.is_none()
    }

    /// The tail nonterminals of flat production `p`, in order (empty
    /// for skip productions).
    pub(crate) fn tail(&self, p: usize) -> Vec<u32> {
        self.slice(self.heads[p].nts)
            .iter()
            .rev()
            .map(|w| w.payload())
            .collect()
    }

    /// Runs action word `w` on the top of the value stack, reporting
    /// the production it completes (if any) to `obs`.
    #[inline(always)]
    pub(crate) fn run<O: Observer>(&self, w: Ctl, values: &mut Vec<V>, obs: &mut O) {
        let i = w.payload() as usize;
        match w.0 & 3 {
            Ctl::USER => {
                let (f, done) = &self.user[i];
                let b = values.pop().expect("value stack underflow");
                let a = values.pop().expect("value stack underflow");
                values.push(f(a, b));
                if *done != NO_PROD {
                    obs.reduce(*done);
                }
            }
            Ctl::MAP => {
                let (f, done) = &self.map[i];
                let v = values.pop().expect("value stack underflow");
                values.push(f(v));
                if *done != NO_PROD {
                    obs.reduce(*done);
                }
            }
            Ctl::EPS => values.push((self.eps_actions[i])()),
            _ => unreachable!("nonterminal words are dispatched by the engine"),
        }
    }
}
