//! Normalization of context-free expressions into (D)GNF — the
//! function `N⟦·⟧` of Fig 4, extended to thread semantic actions.
//!
//! Each rule of Fig 4 is implemented by one arm of [`norm`]. The
//! value-level reading of a production `n → t n₁ … n_k` is: the token
//! action pushes the lead value, parsing each `nᵢ` pushes one value,
//! and the production's [`Reduce`] folds those `k+1` values into one.
//! Normalization composes reduces as it copies and rewrites
//! productions:
//!
//! * **(seq)** appending `n₂` to a production wraps its reduce so the
//!   extra topmost value is combined with the production's result;
//! * **(fix)** substituting `n′ → α n̄′` by `n′ → N n̄′` splices the
//!   inner production's reduce under the outer one with two in-place
//!   stack rotations (no allocation at parse time).
//!
//! One deviation from the literal Fig 4, taken from the appendix's
//! "optimization that gets rid of n₃": a μ-variable in *reference*
//! position (the right operand of `·`, which only ever lands in
//! production tails) resolves directly to the variable's nonterminal
//! instead of going through an alias nonterminal `n → α`. Variables
//! in *copy* positions (left of `·`, under `∨`/`map`/`μ`, where Fig 4
//! copies the sub-grammar's start productions) still use the alias,
//! exactly because "α ⇒ ∅ means an empty grammar". This reproduces
//! the grammar sizes of Fig 3d / Table 1.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use flap_cfe::{Cfe, CfeNode, MapAction, SeqAction, VarId};

use crate::grammar::{trim, Grammar, GrammarBuilder, Lead, NtId, Prod, Reduce, ReduceOp};

/// Failures of normalization.
///
/// Theorem 3.3 guarantees none of these occur for *well-typed* closed
/// expressions; they surface exactly when normalization is applied to
/// expressions that `flap_cfe::type_check` would reject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormalizeError {
    /// Rule (seq) needed a production for the left operand but found
    /// an ε-production (the left operand was nullable).
    NullableSeqHead,
    /// Rule (fix) would substitute an ε for a variable followed by a
    /// non-empty tail (the variable was nullable where it must not
    /// be).
    NullableVarHead,
    /// The body of `μα.g` has a start production leading with `α`
    /// itself (left recursion).
    UnguardedFix(VarId),
    /// A variable occurred outside its binder.
    Unbound(VarId),
}

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalizeError::NullableSeqHead => {
                write!(
                    f,
                    "cannot normalize: left operand of a sequence is nullable"
                )
            }
            NormalizeError::NullableVarHead => {
                write!(
                    f,
                    "cannot normalize: nullable variable used before a non-empty tail"
                )
            }
            NormalizeError::UnguardedFix(v) => {
                write!(f, "cannot normalize: μ{:?} is left-recursive", v)
            }
            NormalizeError::Unbound(v) => write!(f, "cannot normalize: unbound variable {:?}", v),
        }
    }
}

impl std::error::Error for NormalizeError {}

/// Normalizes a closed context-free expression into a normal-form
/// grammar, trimming unreachable productions (as the paper's appendix
/// does).
///
/// For a well-typed expression the result is a DGNF grammar
/// (Theorem 3.7): [`Grammar::check_dgnf`] succeeds on it, and by
/// Theorem 3.8 it denotes exactly the language of `g`, with semantic
/// actions preserved.
///
/// # Errors
///
/// Returns [`NormalizeError`] on expressions outside the well-typed
/// fragment; run [`flap_cfe::type_check`] first for a precise
/// diagnosis.
pub fn normalize<V: 'static>(g: &Cfe<V>) -> Result<Grammar<V>, NormalizeError> {
    let mut n = Normalizer {
        b: GrammarBuilder::new(),
        env: HashMap::new(),
    };
    let start = n.norm_copy(g)?;
    Ok(trim(&n.b.finish(start)))
}

/// As [`normalize`], but keeps unreachable nonterminals — useful for
/// inspecting the raw Fig 4 output (cf. the appendix derivation).
pub fn normalize_untrimmed<V: 'static>(g: &Cfe<V>) -> Result<Grammar<V>, NormalizeError> {
    let mut n = Normalizer {
        b: GrammarBuilder::new(),
        env: HashMap::new(),
    };
    let start = n.norm_copy(g)?;
    Ok(n.b.finish(start))
}

struct Normalizer<V> {
    b: GrammarBuilder<V>,
    /// μ-variable → the nonterminal pre-allocated by its binder.
    env: HashMap<VarId, NtId>,
}

/// The identity reduce for single-value productions (`n → t`,
/// `n → α`): the lone argument value already is the result.
fn identity<V>() -> Reduce<V> {
    Reduce::identity()
}

/// Appends a right-rotation over `span` slots, simplifying the
/// degenerate cases (`RotR 1` is a no-op, `RotR 2` is a swap, and two
/// adjacent swaps cancel).
fn push_rot_r<V>(ops: &mut Vec<ReduceOp<V>>, span: u16) {
    match span {
        0 | 1 => {}
        2 => match ops.last() {
            Some(ReduceOp::Swap) => {
                ops.pop();
            }
            _ => ops.push(ReduceOp::Swap),
        },
        _ => ops.push(ReduceOp::RotR { span }),
    }
}

/// Composes rule (seq): the production's own reduce runs first on its
/// original arguments, then `combine` merges its result with the
/// appended nonterminal's value (which sits on top).
///
/// As an op program: rotate the appended value below the inner
/// arguments, run the inner program, swap, combine. For the common
/// token-identity case this peepholes down to a single `User` op.
fn seq_reduce<V: 'static>(inner: Reduce<V>, combine: SeqAction<V>) -> Reduce<V> {
    let arity = inner.arity() + 1;
    let mut ops: Vec<ReduceOp<V>> = Vec::with_capacity(inner.ops().len() + 3);
    push_rot_r(&mut ops, arity);
    ops.extend(inner.ops().iter().cloned());
    push_rot_r(&mut ops, 2); // swap result below the appended value
    ops.push(ReduceOp::User(combine));
    Reduce::from_ops(ops, arity)
}

/// Composes `map f` over a production's reduce.
fn map_reduce<V: 'static>(inner: Reduce<V>, f: MapAction<V>) -> Reduce<V> {
    let arity = inner.arity();
    let mut ops: Vec<ReduceOp<V>> = Vec::with_capacity(inner.ops().len() + 1);
    ops.extend(inner.ops().iter().cloned());
    ops.push(ReduceOp::Map(f));
    Reduce::from_ops(ops, arity)
}

/// Composes rule (fix) substitution: `n′ → α n̄′` rewritten with an
/// inner production `N` of the fixed point.
///
/// On entry the stack holds `[…, N-args(inner_arity), n̄′-values(t)]`.
/// Two rotations bring the pieces to where each program expects them;
/// with an empty outer tail both rotations vanish and the programs
/// simply concatenate.
fn subst_reduce<V: 'static>(inner: &Reduce<V>, outer_tail: u16, outer: &Reduce<V>) -> Reduce<V> {
    let m = inner.arity();
    let arity = m + outer_tail;
    let mut ops: Vec<ReduceOp<V>> = Vec::with_capacity(inner.ops().len() + outer.ops().len() + 2);
    if outer_tail > 0 && m > 0 {
        if m + outer_tail == 2 {
            push_rot_r(&mut ops, 2); // left rotation by 1 over 2 = swap
        } else {
            ops.push(ReduceOp::RotL {
                span: m + outer_tail,
                by: m,
            });
        }
    }
    ops.extend(inner.ops().iter().cloned());
    push_rot_r(&mut ops, outer_tail + 1);
    ops.extend(outer.ops().iter().cloned());
    Reduce::from_ops(ops, arity)
}

impl<V: 'static> Normalizer<V> {
    /// Normalization in *copy* position: the caller will copy the
    /// returned nonterminal's productions, so a bare variable must be
    /// represented by an alias production `n → α` (rule (var)).
    fn norm_copy(&mut self, g: &Cfe<V>) -> Result<NtId, NormalizeError> {
        match g.node() {
            CfeNode::Var(v) => {
                let _target = *self.env.get(v).ok_or(NormalizeError::Unbound(*v))?;
                let n = self.b.fresh_nt();
                self.b.push_prod(
                    n,
                    Prod {
                        lead: Lead::Var(*v),
                        tail: vec![],
                        tok_action: None,
                        reduce: identity(),
                    },
                );
                Ok(n)
            }
            _ => self.norm(g),
        }
    }

    /// Normalization in *reference* position (production tails): a
    /// bare variable resolves to its pre-allocated nonterminal — the
    /// appendix's n₃-elimination.
    fn norm_ref(&mut self, g: &Cfe<V>) -> Result<NtId, NormalizeError> {
        match g.node() {
            CfeNode::Var(v) => self.env.get(v).copied().ok_or(NormalizeError::Unbound(*v)),
            _ => self.norm(g),
        }
    }

    fn norm(&mut self, g: &Cfe<V>) -> Result<NtId, NormalizeError> {
        match g.node() {
            // (bot): a start symbol with no productions.
            CfeNode::Bot => Ok(self.b.fresh_nt()),
            // (epsilon)
            CfeNode::Eps(f) => {
                let n = self.b.fresh_nt();
                self.b.push_eps(n, Reduce::eps(Arc::clone(f)));
                Ok(n)
            }
            // (token)
            CfeNode::Tok(t, a) => {
                let n = self.b.fresh_nt();
                self.b.push_prod(
                    n,
                    Prod {
                        lead: Lead::Tok(*t),
                        tail: vec![],
                        tok_action: Some(Arc::clone(a)),
                        reduce: identity(),
                    },
                );
                Ok(n)
            }
            CfeNode::Var(_) => unreachable!("variables handled by norm_copy/norm_ref"),
            // (seq): n → N₁ n₂ for every n₁ → N₁.
            CfeNode::Seq(g1, g2, combine) => {
                let n1 = self.norm_copy(g1)?;
                let n2 = self.norm_ref(g2)?;
                let n = self.b.fresh_nt();
                if !self.b.entries[n1.index()].eps.is_empty() {
                    return Err(NormalizeError::NullableSeqHead);
                }
                let prods = self.b.entries[n1.index()].prods.clone();
                for p in prods {
                    let mut tail = p.tail;
                    tail.push(n2);
                    self.b.push_prod(
                        n,
                        Prod {
                            lead: p.lead,
                            tail,
                            tok_action: p.tok_action,
                            reduce: seq_reduce(p.reduce, Arc::clone(combine)),
                        },
                    );
                }
                Ok(n)
            }
            // (alt): union of the two production sets.
            CfeNode::Alt(g1, g2) => {
                let n1 = self.norm_copy(g1)?;
                let n2 = self.norm_copy(g2)?;
                let n = self.b.fresh_nt();
                for src in [n1, n2] {
                    let entry = self.b.entries[src.index()].clone();
                    for p in entry.prods {
                        self.b.push_prod(n, p);
                    }
                    for e in entry.eps {
                        self.b.push_eps(n, e);
                    }
                }
                Ok(n)
            }
            // map: same language, wrapped reduces (flap's semantic
            // actions; not in Fig 4, follows the (alt) copying shape).
            CfeNode::Map(inner, f) => {
                let ni = self.norm_copy(inner)?;
                let n = self.b.fresh_nt();
                let entry = self.b.entries[ni.index()].clone();
                for p in entry.prods {
                    self.b.push_prod(
                        n,
                        Prod {
                            lead: p.lead,
                            tail: p.tail,
                            tok_action: p.tok_action,
                            reduce: map_reduce(p.reduce, Arc::clone(f)),
                        },
                    );
                }
                for e in entry.eps {
                    self.b.push_eps(n, map_reduce(e, Arc::clone(f)));
                }
                Ok(n)
            }
            // (fix)
            CfeNode::Fix(v, body) => {
                let alpha = self.b.fresh_nt();
                let shadowed = self.env.insert(*v, alpha);
                let n_body = self.norm_copy(body);
                match shadowed {
                    Some(nt) => {
                        self.env.insert(*v, nt);
                    }
                    None => {
                        self.env.remove(v);
                    }
                }
                let n_body = n_body?;
                // Guardedness (Lemma 3.4): the body's start productions
                // must not lead with α itself.
                let body_entry = self.b.entries[n_body.index()].clone();
                if body_entry.prods.iter().any(|p| p.lead == Lead::Var(*v)) {
                    return Err(NormalizeError::UnguardedFix(*v));
                }
                // ① copy the body start's productions to α.
                for p in &body_entry.prods {
                    self.b.push_prod(alpha, p.clone());
                }
                for e in &body_entry.eps {
                    self.b.push_eps(alpha, e.clone());
                }
                // ② substitute every production n′ → α n̄′ (anywhere in
                // the grammar — only the body can mention this α) by
                // n′ → N n̄′ for each body production N; ③ keep the
                // rest.
                for idx in 0..self.b.entries.len() {
                    let has_var = self.b.entries[idx]
                        .prods
                        .iter()
                        .any(|p| p.lead == Lead::Var(*v));
                    if !has_var {
                        continue;
                    }
                    let old = std::mem::take(&mut self.b.entries[idx].prods);
                    for p in old {
                        if p.lead != Lead::Var(*v) {
                            self.b.entries[idx].prods.push(p);
                            continue;
                        }
                        let outer_tail = p.tail.len();
                        for inner in &body_entry.prods {
                            let mut tail = inner.tail.clone();
                            tail.extend_from_slice(&p.tail);
                            self.b.entries[idx].prods.push(Prod {
                                lead: inner.lead,
                                tail,
                                tok_action: inner.tok_action.clone(),
                                reduce: subst_reduce(&inner.reduce, outer_tail as u16, &p.reduce),
                            });
                        }
                        for e in &body_entry.eps {
                            if outer_tail > 0 {
                                return Err(NormalizeError::NullableVarHead);
                            }
                            self.b.entries[idx].eps.push(subst_reduce(e, 0, &p.reduce));
                        }
                    }
                }
                Ok(alpha)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::ContOp;

    fn seq(name: &'static str) -> SeqAction<String> {
        Arc::new(move |a, b| format!("{name}({a},{b})"))
    }

    fn map(name: &'static str) -> MapAction<String> {
        Arc::new(move |a| format!("{name}({a})"))
    }

    /// Runs a lowered continuation the way the staged VM does: the
    /// lead value is already pushed, each `Tail` pushes the next
    /// argument, every action works on the top of the stack.
    fn run_lowered(ops: &[ContOp<String>], args: &[String]) -> String {
        let mut st: Vec<String> = args.first().cloned().into_iter().collect();
        for op in ops {
            match op {
                ContOp::Tail(i) => st.push(args[*i as usize + 1].clone()),
                ContOp::User(f) => {
                    let b = st.pop().unwrap();
                    let a = st.pop().unwrap();
                    st.push(f(a, b));
                }
                ContOp::Map(f) => {
                    let v = st.pop().unwrap();
                    st.push(f(v));
                }
                ContOp::Eps(f) => st.push(f()),
            }
        }
        assert_eq!(st.len(), 1, "a lowered program leaves one value");
        st.pop().unwrap()
    }

    /// Lowers `r` and checks it computes what `Reduce::run` computes
    /// on distinct, order-revealing arguments; returns the shape.
    fn lowers_faithfully(r: &Reduce<String>) -> String {
        let args: Vec<String> = (0..r.arity()).map(|i| format!("v{i}")).collect();
        let mut st = args.clone();
        r.run(&mut st);
        let lowered = r.lower();
        assert_eq!(run_lowered(&lowered, &args), st[0], "program {r:?}");
        let tails: Vec<u16> = lowered
            .iter()
            .filter_map(|op| match op {
                ContOp::Tail(i) => Some(*i),
                _ => None,
            })
            .collect();
        let expected: Vec<u16> = (0..r.arity().saturating_sub(1)).collect();
        assert_eq!(tails, expected, "tail arguments in order, each once");
        format!("{lowered:?}")
    }

    #[test]
    fn seq_chains_lower_to_interleaved_post_order() {
        let mut r = Reduce::identity();
        for name in ["a", "b", "c", "d", "e"] {
            r = seq_reduce(r, seq(name));
            lowers_faithfully(&r);
        }
        // five appended values: rotations spanning 3..=6 all vanish
        assert!(r
            .ops()
            .iter()
            .any(|op| matches!(op, ReduceOp::RotR { span: 6 })));
        assert_eq!(
            lowers_faithfully(&r),
            "[Tail(0), User, Tail(1), User, Tail(2), User, Tail(3), User, Tail(4), User]"
        );
    }

    #[test]
    fn maps_inside_seq_lower_in_place() {
        // map over a seq whose result is then extended: the map runs
        // between the arguments it separates (the `Swap, Map, Swap`
        // shape)
        let inner = map_reduce(seq_reduce(Reduce::identity(), seq("a")), map("m"));
        let r = seq_reduce(map_reduce(inner, map("n")), seq("b"));
        assert_eq!(
            lowers_faithfully(&r),
            "[Tail(0), User, Map, Map, Tail(1), User]"
        );
        // a map on the lead value alone runs before any tail
        let lead = seq_reduce(map_reduce(Reduce::identity(), map("m")), seq("a"));
        assert_eq!(lowers_faithfully(&lead), "[Map, Tail(0), User]");
    }

    #[test]
    fn fix_substitution_with_outer_tail_lowers() {
        // inner production of arity 3 substituted into an α-production
        // with a two-nonterminal tail: RotL(5, 3) on entry
        let inner = seq_reduce(seq_reduce(Reduce::identity(), seq("a")), seq("b"));
        let outer = seq_reduce(seq_reduce(Reduce::identity(), seq("c")), seq("d"));
        let r = subst_reduce(&inner, 2, &outer);
        assert!(r
            .ops()
            .iter()
            .any(|op| matches!(op, ReduceOp::RotL { span: 5, by: 3 })));
        assert_eq!(
            lowers_faithfully(&r),
            "[Tail(0), User, Tail(1), User, Tail(2), User, Tail(3), User]"
        );
        // nested: the substituted program is itself substituted
        let outer2 = map_reduce(seq_reduce(Reduce::identity(), seq("e")), map("m"));
        let nested = subst_reduce(&r, 1, &outer2);
        lowers_faithfully(&nested);
        // empty outer tail: the programs simply concatenate
        lowers_faithfully(&subst_reduce(
            &inner,
            0,
            &map_reduce(Reduce::identity(), map("m")),
        ));
    }

    #[test]
    fn eps_programs_lower_to_eps_then_maps() {
        let e = Reduce::eps(Arc::new(|| "z".to_string()));
        let r = subst_reduce(
            &map_reduce(e, map("m")),
            0,
            &map_reduce(Reduce::identity(), map("n")),
        );
        assert_eq!(lowers_faithfully(&r), "[Eps, Map, Map]");
    }

    #[test]
    fn identity_lowers_to_nothing() {
        assert_eq!(lowers_faithfully(&Reduce::identity()), "[]");
    }
}
