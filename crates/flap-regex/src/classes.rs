//! Approximate derivative classes (Owens et al. §4.2).
//!
//! Two bytes `a`, `b` are *derivative-equivalent* for a regex `r` when
//! `∂_a r = ∂_b r`. Computing one derivative per equivalence class —
//! instead of one per byte — is what keeps DFA construction and flap's
//! staged code generation small (§5.5 of the flap paper: "flap
//! generates a smaller number of cases by grouping characters with
//! equivalent behaviour into classes").
//!
//! The classes computed here are the standard conservative
//! approximation: they may split finer than true derivative
//! equivalence but never coarser, so using one representative per
//! class is always sound.

use crate::arena::{Node, RegexArena, RegexId};
use crate::byteset::ByteSet;
use crate::hash::IdMap;

/// A partition of the byte alphabet into disjoint, covering,
/// non-empty [`ByteSet`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    sets: Vec<ByteSet>,
}

impl Partition {
    /// The trivial partition `{Σ}`.
    pub fn trivial() -> Self {
        Partition {
            sets: vec![ByteSet::ALL],
        }
    }

    /// The partition `{S, Σ∖S}` induced by a single set (empty halves
    /// dropped).
    pub fn of_set(s: ByteSet) -> Self {
        let mut sets = Vec::with_capacity(2);
        if !s.is_empty() {
            sets.push(s);
        }
        let c = s.complement();
        if !c.is_empty() {
            sets.push(c);
        }
        Partition { sets }
    }

    /// The coarsest common refinement of two partitions (pairwise
    /// intersections, empties dropped).
    pub fn meet(&self, other: &Partition) -> Partition {
        if self.sets.len() == 1 {
            return other.clone();
        }
        if other.sets.len() == 1 {
            return self.clone();
        }
        let mut sets = Vec::with_capacity(self.sets.len() + other.sets.len());
        for a in &self.sets {
            for b in &other.sets {
                let i = a.intersect(b);
                if !i.is_empty() {
                    sets.push(i);
                }
            }
        }
        Partition { sets }
    }

    /// The classes of the partition.
    pub fn sets(&self) -> &[ByteSet] {
        &self.sets
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// A partition always covers Σ, so it is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over `(representative byte, class)` pairs.
    pub fn reps(&self) -> impl Iterator<Item = (u8, &ByteSet)> {
        self.sets
            .iter()
            .map(|s| (s.min_byte().expect("partition classes are non-empty"), s))
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let mut union = ByteSet::EMPTY;
        for (i, a) in self.sets.iter().enumerate() {
            assert!(!a.is_empty(), "empty class in partition");
            for b in &self.sets[i + 1..] {
                assert!(a.is_disjoint(b), "overlapping classes in partition");
            }
            union = union.union(a);
        }
        assert!(union.is_all(), "partition does not cover the alphabet");
    }
}

/// A memo table for derivative classes, keyed by [`RegexId`].
///
/// Separate from the [`RegexArena`] so that callers can scope the
/// cache to a compilation session.
#[derive(Default, Debug)]
pub struct ClassCache {
    memo: IdMap<RegexId, Partition>,
}

impl ClassCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The approximate derivative classes `C(r)`.
    ///
    /// Guarantee: for every class `S ∈ C(r)` and bytes `a, b ∈ S`,
    /// `∂_a r = ∂_b r`.
    pub fn classes(&mut self, ar: &RegexArena, id: RegexId) -> Partition {
        if let Some(p) = self.memo.get(&id) {
            return p.clone();
        }
        let p = match ar.node(id).clone() {
            Node::Empty | Node::Eps => Partition::trivial(),
            Node::Class(s) => Partition::of_set(s),
            Node::Seq(r, s) => {
                let cr = self.classes(ar, r);
                if ar.nullable(r) {
                    let cs = self.classes(ar, s);
                    cr.meet(&cs)
                } else {
                    cr
                }
            }
            Node::Alt(xs) | Node::And(xs) => {
                let mut acc = Partition::trivial();
                for x in xs.iter() {
                    let cx = self.classes(ar, *x);
                    acc = acc.meet(&cx);
                }
                acc
            }
            Node::Not(r) | Node::Star(r) => self.classes(ar, r),
        };
        self.memo.insert(id, p.clone());
        p
    }

    /// The common refinement of the derivative classes of several
    /// regexes — the classes of a whole lexer/parser state.
    pub fn classes_of_vector(&mut self, ar: &RegexArena, ids: &[RegexId]) -> Partition {
        let mut acc = Partition::trivial();
        for &id in ids {
            let c = self.classes(ar, id);
            acc = acc.meet(&c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_and_of_set() {
        Partition::trivial().check_invariants();
        let p = Partition::of_set(ByteSet::range(b'a', b'z'));
        p.check_invariants();
        assert_eq!(p.len(), 2);
        let q = Partition::of_set(ByteSet::ALL);
        q.check_invariants();
        assert_eq!(q.len(), 1);
        let r = Partition::of_set(ByteSet::EMPTY);
        r.check_invariants();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn meet_refines() {
        let a = Partition::of_set(ByteSet::range(0, 99));
        let b = Partition::of_set(ByteSet::range(50, 149));
        let m = a.meet(&b);
        m.check_invariants();
        assert_eq!(m.len(), 4); // [0,49] [50,99] [100,149] [150,255]
    }

    #[test]
    fn classes_agree_with_derivatives() {
        // For every class, all members must give the same derivative.
        let mut ar = RegexArena::new();
        let mut cache = ClassCache::new();
        let d = ar.class(ByteSet::range(b'0', b'9'));
        let dot = ar.byte(b'.');
        let frac = {
            let i = ar.plus(d);
            ar.seq(dot, i)
        };
        let int = ar.plus(d);
        let of = ar.opt(frac);
        let num = ar.seq(int, of);
        // include a boolean-algebra node too
        let kw = ar.literal(b"nan");
        let r = {
            let n = ar.not(kw);
            ar.and(num, n)
        };
        for target in [num, frac, r] {
            let p = cache.classes(&ar, target);
            p.check_invariants();
            for set in p.sets() {
                let rep = set.min_byte().unwrap();
                let dr = ar.deriv(target, rep);
                for b in set.iter() {
                    assert_eq!(
                        ar.deriv(target, b),
                        dr,
                        "class member disagrees at byte {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_classes_refine_each_component() {
        let mut ar = RegexArena::new();
        let mut cache = ClassCache::new();
        let lower = ar.class(ByteSet::range(b'a', b'z'));
        let word = ar.plus(lower);
        let lp = ar.byte(b'(');
        let p = cache.classes_of_vector(&ar, &[word, lp]);
        p.check_invariants();
        // each class must be uniform for both regexes
        for set in p.sets() {
            let rep = set.min_byte().unwrap();
            for r in [word, lp] {
                let dr = ar.deriv(r, rep);
                for b in set.iter() {
                    assert_eq!(ar.deriv(r, b), dr);
                }
            }
        }
    }
}
