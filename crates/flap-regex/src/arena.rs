//! Hash-consed regular expressions with canonicalizing smart
//! constructors, after Owens, Reppy & Turon, *Regular-expression
//! derivatives re-examined* (JFP 2009).
//!
//! Regexes are interned in a [`RegexArena`]; an interned regex is
//! identified by a small [`RegexId`]. Smart constructors apply the
//! *similarity* rules of Owens et al. (associativity, commutativity and
//! idempotence of `|` and `&`, unit/absorbing elements, `¬¬r = r`,
//! `(r*)* = r*`, …) so that the set of derivatives of any regex is
//! finite and small — the property that makes derivative-based DFA
//! construction practical (§2.3 of the flap paper).

use std::fmt;

use crate::byteset::ByteSet;
use crate::hash::IdMap;

/// Identifier of an interned regular expression within a
/// [`RegexArena`].
///
/// Ids are only meaningful relative to the arena that produced them.
/// Equal ids imply *similar* (structurally canonical-equal) regexes,
/// which in turn implies equal languages; the converse does not hold
/// (similarity is weaker than language equivalence — use
/// [`equivalent`](crate::equivalent) for the latter).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegexId(pub(crate) u32);

impl RegexId {
    /// The index of this id within its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RegexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The structure of an interned regular expression.
///
/// Invariants maintained by the smart constructors:
///
/// * `Class` sets are non-empty (`class(∅)` yields [`Node::Empty`]);
/// * `Seq` is right-nested: the left child is never itself a `Seq`;
/// * `Alt`/`And` children are sorted by id, duplicate-free, have at
///   least two elements, and contain no nested `Alt`/`And` (resp.),
///   no `Empty` (for `Alt`) and no top element `¬∅` (for `And`);
///   all `Class` children are merged into at most one;
/// * `Not` children are never themselves `Not`;
/// * `Star` children are never `Eps`, `Empty` or `Star`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// `⊥` — the empty language, matching nothing.
    Empty,
    /// `ε` — the language containing only the empty string.
    Eps,
    /// A single byte drawn from a non-empty set.
    Class(ByteSet),
    /// Concatenation `r·s`.
    Seq(RegexId, RegexId),
    /// Alternation `r₁ | r₂ | …` (n-ary, canonically ordered).
    Alt(Box<[RegexId]>),
    /// Intersection `r₁ & r₂ & …` (n-ary, canonically ordered).
    And(Box<[RegexId]>),
    /// Complement `¬r`.
    Not(RegexId),
    /// Kleene star `r*`.
    Star(RegexId),
}

/// An interning arena for regular expressions.
///
/// All regex construction, nullability queries and derivative-taking
/// go through an arena. Construction is hash-consed: building the same
/// (canonicalized) regex twice returns the same [`RegexId`], and
/// derivatives are memoized per `(regex, byte)` pair.
///
/// # Examples
///
/// ```
/// use flap_regex::{ByteSet, RegexArena};
///
/// let mut ar = RegexArena::new();
/// let ident = {
///     let lower = ar.class(ByteSet::range(b'a', b'z'));
///     ar.plus(lower) // [a-z]+
/// };
/// assert!(!ar.nullable(ident));
/// let d = ar.deriv(ident, b'q'); // ∂_q [a-z]+ = [a-z]*
/// assert!(ar.nullable(d));
/// ```
#[derive(Debug)]
pub struct RegexArena {
    nodes: Vec<Node>,
    nullable: Vec<bool>,
    interned: IdMap<Node, RegexId>,
    deriv_memo: IdMap<(RegexId, u8), RegexId>,
}

impl RegexArena {
    /// Creates an arena pre-populated with `⊥` and `ε`.
    pub fn new() -> Self {
        let mut arena = RegexArena {
            nodes: Vec::new(),
            nullable: Vec::new(),
            interned: IdMap::default(),
            deriv_memo: IdMap::default(),
        };
        let empty = arena.intern(Node::Empty);
        let eps = arena.intern(Node::Eps);
        debug_assert_eq!(empty, RegexArena::EMPTY);
        debug_assert_eq!(eps, RegexArena::EPS);
        arena
    }

    /// The id of `⊥` in every arena.
    pub const EMPTY: RegexId = RegexId(0);
    /// The id of `ε` in every arena.
    pub const EPS: RegexId = RegexId(1);

    /// Number of distinct interned regexes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena holds only the two pre-interned constants.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The structure of an interned regex.
    pub fn node(&self, id: RegexId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Nullability `ν(r)`: does `r` match the empty string?
    #[inline]
    pub fn nullable(&self, id: RegexId) -> bool {
        self.nullable[id.index()]
    }

    fn intern(&mut self, node: Node) -> RegexId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let nullable = match &node {
            Node::Empty => false,
            Node::Eps => true,
            Node::Class(_) => false,
            Node::Seq(a, b) => self.nullable(*a) && self.nullable(*b),
            Node::Alt(xs) => xs.iter().any(|x| self.nullable(*x)),
            Node::And(xs) => xs.iter().all(|x| self.nullable(*x)),
            Node::Not(a) => !self.nullable(*a),
            Node::Star(_) => true,
        };
        let id = RegexId(u32::try_from(self.nodes.len()).expect("regex arena overflow"));
        self.nodes.push(node.clone());
        self.nullable.push(nullable);
        self.interned.insert(node, id);
        id
    }

    // ---- smart constructors -------------------------------------------------

    /// `⊥`, the regex matching nothing.
    pub fn empty(&mut self) -> RegexId {
        Self::EMPTY
    }

    /// `ε`, the regex matching only the empty string.
    pub fn eps(&mut self) -> RegexId {
        Self::EPS
    }

    /// The top regex `¬⊥`, matching every string.
    pub fn top(&mut self) -> RegexId {
        self.not(Self::EMPTY)
    }

    /// A single byte from `set`. The empty set yields `⊥`.
    pub fn class(&mut self, set: ByteSet) -> RegexId {
        if set.is_empty() {
            Self::EMPTY
        } else {
            self.intern(Node::Class(set))
        }
    }

    /// The single byte `b`.
    pub fn byte(&mut self, b: u8) -> RegexId {
        self.class(ByteSet::single(b))
    }

    /// The literal byte string `s` (i.e. the concatenation of its
    /// bytes). The empty string yields `ε`.
    pub fn literal(&mut self, s: &[u8]) -> RegexId {
        let mut acc = Self::EPS;
        for &b in s.iter().rev() {
            let c = self.byte(b);
            acc = self.seq(c, acc);
        }
        acc
    }

    /// The bytes of `id` when it is a non-empty literal as
    /// [`RegexArena::literal`] builds one: a single-byte class, or a
    /// right-nested chain of them. `None` for every other shape.
    pub fn literal_bytes(&self, id: RegexId) -> Option<Vec<u8>> {
        let mut bytes = Vec::new();
        let mut at = id;
        loop {
            let (head, rest) = match *self.node(at) {
                Node::Seq(head, rest) => (head, Some(rest)),
                _ => (at, None),
            };
            match self.node(head) {
                Node::Class(set) if set.len() == 1 => bytes.push(set.min_byte()?),
                _ => return None,
            }
            match rest {
                Some(rest) => at = rest,
                None => return Some(bytes),
            }
        }
    }

    /// Concatenation `a·b`, right-nested and with `ε`/`⊥` simplified
    /// away.
    pub fn seq(&mut self, a: RegexId, b: RegexId) -> RegexId {
        if a == Self::EMPTY || b == Self::EMPTY {
            return Self::EMPTY;
        }
        if a == Self::EPS {
            return b;
        }
        if b == Self::EPS {
            return a;
        }
        // Re-associate to the right: (x·y)·b = x·(y·b).
        if let Node::Seq(x, y) = *self.node(a) {
            let yb = self.seq(y, b);
            return self.seq(x, yb);
        }
        self.intern(Node::Seq(a, b))
    }

    /// Concatenation of a sequence of regexes.
    pub fn seq_all(&mut self, ids: &[RegexId]) -> RegexId {
        let mut acc = Self::EPS;
        for &id in ids.iter().rev() {
            acc = self.seq(id, acc);
        }
        acc
    }

    /// Alternation `a | b`, flattened, sorted, deduplicated, with
    /// classes merged and `⊥`/top simplified away.
    pub fn alt(&mut self, a: RegexId, b: RegexId) -> RegexId {
        self.alt_all(&[a, b])
    }

    /// N-ary alternation.
    pub fn alt_all(&mut self, ids: &[RegexId]) -> RegexId {
        let mut parts: Vec<RegexId> = Vec::new();
        let mut classes = ByteSet::EMPTY;
        let top = self.top();
        let mut stack: Vec<RegexId> = ids.to_vec();
        while let Some(id) = stack.pop() {
            if id == Self::EMPTY {
                continue;
            }
            if id == top {
                return top;
            }
            match self.node(id) {
                Node::Alt(xs) => stack.extend(xs.iter().copied()),
                Node::Class(s) => classes = classes.union(s),
                _ => parts.push(id),
            }
        }
        if !classes.is_empty() {
            let c = self.class(classes);
            parts.push(c);
        }
        parts.sort_unstable();
        parts.dedup();
        match parts.len() {
            0 => Self::EMPTY,
            1 => parts[0],
            _ => self.intern(Node::Alt(parts.into_boxed_slice())),
        }
    }

    /// Intersection `a & b`, flattened, sorted, deduplicated, with
    /// classes merged and `⊥`/top simplified away.
    pub fn and(&mut self, a: RegexId, b: RegexId) -> RegexId {
        self.and_all(&[a, b])
    }

    /// N-ary intersection.
    pub fn and_all(&mut self, ids: &[RegexId]) -> RegexId {
        let mut parts: Vec<RegexId> = Vec::new();
        let mut classes: Option<ByteSet> = None;
        let top = self.top();
        let mut stack: Vec<RegexId> = ids.to_vec();
        while let Some(id) = stack.pop() {
            if id == Self::EMPTY {
                return Self::EMPTY;
            }
            if id == top {
                continue;
            }
            match self.node(id) {
                Node::And(xs) => stack.extend(xs.iter().copied()),
                Node::Class(s) => {
                    let merged = match classes {
                        Some(prev) => prev.intersect(s),
                        None => *s,
                    };
                    classes = Some(merged);
                }
                _ => parts.push(id),
            }
        }
        if let Some(s) = classes {
            if s.is_empty() {
                // Intersecting disjoint classes: no single byte matches.
                return Self::EMPTY;
            }
            let c = self.class(s);
            parts.push(c);
        }
        parts.sort_unstable();
        parts.dedup();
        match parts.len() {
            0 => top,
            1 => parts[0],
            _ => self.intern(Node::And(parts.into_boxed_slice())),
        }
    }

    /// Complement `¬a`, with `¬¬a = a`.
    pub fn not(&mut self, a: RegexId) -> RegexId {
        if let Node::Not(inner) = *self.node(a) {
            return inner;
        }
        self.intern(Node::Not(a))
    }

    /// Set difference `a \ b = a & ¬b`.
    pub fn minus(&mut self, a: RegexId, b: RegexId) -> RegexId {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// Kleene star `a*`, with `ε* = ⊥* = ε` and `(a*)* = a*`.
    pub fn star(&mut self, a: RegexId) -> RegexId {
        if a == Self::EPS || a == Self::EMPTY {
            return Self::EPS;
        }
        if matches!(self.node(a), Node::Star(_)) {
            return a;
        }
        self.intern(Node::Star(a))
    }

    /// One-or-more repetitions `a+ = a·a*`.
    pub fn plus(&mut self, a: RegexId) -> RegexId {
        let s = self.star(a);
        self.seq(a, s)
    }

    /// Optional `a? = a | ε`.
    pub fn opt(&mut self, a: RegexId) -> RegexId {
        self.alt(a, Self::EPS)
    }

    // ---- derivatives --------------------------------------------------------

    /// The Brzozowski derivative `∂_b r`: the regex matching `s`
    /// exactly when `r` matches `b·s`. Memoized.
    pub fn deriv(&mut self, id: RegexId, b: u8) -> RegexId {
        if let Some(&d) = self.deriv_memo.get(&(id, b)) {
            return d;
        }
        let d = match self.node(id).clone() {
            Node::Empty | Node::Eps => Self::EMPTY,
            Node::Class(s) => {
                if s.contains(b) {
                    Self::EPS
                } else {
                    Self::EMPTY
                }
            }
            Node::Seq(r, s) => {
                let dr = self.deriv(r, b);
                let drs = self.seq(dr, s);
                if self.nullable(r) {
                    let ds = self.deriv(s, b);
                    self.alt(drs, ds)
                } else {
                    drs
                }
            }
            Node::Alt(xs) => {
                let ds: Vec<RegexId> = xs.iter().map(|&x| self.deriv(x, b)).collect();
                self.alt_all(&ds)
            }
            Node::And(xs) => {
                let ds: Vec<RegexId> = xs.iter().map(|&x| self.deriv(x, b)).collect();
                self.and_all(&ds)
            }
            Node::Not(r) => {
                let dr = self.deriv(r, b);
                self.not(dr)
            }
            Node::Star(r) => {
                let dr = self.deriv(r, b);
                let again = self.star(r);
                self.seq(dr, again)
            }
        };
        self.deriv_memo.insert((id, b), d);
        d
    }

    /// The derivative with respect to a whole byte string:
    /// `∂_{w₀} … ∂_{wₙ} r`.
    pub fn deriv_str(&mut self, id: RegexId, w: &[u8]) -> RegexId {
        w.iter().fold(id, |r, &b| self.deriv(r, b))
    }

    /// Whether `r` matches the byte string `w` exactly, decided by
    /// iterated derivatives (`ν(∂_w r)`).
    pub fn matches(&mut self, id: RegexId, w: &[u8]) -> bool {
        let d = self.deriv_str(id, w);
        self.nullable(d)
    }
}

impl Default for RegexArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar() -> RegexArena {
        RegexArena::new()
    }

    #[test]
    fn constants() {
        let mut a = ar();
        assert_eq!(a.empty(), RegexArena::EMPTY);
        assert_eq!(a.eps(), RegexArena::EPS);
        assert!(!a.nullable(RegexArena::EMPTY));
        assert!(a.nullable(RegexArena::EPS));
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut a = ar();
        let x = a.byte(b'x');
        let y = a.byte(b'x');
        assert_eq!(x, y);
        let s1 = a.seq(x, y);
        let s2 = a.seq(x, y);
        assert_eq!(s1, s2);
    }

    #[test]
    fn seq_units_and_absorption() {
        let mut a = ar();
        let x = a.byte(b'x');
        assert_eq!(a.seq(RegexArena::EPS, x), x);
        assert_eq!(a.seq(x, RegexArena::EPS), x);
        assert_eq!(a.seq(RegexArena::EMPTY, x), RegexArena::EMPTY);
        assert_eq!(a.seq(x, RegexArena::EMPTY), RegexArena::EMPTY);
    }

    #[test]
    fn seq_right_associates() {
        let mut a = ar();
        let (x, y, z) = (a.byte(b'x'), a.byte(b'y'), a.byte(b'z'));
        let xy = a.seq(x, y);
        let left = a.seq(xy, z);
        let yz = a.seq(y, z);
        let right = a.seq(x, yz);
        assert_eq!(left, right);
        assert!(matches!(a.node(left), Node::Seq(h, _) if *h == x));
    }

    #[test]
    fn alt_is_acui() {
        // associative, commutative, unit ⊥, idempotent
        let mut a = ar();
        let x = a.byte(b'x');
        let y = a.byte(b'y');
        let xs = a.star(x);
        let ys = a.star(y);
        let l = a.alt(xs, ys);
        let r = a.alt(ys, xs);
        assert_eq!(l, r);
        assert_eq!(a.alt(xs, xs), xs);
        assert_eq!(a.alt(xs, RegexArena::EMPTY), xs);
        let nested_l = a.alt(xs, ys);
        let eps = a.eps();
        let n1 = a.alt(nested_l, eps);
        let nested_r = a.alt(ys, eps);
        let n2 = a.alt(xs, nested_r);
        assert_eq!(n1, n2);
    }

    #[test]
    fn alt_merges_classes() {
        let mut a = ar();
        let lo = a.class(ByteSet::range(b'a', b'm'));
        let hi = a.class(ByteSet::range(b'n', b'z'));
        let both = a.alt(lo, hi);
        let direct = a.class(ByteSet::range(b'a', b'z'));
        assert_eq!(both, direct);
    }

    #[test]
    fn and_laws() {
        let mut a = ar();
        let x = a.byte(b'x');
        let xs = a.star(x);
        let top = a.top();
        assert_eq!(a.and(xs, top), xs);
        assert_eq!(a.and(xs, RegexArena::EMPTY), RegexArena::EMPTY);
        assert_eq!(a.and(xs, xs), xs);
        // Disjoint classes intersect to ⊥.
        let p = a.byte(b'p');
        let q = a.byte(b'q');
        assert_eq!(a.and(p, q), RegexArena::EMPTY);
    }

    #[test]
    fn not_involution_and_top() {
        let mut a = ar();
        let x = a.byte(b'x');
        let nx = a.not(x);
        assert_eq!(a.not(nx), x);
        let top = a.top();
        assert!(a.nullable(top));
    }

    #[test]
    fn star_laws() {
        let mut a = ar();
        let x = a.byte(b'x');
        let s = a.star(x);
        assert_eq!(a.star(s), s);
        assert_eq!(a.star(RegexArena::EPS), RegexArena::EPS);
        assert_eq!(a.star(RegexArena::EMPTY), RegexArena::EPS);
        assert!(a.nullable(s));
    }

    #[test]
    fn literal_matching() {
        let mut a = ar();
        let lit = a.literal(b"abc");
        assert!(a.matches(lit, b"abc"));
        assert!(!a.matches(lit, b"ab"));
        assert!(!a.matches(lit, b"abcd"));
        assert!(!a.matches(lit, b""));
        let e = a.literal(b"");
        assert_eq!(e, RegexArena::EPS);
    }

    #[test]
    fn literal_bytes_reads_back_literals_only() {
        let mut a = ar();
        let abc = a.literal(b"abc");
        assert_eq!(a.literal_bytes(abc), Some(b"abc".to_vec()));
        let x = a.byte(b'x');
        assert_eq!(a.literal_bytes(x), Some(b"x".to_vec()));
        assert_eq!(a.literal_bytes(RegexArena::EPS), None);
        assert_eq!(a.literal_bytes(RegexArena::EMPTY), None);
        let xy = a.class(ByteSet::from_bytes(b"xy"));
        let tail = a.seq(x, xy);
        assert_eq!(a.literal_bytes(tail), None, "a two-byte class ends it");
        let xs = a.star(x);
        let starred = a.seq(x, xs);
        assert_eq!(a.literal_bytes(starred), None);
    }

    #[test]
    fn derivative_basics() {
        let mut a = ar();
        let x = a.byte(b'x');
        assert_eq!(a.deriv(x, b'x'), RegexArena::EPS);
        assert_eq!(a.deriv(x, b'y'), RegexArena::EMPTY);
        assert_eq!(a.deriv(RegexArena::EPS, b'x'), RegexArena::EMPTY);
        assert_eq!(a.deriv(RegexArena::EMPTY, b'x'), RegexArena::EMPTY);
    }

    #[test]
    fn derivative_seq_nullable_head() {
        // ∂_b (x?·b) must include the ∂ of the tail.
        let mut a = ar();
        let x = a.byte(b'x');
        let ox = a.opt(x);
        let b = a.byte(b'b');
        let r = a.seq(ox, b);
        assert!(a.matches(r, b"b"));
        assert!(a.matches(r, b"xb"));
        assert!(!a.matches(r, b"x"));
    }

    #[test]
    fn derivative_star_and_plus() {
        let mut a = ar();
        let d = a.class(ByteSet::range(b'0', b'9'));
        let num = a.plus(d);
        assert!(a.matches(num, b"7"));
        assert!(a.matches(num, b"123456"));
        assert!(!a.matches(num, b""));
        assert!(!a.matches(num, b"12a"));
    }

    #[test]
    fn derivative_not_and_intersection() {
        let mut a = ar();
        let lower = a.class(ByteSet::range(b'a', b'z'));
        let word = a.plus(lower);
        let kw = a.literal(b"if");
        // identifiers that are not the keyword "if"
        let ident = a.minus(word, kw);
        assert!(a.matches(ident, b"ifx"));
        assert!(a.matches(ident, b"i"));
        assert!(!a.matches(ident, b"if"));
        // intersection: strings in both a+ and (length-2 strings)
        let any = a.class(ByteSet::ALL);
        let two = a.seq(any, any);
        let aplus = {
            let ca = a.byte(b'a');
            a.plus(ca)
        };
        let both = a.and(aplus, two);
        assert!(a.matches(both, b"aa"));
        assert!(!a.matches(both, b"a"));
        assert!(!a.matches(both, b"aaa"));
        assert!(!a.matches(both, b"ab"));
    }

    #[test]
    fn derivatives_stay_finite() {
        // With smart constructors the derivative closure of a modest
        // regex must stay small (Owens et al., Theorem 4.3 analogue).
        let mut a = ar();
        let d = a.class(ByteSet::range(b'0', b'9'));
        let dot = a.byte(b'.');
        let int = a.plus(d);
        let frac = a.seq(dot, int);
        let of = a.opt(frac);
        let num = a.seq(int, of);
        let mut states = vec![num];
        let mut seen = std::collections::HashSet::new();
        seen.insert(num);
        while let Some(r) = states.pop() {
            for b in [b'0', b'5', b'9', b'.', b'x'] {
                let dr = a.deriv(r, b);
                if seen.insert(dr) {
                    states.push(dr);
                }
            }
        }
        assert!(
            seen.len() < 16,
            "derivative closure too large: {}",
            seen.len()
        );
    }
}
