//! DFA construction from regex derivatives, plus the language-level
//! decision procedures built on it (emptiness, equivalence).
//!
//! Following Brzozowski (1964) and Owens et al. (2009), the states of
//! the automaton for `r` are the iterated derivatives of `r`, with a
//! transition `r —c→ ∂_c r` for each byte `c`; a state is accepting
//! when its regex is nullable. Smart-constructor canonicalization in
//! [`RegexArena`] keeps the state set finite.

use std::collections::HashMap;

use crate::arena::{RegexArena, RegexId};
use crate::classes::ClassCache;
use crate::hash::IdSet;

/// A dense deterministic finite automaton for a single regex.
///
/// # Examples
///
/// ```
/// use flap_regex::{ByteSet, Dfa, RegexArena};
///
/// let mut ar = RegexArena::new();
/// let ab = ar.literal(b"ab");
/// let r = ar.star(ab); // (ab)*
/// let dfa = Dfa::build(&mut ar, r);
/// assert!(dfa.matches(b""));
/// assert!(dfa.matches(b"abab"));
/// assert!(!dfa.matches(b"aba"));
/// ```
#[derive(Debug, Clone)]
pub struct Dfa {
    states: Vec<DfaState>,
}

/// One state of a [`Dfa`].
#[derive(Debug, Clone)]
pub struct DfaState {
    /// The derivative regex this state stands for.
    pub regex: RegexId,
    /// Whether the state's regex is nullable.
    pub accepting: bool,
    /// Dense successor table: `next[b]` is the state reached on byte
    /// `b`.
    pub next: Box<[u32; 256]>,
}

impl Dfa {
    /// Builds the derivative DFA of `start`.
    ///
    /// One derivative is computed per approximate character class per
    /// state, and the result is total: every state has a successor on
    /// every byte (the `⊥` state acts as the sink).
    pub fn build(ar: &mut RegexArena, start: RegexId) -> Dfa {
        let mut cache = ClassCache::new();
        let mut ids: HashMap<RegexId, u32> = HashMap::new();
        let mut states: Vec<DfaState> = Vec::new();
        let mut worklist: Vec<RegexId> = Vec::new();

        let get_state = |r: RegexId,
                         states: &mut Vec<DfaState>,
                         worklist: &mut Vec<RegexId>,
                         ar: &RegexArena,
                         ids: &mut HashMap<RegexId, u32>| {
            *ids.entry(r).or_insert_with(|| {
                let id = states.len() as u32;
                states.push(DfaState {
                    regex: r,
                    accepting: ar.nullable(r),
                    next: Box::new([0; 256]),
                });
                worklist.push(r);
                id
            })
        };

        get_state(start, &mut states, &mut worklist, ar, &mut ids);
        while let Some(r) = worklist.pop() {
            let src = ids[&r];
            let part = cache.classes(ar, r);
            let mut table = Box::new([0u32; 256]);
            for set in part.sets() {
                let rep = set.min_byte().expect("partition classes are non-empty");
                let d = ar.deriv(r, rep);
                let dst = get_state(d, &mut states, &mut worklist, ar, &mut ids);
                for b in set.iter() {
                    table[b as usize] = dst;
                }
            }
            states[src as usize].next = table;
        }
        Dfa { states }
    }

    /// The states of the automaton; state 0 is the start state.
    pub fn states(&self) -> &[DfaState] {
        &self.states
    }

    /// Number of states (including the sink, if reachable).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// A DFA always has at least the start state.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Runs the automaton on `input`, returning whether it ends in an
    /// accepting state (exact whole-string match).
    pub fn matches(&self, input: &[u8]) -> bool {
        let mut st = 0u32;
        for &b in input {
            st = self.states[st as usize].next[b as usize];
        }
        self.states[st as usize].accepting
    }

    /// Length of the longest prefix of `input` matched by the regex,
    /// or `None` if no prefix (not even the empty one) matches.
    pub fn longest_match(&self, input: &[u8]) -> Option<usize> {
        let mut st = 0u32;
        let mut best = if self.states[0].accepting {
            Some(0)
        } else {
            None
        };
        for (i, &b) in input.iter().enumerate() {
            st = self.states[st as usize].next[b as usize];
            if self.states[st as usize].accepting {
                best = Some(i + 1);
            }
        }
        best
    }
}

/// Decides whether `r` denotes the empty language.
///
/// Explores the derivative closure of `r`; the language is empty
/// exactly when no nullable derivative is reachable. Needed by lexer
/// canonicalization, where subtraction (`r & ¬s`) can produce regexes
/// that are empty as languages without being the canonical `⊥`. For
/// many queries against one arena, reuse one [`EmptinessCheck`].
pub fn is_empty_lang(ar: &mut RegexArena, r: RegexId) -> bool {
    EmptinessCheck::new().is_empty(ar, r)
}

/// Scratch state for a run of [`is_empty_lang`] queries against one
/// arena: one derivative-class memo, so each regex's classes are
/// computed once across all queries, and one visited set and work
/// stack, whose allocations are reused.
///
/// The visited set is cleared per query: a query that finds a
/// nullable derivative stops early and leaves states on it whose
/// languages were never decided.
#[derive(Debug, Default)]
pub struct EmptinessCheck {
    cache: ClassCache,
    seen: IdSet<RegexId>,
    stack: Vec<RegexId>,
}

impl EmptinessCheck {
    /// A check with an empty class memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `r` denotes the empty language, as [`is_empty_lang`].
    /// `ar` must be the arena of every earlier query.
    pub fn is_empty(&mut self, ar: &mut RegexArena, r: RegexId) -> bool {
        self.seen.clear();
        self.stack.clear();
        self.stack.push(r);
        while let Some(x) = self.stack.pop() {
            if !self.seen.insert(x) {
                continue;
            }
            if ar.nullable(x) {
                return false;
            }
            for set in self.cache.classes(ar, x).sets() {
                let rep = set.min_byte().expect("partition classes are non-empty");
                let d = ar.deriv(x, rep);
                if d != RegexArena::EMPTY {
                    self.stack.push(d);
                }
            }
        }
        true
    }
}

/// Decides language equivalence of two regexes by exploring the
/// product of their derivative closures (a Hopcroft–Karp-style
/// bisimulation check).
pub fn equivalent(ar: &mut RegexArena, a: RegexId, b: RegexId) -> bool {
    let mut cache = ClassCache::new();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![(a, b)];
    while let Some((x, y)) = stack.pop() {
        if x == y || !seen.insert((x, y)) {
            continue;
        }
        if ar.nullable(x) != ar.nullable(y) {
            return false;
        }
        let part = cache.classes(ar, x).meet(&cache.classes(ar, y));
        for set in part.sets() {
            let rep = set.min_byte().expect("partition classes are non-empty");
            stack.push((ar.deriv(x, rep), ar.deriv(y, rep)));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteset::ByteSet;

    #[test]
    fn dfa_matches_simple() {
        let mut ar = RegexArena::new();
        let lower = ar.class(ByteSet::range(b'a', b'z'));
        let word = ar.plus(lower);
        let dfa = Dfa::build(&mut ar, word);
        assert!(dfa.matches(b"hello"));
        assert!(!dfa.matches(b""));
        assert!(!dfa.matches(b"hello!"));
        // [a-z]+ needs only a couple of live states plus the sink
        assert!(dfa.len() <= 3, "too many states: {}", dfa.len());
    }

    #[test]
    fn dfa_agrees_with_derivative_matching() {
        let mut ar = RegexArena::new();
        let d = ar.class(ByteSet::range(b'0', b'9'));
        let int = ar.plus(d);
        let dot = ar.byte(b'.');
        let tail = ar.seq(dot, int);
        let ot = ar.opt(tail);
        let num = ar.seq(int, ot);
        let dfa = Dfa::build(&mut ar, num);
        for w in [
            &b"1"[..],
            b"12.5",
            b"",
            b".",
            b"3.",
            b"3.14159",
            b"00.00",
            b"1a",
            b"a",
        ] {
            assert_eq!(
                dfa.matches(w),
                ar.matches(num, w),
                "disagreement on {:?}",
                w
            );
        }
    }

    #[test]
    fn longest_match_prefers_longer() {
        let mut ar = RegexArena::new();
        let a = ar.byte(b'a');
        let aa = ar.literal(b"aa");
        let r = ar.alt(a, aa); // a | aa
        let dfa = Dfa::build(&mut ar, r);
        assert_eq!(dfa.longest_match(b"aaa"), Some(2));
        assert_eq!(dfa.longest_match(b"ab"), Some(1));
        assert_eq!(dfa.longest_match(b"b"), None);
        let st = ar.star(a);
        let dfa2 = Dfa::build(&mut ar, st);
        assert_eq!(dfa2.longest_match(b"b"), Some(0));
    }

    #[test]
    fn emptiness() {
        let mut ar = RegexArena::new();
        assert!(is_empty_lang(&mut ar, RegexArena::EMPTY));
        assert!(!is_empty_lang(&mut ar, RegexArena::EPS));
        let x = ar.byte(b'x');
        assert!(!is_empty_lang(&mut ar, x));
        // x & x+x is empty (length 1 vs length 2)
        let xx = ar.literal(b"xx");
        let both = ar.and(x, xx);
        assert!(is_empty_lang(&mut ar, both));
        // subtraction of a superset is empty: [a-z] \ .
        let lower = ar.class(ByteSet::range(b'a', b'z'));
        let any = ar.class(ByteSet::ALL);
        let m = ar.minus(lower, any);
        assert!(is_empty_lang(&mut ar, m));
    }

    #[test]
    fn equivalence_laws() {
        let mut ar = RegexArena::new();
        let a = ar.byte(b'a');
        let b = ar.byte(b'b');
        // (a|b)* ≡ (a* b*)*
        let alt = ar.alt(a, b);
        let lhs = ar.star(alt);
        let astar = ar.star(a);
        let bstar = ar.star(b);
        let cat = ar.seq(astar, bstar);
        let rhs = ar.star(cat);
        assert!(equivalent(&mut ar, lhs, rhs));
        // a·(b|ε) ≡ ab | a
        let ob = ar.opt(b);
        let l2 = ar.seq(a, ob);
        let ab = ar.literal(b"ab");
        let r2 = ar.alt(ab, a);
        assert!(equivalent(&mut ar, l2, r2));
        // inequivalent pair
        assert!(!equivalent(&mut ar, a, b));
        let aplus = ar.plus(a);
        assert!(!equivalent(&mut ar, astar, aplus));
    }

    #[test]
    fn equivalence_with_boolean_ops() {
        let mut ar = RegexArena::new();
        // ¬¬r ≡ r at the language level even without syntactic collapse
        let lower = ar.class(ByteSet::range(b'a', b'z'));
        let word = ar.plus(lower);
        let n = ar.not(word);
        let nn = ar.not(n);
        assert!(equivalent(&mut ar, nn, word));
        // De Morgan: ¬(a|b) ≡ ¬a & ¬b
        let a = ar.byte(b'a');
        let b = ar.byte(b'b');
        let aorb = ar.alt(a, b);
        let l = ar.not(aorb);
        let na = ar.not(a);
        let nb = ar.not(b);
        let r = ar.and(na, nb);
        assert!(equivalent(&mut ar, l, r));
    }
}
