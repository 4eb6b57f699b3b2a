//! Context-free expressions with semantic actions — flap's parser
//! combinator surface (§2.1 of the paper).
//!
//! A [`Cfe<V>`] denotes a language over tokens together with a
//! semantic value of type `V` for every parse. The constructors
//! mirror Fig 3a:
//!
//! ```text
//! g ::= ⊥ | ε | t | α | g₁·g₂ | g₁ ∨ g₂ | μα.g
//! ```
//!
//! plus `map`, which does not change the language (flap's semantic
//! actions).
//!
//! ### Semantic values
//!
//! flap's OCaml implementation types each parser as `'a pa`, using
//! MetaOCaml to splice heterogeneous actions into generated code.
//! Rust has no typed staging, so this reproduction is *uniform*: one
//! value type `V` per grammar, with actions as plain closures fired
//! once per completed production — the same points at which flap's
//! spliced actions run. (A dynamically-typed heterogeneous facade is
//! provided by the `flap` crate as `flap::typed`.)

use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use flap_lex::Token;

/// A μ-bound grammar variable.
///
/// Variable identifiers are allocated globally, so expressions built
/// independently can be combined without capture.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Allocates a fresh variable.
    pub fn fresh() -> VarId {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        VarId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// A stable integer for display purposes.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "α{}", self.0)
    }
}

/// Semantic action attached to `ε`: produce the value of an empty
/// parse.
///
/// Actions are `Arc<dyn Fn … + Send + Sync>` (not `Rc`) so that every
/// downstream artifact built from an expression — the DGNF grammar,
/// the fused grammar, and above all the compiled parser — is an
/// immutable `Send + Sync` value that can be shared across threads.
pub type EpsAction<V> = Arc<dyn Fn() -> V + Send + Sync>;
/// Semantic action attached to a token: build a value from the lexeme
/// bytes.
pub type TokAction<V> = Arc<dyn Fn(&[u8]) -> V + Send + Sync>;
/// Semantic action attached to sequencing: combine the two sub-values.
pub type SeqAction<V> = Arc<dyn Fn(V, V) -> V + Send + Sync>;
/// Semantic action attached to `map`.
pub type MapAction<V> = Arc<dyn Fn(V) -> V + Send + Sync>;

/// The structure of a context-free expression.
///
/// Public so that the normalizer (`flap-dgnf`) and the baseline
/// compilers (`flap-baselines`) can traverse expressions; most user
/// code only needs the [`Cfe`] combinators.
pub enum CfeNode<V> {
    /// `⊥` — the empty language.
    Bot,
    /// `ε` — the empty string, yielding `action()`.
    Eps(EpsAction<V>),
    /// A single token, yielding `action(lexeme)`.
    Tok(Token, TokAction<V>),
    /// Sequencing `g₁·g₂`, yielding `action(v₁, v₂)`.
    Seq(Cfe<V>, Cfe<V>, SeqAction<V>),
    /// Alternation `g₁ ∨ g₂`.
    Alt(Cfe<V>, Cfe<V>),
    /// Value transformation; the language of the body, with `action`
    /// applied to its value.
    Map(Cfe<V>, MapAction<V>),
    /// Least fixed point `μα.g`.
    Fix(VarId, Cfe<V>),
    /// A μ-bound variable occurrence.
    Var(VarId),
}

/// A context-free expression producing semantic values of type `V`.
///
/// `Cfe` is a cheap reference-counted handle: cloning shares
/// structure. Note that, as in flap (§6 "Sharing"), sharing is *not*
/// tracked semantically — a sub-expression used twice is normalized
/// twice.
///
/// # Examples
///
/// The s-expression grammar of Fig 3c, counting atoms:
///
/// ```
/// use flap_cfe::Cfe;
/// use flap_lex::Token;
///
/// let atom = Token::from_index(0);
/// let lpar = Token::from_index(1);
/// let rpar = Token::from_index(2);
///
/// // μ sexp. (lpar · (μ sexps. ε ∨ sexp·sexps) · rpar) ∨ atom
/// let sexp = Cfe::fix(|sexp| {
///     let sexps = Cfe::fix(|sexps| {
///         Cfe::eps_with(|| 0i64).or(sexp.then(sexps, |a, b| a + b))
///     });
///     Cfe::tok_val(lpar, 0)
///         .then(sexps, |_, n| n)
///         .then(Cfe::tok_val(rpar, 0), |n, _| n)
///         .or(Cfe::tok_val(atom, 1))
/// });
/// assert!(flap_cfe::type_check(&sexp).is_ok());
/// ```
pub struct Cfe<V>(pub(crate) Rc<CfeNode<V>>);

impl<V> Clone for Cfe<V> {
    fn clone(&self) -> Self {
        Cfe(Rc::clone(&self.0))
    }
}

impl<V> Cfe<V> {
    fn new(node: CfeNode<V>) -> Self {
        Cfe(Rc::new(node))
    }

    /// The underlying node, for traversals.
    pub fn node(&self) -> &CfeNode<V> {
        &self.0
    }

    /// A stable address identifying this node (used as a memo key by
    /// analyses; valid while the expression is alive).
    pub fn addr(&self) -> usize {
        Rc::as_ptr(&self.0) as *const u8 as usize
    }

    /// `⊥`: fails on every input.
    pub fn bot() -> Self {
        Cfe::new(CfeNode::Bot)
    }

    /// `ε` with an explicitly computed value.
    ///
    /// Actions must be `Send + Sync` (shared-state captures go behind
    /// `Arc<Mutex<…>>` or atomics) so compiled parsers can be shared
    /// across threads.
    pub fn eps_with(f: impl Fn() -> V + Send + Sync + 'static) -> Self {
        Cfe::new(CfeNode::Eps(Arc::new(f)))
    }

    /// A token whose value is computed from its lexeme bytes.
    pub fn tok_with(t: Token, f: impl Fn(&[u8]) -> V + Send + Sync + 'static) -> Self {
        Cfe::new(CfeNode::Tok(t, Arc::new(f)))
    }

    /// Sequencing: `self` then `next`, combining the two values.
    ///
    /// Requires (checked by [`type_check`](crate::type_check)) that
    /// `self` is not nullable and `self.FLast ∩ next.First = ∅`.
    pub fn then(self, next: Cfe<V>, combine: impl Fn(V, V) -> V + Send + Sync + 'static) -> Self {
        Cfe::new(CfeNode::Seq(self, next, Arc::new(combine)))
    }

    /// Alternation.
    ///
    /// Requires (checked by [`type_check`](crate::type_check)) that
    /// the branches have disjoint `First` sets and are not both
    /// nullable.
    pub fn or(self, other: Cfe<V>) -> Self {
        Cfe::new(CfeNode::Alt(self, other))
    }

    /// Applies `f` to the semantic value; the language is unchanged.
    pub fn map(self, f: impl Fn(V) -> V + Send + Sync + 'static) -> Self {
        Cfe::new(CfeNode::Map(self, Arc::new(f)))
    }

    /// The least fixed point `μα.g`: `f` receives the bound variable
    /// and returns the body.
    ///
    /// ```
    /// use flap_cfe::Cfe;
    /// use flap_lex::Token;
    /// let (a, b) = (Token::from_index(0), Token::from_index(1));
    /// // μx. a·x ∨ b  — strings aⁿb, counting the `a`s
    /// let ones = Cfe::fix(|x| Cfe::tok_val(a, 1i32).then(x, |h, t| h + t).or(Cfe::tok_val(b, 0)));
    /// assert!(flap_cfe::type_check(&ones).is_ok());
    /// ```
    pub fn fix(f: impl FnOnce(Cfe<V>) -> Cfe<V>) -> Self {
        let var = VarId::fresh();
        let body = f(Cfe::new(CfeNode::Var(var)));
        Cfe::new(CfeNode::Fix(var, body))
    }

    // ---- derived combinators ------------------------------------------------

    /// Zero or more repetitions: `μα. ε ∨ g·α`, right-folding values
    /// with `fold` starting from `empty`.
    pub fn star(
        g: Cfe<V>,
        empty: impl Fn() -> V + Send + Sync + 'static,
        fold: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Self {
        Cfe::fix(move |alpha| {
            let rec = g.clone().then(alpha, fold);
            Cfe::new(CfeNode::Alt(Cfe::new(CfeNode::Eps(Arc::new(empty))), rec))
        })
    }

    /// One or more repetitions: `g · g*` (the paper's `oneormore`,
    /// which duplicates `g` — see §6 "Sharing"). Values are
    /// right-folded with `fold`, terminated by `empty`.
    pub fn plus(
        g: Cfe<V>,
        empty: impl Fn() -> V + Send + Sync + 'static,
        fold: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Self {
        let fold = Arc::new(fold);
        let f1 = Arc::clone(&fold);
        let rest = Cfe::star(g.clone(), empty, move |a, b| f1(a, b));
        g.then(rest, move |a, b| fold(a, b))
    }

    /// Zero or one occurrence: `g ∨ ε`.
    pub fn opt(g: Cfe<V>, none: impl Fn() -> V + Send + Sync + 'static) -> Self {
        g.or(Cfe::eps_with(none))
    }

    /// One or more `item`s separated by `sep`:
    /// `μα. item · (ε ∨ sep·α)`.
    ///
    /// Separator values are discarded; item values are right-folded
    /// with `fold`, terminated by `empty`.
    pub fn sep_by1(
        item: Cfe<V>,
        sep: Cfe<V>,
        empty: impl Fn() -> V + Send + Sync + 'static,
        fold: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Self {
        let fold = Arc::new(fold);
        Cfe::fix(move |alpha| {
            let tail = sep.clone().then(alpha, |_, v| v);
            let rest = Cfe::eps_with(empty).or(tail);
            let f = Arc::clone(&fold);
            item.clone().then(rest, move |a, b| f(a, b))
        })
    }
}

impl<V: Clone + Send + Sync + 'static> Cfe<V> {
    /// `ε` yielding a constant.
    pub fn eps(v: V) -> Self {
        Cfe::eps_with(move || v.clone())
    }

    /// A token yielding a constant (the lexeme is ignored).
    pub fn tok_val(t: Token, v: V) -> Self {
        Cfe::tok_with(t, move |_| v.clone())
    }
}

/// Number of CFE nodes in the expression — the "CFEs" column of
/// Table 1.
///
/// Counts *occurrences*: shared sub-expressions are counted once per
/// use, matching the paper's observation that the combinator interface
/// cannot express sharing. `Fix` bodies are counted once; `Var`
/// occurrences and `Fix` binders count as one node each. The paper
/// does not say how it counts either, so the `table1` binary's
/// comparison with it is approximate.
pub fn node_count<V>(g: &Cfe<V>) -> usize {
    match g.node() {
        CfeNode::Bot | CfeNode::Eps(_) | CfeNode::Tok(..) | CfeNode::Var(_) => 1,
        CfeNode::Seq(a, b, _) | CfeNode::Alt(a, b) => 1 + node_count(a) + node_count(b),
        CfeNode::Map(a, _) => 1 + node_count(a),
        CfeNode::Fix(_, a) => 1 + node_count(a),
    }
}

impl<V> fmt::Debug for Cfe<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            CfeNode::Bot => write!(f, "⊥"),
            CfeNode::Eps(_) => write!(f, "ε"),
            CfeNode::Tok(t, _) => write!(f, "{:?}", t),
            CfeNode::Seq(a, b, _) => write!(f, "({:?}·{:?})", a, b),
            CfeNode::Alt(a, b) => write!(f, "({:?} ∨ {:?})", a, b),
            CfeNode::Map(a, _) => write!(f, "map({:?})", a),
            CfeNode::Fix(v, a) => write!(f, "μ{:?}.{:?}", v, a),
            CfeNode::Var(v) => write!(f, "{:?}", v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> Token {
        Token::from_index(i)
    }

    #[test]
    fn fresh_vars_are_distinct() {
        assert_ne!(VarId::fresh(), VarId::fresh());
    }

    #[test]
    fn node_count_counts_occurrences() {
        let a: Cfe<i64> = Cfe::tok_val(t(0), 1);
        assert_eq!(node_count(&a), 1);
        let twice = a.clone().then(a.clone(), |x, y| x + y);
        assert_eq!(node_count(&twice), 3, "shared node counted per occurrence");
        let fixed: Cfe<i64> = Cfe::fix(|x| {
            Cfe::tok_val(t(0), 1)
                .then(x, |a, b| a + b)
                .or(Cfe::tok_val(t(1), 0))
        });
        // Fix + Alt + Seq + Tok + Var + Tok = 6 nodes
        assert_eq!(node_count(&fixed), 6);
    }

    #[test]
    fn debug_rendering() {
        let g: Cfe<i64> = Cfe::tok_val(t(0), 1).or(Cfe::eps(0));
        assert_eq!(format!("{:?}", g), "(t0 ∨ ε)");
        let h: Cfe<i64> = Cfe::bot();
        assert_eq!(format!("{:?}", h), "⊥");
    }

    #[test]
    fn clone_shares_structure() {
        let g: Cfe<i64> = Cfe::tok_val(t(0), 1);
        let h = g.clone();
        assert_eq!(g.addr(), h.addr());
    }
}
