//! Normal-form grammars (Fig 4 of the flap paper) and the DGNF
//! well-formedness conditions (Definition 2).
//!
//! A normal-form grammar `G` maps nonterminals to productions of
//! shape
//!
//! ```text
//! N ::= ε | t n̄ | α n̄
//! ```
//!
//! The `α n̄` form is the internal intermediate used while normalizing
//! fixed points; Corollary 3.5 guarantees it is absent from the
//! normalization of a closed well-typed expression, leaving a DGNF
//! grammar `D` (productions `n → t n̄` and `n → ε`).
//!
//! ### Semantic actions
//!
//! Every production carries a [`Reduce`] action operating on a value
//! stack: on entry the production's argument values are the topmost
//! values (the lead's value — token or variable — followed by one
//! value per tail nonterminal), and on exit they have been replaced by
//! the single value of the production. Normalization composes these
//! actions as it rearranges productions, so parsing a normalized
//! grammar yields exactly the value the original combinator expression
//! would have produced.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use flap_cfe::{TokAction, VarId};
use flap_lex::{Lexer, Token, TokenSet};

/// A nonterminal of a normal-form grammar.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NtId(pub(crate) u32);

impl NtId {
    /// Dense index of this nonterminal.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a nonterminal from a dense index.
    ///
    /// Grammars number their nonterminals densely from 0, so
    /// downstream crates (fusion, staging) can use this to iterate or
    /// build parallel tables. An index not allocated by the grammar
    /// at hand simply names no productions.
    pub fn from_index(i: usize) -> NtId {
        NtId(u32::try_from(i).expect("nonterminal index overflow"))
    }
}

impl fmt::Debug for NtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One instruction of a [`Reduce`] program, operating on the value
/// stack.
pub enum ReduceOp<V> {
    /// Pop `b`, pop `a`, push `f(a, b)` (a user sequencing action).
    User(flap_cfe::SeqAction<V>),
    /// Pop `v`, push `f(v)` (a user `map` action).
    Map(flap_cfe::MapAction<V>),
    /// Push `f()` (a user ε action).
    PushEps(flap_cfe::EpsAction<V>),
    /// Swap the top two values.
    Swap,
    /// Rotate the top `span` values right by one (top value moves
    /// below the other `span − 1`).
    RotR {
        /// Number of affected stack slots.
        span: u16,
    },
    /// Rotate the top `span` values left by `by`.
    RotL {
        /// Number of affected stack slots.
        span: u16,
        /// Rotation amount.
        by: u16,
    },
}

impl<V> Clone for ReduceOp<V> {
    fn clone(&self) -> Self {
        match self {
            ReduceOp::User(f) => ReduceOp::User(Arc::clone(f)),
            ReduceOp::Map(f) => ReduceOp::Map(Arc::clone(f)),
            ReduceOp::PushEps(f) => ReduceOp::PushEps(Arc::clone(f)),
            ReduceOp::Swap => ReduceOp::Swap,
            ReduceOp::RotR { span } => ReduceOp::RotR { span: *span },
            ReduceOp::RotL { span, by } => ReduceOp::RotL {
                span: *span,
                by: *by,
            },
        }
    }
}

impl<V> fmt::Debug for ReduceOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceOp::User(_) => write!(f, "User"),
            ReduceOp::Map(_) => write!(f, "Map"),
            ReduceOp::PushEps(_) => write!(f, "PushEps"),
            ReduceOp::Swap => write!(f, "Swap"),
            ReduceOp::RotR { span } => write!(f, "RotR({span})"),
            ReduceOp::RotL { span, by } => write!(f, "RotL({span},{by})"),
        }
    }
}

/// A semantic reduction: a short, flat program that pops this
/// production's argument values from the top of the stack and pushes
/// the production's single result.
///
/// Normalization composes reductions as it rewrites productions
/// (Fig 4); representing them as *data* rather than nested closures
/// lets composition be concatenation with peephole simplification, so
/// deeply-rewritten productions still reduce with a handful of
/// non-nested operations — the semantic-action counterpart of the
/// paper's "no indirect calls" generated-code property (§2.8).
pub struct Reduce<V> {
    ops: Arc<[ReduceOp<V>]>,
    /// Number of argument values the program consumes.
    arity: u16,
}

impl<V> Clone for Reduce<V> {
    fn clone(&self) -> Self {
        Reduce {
            ops: Arc::clone(&self.ops),
            arity: self.arity,
        }
    }
}

impl<V> fmt::Debug for Reduce<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reduce(arity {}, {:?})", self.arity, self.ops)
    }
}

impl<V> Reduce<V> {
    /// The identity reduction for single-argument productions
    /// (`n → t`, `n → α`): the lone argument already is the result.
    pub fn identity() -> Reduce<V> {
        Reduce {
            ops: Arc::from(Vec::new()),
            arity: 1,
        }
    }

    /// The ε reduction: push `f()`.
    pub fn eps(f: flap_cfe::EpsAction<V>) -> Reduce<V> {
        Reduce {
            ops: Arc::from(vec![ReduceOp::PushEps(f)]),
            arity: 0,
        }
    }

    pub(crate) fn from_ops(ops: Vec<ReduceOp<V>>, arity: u16) -> Reduce<V> {
        Reduce {
            ops: Arc::from(ops),
            arity,
        }
    }

    /// Number of argument values consumed.
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// The program, for composition and inspection.
    pub fn ops(&self) -> &[ReduceOp<V>] {
        &self.ops
    }

    /// Whether running this reduction is a no-op (identity).
    pub fn is_identity(&self) -> bool {
        self.ops.is_empty()
    }

    /// Runs the program over the value stack — the interpreter behind
    /// flap-fuse's Fig 9 parser and the LL(1) and SLR baselines, which
    /// stay unlowered as oracles for lowering. The staged VM and
    /// [`DgnfParser`](crate::DgnfParser) run [`Reduce::lower`]ed
    /// programs instead.
    #[inline]
    pub fn run(&self, st: &mut Vec<V>) {
        for op in self.ops.iter() {
            match op {
                ReduceOp::User(f) => {
                    let b = st.pop().expect("value stack underflow");
                    let a = st.pop().expect("value stack underflow");
                    st.push(f(a, b));
                }
                ReduceOp::Map(f) => {
                    let v = st.pop().expect("value stack underflow");
                    st.push(f(v));
                }
                ReduceOp::PushEps(f) => st.push(f()),
                ReduceOp::Swap => {
                    let len = st.len();
                    st.swap(len - 1, len - 2);
                }
                ReduceOp::RotR { span } => {
                    let len = st.len();
                    st[len - *span as usize..].rotate_right(1);
                }
                ReduceOp::RotL { span, by } => {
                    let len = st.len();
                    st[len - *span as usize..].rotate_left(*by as usize);
                }
            }
        }
    }

    /// Lowers the program into its production's *continuation*: what
    /// runs once the lead value is on the stack, in execution order,
    /// with each tail nonterminal's parse placed where the program
    /// first needs its value.
    ///
    /// A program evaluates an expression tree over its arguments. User
    /// and map actions are the inner nodes, argument (and ε) values the
    /// leaves; swaps and rotations only route values to their
    /// consumers. Normalization keeps the argument leaves in order —
    /// the (seq), `map` and (fix) compositions each preserve that — so
    /// the tree's post-order visits the lead value first and then
    /// interleaves each tail argument with the actions that consume
    /// it. Executed in that order, every action finds its operands on
    /// top of the stack and no rotation survives.
    ///
    /// A token production's continuation omits the lead value (the
    /// caller pushes it); an ε program (arity 0) lowers to its
    /// [`ContOp::Eps`] leaf followed by its maps.
    ///
    /// # Panics
    ///
    /// If the program breaks an invariant normalization guarantees: it
    /// underflows its arguments, does not leave exactly one value,
    /// consumes its arguments out of order, or pushes an ε value in a
    /// token production (arity ≥ 1).
    pub fn lower(&self) -> Vec<ContOp<V>> {
        /// A post-order entry: argument leaf `i`, or `self.ops[k]`.
        #[derive(Clone, Copy)]
        enum Node {
            Arg(u16),
            Op(usize),
        }
        let broken = |why: &str| -> ! {
            panic!("reduce program breaks a normalization invariant: {why} in {self:?}")
        };
        // symbolic execution: each stack slot holds the post-order of
        // the subtree that computes it
        let mut stack: Vec<Vec<Node>> = (0..self.arity).map(|i| vec![Node::Arg(i)]).collect();
        for (k, op) in self.ops.iter().enumerate() {
            let len = stack.len();
            match op {
                ReduceOp::User(_) => {
                    if len < 2 {
                        broken("a user action underflows the stack");
                    }
                    let b = stack.pop().expect("checked above");
                    let a = stack.last_mut().expect("checked above");
                    a.extend(b);
                    a.push(Node::Op(k));
                }
                ReduceOp::Map(_) => match stack.last_mut() {
                    Some(v) => v.push(Node::Op(k)),
                    None => broken("a map action underflows the stack"),
                },
                ReduceOp::PushEps(_) => {
                    if self.arity > 0 {
                        broken("a token production's program pushes an ε value");
                    }
                    stack.push(vec![Node::Op(k)]);
                }
                ReduceOp::Swap => {
                    if len < 2 {
                        broken("a swap underflows the stack");
                    }
                    stack.swap(len - 1, len - 2);
                }
                ReduceOp::RotR { span } => {
                    let span = *span as usize;
                    if span == 0 || span > len {
                        broken("a rotation spans more than the stack");
                    }
                    stack[len - span..].rotate_right(1);
                }
                ReduceOp::RotL { span, by } => {
                    let (span, by) = (*span as usize, *by as usize);
                    if span > len || by > span {
                        broken("a rotation spans more than the stack");
                    }
                    stack[len - span..].rotate_left(by);
                }
            }
        }
        if stack.len() != 1 {
            broken("the program must leave exactly one value");
        }
        let tree = stack.pop().expect("checked above");
        let mut next_arg = 0u16;
        let mut out = Vec::with_capacity(tree.len());
        for node in tree {
            match node {
                Node::Arg(i) => {
                    if i != next_arg {
                        broken("arguments are consumed out of order");
                    }
                    next_arg += 1;
                    if i > 0 {
                        out.push(ContOp::Tail(i - 1));
                    }
                }
                Node::Op(k) => out.push(match &self.ops[k] {
                    ReduceOp::User(f) => ContOp::User(Arc::clone(f)),
                    ReduceOp::Map(f) => ContOp::Map(Arc::clone(f)),
                    ReduceOp::PushEps(f) => ContOp::Eps(Arc::clone(f)),
                    _ => unreachable!("only actions enter the tree"),
                }),
            }
        }
        out
    }
}

/// One step of a lowered reduce program (see [`Reduce::lower`]).
pub enum ContOp<V> {
    /// Parse the production's tail nonterminal at this index, pushing
    /// its value.
    Tail(u16),
    /// Pop `b`, pop `a`, push `f(a, b)` (a user sequencing action).
    User(flap_cfe::SeqAction<V>),
    /// Pop `v`, push `f(v)` (a user `map` action).
    Map(flap_cfe::MapAction<V>),
    /// Push `f()` (a user ε action).
    Eps(flap_cfe::EpsAction<V>),
}

impl<V> Clone for ContOp<V> {
    fn clone(&self) -> Self {
        match self {
            ContOp::Tail(i) => ContOp::Tail(*i),
            ContOp::User(f) => ContOp::User(Arc::clone(f)),
            ContOp::Map(f) => ContOp::Map(Arc::clone(f)),
            ContOp::Eps(f) => ContOp::Eps(Arc::clone(f)),
        }
    }
}

impl<V> fmt::Debug for ContOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContOp::Tail(i) => write!(f, "Tail({i})"),
            ContOp::User(_) => write!(f, "User"),
            ContOp::Map(_) => write!(f, "Map"),
            ContOp::Eps(_) => write!(f, "Eps"),
        }
    }
}

/// The leading symbol of a non-ε production.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lead {
    /// A terminal: `n → t n̄`.
    Tok(Token),
    /// The internal fixed-point form: `n → α n̄`.
    Var(VarId),
}

/// A non-ε production `n → lead n̄`.
pub struct Prod<V> {
    /// The leading terminal or variable.
    pub lead: Lead,
    /// The trailing nonterminals `n̄`.
    pub tail: Vec<NtId>,
    /// For `Tok` leads: computes the lead value from the lexeme
    /// bytes. `None` for `Var` leads (the variable's own production
    /// computes the value).
    pub tok_action: Option<TokAction<V>>,
    /// Folds the lead value and tail values into the production
    /// value.
    pub reduce: Reduce<V>,
}

impl<V> Clone for Prod<V> {
    fn clone(&self) -> Self {
        Prod {
            lead: self.lead,
            tail: self.tail.clone(),
            tok_action: self.tok_action.clone(),
            reduce: self.reduce.clone(),
        }
    }
}

impl<V> fmt::Debug for Prod<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lead {
            Lead::Tok(t) => write!(f, "{:?}", t)?,
            Lead::Var(v) => write!(f, "{:?}", v)?,
        }
        for nt in &self.tail {
            write!(f, " {:?}", nt)?;
        }
        Ok(())
    }
}

/// The productions of one nonterminal.
pub struct NtEntry<V> {
    /// Non-ε productions.
    pub prods: Vec<Prod<V>>,
    /// ε-productions (each is the `Reduce` that pushes the ε value).
    /// DGNF admits at most one; the `Vec` exists so that violations of
    /// determinism can be *detected* rather than silently merged.
    pub eps: Vec<Reduce<V>>,
}

impl<V> Default for NtEntry<V> {
    fn default() -> Self {
        NtEntry {
            prods: Vec::new(),
            eps: Vec::new(),
        }
    }
}

impl<V> Clone for NtEntry<V> {
    fn clone(&self) -> Self {
        NtEntry {
            prods: self.prods.clone(),
            eps: self.eps.clone(),
        }
    }
}

/// A normal-form grammar: a start symbol and per-nonterminal
/// productions.
pub struct Grammar<V> {
    pub(crate) start: NtId,
    pub(crate) entries: Vec<NtEntry<V>>,
}

impl<V> Clone for Grammar<V> {
    fn clone(&self) -> Self {
        Grammar {
            start: self.start,
            entries: self.entries.clone(),
        }
    }
}

/// Violations of Definition 2 (or of Corollary 3.5) detected by
/// [`Grammar::check_dgnf`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgnfError {
    /// A production still leads with a μ-variable: the source
    /// expression was not closed.
    ResidualVariable {
        /// The nonterminal owning the production.
        nt: NtId,
        /// The residual variable.
        var: VarId,
    },
    /// Two productions of one nonterminal begin with the same
    /// terminal.
    DuplicateHead {
        /// The nonterminal owning the productions.
        nt: NtId,
        /// The shared leading terminal.
        token: Token,
    },
    /// A nonterminal has more than one ε-production.
    DuplicateEps {
        /// The offending nonterminal.
        nt: NtId,
    },
    /// The guarded-ε condition fails: `a` (nullable) can be
    /// immediately followed by `b` during expansion, and their First
    /// sets overlap.
    UnguardedEps {
        /// The nullable nonterminal.
        a: NtId,
        /// The adjacent follower.
        b: NtId,
        /// `First(a) ∩ First(b)`.
        overlap: TokenSet,
    },
}

impl fmt::Display for DgnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgnfError::ResidualVariable { nt, var } => {
                write!(
                    f,
                    "production of {:?} still leads with variable {:?}",
                    nt, var
                )
            }
            DgnfError::DuplicateHead { nt, token } => {
                write!(
                    f,
                    "nonterminal {:?} has two productions starting with {:?}",
                    nt, token
                )
            }
            DgnfError::DuplicateEps { nt } => {
                write!(f, "nonterminal {:?} has more than one ε-production", nt)
            }
            DgnfError::UnguardedEps { a, b, overlap } => write!(
                f,
                "ε-production of {:?} is unguarded: follower {:?} shares First tokens {:?}",
                a, b, overlap
            ),
        }
    }
}

impl std::error::Error for DgnfError {}

impl<V> Grammar<V> {
    /// Creates an empty grammar whose start symbol has no productions
    /// (the normalization of `⊥`).
    pub fn empty() -> Grammar<V> {
        Grammar {
            start: NtId(0),
            entries: vec![NtEntry::default()],
        }
    }

    /// The start nonterminal.
    pub fn start(&self) -> NtId {
        self.start
    }

    /// Number of nonterminals — the "NTs" column of Table 1.
    pub fn nt_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of productions (including ε-productions) — the "Prods"
    /// column of Table 1.
    pub fn prod_count(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.prods.len() + e.eps.len())
            .sum()
    }

    /// The productions of `nt`.
    pub fn entry(&self, nt: NtId) -> &NtEntry<V> {
        &self.entries[nt.index()]
    }

    /// All nonterminals.
    pub fn nts(&self) -> impl Iterator<Item = NtId> + '_ {
        (0..self.entries.len()).map(|i| NtId(i as u32))
    }

    /// The set of terminals that can begin `nt`'s non-ε productions
    /// (the syntactic First set of a DGNF nonterminal).
    pub fn first(&self, nt: NtId) -> TokenSet {
        self.entry(nt)
            .prods
            .iter()
            .filter_map(|p| match p.lead {
                Lead::Tok(t) => Some(t),
                Lead::Var(_) => None,
            })
            .collect()
    }

    /// Whether `nt` has an ε-production.
    pub fn nullable(&self, nt: NtId) -> bool {
        !self.entry(nt).eps.is_empty()
    }

    /// Checks Definition 2: every production is `n → t n̄` or
    /// `n → ε`, heads are deterministic, and ε-productions are
    /// guarded.
    ///
    /// The guarded-ε condition quantifies over expansions
    /// `G ⊢ n ↝ t n₁ n₂ n̄`; we check it by computing the fixpoint of
    /// the *adjacency* relation — the pairs of nonterminals that can
    /// appear in the first two positions of a reachable sentential
    /// form — and requiring disjoint First sets whenever the left
    /// member is nullable.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`DgnfError`].
    pub fn check_dgnf(&self) -> Result<(), DgnfError> {
        // (0) no residual variables, (1) determinism, (2) single ε.
        for nt in self.nts() {
            let e = self.entry(nt);
            let mut heads = TokenSet::EMPTY;
            for p in &e.prods {
                match p.lead {
                    Lead::Var(v) => {
                        return Err(DgnfError::ResidualVariable { nt, var: v });
                    }
                    Lead::Tok(t) => {
                        if heads.contains(t) {
                            return Err(DgnfError::DuplicateHead { nt, token: t });
                        }
                        heads.insert(t);
                    }
                }
            }
            if e.eps.len() > 1 {
                return Err(DgnfError::DuplicateEps { nt });
            }
        }
        // (3) guarded ε-productions via adjacency closure.
        let mut adjacent: HashSet<(NtId, NtId)> = HashSet::new();
        let mut work: Vec<(NtId, NtId)> = Vec::new();
        let add = |pair: (NtId, NtId),
                   adjacent: &mut HashSet<(NtId, NtId)>,
                   work: &mut Vec<(NtId, NtId)>| {
            if adjacent.insert(pair) {
                work.push(pair);
            }
        };
        for nt in self.nts() {
            for p in &self.entry(nt).prods {
                for w in p.tail.windows(2) {
                    add((w[0], w[1]), &mut adjacent, &mut work);
                }
            }
        }
        while let Some((a, b)) = work.pop() {
            // expanding `a` puts the last nonterminal of each of its
            // production tails directly before `b`.
            for p in &self.entry(a).prods {
                if let Some(&last) = p.tail.last() {
                    add((last, b), &mut adjacent, &mut work);
                }
            }
        }
        for &(a, b) in &adjacent {
            if self.nullable(a) {
                let overlap = self.first(a).intersect(&self.first(b));
                if !overlap.is_empty() {
                    return Err(DgnfError::UnguardedEps { a, b, overlap });
                }
            }
        }
        Ok(())
    }

    /// Renders the grammar in the BNF style of Fig 3d, using `lexer`
    /// for token names.
    pub fn display<'a>(&'a self, lexer: &'a Lexer) -> DisplayGrammar<'a, V> {
        DisplayGrammar {
            grammar: self,
            lexer,
        }
    }
}

/// BNF rendering of a grammar; created by [`Grammar::display`].
pub struct DisplayGrammar<'a, V> {
    grammar: &'a Grammar<V>,
    lexer: &'a Lexer,
}

impl<V> fmt::Display for DisplayGrammar<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.grammar;
        writeln!(f, "start: {:?}", g.start())?;
        for nt in g.nts() {
            let e = g.entry(nt);
            if e.prods.is_empty() && e.eps.is_empty() {
                continue;
            }
            write!(f, "{:?} ::=", nt)?;
            let mut sep = " ";
            for p in &e.prods {
                write!(f, "{}", sep)?;
                sep = "\n    | ";
                match p.lead {
                    Lead::Tok(t) => write!(f, "{}", self.lexer.token_name(t))?,
                    Lead::Var(v) => write!(f, "{:?}", v)?,
                }
                for m in &p.tail {
                    write!(f, " {:?}", m)?;
                }
            }
            for _ in &e.eps {
                write!(f, "{}ε", sep)?;
                sep = "\n    | ";
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Mutable construction interface used by the normalizer.
pub(crate) struct GrammarBuilder<V> {
    pub entries: Vec<NtEntry<V>>,
}

impl<V> GrammarBuilder<V> {
    pub fn new() -> Self {
        GrammarBuilder {
            entries: Vec::new(),
        }
    }

    pub fn fresh_nt(&mut self) -> NtId {
        let id = NtId(self.entries.len() as u32);
        self.entries.push(NtEntry::default());
        id
    }

    pub fn push_prod(&mut self, nt: NtId, prod: Prod<V>) {
        self.entries[nt.index()].prods.push(prod);
    }

    pub fn push_eps(&mut self, nt: NtId, reduce: Reduce<V>) {
        self.entries[nt.index()].eps.push(reduce);
    }

    pub fn finish(self, start: NtId) -> Grammar<V> {
        Grammar {
            start,
            entries: self.entries,
        }
    }
}

/// Removes productions unreachable from the start symbol and
/// renumbers nonterminals densely (the appendix notes unreachable
/// productions are trimmed automatically).
pub fn trim<V>(g: &Grammar<V>) -> Grammar<V> {
    let mut reachable: Vec<NtId> = Vec::new();
    let mut seen: HashSet<NtId> = HashSet::new();
    let mut stack = vec![g.start()];
    while let Some(nt) = stack.pop() {
        if !seen.insert(nt) {
            continue;
        }
        reachable.push(nt);
        for p in &g.entry(nt).prods {
            for &m in &p.tail {
                stack.push(m);
            }
        }
    }
    reachable.sort_unstable();
    let remap: HashMap<NtId, NtId> = reachable
        .iter()
        .enumerate()
        .map(|(i, &old)| (old, NtId(i as u32)))
        .collect();
    let mut entries: Vec<NtEntry<V>> = Vec::with_capacity(reachable.len());
    for &old in &reachable {
        let e = g.entry(old);
        entries.push(NtEntry {
            prods: e
                .prods
                .iter()
                .map(|p| Prod {
                    lead: p.lead,
                    tail: p.tail.iter().map(|m| remap[m]).collect(),
                    tok_action: p.tok_action.clone(),
                    reduce: p.reduce.clone(),
                })
                .collect(),
            eps: e.eps.clone(),
        });
    }
    Grammar {
        start: remap[&g.start()],
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> Token {
        Token::from_index(i)
    }

    fn noop<V>() -> Reduce<V> {
        Reduce::identity()
    }

    fn tokprod(tok: usize, tail: Vec<NtId>) -> Prod<i64> {
        Prod {
            lead: Lead::Tok(t(tok)),
            tail,
            tok_action: Some(Arc::new(|_| 0)),
            reduce: noop(),
        }
    }

    /// Builds the four example grammars of §2.5.
    fn example(n: usize) -> Grammar<i64> {
        let mut b = GrammarBuilder::new();
        let n0 = b.fresh_nt();
        let n1 = b.fresh_nt();
        let n2 = b.fresh_nt();
        match n {
            1 => {
                // n ::= a n1 n2 | b ; n1 ::= c ; n2 ::= e
                b.push_prod(n0, tokprod(0, vec![n1, n2]));
                b.push_prod(n0, tokprod(1, vec![]));
                b.push_prod(n1, tokprod(2, vec![]));
                b.push_prod(n2, tokprod(3, vec![]));
            }
            3 => {
                // n ::= a n1 | a n2
                b.push_prod(n0, tokprod(0, vec![n1]));
                b.push_prod(n0, tokprod(0, vec![n2]));
                b.push_prod(n1, tokprod(2, vec![]));
                b.push_prod(n2, tokprod(3, vec![]));
            }
            4 => {
                // n ::= a n1 n2 ; n1 ::= c | ε ; n2 ::= c
                b.push_prod(n0, tokprod(0, vec![n1, n2]));
                b.push_prod(n1, tokprod(2, vec![]));
                b.push_eps(n1, Reduce::eps(Arc::new(|| 0)));
                b.push_prod(n2, tokprod(2, vec![]));
            }
            _ => unreachable!(),
        }
        b.finish(n0)
    }

    #[test]
    fn example_1_is_dgnf() {
        assert_eq!(example(1).check_dgnf(), Ok(()));
    }

    #[test]
    fn example_3_violates_determinism() {
        match example(3).check_dgnf().unwrap_err() {
            DgnfError::DuplicateHead { token, .. } => assert_eq!(token, t(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn example_4_violates_guarded_eps() {
        // the subtle case the paper walks through: n1 is nullable and
        // both n1 and its follower n2 can start with c
        match example(4).check_dgnf().unwrap_err() {
            DgnfError::UnguardedEps { overlap, .. } => assert!(overlap.contains(t(2))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adjacency_closure_sees_nested_tails() {
        // n ::= a m n2 ; m ::= b m2 ; m2 ::= c | ε ; n2 ::= c
        // expansion makes (m2, n2) adjacent; both start with c.
        let mut b = GrammarBuilder::new();
        let n0 = b.fresh_nt();
        let m = b.fresh_nt();
        let m2 = b.fresh_nt();
        let n2 = b.fresh_nt();
        b.push_prod(n0, tokprod(0, vec![m, n2]));
        b.push_prod(m, tokprod(1, vec![m2]));
        b.push_prod(m2, tokprod(2, vec![]));
        b.push_eps(m2, Reduce::eps(Arc::new(|| 0)));
        b.push_prod(n2, tokprod(2, vec![]));
        let g = b.finish(n0);
        assert!(matches!(
            g.check_dgnf(),
            Err(DgnfError::UnguardedEps { .. })
        ));
    }

    #[test]
    fn duplicate_eps_detected() {
        let mut b = GrammarBuilder::new();
        let n0 = b.fresh_nt();
        b.push_eps(n0, Reduce::eps(Arc::new(|| 0)));
        b.push_eps(n0, Reduce::eps(Arc::new(|| 1)));
        let g: Grammar<i64> = b.finish(n0);
        assert!(matches!(
            g.check_dgnf(),
            Err(DgnfError::DuplicateEps { .. })
        ));
    }

    #[test]
    fn residual_variable_detected() {
        let mut b = GrammarBuilder::new();
        let n0 = b.fresh_nt();
        b.push_prod(
            n0,
            Prod {
                lead: Lead::Var(VarId::fresh()),
                tail: vec![],
                tok_action: None,
                reduce: noop(),
            },
        );
        let g: Grammar<i64> = b.finish(n0);
        assert!(matches!(
            g.check_dgnf(),
            Err(DgnfError::ResidualVariable { .. })
        ));
    }

    #[test]
    fn trim_removes_unreachable() {
        let mut b = GrammarBuilder::new();
        let n0 = b.fresh_nt();
        let orphan = b.fresh_nt();
        let n2 = b.fresh_nt();
        b.push_prod(n0, tokprod(0, vec![n2]));
        b.push_prod(orphan, tokprod(1, vec![]));
        b.push_prod(n2, tokprod(2, vec![]));
        let g: Grammar<i64> = b.finish(n0);
        assert_eq!(g.nt_count(), 3);
        let trimmed = trim(&g);
        assert_eq!(trimmed.nt_count(), 2);
        assert_eq!(trimmed.prod_count(), 2);
        assert_eq!(trimmed.check_dgnf(), Ok(()));
    }

    fn user() -> flap_cfe::SeqAction<i64> {
        Arc::new(|a, b| a - b)
    }

    #[test]
    #[should_panic(expected = "exactly one value")]
    fn lowering_rejects_unconsumed_arguments() {
        // an identity program cannot fold a non-empty tail
        Reduce::<i64>::from_ops(Vec::new(), 2).lower();
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn lowering_rejects_reordered_arguments() {
        // f(b, a): the tail value would be needed before the lead's
        Reduce::from_ops(vec![ReduceOp::Swap, ReduceOp::User(user())], 2).lower();
    }

    #[test]
    #[should_panic(expected = "pushes an ε value")]
    fn lowering_rejects_eps_in_token_programs() {
        let eps: flap_cfe::EpsAction<i64> = Arc::new(|| 0);
        Reduce::from_ops(vec![ReduceOp::PushEps(eps), ReduceOp::User(user())], 1).lower();
    }

    #[test]
    #[should_panic(expected = "underflows")]
    fn lowering_rejects_underflow() {
        Reduce::from_ops(vec![ReduceOp::User(user())], 1).lower();
    }

    #[test]
    fn empty_grammar_is_dgnf() {
        let g: Grammar<i64> = Grammar::empty();
        assert_eq!(g.check_dgnf(), Ok(()));
        assert_eq!(g.nt_count(), 1);
        assert_eq!(g.prod_count(), 0);
        assert!(g.first(g.start()).is_empty());
    }
}
