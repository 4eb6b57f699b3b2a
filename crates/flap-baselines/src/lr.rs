//! An SLR(1) shift/reduce parser — the stand-in for the LR parser
//! generators of §6 (`ocamlyacc`, `menhir` in code mode;
//! implementations (a)/(c)).
//!
//! The construction is the textbook one: LR(0) item sets by
//! closure/goto, then SLR reduce placement by FOLLOW sets (computed
//! in [`crate::bnf`]). The driver is a shift/reduce automaton over
//! the shared materialized token stream.
//!
//! Semantic values: flap attaches token actions to grammar
//! *positions*, while an LR shift fires before the production is
//! known. Shifts therefore push the lexeme *span*; the span is
//! evaluated with the production's own token action at reduce time
//! (standard late-binding, same total work).
//!
//! Conflicts are resolved shift-over-reduce and lowest-production
//! reduce/reduce (and counted); the six benchmark grammars build
//! conflict-free or nearly so, as expected for DGNF-shaped input.

use std::collections::{BTreeSet, HashMap};

use flap_cfe::Cfe;
use flap_lex::{CompiledLexer, Lexer};

use crate::bnf::{Bnf, Sym};
use crate::stream::{parse_error, BaselineError};

/// Grammar symbols for the LR construction (terminals and
/// nonterminals in one dense space: `0..token_count` are terminals,
/// the rest nonterminals).
type SymId = u32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Action {
    Err,
    Shift(u32),
    Reduce(u32),
    Accept,
}

/// The SLR(1) parser.
pub struct LrParser<V> {
    lexer: CompiledLexer,
    bnf: Bnf<V>,
    /// `action[state * (token_count + 1) + tok]`; the last column is
    /// `$`.
    action: Vec<Action>,
    /// `goto_nt[state * nt_count + nt]` (`u32::MAX` = none).
    goto_nt: Vec<u32>,
    state_count: usize,
    conflicts: usize,
}

impl<V: 'static> LrParser<V> {
    /// Builds the LR(0) automaton and SLR action/goto tables.
    ///
    /// # Errors
    ///
    /// A message if the grammar is ill-typed.
    pub fn build(mut lexer: Lexer, cfe: &Cfe<V>) -> Result<Self, String> {
        let bnf = Bnf::build(&lexer, cfe)?;
        let compiled = CompiledLexer::build(&mut lexer);
        let t_count = bnf.token_count;
        let nt_count = bnf.nt_count;
        let sym_of = |s: &Sym<V>| -> SymId {
            match s {
                Sym::T(t, _) => t.index() as u32,
                Sym::N(m) => t_count as u32 + m,
            }
        };
        // productions by lhs, for closure
        let mut by_lhs: Vec<Vec<u32>> = vec![Vec::new(); nt_count];
        for (pid, p) in bnf.prods.iter().enumerate() {
            by_lhs[p.lhs as usize].push(pid as u32);
        }
        // item = (prod, dot); the augmented item S' → •S is (u32::MAX, 0)
        type Item = (u32, u32);
        const AUG: u32 = u32::MAX;
        let closure = |kernel: &BTreeSet<Item>| -> BTreeSet<Item> {
            let mut set = kernel.clone();
            let mut work: Vec<Item> = set.iter().copied().collect();
            while let Some((pid, dot)) = work.pop() {
                let next_nt: Option<u32> = if pid == AUG {
                    (dot == 0).then_some(bnf.start)
                } else {
                    match bnf.prods[pid as usize].rhs.get(dot as usize) {
                        Some(Sym::N(m)) => Some(*m),
                        _ => None,
                    }
                };
                if let Some(nt) = next_nt {
                    for &p2 in &by_lhs[nt as usize] {
                        let item = (p2, 0);
                        if set.insert(item) {
                            work.push(item);
                        }
                    }
                }
            }
            set
        };
        let mut states: Vec<BTreeSet<Item>> = Vec::new();
        let mut ids: HashMap<BTreeSet<Item>, u32> = HashMap::new();
        let mut todo: Vec<u32> = Vec::new();
        {
            let mut kernel = BTreeSet::new();
            kernel.insert((AUG, 0));
            let c = closure(&kernel);
            states.push(c.clone());
            ids.insert(c, 0);
            todo.push(0);
        }
        let mut transitions: Vec<HashMap<SymId, u32>> = vec![HashMap::new()];
        while let Some(sid) = todo.pop() {
            // group items by the symbol after the dot
            let mut moves: HashMap<SymId, BTreeSet<Item>> = HashMap::new();
            for &(pid, dot) in &states[sid as usize].clone() {
                let sym: Option<SymId> = if pid == AUG {
                    (dot == 0).then_some(t_count as u32 + bnf.start)
                } else {
                    bnf.prods[pid as usize].rhs.get(dot as usize).map(&sym_of)
                };
                if let Some(s) = sym {
                    moves.entry(s).or_default().insert((pid, dot + 1));
                }
            }
            for (sym, kernel) in moves {
                let c = closure(&kernel);
                let target = match ids.get(&c) {
                    Some(&t) => t,
                    None => {
                        let t = states.len() as u32;
                        states.push(c.clone());
                        transitions.push(HashMap::new());
                        ids.insert(c, t);
                        todo.push(t);
                        t
                    }
                };
                transitions[sid as usize].insert(sym, target);
            }
        }

        // tables
        let cols = t_count + 1;
        let mut action = vec![Action::Err; states.len() * cols];
        let mut goto_nt = vec![u32::MAX; states.len() * nt_count];
        let mut conflicts = 0usize;
        for (sid, items) in states.iter().enumerate() {
            for (&sym, &target) in &transitions[sid] {
                if (sym as usize) < t_count {
                    action[sid * cols + sym as usize] = Action::Shift(target);
                } else {
                    goto_nt[sid * nt_count + (sym as usize - t_count)] = target;
                }
            }
            for &(pid, dot) in items {
                if pid == AUG {
                    if dot == 1 {
                        action[sid * cols + t_count] = Action::Accept;
                    }
                    continue;
                }
                let p = &bnf.prods[pid as usize];
                if (dot as usize) < p.rhs.len() {
                    continue;
                }
                // completed item: SLR reduce on FOLLOW(lhs)
                let lhs = p.lhs as usize;
                let place = |cell: usize, action: &mut Vec<Action>, conflicts: &mut usize| {
                    match action[cell] {
                        Action::Err => action[cell] = Action::Reduce(pid),
                        Action::Shift(_) | Action::Accept => *conflicts += 1, // shift wins
                        Action::Reduce(old) if old != pid => {
                            *conflicts += 1;
                            if pid < old {
                                action[cell] = Action::Reduce(pid);
                            }
                        }
                        Action::Reduce(_) => {}
                    }
                };
                for t in bnf.follow[lhs].iter() {
                    place(sid * cols + t.index(), &mut action, &mut conflicts);
                }
                if bnf.eof_follow[lhs] {
                    place(sid * cols + t_count, &mut action, &mut conflicts);
                }
            }
        }
        Ok(LrParser {
            lexer: compiled,
            bnf,
            action,
            goto_nt,
            state_count: states.len(),
            conflicts,
        })
    }

    /// Number of LR states (for metrics and curiosity).
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of SLR table conflicts resolved during construction.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Parses a complete input with the shift/reduce driver.
    ///
    /// # Errors
    ///
    /// [`BaselineError`] on lexing or parsing failure.
    pub fn parse(&self, input: &[u8]) -> Result<V, BaselineError> {
        let t_count = self.bnf.token_count;
        let cols = t_count + 1;
        let mut lexemes = self.lexer.lexemes(input);
        let mut next = lexemes.next().transpose()?;
        // state stack; terminal entries remember their lexeme span
        let mut stack: Vec<(u32, Option<(usize, usize)>)> = vec![(0, None)];
        let mut values: Vec<V> = Vec::new();
        loop {
            let state = stack.last().expect("stack never empties").0;
            let col = next.map_or(t_count, |lx| lx.token.index());
            match self.action[state as usize * cols + col] {
                Action::Err => return Err(parse_error(next, input)),
                Action::Accept => {
                    debug_assert_eq!(values.len(), 1);
                    return Ok(values.pop().expect("parse produced no value"));
                }
                Action::Shift(to) => {
                    let lx = next.expect("SLR shifts only on a token");
                    next = lexemes.next().transpose()?;
                    stack.push((to, Some((lx.start, lx.end))));
                }
                Action::Reduce(pid) => {
                    let p = &self.bnf.prods[pid as usize];
                    let n = p.rhs.len();
                    // recover the lead terminal's span (if any) and
                    // evaluate its action now that the production is
                    // known
                    if let Some(Sym::T(_, act)) = p.rhs.first() {
                        let (_, span) = stack[stack.len() - n];
                        let (s, e) = span.expect("terminal stack entry has a span");
                        let lead = act(&input[s..e]);
                        // the lead value goes *below* the tail values
                        let k = n - 1;
                        values.insert(values.len() - k, lead);
                    }
                    for _ in 0..n {
                        stack.pop();
                    }
                    p.reduce.run(&mut values);
                    let state = stack.last().expect("stack never empties").0;
                    let target = self.goto_nt[state as usize * self.bnf.nt_count + p.lhs as usize];
                    if target == u32::MAX {
                        return Err(parse_error(next, input));
                    }
                    stack.push((target, None));
                }
            }
        }
    }
}
