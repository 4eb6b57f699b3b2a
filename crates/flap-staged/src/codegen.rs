//! Emission of the staged parser as Rust source code.
//!
//! flap's final stage splices the residual program into OCaml code
//! via MetaOCaml; the §5.5 excerpt shows the per-state functions it
//! generates, which call one another in tail position. Rust does not
//! guarantee tail calls, so this module prints the same automaton as
//! one function shaped like the VM's loop:
//!
//! * a `loop` over an exhaustive `match` on a fieldless enum of
//!   states, where each arm branches on byte patterns and a
//!   transition assigns the next state;
//! * a `Vec` of nonterminal start states in place of nested calls, so
//!   deep or long inputs cost heap, never machine stack;
//! * inner loops for self-transitions and for the trailing skip scan.
//!
//! A state that starts no nonterminal and heads no cycle through
//! another state is inlined where its predecessors branch to it,
//! unless that would print its code more than `INLINE_COPIES` (16)
//! times or nest it deeper than `INLINE_DEPTH` (32) inlined states.
//! Each other state owns one match arm.
//!
//! The emitter reads only the flat table the VM runs (the class map,
//! the rows with the stop action in slot 0, the nonterminal start
//! rows, each production's tail and owner) and the skip DFA. An
//! artifact carries all of them, so a loaded parser emits the same
//! source, byte for byte, as the compiled one it was saved from.
//!
//! Semantic actions are arbitrary Rust closures and cannot be
//! serialized, so the emitted program is a *recognizer*: it returns
//! `Ok(())` or the failure offset. The `flap-bench` build script
//! compiles emitted recognizers into the benchmark binary, giving a
//! genuinely staged (ahead-of-time native) data point.

use flap_regex::{ByteSet, FlatDfa};

use crate::compile::{decode_stop, CompiledParser, StopAction, STOP};

/// The most places one inlined state's code is printed. On 2 MB
/// documents, inlining at up to 16 sites rather than one ran pgn at
/// 0.91× instead of 0.73× of the speed of the earlier recursive
/// emitter (ppm: 9.7× instead of 6.2×), for 1.5× the source.
const INLINE_COPIES: usize = 16;

/// The deepest nesting of inlined states, so that a long literal
/// token cannot nest the emitted code (or the emitter) without bound.
const INLINE_DEPTH: usize = 32;

/// Emits the compiled parser as the source of a Rust module named
/// `module_name`, exposing
/// `pub fn recognize(s: &[u8]) -> Result<(), usize>`: `Err` holds the
/// offset that [`CompiledParser::recognize`] reports as its error's
/// position.
///
/// The emitted code is self-contained (no dependencies) and compiles
/// without warnings. Its stack use is constant: the nesting of the
/// input lives in a `Vec`.
pub fn emit_rust<V>(p: &CompiledParser<V>, module_name: &str) -> String {
    let g = Graph::of(p);
    let mut e = Emitter {
        p,
        g: &g,
        out: String::new(),
    };
    e.module(module_name);
    e.out
}

/// The transition graph of a parser's flat table.
struct Graph {
    /// Per state: its transitions as (table entry, bytes), one per
    /// distinct entry, in order of the entry's lowest byte.
    edges: Vec<Vec<(u32, ByteSet)>>,
    /// Per state: its stop action (row slot 0).
    stops: Vec<StopAction>,
    /// Start state per nonterminal.
    starts: Vec<usize>,
    /// Per state: whether it owns a match arm; otherwise its code is
    /// inlined wherever a predecessor branches to it.
    arm: Vec<bool>,
    stride: u32,
}

impl Graph {
    fn of<V>(p: &CompiledParser<V>) -> Graph {
        let stride = p.stride;
        let rows = p.trans.chunks_exact(stride as usize);
        let edges: Vec<Vec<(u32, ByteSet)>> = rows
            .clone()
            .map(|row| {
                group(|b| {
                    let e = row[p.class_map[b as usize] as usize];
                    (e != STOP).then_some(e)
                })
            })
            .collect();
        let mut g = Graph {
            stops: rows.map(|row| decode_stop(row[0])).collect(),
            starts: p
                .nt_start_row
                .iter()
                .map(|&r| (r / stride) as usize)
                .collect(),
            arm: vec![true; edges.len()],
            edges,
            stride,
        };
        // the places that branch to each state, self-loops aside
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); g.edges.len()];
        for (s, out) in g.edges.iter().enumerate() {
            for &(e, _) in out {
                if g.target(e) != s {
                    preds[g.target(e)].push(s);
                }
            }
        }
        // Cycle heads keep their arms, so inlined states form no
        // cycle; in topological order every inlined predecessor has
        // been decided before the states it branches to.
        let (order, heads) = g.walk();
        let mut copies = vec![1; g.edges.len()];
        let mut depth = vec![0; g.edges.len()];
        for t in order {
            if heads[t] || g.starts.contains(&t) || preds[t].is_empty() {
                continue;
            }
            let inlined = preds[t].iter().filter(|&&q| !g.arm[q]);
            let c = preds[t].len() + inlined.clone().map(|&q| copies[q] - 1).sum::<usize>();
            let d = 1 + inlined.map(|&q| depth[q]).max().unwrap_or(0);
            if c <= INLINE_COPIES && d <= INLINE_DEPTH {
                g.arm[t] = false;
                copies[t] = c;
                depth[t] = d;
            }
        }
        g
    }

    /// The state a table entry branches to.
    fn target(&self, e: u32) -> usize {
        ((e >> 2) / self.stride) as usize
    }

    /// Walks the graph depth first, self-loops aside, from every state
    /// in turn. Returns the states in reverse post-order, which is
    /// topological once the edges into cycle heads are dropped, and
    /// marks as cycle heads the states an edge reaches while the walk
    /// is still inside them.
    fn walk(&self) -> (Vec<usize>, Vec<bool>) {
        let n = self.edges.len();
        let mut seen = vec![false; n];
        let mut inside = vec![false; n];
        let mut heads = vec![false; n];
        let mut post = Vec::with_capacity(n);
        for root in 0..n {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            inside[root] = true;
            // (state, index of its next edge to follow)
            let mut path = vec![(root, 0)];
            while let Some(&mut (v, ref mut k)) = path.last_mut() {
                let Some(&(e, _)) = self.edges[v].get(*k) else {
                    inside[v] = false;
                    post.push(v);
                    path.pop();
                    continue;
                };
                *k += 1;
                let w = self.target(e);
                if inside[w] {
                    heads[w] |= w != v;
                } else if !seen[w] {
                    seen[w] = true;
                    inside[w] = true;
                    path.push((w, 0));
                }
            }
        }
        post.reverse();
        (post, heads)
    }
}

struct Emitter<'a, V> {
    p: &'a CompiledParser<V>,
    g: &'a Graph,
    out: String,
}

impl<V> Emitter<'_, V> {
    fn line(&mut self, depth: usize, text: &str) {
        if !text.is_empty() {
            for _ in 0..depth {
                self.out.push_str("    ");
            }
            self.out.push_str(text);
        }
        self.out.push('\n');
    }

    fn module(&mut self, name: &str) {
        let (p, g) = (self.p, self.g);
        let arms: Vec<usize> = (0..g.edges.len()).filter(|&t| g.arm[t]).collect();
        self.line(
            0,
            &format!(
                "/// Recognizer generated by flap-staged ({} states, {} with a match arm; \
                 {} nonterminals).",
                g.edges.len(),
                arms.len(),
                g.starts.len()
            ),
        );
        self.line(
            0,
            "/// Do not edit; regenerate via `flap_staged::codegen::emit_rust`.",
        );
        self.line(0, &format!("pub mod {name} {{"));
        // a nonterminal no production uses leaves its start state
        // unconstructed, the start's scan may mark a match before any
        // stop reads `rs`, and machine-written matches are not
        // idiomatic Rust
        self.line(1, "#![allow(dead_code, unused_assignments, clippy::all)]");
        self.line(0, "");
        self.line(1, "/// The automaton states that own a match arm.");
        self.line(1, "enum State {");
        for &t in &arms {
            self.line(2, &format!("S{t},"));
        }
        self.line(1, "}");
        let skip = p.skip.as_ref().map(skip_edges);
        if let Some(skip) = &skip {
            self.line(0, "");
            self.line(1, "/// The live states of the skip automaton.");
            self.line(1, "enum Skip {");
            for (k, _) in skip {
                self.line(2, &format!("K{k},"));
            }
            self.line(1, "}");
        }
        self.line(0, "");
        self.line(
            1,
            "/// Recognizes a complete input; `Err` holds the offset where",
        );
        self.line(1, "/// it fails.");
        self.line(1, "pub fn recognize(s: &[u8]) -> Result<(), usize> {");
        self.line(2, "// the start states of the nonterminals still to parse");
        self.line(2, "let mut stack: Vec<State> = Vec::new();");
        self.line(2, "// the scan: its token's start, the end of its longest");
        self.line(2, "// match, and the next byte");
        self.line(2, "let mut tok = 0;");
        self.line(2, "let mut rs = 0;");
        self.line(2, "let mut i = 0;");
        let start = g.starts[p.start_nt as usize];
        self.line(2, &format!("let mut st = State::S{start};"));
        self.line(2, "'run: loop {");
        self.line(3, "match st {");
        for &t in &arms {
            self.line(4, &format!("State::S{t} => {{"));
            self.state(t, 5);
            self.line(4, "}");
        }
        self.line(3, "}");
        self.line(2, "}");
        if let Some(skip) = &skip {
            self.trailing(skip);
        }
        self.line(2, "if i == s.len() {");
        self.line(3, "Ok(())");
        self.line(2, "} else {");
        self.line(3, "Err(i)");
        self.line(2, "}");
        self.line(1, "}");
        self.line(0, "}");
    }

    /// Writes the code of state `t`, entered with `i` at its next
    /// byte, with inlined successors' code in place of jumps to them.
    /// Every path leaves by a jump, a return or the end of the run.
    fn state(&mut self, t: usize, depth: usize) {
        let g = self.g;
        self.line(depth, &format!("// state {t}"));
        if g.edges[t].is_empty() {
            self.stop(t, depth);
            return;
        }
        let looping = g.edges[t].iter().any(|&(e, _)| g.target(e) == t);
        let d = depth + usize::from(looping);
        if looping {
            self.line(depth, "loop {");
        }
        self.line(d, "match s.get(i).copied() {");
        for (e, set) in &g.edges[t] {
            let u = g.target(*e);
            self.line(d + 1, &format!("Some({}) => {{", byte_patterns(set)));
            self.line(d + 2, "i += 1;");
            if e & 1 == 1 {
                self.line(d + 2, "rs = i;");
            }
            if u == t {
                // the inner loop goes round
            } else if g.arm[u] {
                self.jump(u, d + 2);
            } else {
                self.state(u, d + 2);
            }
            self.line(d + 1, "}");
        }
        self.line(d + 1, "_ => {");
        self.stop(t, d + 2);
        self.line(d + 1, "}");
        self.line(d, "}");
        if looping {
            self.line(depth, "}");
        }
    }

    fn jump(&mut self, t: usize, depth: usize) {
        self.line(depth, &format!("st = State::S{t};"));
        self.line(depth, "continue 'run;");
    }

    /// Writes what state `t` does when no transition applies (a dead
    /// byte or the end of input): `Step(k, rs)` of Fig 10.
    fn stop(&mut self, t: usize, depth: usize) {
        let (p, g) = (self.p, self.g);
        let prod = match g.stops[t] {
            StopAction::Fail => return self.line(depth, "return Err(tok);"),
            StopAction::Eps(_) => {
                self.line(depth, "i = tok;");
                return self.pop(depth);
            }
            StopAction::Match(prod) => prod as usize,
        };
        self.line(depth, "i = rs;");
        self.line(depth, "tok = rs;");
        let tail = if p.conts.is_skip(prod) {
            // a skip production rescans its own nonterminal
            vec![p.prod_owner[prod]]
        } else {
            p.conts.tail(prod)
        };
        let Some((&first, rest)) = tail.split_first() else {
            return self.pop(depth);
        };
        for &m in rest.iter().rev() {
            let m = g.starts[m as usize];
            self.line(depth, &format!("stack.push(State::S{m});"));
        }
        self.jump(g.starts[first as usize], depth);
    }

    /// Writes a return to the nonterminal on top of the stack, or the
    /// end of the run when none is left.
    fn pop(&mut self, depth: usize) {
        self.line(depth, "st = match stack.pop() {");
        self.line(depth + 1, "Some(next) => next,");
        self.line(depth + 1, "None => break 'run,");
        self.line(depth, "};");
        self.line(depth, "continue 'run;");
    }

    /// Writes the scan of trailing skippable input, one longest skip
    /// lexeme at a time, leaving `i` after the last.
    fn trailing(&mut self, skip: &[(u32, SkipState)]) {
        self.line(
            2,
            "// trailing skippable input, one longest lexeme at a time",
        );
        self.line(2, "loop {");
        self.line(3, "let mut j = i;");
        self.line(3, "let mut end = i;");
        self.line(3, "let mut k = Skip::K0;");
        self.line(3, "loop {");
        self.line(4, "match k {");
        for (k, edges) in skip {
            if edges.is_empty() {
                self.line(5, &format!("Skip::K{k} => break,"));
                continue;
            }
            self.line(5, &format!("Skip::K{k} => match s.get(j).copied() {{"));
            for &(u, accepting, ref set) in edges {
                self.line(6, &format!("Some({}) => {{", byte_patterns(set)));
                self.line(7, "j += 1;");
                if accepting {
                    self.line(7, "end = j;");
                }
                self.line(7, &format!("k = Skip::K{u};"));
                self.line(6, "}");
            }
            self.line(6, "_ => break,");
            self.line(5, "},");
        }
        self.line(4, "}");
        self.line(3, "}");
        self.line(3, "if end == i {");
        self.line(4, "break;");
        self.line(3, "}");
        self.line(3, "i = end;");
        self.line(2, "}");
    }
}

/// A skip-automaton state's transitions: (successor, whether it
/// accepts, bytes).
type SkipState = Vec<(u32, bool, ByteSet)>;

/// The skip automaton's start state and every state a transition
/// enters (its sink is the DEAD sentinel, not a state), with their
/// transitions.
fn skip_edges(skip: &FlatDfa) -> Vec<(u32, SkipState)> {
    let all: Vec<SkipState> = (0..skip.state_count() as u32)
        .map(|k| {
            group(|b| skip.next_state(k, b))
                .into_iter()
                .map(|(u, set)| (u, skip.accepting(u), set))
                .collect()
        })
        .collect();
    let entered = |k: u32| k == 0 || all.iter().flatten().any(|&(u, _, _)| u == k);
    (0..all.len() as u32)
        .filter(|&k| entered(k))
        .map(|k| (k, all[k as usize].clone()))
        .collect()
}

/// Groups a successor function into (successor, byte set) pairs in
/// order of each successor's lowest byte, skipping dead bytes
/// (`None`).
fn group(mut next: impl FnMut(u8) -> Option<u32>) -> Vec<(u32, ByteSet)> {
    let mut pairs: Vec<(u32, ByteSet)> = Vec::new();
    for b in 0..=255u8 {
        let Some(t) = next(b) else { continue };
        match pairs.iter_mut().find(|(x, _)| *x == t) {
            Some((_, set)) => set.insert(b),
            None => pairs.push((t, ByteSet::single(b))),
        }
    }
    pairs
}

/// Renders a byte set as a Rust `match` pattern
/// (`b'a'..=b'z' | b'_' | 0x00..=0x08`).
fn byte_patterns(set: &ByteSet) -> String {
    let bytes: Vec<u8> = set.iter().collect();
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let lo = bytes[i];
        let mut hi = lo;
        while i + 1 < bytes.len() && bytes[i + 1] == hi + 1 {
            hi = bytes[i + 1];
            i += 1;
        }
        if lo == hi {
            parts.push(byte_lit(lo));
        } else {
            parts.push(format!("{}..={}", byte_lit(lo), byte_lit(hi)));
        }
        i += 1;
    }
    parts.join(" | ")
}

fn byte_lit(b: u8) -> String {
    match b {
        b'\n' => "b'\\n'".to_string(),
        b'\t' => "b'\\t'".to_string(),
        b'\r' => "b'\\r'".to_string(),
        b'\'' => "b'\\''".to_string(),
        b'\\' => "b'\\\\'".to_string(),
        0x20..=0x7e => format!("b'{}'", b as char),
        _ => format!("0x{:02x}", b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_cfe::Cfe;
    use flap_dgnf::normalize;
    use flap_fuse::fuse;
    use flap_lex::LexerBuilder;

    fn sexp_parser() -> CompiledParser<i64> {
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let mut lexer = b.build().unwrap();
        let sexp: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        let g = normalize(&sexp).unwrap();
        let fused = fuse(&mut lexer, &g).unwrap();
        CompiledParser::compile(&mut lexer, &fused)
    }

    /// Keywords sharing prefixes, and a token whose two spellings
    /// meet again (`abef`, `cdef`): a state with two predecessors,
    /// inlined at both.
    fn keyword_parser() -> CompiledParser<i64> {
        let mut b = LexerBuilder::new();
        let words =
            ["true", "false", "null", "nil", "nope", "(ab|cd)ef"].map(|w| b.token(w, w).unwrap());
        b.skip(" +").unwrap();
        let num = b.token("num", "[0-9]+(\\.[0-9]+)?").unwrap();
        let mut lexer = b.build().unwrap();
        let word = words
            .into_iter()
            .map(|t| Cfe::tok_val(t, 1))
            .fold(Cfe::tok_val(num, 1), |a, w| a.or(w));
        let g: Cfe<i64> = Cfe::fix(|list| Cfe::eps_with(|| 0).or(word.then(list, |a, b| a + b)));
        let fused = fuse(&mut lexer, &normalize(&g).unwrap()).unwrap();
        CompiledParser::compile(&mut lexer, &fused)
    }

    #[test]
    fn emits_each_state_once_per_entry() {
        for p in [sexp_parser(), keyword_parser()] {
            let src = emit_rust(&p, "m");
            let g = Graph::of(&p);
            let emitted = |t: usize| src.matches(&format!("// state {t}\n")).count();
            for t in 0..p.state_count() {
                let arms = src.matches(&format!("State::S{t} => {{")).count();
                // an arm's code once; an inlined state's code once in
                // each emitted predecessor that branches to it
                let entries: usize = (0..p.state_count())
                    .filter(|&q| q != t)
                    .map(|q| {
                        let branches = g.edges[q].iter().filter(|&&(e, _)| g.target(e) == t);
                        branches.count() * emitted(q)
                    })
                    .sum();
                let want = if g.arm[t] { 1 } else { entries };
                assert_eq!(arms, usize::from(g.arm[t]), "state {t}:\n{src}");
                assert!(want >= 1, "state {t} is never emitted");
                assert_eq!(emitted(t), want, "state {t}:\n{src}");
            }
            assert!(src.contains("pub fn recognize"));
        }
        // the keyword automaton does inline some state more than once
        let p = keyword_parser();
        let src = emit_rust(&p, "m");
        assert!((0..p.state_count()).any(|t| src.matches(&format!("// state {t}\n")).count() > 1));
    }

    #[test]
    fn emitted_code_is_brace_balanced() {
        let p = sexp_parser();
        let src = emit_rust(&p, "m");
        let open = src.matches('{').count();
        let close = src.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn emitted_code_matches_paper_shape() {
        // §5.5: per-character branches use class patterns like
        // 'a'..'z' and whitespace alternations.
        let p = sexp_parser();
        let src = emit_rust(&p, "sexp_gen");
        assert!(src.contains("pub mod sexp_gen {"));
        assert!(
            src.contains("b'a'..=b'z'"),
            "expected a character-class range:\n{src}"
        );
        assert!(src.contains("b'('"), "expected a literal branch");
    }

    #[test]
    fn byte_pattern_rendering() {
        let mut s = ByteSet::range(b'a', b'z');
        s.insert(b'_');
        assert_eq!(byte_patterns(&s), "b'_' | b'a'..=b'z'");
        assert_eq!(byte_lit(b'\''), "b'\\''");
        assert_eq!(byte_lit(0x01), "0x01");
        assert_eq!(byte_lit(b' '), "b' '");
    }
}
