//! Emission of the staged parser as Rust source code.
//!
//! flap's final stage splices the residual program into OCaml code
//! via MetaOCaml and Yallop–Kiselyov let-rec insertion; the §5.5
//! excerpt shows the per-state functions it generates. This module
//! prints the same mutually recursive functions as Rust source: one
//! function per compiled state, branching on character classes, plus
//! one entry point per nonterminal.
//!
//! Semantic actions are arbitrary Rust closures and cannot be
//! serialized, so the emitted program is a *recognizer*: it returns
//! the consumed length or the failure offset. The `flap-bench` build
//! script compiles emitted recognizers into the benchmark binary,
//! giving a genuinely staged (ahead-of-time native) data point.

use std::fmt::Write as _;

use flap_regex::ByteSet;

use crate::compile::{CompiledParser, StopAction, STOP};

/// Emits the compiled parser as the source of a Rust module named
/// `module_name`, exposing
/// `pub fn recognize(s: &[u8]) -> Result<(), usize>`.
///
/// The emitted code is self-contained (no dependencies) and mirrors
/// the structure of flap's generated OCaml: a `match` per state over
/// character classes, a tail call per transition, and a stop function
/// per state implementing `Step(k, rs)`.
///
/// Note: continuations are emitted in tail position, but Rust (unlike
/// OCaml, whose guaranteed tail calls flap's generated code relies
/// on, §5.5) does not promise tail-call elimination, so unbounded
/// right-recursion (long lists) may need a large stack when LLVM
/// declines the optimization; nesting-shaped recursion is bounded by
/// input depth as usual.
/// # Panics
///
/// Code generation reads the staged per-state structure, which
/// artifact loading does not retain (only the flat tables travel in
/// an artifact) — emitting from an artifact-loaded parser panics;
/// compile the grammar freshly to generate source.
pub fn emit_rust<V>(p: &CompiledParser<V>, module_name: &str) -> String {
    assert_eq!(
        p.states.len(),
        p.state_count(),
        "emit_rust requires a freshly compiled parser; \
         artifact-loaded parsers carry tables only"
    );
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "/// Recognizer generated by flap-staged ({} states, {} nonterminals).",
        p.states.len(),
        p.nt_start.len()
    );
    let _ = writeln!(
        w,
        "/// Do not edit; regenerate via `flap_staged::codegen::emit_rust`."
    );
    let _ = writeln!(w, "pub mod {} {{", module_name);
    // stop functions take a uniform signature whether or not they use
    // every argument, and machine-written matches are not idiomatic
    // Rust; silence the per-function noise wholesale
    let _ = writeln!(w, "    #![allow(unused_variables, dead_code, clippy::all)]");
    let _ = writeln!(w, "    /// `Ok(next position)` or `Err(failure offset)`.");
    let _ = writeln!(w, "    pub type Step = Result<usize, usize>;");
    let _ = writeln!(w);
    let _ = writeln!(w, "    /// Recognizes a complete input.");
    let _ = writeln!(w, "    pub fn recognize(s: &[u8]) -> Result<(), usize> {{");
    let _ = writeln!(w, "        let i = nt_{}(s, 0)?;", p.start_nt);
    let _ = writeln!(w, "        let i = trailing(s, i);");
    let _ = writeln!(w, "        if i == s.len() {{ Ok(()) }} else {{ Err(i) }}");
    let _ = writeln!(w, "    }}");
    let _ = writeln!(w);

    // Trailing-skip consumption, from the compiled skip DFA.
    match &p.skip {
        None => {
            let _ = writeln!(w, "    fn trailing(_s: &[u8], i: usize) -> usize {{ i }}");
        }
        Some(dfa) => {
            let _ = writeln!(w, "    fn trailing(s: &[u8], mut i: usize) -> usize {{");
            let _ = writeln!(w, "        loop {{");
            let _ = writeln!(w, "            match skip_0(s, i) {{");
            let _ = writeln!(w, "                Some(j) if j > i => i = j,");
            let _ = writeln!(w, "                _ => return i,");
            let _ = writeln!(w, "            }}");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "    }}");
            for id in 0..dfa.state_count() {
                let _ = writeln!(w);
                let _ = writeln!(
                    w,
                    "    fn skip_{}(s: &[u8], i: usize) -> Option<usize> {{",
                    id
                );
                let best = if dfa.accepting(id as u32) {
                    "Some(i)"
                } else {
                    "None"
                };
                let _ = writeln!(w, "        let best = {};", best);
                let _ = writeln!(w, "        match s.get(i).copied() {{");
                // group bytes by successor; the flat DFA's sink is
                // already normalized away (`next_state` returns None)
                for (target, set) in group_targets(|b| dfa.next_state(id as u32, b)) {
                    let pat = byte_patterns(&set);
                    let pat = if pat.contains(" | ") {
                        format!("({pat})")
                    } else {
                        pat
                    };
                    let _ = writeln!(
                        w,
                        "            Some(b @ {}) => {{ let _ = b; skip_{}(s, i + 1).or(best) }}",
                        pat, target
                    );
                }
                let _ = writeln!(w, "            _ => best,");
                let _ = writeln!(w, "        }}");
                let _ = writeln!(w, "    }}");
            }
        }
    }

    // Nonterminal entry points.
    for (nt, &start) in p.nt_start.iter().enumerate() {
        let _ = writeln!(w);
        let _ = writeln!(w, "    /// Entry point for nonterminal n{}.", nt);
        let _ = writeln!(w, "    fn nt_{}(s: &[u8], i: usize) -> Step {{", nt);
        let _ = writeln!(w, "        state_{}(s, i, i, i)", start);
        let _ = writeln!(w, "    }}");
    }

    // One function per state, plus its stop function.
    for (id, st) in p.states.iter().enumerate() {
        let _ = writeln!(w);
        let _ = writeln!(
            w,
            "    fn state_{}(s: &[u8], r: usize, rs: usize, i: usize) -> Step {{",
            id
        );
        let _ = writeln!(w, "        match s.get(i).copied() {{");
        for (set, entry) in &st.classes {
            if *entry == STOP {
                continue;
            }
            let target = entry >> 1;
            let mark = entry & 1 == 1;
            let rs_expr = if mark { "i + 1" } else { "rs" };
            let _ = writeln!(
                w,
                "            Some({}) => state_{}(s, r, {}, i + 1),",
                byte_patterns(set),
                target,
                rs_expr
            );
        }
        let _ = writeln!(w, "            _ => stop_{}(s, r, rs),", id);
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(
            w,
            "    fn stop_{}(s: &[u8], r: usize, rs: usize) -> Step {{",
            id
        );
        match st.stop {
            StopAction::Fail => {
                let _ = writeln!(w, "        let _ = (s, rs);");
                let _ = writeln!(w, "        Err(r)");
            }
            StopAction::Eps(_) => {
                let _ = writeln!(w, "        let _ = (s, rs);");
                let _ = writeln!(w, "        Ok(r)");
            }
            StopAction::Match(prod) if p.conts.is_skip(prod as usize) => {
                let _ = writeln!(w, "        let _ = r;");
                let _ = writeln!(w, "        nt_{}(s, rs)", p.prod_owner[prod as usize]);
            }
            StopAction::Match(prod) => {
                let _ = writeln!(w, "        let _ = r;");
                let _ = writeln!(w, "        let i = rs;");
                // all but the last continuation propagate errors;
                // the last is emitted in tail position so that
                // right-recursive lists (one production per list
                // element) compile to a loop rather than one
                // stack frame per element
                match p.conts.tail(prod as usize).split_last() {
                    None => {
                        let _ = writeln!(w, "        Ok(i)");
                    }
                    Some((last, init)) => {
                        for m in init {
                            let _ = writeln!(w, "        let i = nt_{}(s, i)?;", m);
                        }
                        let _ = writeln!(w, "        nt_{}(s, i)", last);
                    }
                }
            }
        }
        let _ = writeln!(w, "    }}");
    }
    let _ = writeln!(w, "}}");
    out
}

/// Groups a successor function into (target, byte set) pairs,
/// skipping dead bytes (`None`).
fn group_targets(mut next: impl FnMut(u8) -> Option<u32>) -> Vec<(usize, ByteSet)> {
    let mut pairs: Vec<(usize, ByteSet)> = Vec::new();
    for b in 0..=255u8 {
        let Some(t) = next(b) else { continue };
        let t = t as usize;
        match pairs.iter_mut().find(|(x, _)| *x == t) {
            Some((_, set)) => set.insert(b),
            None => {
                pairs.push((t, ByteSet::single(b)));
            }
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

    #[test]
    fn emits_one_function_per_state() {
        let p = sexp_parser();
        let src = emit_rust(&p, "sexp_gen");
        for id in 0..p.state_count() {
            assert!(
                src.contains(&format!("fn state_{}(", id)),
                "missing state_{id}"
            );
            assert!(
                src.contains(&format!("fn stop_{}(", id)),
                "missing stop_{id}"
            );
        }
        assert!(src.contains("pub fn recognize"));
        assert!(src.contains("pub mod sexp_gen {"));
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
        let src = emit_rust(&p, "m");
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
