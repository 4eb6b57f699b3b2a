//! Differential test of [`LexerBuilder::build`]'s shadowing check
//! against the check it replaced, which built an emptiness DFA for
//! every rule's `r − seen`. On random rule lists both must return the
//! same result and name the same rule, and the lexers they build
//! must tokenize alike.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flap_regex::is_empty_lang;

use super::*;
use crate::CompiledLexer;

/// Literals with keyword/identifier overlaps (`if`, `in`, `int`),
/// prefix pairs (`=`/`==`, `<`/`<=`) and bytes that the classes below
/// cover.
const LITERALS: &[&str] = &[
    "if", "in", "int", "i", "=", "==", "<", "<=", "+", "-", "a", "ab", "x1", "0",
];
/// Identifier and number patterns, classes covering the literals'
/// bytes, and one nullable pattern.
const PATTERNS: &[&str] = &[
    "[a-z]+",
    "[a-z][a-z0-9]*",
    "[0-9]+",
    "[+-]",
    "[<=>]",
    "[<=>]=?",
    "i(f|n)",
    "(ab)+",
    "[a-z]*x",
    "a|b",
    "a*",
];
const SKIPS: &[&str] = &[" ", "[ \t]", "[ \t]+", "#[a-z]*\n"];
/// Literals in pattern syntax, for `also`.
const ALSO_LITERALS: &[&str] = &[
    "if", "in", "int", r"\=", r"\=\=", r"\<\=", r"\+", "ab", "x1",
];
/// The bytes the random inputs are drawn from.
const ALPHABET: &[u8] = b"abfintx01=<>+- \t\n#";

#[derive(Clone, Copy, Debug)]
enum Decl {
    Literal(&'static str),
    Pattern(&'static str),
    /// Another pattern for the `n`-th declared token.
    Also(usize, &'static str),
    Skip(&'static str),
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

fn random_decls(rng: &mut StdRng) -> Vec<Decl> {
    let mut decls = Vec::new();
    let mut tokens = 0;
    for _ in 0..rng.random_range(1..=8) {
        let d = match rng.random_range(0..10) {
            0..=3 => Decl::Literal(pick(rng, LITERALS)),
            4..=6 => Decl::Pattern(pick(rng, PATTERNS)),
            7 if tokens > 0 => {
                let pattern = if rng.random_bool(0.5) {
                    pick(rng, ALSO_LITERALS)
                } else {
                    pick(rng, PATTERNS)
                };
                Decl::Also(rng.random_range(0..tokens), pattern)
            }
            _ => Decl::Skip(pick(rng, SKIPS)),
        };
        tokens += usize::from(matches!(d, Decl::Literal(_) | Decl::Pattern(_)));
        decls.push(d);
    }
    decls
}

fn declare(decls: &[Decl]) -> LexerBuilder {
    let mut b = LexerBuilder::new();
    let mut tokens = Vec::new();
    for d in decls {
        let name = format!("t{}", tokens.len());
        match *d {
            Decl::Literal(lit) => tokens.push(b.token_literal(&name, lit).unwrap()),
            Decl::Pattern(p) => tokens.push(b.token(&name, p).unwrap()),
            Decl::Also(t, p) => b.also(tokens[t], p).unwrap(),
            Decl::Skip(p) => b.skip(p).unwrap(),
        }
    }
    b
}

/// The canonicalization `build` ran before literal-aware checks: an
/// emptiness DFA for every rule's `r − seen`, interleaved with
/// building the canonical regexes.
fn per_rule_emptiness_build(mut b: LexerBuilder) -> Result<Lexer, LexBuildError> {
    for (r, action) in &b.raw_rules {
        if b.arena.nullable(*r) {
            return Err(LexBuildError::NullableRule {
                name: b.rule_name(*action),
            });
        }
    }
    let mut seen = RegexArena::EMPTY;
    let mut per_token = vec![RegexArena::EMPTY; b.token_names.len()];
    let mut skip = RegexArena::EMPTY;
    for (r, action) in std::mem::take(&mut b.raw_rules) {
        let canon = b.arena.minus(r, seen);
        if is_empty_lang(&mut b.arena, canon) {
            return Err(LexBuildError::ShadowedRule {
                name: b.rule_name(action),
            });
        }
        seen = b.arena.alt(seen, r);
        match action {
            LexAction::Return(t) => per_token[t.index()] = b.arena.alt(per_token[t.index()], canon),
            LexAction::Skip => skip = b.arena.alt(skip, canon),
        }
    }
    let mut rules: Vec<Rule> = per_token
        .iter()
        .enumerate()
        .map(|(i, &regex)| Rule {
            regex,
            action: LexAction::Return(Token(i as u32)),
        })
        .collect();
    let skip = (skip != RegexArena::EMPTY).then_some(skip);
    rules.extend(skip.map(|regex| Rule {
        regex,
        action: LexAction::Skip,
    }));
    Ok(Lexer {
        arena: b.arena,
        rules,
        skip,
        token_names: b.token_names,
    })
}

/// Each rule's regex as printed, children in arena order: the shape
/// that `grammar_key` encodes.
fn shape(lexer: &Lexer) -> Vec<String> {
    let rules = lexer.rules().iter();
    rules
        .map(|r| format!("{:?} {}", r.action, lexer.arena().display(r.regex)))
        .collect()
}

#[test]
fn literal_aware_shadowing_matches_per_rule_emptiness() {
    let (mut ok, mut shadowed, mut nullable) = (0, 0, 0);
    for seed in 0..400 {
        let mut rng = StdRng::seed_from_u64(seed);
        let decls = random_decls(&mut rng);
        let old = per_rule_emptiness_build(declare(&decls));
        let new = declare(&decls).build();
        let (mut old, mut new) = match (old, new) {
            (Ok(old), Ok(new)) => (old, new),
            (Err(old), Err(new)) => {
                assert_eq!(old, new, "seed {seed}: {decls:?}");
                match old {
                    LexBuildError::ShadowedRule { .. } => shadowed += 1,
                    LexBuildError::NullableRule { .. } => nullable += 1,
                    e => panic!("seed {seed}: unexpected {e:?}"),
                }
                continue;
            }
            (old, new) => panic!(
                "seed {seed}: {decls:?}: per-rule emptiness gave {:?}, build gave {:?}",
                old.err(),
                new.err()
            ),
        };
        ok += 1;
        let again = declare(&decls).build().expect("the same declarations");
        assert_eq!(shape(&new), shape(&again), "seed {seed}: two builds differ");
        let (old_lexer, new_lexer) = (
            CompiledLexer::build(&mut old),
            CompiledLexer::build(&mut new),
        );
        for _ in 0..40 {
            let len = rng.random_range(0..12);
            let input: Vec<u8> = (0..len).map(|_| pick(&mut rng, ALPHABET)).collect();
            assert_eq!(
                old_lexer.tokenize(&input),
                new_lexer.tokenize(&input),
                "seed {seed}: {decls:?} on {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
    // every outcome is exercised
    assert!(
        ok > 100 && shadowed > 40 && nullable > 10,
        "{ok} {shadowed} {nullable}"
    );
}
