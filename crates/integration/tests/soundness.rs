//! Normalization soundness (Theorem 3.8), tested empirically: for
//! random *well-typed* context-free expressions, the normalized DGNF
//! grammar expands to exactly the token strings the denotational
//! semantics admits, and every parser in the repo agrees on
//! membership.

use flap_cfe::{naive_matches, type_check, Cfe};
use flap_dgnf::{expand_words, normalize, DgnfParser};
use flap_lex::{CompiledLexer, Lexeme, Token};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_TOKENS: usize = 3;

fn t(i: usize) -> Token {
    Token::from_index(i)
}

/// Generates a random CFE over 3 tokens; most are ill-typed and get
/// filtered by the caller.
fn random_cfe(rng: &mut StdRng, depth: usize, vars: &[Cfe<i64>]) -> Cfe<i64> {
    let leaf = depth == 0;
    match rng.random_range(0..if leaf { 3 } else { 8 }) {
        0 => Cfe::tok_val(t(rng.random_range(0..N_TOKENS)), 1),
        1 => Cfe::eps(0),
        2 if !vars.is_empty() => vars[rng.random_range(0..vars.len())].clone(),
        2 => Cfe::tok_val(t(rng.random_range(0..N_TOKENS)), 1),
        3 | 4 => {
            let a = random_cfe(rng, depth - 1, vars);
            let b = random_cfe(rng, depth - 1, vars);
            a.then(b, |x, y| x + y)
        }
        5 | 6 => {
            let a = random_cfe(rng, depth - 1, vars);
            let b = random_cfe(rng, depth - 1, vars);
            a.or(b)
        }
        _ => {
            // μ: generate the body with the variable in scope
            let seed: u64 = rng.random();
            let d = depth - 1;
            let vars2 = vars.to_vec();
            Cfe::fix(move |x| {
                let mut rng2 = StdRng::seed_from_u64(seed);
                let mut vs = vars2.clone();
                vs.push(x);
                random_cfe(&mut rng2, d, &vs)
            })
        }
    }
}

/// All token strings over the 3-token alphabet with length ≤ max.
fn all_words(max: usize) -> Vec<Vec<Token>> {
    let mut out: Vec<Vec<Token>> = vec![vec![]];
    let mut frontier: Vec<Vec<Token>> = vec![vec![]];
    for _ in 0..max {
        let mut next = Vec::new();
        for w in &frontier {
            for i in 0..N_TOKENS {
                let mut w2 = w.clone();
                w2.push(t(i));
                next.push(w2);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

#[test]
fn theorem_3_8_on_random_well_typed_grammars() {
    let mut rng = StdRng::seed_from_u64(20230411);
    let words = all_words(5);
    let mut tested = 0;
    let mut attempts = 0;
    while tested < 40 && attempts < 4000 {
        attempts += 1;
        let g = random_cfe(&mut rng, 3, &[]);
        if type_check(&g).is_err() {
            continue;
        }
        tested += 1;
        let grammar = normalize(&g).unwrap_or_else(|e| panic!("well-typed must normalize: {e}"));
        grammar
            .check_dgnf()
            .unwrap_or_else(|e| panic!("normalization must produce DGNF (Thm 3.7): {e}"));
        let expanded = expand_words(&grammar, 5);
        for w in &words {
            let sem = naive_matches(&g, w);
            let dgnf = expanded.contains(w);
            assert_eq!(
                sem, dgnf,
                "Theorem 3.8 violated on {:?} for grammar #{tested} ({:?})",
                w, g
            );
        }
    }
    assert!(
        tested >= 40,
        "only {tested} well-typed grammars in {attempts} attempts"
    );
}

#[test]
fn dgnf_parser_agrees_with_membership() {
    // Fig 8 parsing accepts exactly the member strings. Words are
    // fed as synthetic lexemes (token-level test, no lexer).
    let mut rng = StdRng::seed_from_u64(7);
    let words = all_words(4);
    let mut tested = 0;
    while tested < 25 {
        let g = random_cfe(&mut rng, 3, &[]);
        if type_check(&g).is_err() {
            continue;
        }
        tested += 1;
        let grammar = normalize(&g).expect("normalizes");
        let parser = DgnfParser::new(&grammar);
        for w in &words {
            let lexemes: Vec<Lexeme> = w
                .iter()
                .enumerate()
                .map(|(i, &tok)| Lexeme {
                    token: tok,
                    start: i,
                    end: i + 1,
                })
                .collect();
            let input = vec![b'x'; w.len()];
            let parsed = parser
                .parse(&input, lexemes.iter().copied().map(Ok))
                .is_ok();
            let member = naive_matches(&g, w);
            assert_eq!(parsed, member, "Fig 8 disagrees with semantics on {:?}", w);
        }
    }
}

#[test]
fn whitespace_insertion_is_invisible_metamorphic() {
    // For a whitespace-skipping grammar, injecting extra whitespace
    // between lexemes must not change the parse value.
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let mut lexer = (def.lexer)();
    let clex = CompiledLexer::build(&mut lexer);
    let mut rng = StdRng::seed_from_u64(99);
    for seed in 0..8 {
        let input = (def.generate)(seed, 600);
        let base = parser.parse(&input).expect("valid input");
        // rebuild the input with random whitespace between lexemes
        let lexemes = clex.tokenize(&input).expect("lexes");
        let mut spaced = Vec::new();
        for lx in &lexemes {
            // at least one separator, so adjacent atoms cannot merge
            for _ in 0..rng.random_range(1..4) {
                spaced.push(if rng.random_bool(0.5) { b' ' } else { b'\n' });
            }
            spaced.extend_from_slice(lx.bytes(&input));
        }
        spaced.extend(std::iter::repeat_n(b' ', rng.random_range(0..3)));
        assert_eq!(parser.parse(&spaced).expect("spaced input parses"), base);
    }
}
