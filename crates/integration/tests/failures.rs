//! Failure injection: every way a user can hold the library wrong
//! must produce a structured error, not a panic or a wrong parse.

use flap::flap_fuse::FuseError;
use flap::{Cfe, CompileError, LexBuildError, LexerBuilder, Parser, TypeError};

fn lexer_ab() -> (flap::Lexer, flap::Token, flap::Token) {
    let mut b = LexerBuilder::new();
    let a = b.token("a", "a").unwrap();
    let z = b.token("z", "z").unwrap();
    (b.build().unwrap(), a, z)
}

#[test]
fn ambiguous_alternatives_are_type_errors() {
    let (lexer, a, _) = lexer_ab();
    let g: Cfe<i64> = Cfe::tok_val(a, 1).or(Cfe::tok_val(a, 2));
    match Parser::compile(lexer, &g) {
        Err(CompileError::Type(TypeError::NotApart { overlap, .. })) => {
            assert!(overlap.contains(a));
        }
        other => panic!(
            "expected NotApart, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn left_recursion_is_a_type_error() {
    let (lexer, a, _) = lexer_ab();
    let g: Cfe<i64> = Cfe::fix(|x| {
        x.then(Cfe::tok_val(a, 1), |p, q| p + q)
            .or(Cfe::tok_val(a, 1))
    });
    assert!(matches!(
        Parser::compile(lexer, &g),
        Err(CompileError::Type(TypeError::LeftRecursion { .. }))
    ));
}

#[test]
fn nullable_seq_head_is_a_type_error() {
    let (lexer, a, _) = lexer_ab();
    let g: Cfe<i64> = Cfe::eps(0).then(Cfe::tok_val(a, 1), |p, q| p + q);
    assert!(matches!(
        Parser::compile(lexer, &g),
        Err(CompileError::Type(TypeError::NotSeparable {
            left_nullable: true,
            ..
        }))
    ));
}

#[test]
fn ambiguous_sequencing_is_a_type_error() {
    // (a·z?)·z — after an optional z, a mandatory z is ambiguous
    let (lexer, a, z) = lexer_ab();
    let opt_z = Cfe::opt(Cfe::tok_val(z, 0), || 0);
    let g: Cfe<i64> = Cfe::tok_val(a, 0)
        .then(opt_z, |p, q| p + q)
        .then(Cfe::tok_val(z, 0), |p, q| p + q);
    match Parser::compile(lexer, &g) {
        Err(CompileError::Type(TypeError::NotSeparable { overlap, .. })) => {
            assert!(overlap.contains(z));
        }
        other => panic!(
            "expected NotSeparable, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn a_token_the_lexer_lacks_is_a_fusion_error() {
    // the grammar is written against a four-token lexer, then compiled
    // against the two-token one: type-check and normalization pass,
    // fusion finds no regex for the token
    let (lexer, _, _) = lexer_ab();
    let mut b = LexerBuilder::new();
    for (name, re) in [("a", "a"), ("z", "z"), ("x", "x")] {
        b.token(name, re).unwrap();
    }
    let y = b.token("y", "y").unwrap();
    let g: Cfe<i64> = Cfe::tok_val(y, 1);
    match Parser::compile(lexer, &g) {
        Err(CompileError::Fuse(FuseError::UnknownToken(t))) => assert_eq!(t, y),
        other => panic!(
            "expected UnknownToken, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn lexer_rejects_nullable_and_shadowed_rules() {
    let mut b = LexerBuilder::new();
    b.token("maybe", "a?").unwrap();
    assert!(matches!(b.build(), Err(LexBuildError::NullableRule { .. })));

    let mut b = LexerBuilder::new();
    b.token("word", "[a-z]+").unwrap();
    b.token("kw", "if").unwrap(); // fully inside word's language
    assert!(matches!(b.build(), Err(LexBuildError::ShadowedRule { .. })));
}

#[test]
fn parse_errors_carry_byte_positions() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    match parser.parse(br#"{"a": }"#) {
        Err(flap::ParseError::NoMatch { pos, .. }) => assert_eq!(pos, 6),
        other => panic!("expected NoMatch, got {other:?}"),
    }
    match parser.parse(b"{} trailing") {
        Err(flap::ParseError::TrailingInput { pos, line, col }) => {
            assert_eq!((pos, line, col), (3, 1, 4));
        }
        other => panic!("expected TrailingInput, got {other:?}"),
    }
    // multi-line input: line/column point at the failure, not byte 0
    match parser.parse(b"{\n  \"a\": }") {
        Err(flap::ParseError::NoMatch { pos, line, col, .. }) => {
            assert_eq!((pos, line, col), (9, 2, 8));
        }
        other => panic!("expected NoMatch, got {other:?}"),
    }
}

#[test]
fn empty_language_parser_rejects_everything() {
    let (lexer, _, _) = lexer_ab();
    let g: Cfe<i64> = Cfe::bot();
    let p = Parser::compile(lexer, &g).expect("⊥ is well-typed");
    assert!(p.parse(b"").is_err());
    assert!(p.parse(b"a").is_err());
}

#[test]
fn epsilon_only_parser_accepts_only_whitespace() {
    let mut b = LexerBuilder::new();
    b.token("a", "a").unwrap();
    b.skip(" ").unwrap();
    let lexer = b.build().unwrap();
    let g: Cfe<i64> = Cfe::eps(42);
    let p = Parser::compile(lexer, &g).expect("ε is well-typed");
    assert_eq!(p.parse(b"").unwrap(), 42);
    assert_eq!(p.parse(b"   ").unwrap(), 42, "trailing skips are consumed");
    assert!(p.parse(b"a").is_err());
}

#[test]
fn truncation_fuzz_never_panics() {
    // every prefix of a valid input either parses or errors cleanly
    for def in [flap_grammars::json::def(), flap_grammars::csv::def()] {
        let parser = def.flap_parser();
        let input = (def.generate)(11, 400);
        for cut in 0..input.len() {
            let _ = parser.parse(&input[..cut]); // must not panic
        }
    }
}

#[test]
fn byte_mutation_fuzz_never_panics_and_matches_oracle() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(5, 300);
    for pos in (0..input.len()).step_by(7) {
        for byte in [0u8, b'(', b')', b'!', 0xff] {
            let mut m = input.clone();
            m[pos] = byte;
            let ours = parser.parse(&m).ok();
            let oracle = (def.reference)(&m).ok();
            assert_eq!(ours, oracle, "mutation at {pos} to {byte:#x}");
        }
    }
}
