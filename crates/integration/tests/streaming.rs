//! Streaming differential tests: feeding input in chunks — down to
//! one byte at a time — must agree byte-for-byte with one-shot
//! parsing, on values and on error positions (line/column included).

// Errors inline their expected-token set (allocation-free); the
// larger Err variant is deliberate.
#![allow(clippy::result_large_err)]

use flap::{IterSource, ParseSession, ReadSource, SliceChunks, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives a staged stream over `input` split at the given chunk
/// boundaries, mirroring the one-shot result type.
fn feed_staged(
    parser: &flap::Parser<i64>,
    session: &mut ParseSession<i64>,
    pieces: &[&[u8]],
) -> Result<i64, flap::ParseError> {
    let mut s = parser.stream(session);
    for piece in pieces {
        match s.feed(piece) {
            Step::NeedMore => {}
            // the session went idle with the error; nothing to reset
            Step::Err(e) => return Err(e),
            Step::Done(_) => unreachable!("feed never completes a parse"),
        }
    }
    match s.finish() {
        Step::Done(v) => Ok(v),
        Step::Err(e) => Err(e),
        Step::NeedMore => unreachable!("finish never suspends"),
    }
}

/// Splits `input` into `pieces` at every boundary in `cuts`
/// (ascending positions).
fn split_at_all<'a>(input: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut pieces = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0;
    for &c in cuts {
        pieces.push(&input[prev..c]);
        prev = c;
    }
    pieces.push(&input[prev..]);
    pieces
}

fn fixed_chunk_cuts(len: usize, chunk: usize) -> Vec<usize> {
    (chunk..len).step_by(chunk).collect()
}

fn random_cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let n = rng.random_range(0..8usize);
    let mut cuts: Vec<usize> = (0..n).map(|_| rng.random_range(0..=len)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Valid and corrupted workloads for one grammar: generated inputs,
/// truncations, and byte mutations that produce mid-stream errors.
fn workloads(def: &flap_grammars::GrammarDef<i64>, seed: u64) -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for (i, size) in [256usize, 2048, 16 * 1024].iter().enumerate() {
        let valid = (def.generate)(seed + i as u64, *size);
        let mut truncated = valid.clone();
        truncated.truncate(truncated.len() / 2);
        let mut mutated = valid.clone();
        let mid = mutated.len() / 3;
        mutated[mid] = 0x02;
        inputs.push(valid);
        inputs.push(truncated);
        inputs.push(mutated);
    }
    inputs.push(Vec::new());
    inputs
}

#[test]
fn staged_chunked_feeds_agree_with_one_shot() {
    for def in [flap_grammars::json::def(), flap_grammars::sexp::def()] {
        let parser = def.flap_parser();
        let mut session = parser.session();
        let mut rng = StdRng::seed_from_u64(0xf1a9);
        for input in workloads(&def, 7) {
            let expected = parser.parse(&input);
            for chunk in [1usize, 2, 7, 4096] {
                let pieces = split_at_all(&input, &fixed_chunk_cuts(input.len(), chunk));
                let got = feed_staged(&parser, &mut session, &pieces);
                assert_eq!(got, expected, "{}: chunk={chunk}", def.name);
            }
            for round in 0..8 {
                let cuts = random_cuts(&mut rng, input.len());
                let pieces = split_at_all(&input, &cuts);
                let got = feed_staged(&parser, &mut session, &pieces);
                assert_eq!(
                    got, expected,
                    "{}: random split #{round} {cuts:?}",
                    def.name
                );
            }
        }
    }
}

#[test]
fn streaming_error_positions_match_one_shot_lines_and_columns() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let mut session = parser.session();
    // hand-built multi-line failures
    for bad in [
        &b"{\n  \"a\": }"[..],
        b"{\"k\": [1, 2,\n 3, x]}",
        b"{} trailing",
        b"[1, 2\n, 3",
    ] {
        let expected = parser.parse(bad).expect_err("input is malformed");
        for chunk in [1usize, 2, 7, 4096] {
            let pieces = split_at_all(bad, &fixed_chunk_cuts(bad.len(), chunk));
            let got = feed_staged(&parser, &mut session, &pieces).expect_err("must fail");
            assert_eq!(got, expected, "chunk={chunk} on {bad:?}");
            assert_eq!(got.line_col(), expected.line_col());
            assert_eq!(got.pos(), expected.pos());
        }
    }
}

#[test]
fn byte_sources_cover_the_same_inputs() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(3, 4096);
    let expected = parser.parse(&input).unwrap();
    let mut session = parser.session();

    let v = parser
        .parse_source_with(&mut session, &mut SliceChunks::new(&input, 61))
        .unwrap();
    assert_eq!(v, expected);

    let chunks: Vec<Vec<u8>> = input.chunks(100).map(<[u8]>::to_vec).collect();
    let v = parser
        .parse_source_with(&mut session, &mut IterSource::new(chunks))
        .unwrap();
    assert_eq!(v, expected);

    let mut src = ReadSource::with_capacity(std::io::Cursor::new(&input[..]), 37);
    let v = parser.parse_source_with(&mut session, &mut src).unwrap();
    assert_eq!(v, expected);

    assert_eq!(
        parser
            .parse_reader(std::io::Cursor::new(&input[..]))
            .unwrap(),
        expected
    );
}

#[test]
fn expected_sets_name_live_tokens() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let err = parser.parse(br#"{"a": }"#).unwrap_err();
    let expected = err.expected().expect("NoMatch carries an expected set");
    assert!(!expected.is_empty());
    let rendered = err.to_string();
    assert!(rendered.contains("expected one of"), "{rendered}");

    // snippet rendering points at the offending column
    let src = b"{\n  \"a\": }";
    let err = parser.parse(src).unwrap_err();
    let snippet = err.render_snippet(src);
    let (line, col) = err.line_col();
    assert_eq!(line, 2);
    assert!(snippet.contains("2 |   \"a\": }"), "{snippet}");
    let caret = snippet.lines().last().unwrap();
    // gutter is "2 | " → 4 columns wide
    assert_eq!(caret.find('^').unwrap(), 4 + col - 1, "{snippet}");
}

#[test]
fn a_stream_session_is_reusable_after_success_error_and_abandonment() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let mut session = parser.session();

    // success
    let ok = (def.generate)(1, 512);
    let expected = parser.parse(&ok).unwrap();
    let pieces: Vec<&[u8]> = ok.chunks(9).collect();
    assert_eq!(feed_staged(&parser, &mut session, &pieces), Ok(expected));

    // error mid-stream
    let mut bad = ok.clone();
    let mid = bad.len() / 2;
    bad[mid] = 0x01;
    let pieces: Vec<&[u8]> = bad.chunks(9).collect();
    assert_eq!(
        feed_staged(&parser, &mut session, &pieces),
        parser.parse(&bad)
    );

    // abandon a half-fed stream, then one-shot through the same session
    {
        let mut s = parser.stream(&mut session);
        assert!(matches!(s.feed(&ok[..ok.len() / 2]), Step::NeedMore));
    }
    assert_eq!(parser.parse_with(&mut session, &ok), Ok(expected));

    // and stream again
    let pieces: Vec<&[u8]> = ok.chunks(33).collect();
    assert_eq!(feed_staged(&parser, &mut session, &pieces), Ok(expected));
}

#[test]
fn a_suspension_is_not_resumed_by_a_different_parser() {
    // Sessions are freely shareable across parsers; a suspension,
    // however, encodes one parser's state indices. Re-streaming with
    // another parser must start fresh, not resume into foreign tables.
    let sexp = flap_grammars::sexp::def().flap_parser();
    let json = flap_grammars::json::def().flap_parser();
    let mut session = sexp.session();

    // leave a mid-token suspension from the sexp parser behind
    {
        let mut s = sexp.stream(&mut session);
        assert!(matches!(s.feed(b"(someatom"), Step::NeedMore));
    }

    // the json parser must treat the session as fresh
    let doc = br#"{"a": [1, 2], "b": {}}"#;
    let pieces: Vec<&[u8]> = doc.chunks(5).collect();
    assert_eq!(feed_staged(&json, &mut session, &pieces), json.parse(doc));

    // …while the same parser (and its clones of the session flow)
    // does resume its own suspension
    {
        let mut s = sexp.stream(&mut session);
        assert!(matches!(s.feed(b"(a b"), Step::NeedMore));
    }
    match sexp.stream(&mut session).feed(b" c)") {
        Step::NeedMore => {}
        other => panic!("{other:?}"),
    }
    match sexp.stream(&mut session).finish() {
        Step::Done(n) => assert_eq!(n, 3),
        other => panic!("{other:?}"),
    }
}
