//! Artifact round-trip differential suite: for every benchmark
//! grammar, a parser rebuilt from its serialized tables must be
//! observationally identical to the freshly compiled one — same
//! values, same errors (position, line/column), across the one-shot,
//! streaming, validate and incremental entry points — and must
//! re-serialize to the same bytes. A corrupted or truncated artifact,
//! or one paired with a lexer or grammar it was not compiled from,
//! must fail loading with a typed error, never panic or parse wrongly.
//!
//! The file also hosts the zero-copy audit: loading from an aligned
//! buffer must *borrow* the transition tables. That is proven two
//! ways — the loaded table words must point *inside* the artifact
//! buffer, and an allocation tracker must see no cache-line-aligned
//! allocation large enough to be a table copy (owned table backings
//! are 64-byte aligned; load-time metadata is not).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flap::artifact::{load_recognizer, peek_fingerprint, AlignedBuf, ArtifactError};
use flap::cache::grammar_key;
use flap::{IncrementalConfig, Lexer, LexerBuilder, ParseSession, Parser, SliceChunks, Step};
use flap_grammars::GrammarDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Allocation tracker (thread-local, like tests/alloc.rs, but it
// records the largest cache-line-aligned allocation rather than the
// count — an owned transition block is a `Vec` of 64-byte-aligned
// cache lines, so a table copy shows up here while ordinary
// load-time metadata, all align ≤ 16, does not).

struct MaxAlignedAlloc;

thread_local! {
    static MAX_ALIGNED: Cell<usize> = const { Cell::new(0) };
}

fn note(layout: Layout) {
    if layout.align() >= 64 {
        MAX_ALIGNED.with(|c| c.set(c.get().max(layout.size())));
    }
}

unsafe impl GlobalAlloc for MaxAlignedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(Layout::from_size_align(new_size, layout.align()).unwrap_or(layout));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: MaxAlignedAlloc = MaxAlignedAlloc;

/// Largest 64-byte-aligned allocation on this thread while running
/// `f`.
fn max_aligned_alloc_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    MAX_ALIGNED.with(|c| c.set(0));
    let r = f();
    (MAX_ALIGNED.with(Cell::get), r)
}

// ---------------------------------------------------------------------------
// Differential round-trip

/// Valid and invalid probe documents for one grammar: the generated
/// document, truncations of it, and a byte-smashed variant, so both
/// the success path and error positions get compared.
fn probes(def_generate: fn(u64, usize) -> Vec<u8>) -> Vec<Vec<u8>> {
    let doc = def_generate(42, 4 * 1024);
    let mut probes = vec![doc.clone()];
    for cut in [doc.len() / 3, doc.len() - 1] {
        probes.push(doc[..cut].to_vec());
    }
    let mut smashed = doc.clone();
    let mid = smashed.len() / 2;
    smashed[mid] = 0x01; // a byte no grammar's lexer accepts
    probes.push(smashed);
    probes.push(Vec::new());
    probes
}

fn assert_round_trip<V: Clone + 'static>(def: GrammarDef<V>) {
    let compiled = def.flap_parser();
    let bytes = compiled.to_artifact();
    let loaded = Parser::from_artifact(&bytes, (def.lexer)(), &(def.cfe)())
        .unwrap_or_else(|e| panic!("{}: artifact failed to load: {e}", def.name));
    assert_eq!(
        loaded.to_artifact(),
        bytes,
        "{}: a loaded parser must re-serialize byte for byte",
        def.name
    );
    assert_eq!(
        loaded.sizes(),
        compiled.sizes(),
        "{}: Table 1 counts travel in the artifact",
        def.name
    );

    for (i, doc) in probes(def.generate).iter().enumerate() {
        // one-shot: same value (compared through `finish`) or the
        // exact same error, byte offset and line/column included
        let a = compiled.parse(doc).map(def.finish);
        let b = loaded.parse(doc).map(def.finish);
        assert_eq!(a, b, "{} probe {i}: one-shot parse differs", def.name);

        // validate path
        assert_eq!(
            compiled.recognize(doc).err(),
            loaded.recognize(doc).err(),
            "{} probe {i}: recognize differs",
            def.name
        );

        // streaming path, with chunk sizes that split lexemes; errors
        // compared via Display (StreamError is not PartialEq)
        for chunk in [1, 3, 16] {
            let stream = |p: &Parser<V>| -> Result<i64, String> {
                p.parse_source(&mut SliceChunks::new(doc, chunk))
                    .map(def.finish)
                    .map_err(|e| e.to_string())
            };
            assert_eq!(
                stream(&compiled),
                stream(&loaded),
                "{} probe {i}: streaming parse in {chunk}-byte chunks differs",
                def.name
            );
        }
    }

    // incremental paths: value re-parses and validations after a run
    // of random edits, most of which break the document
    let doc = (def.generate)(7, 4 * 1024);
    let mut rng = StdRng::seed_from_u64(0x1DE5);
    let config = IncrementalConfig { interval: 256 };
    let mut sessions = [&compiled, &loaded].map(|p| {
        let mut values = p.incremental_with(config);
        let mut validation = p.incremental_with(config);
        values.splice(0..0, &doc);
        validation.splice(0..0, &doc);
        (p, values, validation)
    });
    for round in 0..24 {
        let now = sessions[0].1.doc().to_vec();
        let at = rng.random_range(0..=now.len());
        let del = rng.random_range(0..=8usize).min(now.len() - at);
        let from = rng.random_range(0..doc.len() - 8);
        let text = &doc[from..from + rng.random_range(0..=8usize)];
        let mut outcomes = Vec::new();
        for (p, values, validation) in &mut sessions {
            values.splice(at..at + del, text);
            validation.splice(at..at + del, text);
            let value = p.parse_incremental(values).map(def.finish);
            outcomes.push((value, p.validate_incremental(validation)));
        }
        let now = sessions[0].1.doc().to_vec();
        let want = compiled.parse(&now).map(def.finish);
        assert_eq!(
            outcomes[0].0, want,
            "{} edit {round}: incremental",
            def.name
        );
        assert_eq!(
            outcomes[0].1,
            want.clone().map(drop),
            "{} edit {round}: incremental validation",
            def.name
        );
        assert_eq!(
            outcomes[0], outcomes[1],
            "{} edit {round}: loaded incremental paths differ",
            def.name
        );
    }

    // the compiled-side recognizer agrees too (no actions at all)
    let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
    let recognizer = load_recognizer(&buf).expect("recognizer loads");
    for (i, doc) in probes(def.generate).iter().enumerate() {
        assert_eq!(
            compiled.recognize(doc).err(),
            recognizer.recognize(doc).err(),
            "{} probe {i}: recognizer differs",
            def.name
        );
    }
}

#[test]
fn round_trip_is_observationally_identical_for_every_grammar() {
    assert_round_trip(flap_grammars::pgn::def());
    assert_round_trip(flap_grammars::ppm::def());
    assert_round_trip(flap_grammars::sexp::def());
    assert_round_trip(flap_grammars::csv::def());
    assert_round_trip(flap_grammars::json::def());
    assert_round_trip(flap_grammars::arith::def());
}

/// Code generation reads only the flat table an artifact carries, so
/// a loaded parser or recognizer emits the compiled parser's source
/// byte for byte.
fn assert_loaded_emits_the_same_source<V: 'static>(def: GrammarDef<V>) {
    let compiled = def.flap_parser();
    let source = compiled.emit_rust("g");
    let bytes = compiled.to_artifact();
    let recognizer =
        load_recognizer(&Arc::new(AlignedBuf::from_bytes(&bytes))).expect("recognizer loads");
    assert!(
        flap_staged::codegen::emit_rust(&recognizer, "g") == source,
        "{}: a loaded recognizer emits other source",
        def.name
    );
    let loaded = Parser::from_artifact(&bytes, (def.lexer)(), &(def.cfe)()).expect("loads");
    assert!(
        loaded.emit_rust("g") == source,
        "{}: a loaded parser emits other source",
        def.name
    );
}

#[test]
fn loaded_parsers_emit_the_compiled_source_for_every_grammar() {
    assert_loaded_emits_the_same_source(flap_grammars::pgn::def());
    assert_loaded_emits_the_same_source(flap_grammars::ppm::def());
    assert_loaded_emits_the_same_source(flap_grammars::sexp::def());
    assert_loaded_emits_the_same_source(flap_grammars::csv::def());
    assert_loaded_emits_the_same_source(flap_grammars::json::def());
    assert_loaded_emits_the_same_source(flap_grammars::arith::def());
}

#[test]
fn loaded_recognizers_asked_for_a_value_yield_exactly_one() {
    // A recognizer's token productions fold their tails' unit values,
    // so a parse ends with exactly one `()` on the value stack — which
    // the VM asserts in debug builds, one-shot and streaming alike.
    let def = flap_grammars::json::def();
    let buf = Arc::new(AlignedBuf::from_bytes(&def.flap_parser().to_artifact()));
    let recognizer = load_recognizer(&buf).expect("recognizer loads");
    let small = br#"[1, 2, {"a": 3}]"#.to_vec();
    let large = (def.generate)(42, 4 * 1024);
    let mut session = ParseSession::new();
    for doc in [&small, &large] {
        assert_eq!(recognizer.parse(doc), Ok(()));
        assert_eq!(recognizer.parse_with(&mut session, doc), Ok(()));
        for chunk in [1, 5, 512] {
            let mut stream = recognizer.stream(&mut session);
            for piece in doc.chunks(chunk) {
                assert!(matches!(stream.feed(piece), Step::NeedMore));
            }
            assert!(
                matches!(stream.finish(), Step::Done(())),
                "chunks of {chunk}"
            );
        }
    }
}

#[test]
fn artifacts_do_not_cross_attach_between_grammars() {
    let json_bytes = flap_grammars::json::def().flap_parser().to_artifact();
    let sexp = flap_grammars::sexp::def();
    match Parser::from_artifact(&json_bytes, (sexp.lexer)(), &(sexp.cfe)()) {
        Err(ArtifactError::ShapeMismatch(why)) => {
            assert!(!why.is_empty(), "mismatch reason should be diagnostic")
        }
        Err(other) => panic!("expected a shape mismatch, got {other}"),
        Ok(_) => panic!("json tables must not attach to the sexp grammar"),
    }
}

#[test]
fn fingerprints_are_grammar_keys_for_every_grammar() {
    fn check<V: 'static>(def: GrammarDef<V>) {
        let bytes = AlignedBuf::from_bytes(&def.flap_parser().to_artifact());
        assert_eq!(
            peek_fingerprint(bytes.as_slice()),
            Ok(grammar_key(&(def.lexer)(), &(def.cfe)())),
            "{}",
            def.name
        );
        // an artifact of the bare compiled tables has no key
        let bare = AlignedBuf::from_bytes(&def.flap_parser().compiled().to_artifact());
        assert_eq!(peek_fingerprint(bare.as_slice()), Ok(0), "{}", def.name);
    }
    check(flap_grammars::pgn::def());
    check(flap_grammars::ppm::def());
    check(flap_grammars::sexp::def());
    check(flap_grammars::csv::def());
    check(flap_grammars::json::def());
    check(flap_grammars::arith::def());
}

// ---------------------------------------------------------------------------
// Lexer mismatch

/// One lexer rule, as `flap-grammars` declares it.
#[derive(Clone, Copy)]
enum Rule {
    Literal(&'static str, &'static str),
    Regex(&'static str, &'static str),
    Skip(&'static str),
}

fn build(rules: &[Rule]) -> Lexer {
    let mut b = LexerBuilder::new();
    for rule in rules {
        match *rule {
            Rule::Literal(name, lit) => drop(b.token_literal(name, lit).expect("valid")),
            Rule::Regex(name, re) => drop(b.token(name, re).expect("valid")),
            Rule::Skip(re) => b.skip(re).expect("valid"),
        }
    }
    b.build().expect("canonicalizes")
}

/// Loads `def`'s artifact over its lexer rebuilt from `rules` (which
/// must succeed: the rules are the grammar's own), then over the same
/// rules with the regex of token `name` replaced by `altered`, which
/// must be refused. Returns the altered lexer.
fn refuses_altered_lexer<V: 'static>(
    def: &GrammarDef<V>,
    rules: &[Rule],
    name: &str,
    altered: &'static str,
) -> Lexer {
    let bytes = def.flap_parser().to_artifact();
    assert!(
        Parser::from_artifact(&bytes, build(rules), &(def.cfe)()).is_ok(),
        "{}: the rule table must reproduce the grammar's lexer",
        def.name
    );
    let mut changed = rules.to_vec();
    let at = changed
        .iter()
        .position(|r| matches!(r, Rule::Literal(n, _) | Rule::Regex(n, _) if *n == name))
        .expect("the altered token exists");
    let token = match changed[at] {
        Rule::Literal(n, _) | Rule::Regex(n, _) => n,
        Rule::Skip(_) => unreachable!(),
    };
    changed[at] = Rule::Regex(token, altered);
    match Parser::from_artifact(&bytes, build(&changed), &(def.cfe)()) {
        Err(ArtifactError::ShapeMismatch(_)) => {}
        Err(e) => panic!("{}: expected a shape mismatch, got {e}", def.name),
        Ok(_) => panic!(
            "{}: tables attached to a lexer with another `{name}`",
            def.name
        ),
    }
    build(&changed)
}

#[test]
fn loading_over_a_lexer_with_an_altered_token_regex_is_a_shape_mismatch() {
    use Rule::{Literal as L, Regex as R, Skip as S};
    let json = flap_grammars::json::def();
    let json_rules = [
        L("lbrace", "{"),
        L("rbrace", "}"),
        L("lbracket", "["),
        L("rbracket", "]"),
        L("colon", ":"),
        L("comma", ","),
        R("string", r#""([^"\\]|\\.)*""#),
        R(
            "number",
            r"-?(0|[1-9][0-9]*)(\.[0-9]+)?((e|E)(\+|-)?[0-9]+)?",
        ),
        L("true", "true"),
        L("false", "false"),
        L("null", "null"),
        S("[ \t\n\r]"),
    ];
    // Same token names and count, but `number` is `[a-f]+`: attaching
    // json's tables would accept `[1,2]`, which this pair rejects at
    // byte 1.
    let hex = refuses_altered_lexer(&json, &json_rules, "number", "[a-f]+");
    let err = Parser::compile(hex, &(json.cfe)()).unwrap().parse(b"[1,2]");
    assert_eq!(err.map_err(|e| e.pos()), Err(1));

    refuses_altered_lexer(
        &flap_grammars::sexp::def(),
        &[
            R("atom", "[a-z][a-z0-9]*"),
            R("lpar", r"\("),
            R("rpar", r"\)"),
            S("[ \n]"),
        ],
        "atom",
        "[a-z]+",
    );
    refuses_altered_lexer(
        &flap_grammars::csv::def(),
        &[
            R("text", "[^,\"\r\n]+"),
            R("quoted", "\"([^\"]|\"\")*\""),
            R("comma", ","),
            R("crlf", "\r\n"),
        ],
        "text",
        "[a-z]+",
    );
    refuses_altered_lexer(
        &flap_grammars::pgn::def(),
        &[
            L("lbracket", "["),
            L("rbracket", "]"),
            R("string", r#""([^"\\]|\\.)*""#),
            L("res_white", "1-0"),
            L("res_black", "0-1"),
            L("res_draw", "1/2-1/2"),
            L("res_star", "*"),
            R("movenum", r"[0-9]+\.(\.\.)?"),
            R("nag", r"\$[0-9]+"),
            R("word", "[a-zA-Z][a-zA-Z0-9+#=:_-]*"),
            S("[ \t\n\r]"),
            S(r"\{[^}]*\}"),
            S(";[^\n]*\n"),
        ],
        "nag",
        r"\$[0-9]",
    );
    refuses_altered_lexer(
        &flap_grammars::ppm::def(),
        &[
            L("magic", "P3"),
            R("int", "[0-9]+"),
            S("[ \t\n\r]"),
            S("#[^\n]*\n"),
        ],
        "int",
        "[0-9]",
    );
    refuses_altered_lexer(
        &flap_grammars::arith::def(),
        &[
            L("let", "let"),
            L("in", "in"),
            L("if", "if"),
            L("then", "then"),
            L("else", "else"),
            R("ident", "[a-z][a-z0-9]*"),
            R("num", "[0-9]+"),
            L("plus", "+"),
            L("minus", "-"),
            L("star", "*"),
            L("slash", "/"),
            L("lt", "<"),
            L("eq", "="),
            L("gt", ">"),
            L("lparen", "("),
            L("rparen", ")"),
            S("[ \t\n]"),
        ],
        "num",
        "[0-9]",
    );
}

// ---------------------------------------------------------------------------
// Corruption sweep

/// Every random single-bit flip, truncation and padding of `def`'s
/// artifact fails to load with a typed error.
fn corruption_is_detected<V: 'static>(def: GrammarDef<V>, rng: &mut StdRng) {
    let bytes = def.flap_parser().to_artifact();
    let cfe = (def.cfe)();
    let load = |b: &[u8]| Parser::from_artifact(b, (def.lexer)(), &cfe);

    // random single-byte flips: every one must be caught by the
    // structural checks or a checksum — a load that "succeeds" on
    // flipped bytes could silently mis-parse forever after
    for _ in 0..200 {
        let mut evil = bytes.clone();
        let at = rng.random_range(0..evil.len());
        let bit = 1u8 << rng.random_range(0..8);
        evil[at] ^= bit;
        assert!(
            load(&evil).is_err(),
            "{}: flip at {at} (bit {bit:#x}) was not detected",
            def.name
        );
    }

    // random truncations (and the empty file)
    for _ in 0..50 {
        let cut = rng.random_range(0..bytes.len());
        assert!(
            load(&bytes[..cut]).is_err(),
            "{}: truncation to {cut} bytes was not detected",
            def.name
        );
    }

    // random appended garbage must also fail: total_len pins the
    // exact size, so trailing bytes are as corrupt as missing ones
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0xAB; 17]);
    assert!(
        load(&padded).is_err(),
        "{}: padding was not detected",
        def.name
    );
}

#[test]
fn corrupted_artifacts_error_out_and_never_panic_or_misparse() {
    let mut rng = StdRng::seed_from_u64(0xFA57_F00D);
    corruption_is_detected(flap_grammars::json::def(), &mut rng);
    corruption_is_detected(flap_grammars::sexp::def(), &mut rng);
    corruption_is_detected(flap_grammars::arith::def(), &mut rng);
    corruption_is_detected(flap_grammars::pgn::def(), &mut rng);
    corruption_is_detected(flap_grammars::ppm::def(), &mut rng);
    corruption_is_detected(flap_grammars::csv::def(), &mut rng);
}

// ---------------------------------------------------------------------------
// Zero-copy audit

#[test]
fn loading_from_an_aligned_buffer_never_allocates_a_table_copy() {
    for (name, bytes, table_bytes) in [
        artifact_of(flap_grammars::arith::def()),
        artifact_of(flap_grammars::json::def()),
        artifact_of(flap_grammars::pgn::def()),
    ] {
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let (max_aligned, recognizer) =
            max_aligned_alloc_during(|| load_recognizer(&buf).expect("loads"));
        assert!(
            recognizer.tables_shared(),
            "{name}: loaded tables must borrow from the artifact buffer"
        );

        // Pointer containment: the table words the VM indexes live
        // inside the artifact buffer itself — there is no copy.
        let words = recognizer.table_words();
        let buf_range = buf.as_slice().as_ptr_range();
        let word_bytes = words.as_ptr_range();
        assert!(
            buf_range.start as usize <= word_bytes.start as usize
                && word_bytes.end as usize <= buf_range.end as usize,
            "{name}: loaded table words ({word_bytes:?}) fall outside \
             the artifact buffer ({buf_range:?})"
        );
        assert_eq!(
            std::mem::size_of_val(words),
            table_bytes,
            "{name}: loaded table size disagrees with the compiled parser's"
        );

        // Allocator tripwire: building an owned table block allocates
        // 64-byte-aligned cache lines; a zero-copy load must not.
        assert!(
            max_aligned < table_bytes,
            "{name}: a {max_aligned}-byte cache-line-aligned allocation during \
             load is large enough to hold the {table_bytes}-byte transition \
             block — the load copied a table"
        );

        // and the borrow is real: the recognizer keeps the Arc alive
        drop(buf);
        recognizer.recognize(b"").err();
    }
}

/// Name, serialized bytes, and the byte size of the main transition
/// block (what a copying load would have to allocate).
fn artifact_of<V: 'static>(def: GrammarDef<V>) -> (&'static str, Vec<u8>, usize) {
    let p = def.flap_parser();
    let table_bytes = std::mem::size_of_val(p.compiled().table_words());
    (def.name, p.to_artifact(), table_bytes)
}
