//! Incremental re-parsing differential tests: after any sequence of
//! random edits — inserts, deletes and replacements at arbitrary
//! offsets, including edits that straddle token boundaries or land
//! inside retained token tails — an incremental re-parse must agree
//! byte-for-byte with a from-scratch parse of the current document:
//! same values, same errors, same error positions and line/columns.
//!
//! The sweep runs all six benchmark grammars through both entry
//! points (`parse_incremental`, `validate_incremental`); targeted
//! tests pin down suffix convergence and shifted-error reuse. A second
//! sweep runs the default config on 128–256 KiB json and sexp
//! documents, where validation checkpoints are spaced by their cost,
//! with batches of splices in arbitrary order.

// Errors inline their expected-token set (allocation-free); the
// larger Err variant is deliberate.
#![allow(clippy::result_large_err)]

use std::ops::Range;

use flap::{IncrementalConfig, IncrementalSession, Parser};
use flap_grammars::GrammarDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense checkpoints so a few-KiB test document spans many intervals.
const INTERVAL: usize = 512;

fn config() -> IncrementalConfig {
    IncrementalConfig { interval: INTERVAL }
}

/// One random edit against the current document: replace `range` with
/// the returned bytes. Mixes content-preserving digit swaps (which
/// usually keep the document valid) with arbitrary inserts, deletes
/// and replacements drawn from a donor document — the latter land in
/// the middle of tokens, across token boundaries, and inside
/// whitespace runs, and routinely make the document invalid, which is
/// exactly the point: errors must agree too.
fn random_edit(rng: &mut StdRng, doc: &[u8], donor: &[u8]) -> (Range<usize>, Vec<u8>) {
    let len = doc.len();
    let snippet = |rng: &mut StdRng, max: usize| -> Vec<u8> {
        if rng.random_range(0..8u32) == 0 {
            // exercise line-accounting shifts explicitly
            vec![b'\n']
        } else {
            let n = rng.random_range(1..=max);
            let at = rng.random_range(0..donor.len().saturating_sub(n).max(1));
            donor[at..(at + n).min(donor.len())].to_vec()
        }
    };
    match rng.random_range(0..4u32) {
        0 => {
            // digit-for-digit swap at a random digit position
            let start = rng.random_range(0..len.max(1));
            if let Some(i) = doc
                .iter()
                .skip(start)
                .position(|b| b.is_ascii_digit())
                .map(|i| start + i)
            {
                return (i..i + 1, vec![rng.random_range(b'1'..=b'9')]);
            }
            (0..0, snippet(rng, 4))
        }
        1 => {
            let at = rng.random_range(0..=len);
            (at..at, snippet(rng, 8))
        }
        2 if len > 0 => {
            let at = rng.random_range(0..len);
            let n = rng.random_range(1..=8usize).min(len - at);
            (at..at + n, Vec::new())
        }
        _ => {
            let at = rng.random_range(0..=len);
            let n = rng.random_range(0..=8usize).min(len - at);
            (at..at + n, snippet(rng, 8))
        }
    }
}

/// Re-parses both sessions and compares against from-scratch results
/// of the same document: values through `finish`, errors verbatim
/// (position, line and column included).
fn compare<V: Clone + 'static>(
    def: &GrammarDef<V>,
    parser: &Parser<V>,
    val: &mut IncrementalSession<V>,
    chk: &mut IncrementalSession<V>,
) {
    let doc = val.doc().to_vec();

    let inc = parser.parse_incremental(val).map(def.finish);
    let scratch = parser.parse(&doc).map(def.finish);
    assert_eq!(inc, scratch, "{}: value re-parse diverged", def.name);
    let st = val.stats();
    assert_eq!(st.suffix_reused, 0, "value parses cannot reuse suffixes");
    if inc.is_ok() {
        assert_eq!(
            st.prefix_reused + st.parsed + st.suffix_reused,
            doc.len(),
            "{}: reuse accounting must cover the document",
            def.name
        );
    }

    let v = parser.validate_incremental(chk);
    let scratch = parser.recognize(&doc);
    assert_eq!(v, scratch, "{}: validation re-parse diverged", def.name);
    let st = chk.stats();
    if v.is_ok() {
        assert_eq!(
            st.prefix_reused + st.parsed + st.suffix_reused,
            doc.len(),
            "{}: reuse accounting must cover the document",
            def.name
        );
    }
}

fn sweep<V: Clone + 'static>(def: &GrammarDef<V>, seed: u64, size: usize, edits: usize) {
    let parser = def.flap_parser();
    let doc0 = (def.generate)(seed, size);
    let donor = (def.generate)(seed + 101, 1024);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1eaf);

    let mut val = parser.incremental_with(config());
    let mut chk = parser.incremental_with(config());
    val.splice(0..0, &doc0);
    chk.splice(0..0, &doc0);
    compare(def, &parser, &mut val, &mut chk);

    for _ in 0..edits {
        let (range, repl) = random_edit(&mut rng, val.doc(), &donor);
        val.splice(range.clone(), &repl);
        chk.splice(range, &repl);
        compare(def, &parser, &mut val, &mut chk);
    }
}

#[test]
fn json_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::json::def(), 11, 8 * 1024, 40);
}

#[test]
fn sexp_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::sexp::def(), 12, 8 * 1024, 40);
}

#[test]
fn arith_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::arith::def(), 13, 4 * 1024, 40);
}

#[test]
fn pgn_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::pgn::def(), 14, 8 * 1024, 40);
}

#[test]
fn ppm_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::ppm::def(), 15, 8 * 1024, 40);
}

#[test]
fn csv_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::csv::def(), 16, 8 * 1024, 40);
}

/// Multiple splices between two re-parses must accumulate correctly.
#[test]
fn batched_splices_between_reparses_agree() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let donor = (def.generate)(7, 1024);
    let mut rng = StdRng::seed_from_u64(0xbac5);

    let mut val = parser.incremental_with(config());
    let mut chk = parser.incremental_with(config());
    let doc0 = (def.generate)(8, 8 * 1024);
    val.splice(0..0, &doc0);
    chk.splice(0..0, &doc0);
    for _ in 0..10 {
        for _ in 0..rng.random_range(1..=4u32) {
            let (range, repl) = random_edit(&mut rng, val.doc(), &donor);
            val.splice(range.clone(), &repl);
            chk.splice(range, &repl);
        }
        compare(&def, &parser, &mut val, &mut chk);
    }
}

/// Two splices between validations, the later one in the document
/// first: the checkpoints between the two edits lie before a pending
/// edit, so converging on one of them would return the verdict from
/// before the `#` was inserted.
#[test]
fn late_then_early_splices_do_not_hide_the_late_edit() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    for seed in 1..=20 {
        let doc = (def.generate)(seed, 8 * 1024);
        let mut inc = parser.incremental_with(config());
        inc.splice(0..0, &doc);
        assert_eq!(parser.validate_incremental(&mut inc), Ok(()));

        // `#` inside a number at ~7/8, then a digit swap at ~1/4
        let late = inner_digit(&doc, doc.len() * 7 / 8);
        inc.splice(late..late, b"#");
        let early = inner_digit(&doc, doc.len() / 4);
        let swap = if doc[early] == b'5' { b"6" } else { b"5" };
        inc.splice(early..early + 1, swap);

        let want = parser.recognize(inc.doc());
        assert!(
            want.is_err(),
            "seed {seed}: the `#` must break the document"
        );
        assert_eq!(parser.validate_incremental(&mut inc), want, "seed {seed}");
    }
}

/// The first digit at or after `from` that follows another digit:
/// editing it keeps the number well-formed.
fn inner_digit(doc: &[u8], from: usize) -> usize {
    site(doc, from, |i| {
        doc[i].is_ascii_digit() && doc[i - 1].is_ascii_digit()
    })
}

/// Edits a default-config sweep can make without breaking its
/// document: `inner` picks the bytes of a token class that may be
/// swapped, inserted before or deleted when they follow another byte
/// of the class, `same` draws a replacement of the same class, and
/// `ws` picks whitespace that may flip between ' ' and '\n'.
struct Script {
    inner: fn(u8) -> bool,
    same: fn(&mut StdRng, u8) -> u8,
    ws: fn(&[u8], usize) -> bool,
}

fn json_script() -> Script {
    Script {
        inner: |b| b.is_ascii_digit(),
        same: |rng, _| rng.random_range(b'0'..=b'9'),
        // the generator separates elements with ", "; other spaces
        // may sit inside strings
        ws: |doc, i| matches!(doc[i], b' ' | b'\n') && doc[i - 1] == b',',
    }
}

fn sexp_script() -> Script {
    Script {
        inner: |b| b.is_ascii_lowercase() || b.is_ascii_digit(),
        same: |rng, b| {
            if b.is_ascii_digit() {
                rng.random_range(b'0'..=b'9')
            } else {
                rng.random_range(b'a'..=b'z')
            }
        },
        ws: |doc, i| matches!(doc[i], b' ' | b'\n'),
    }
}

/// The first position at or after `from` (wrapping around) that
/// satisfies `ok`.
fn site(doc: &[u8], from: usize, ok: impl Fn(usize) -> bool) -> usize {
    (from.max(1)..doc.len())
        .chain(1..from.max(1))
        .find(|&i| ok(i))
        .expect("the document has an edit site")
}

/// Default-config differential sweep on a document large enough for
/// dozens of cost-spaced validation checkpoints. Batches of one to
/// four splices land in arbitrary order; most keep the document valid
/// (same-class edits inside tokens, whitespace flips that move line
/// numbers), some insert a `#` inside a token that a later batch
/// deletes again. Every verdict must equal a from-scratch `recognize`,
/// position, line and column included, and the retained validation
/// state must stay within `doc_len / 16`.
fn default_sweep<V: 'static>(def: &GrammarDef<V>, script: &Script, seed: u64, size: usize) {
    let batches = 60;
    let parser = def.flap_parser();
    let doc0 = (def.generate)(seed, size);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdefa);
    let mut inc = parser.incremental();
    inc.splice(0..0, &doc0);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    let initial = inc.stats().checkpoints;
    assert!(initial >= 24, "{}: only {initial} checkpoints", def.name);

    // pending breaks: the `#` offset and the batches left before repair
    let mut breaks: Vec<(usize, u32)> = Vec::new();
    let (mut converged, mut failed) = (0, 0);
    for batch in 0..batches {
        for _ in 0..rng.random_range(1..=4u32) {
            let doc = inc.doc();
            let from = rng.random_range(1..doc.len());
            let inner = |i: usize| (script.inner)(doc[i]) && (script.inner)(doc[i - 1]);
            let mut broken = None;
            let (range, repl) = match rng.random_range(0..12u32) {
                0 if breaks.len() < 2 => {
                    let at = site(doc, from, inner);
                    broken = Some(at);
                    (at..at, vec![b'#'])
                }
                0..=3 => {
                    let at = site(doc, from, inner);
                    (at..at + 1, vec![(script.same)(&mut rng, doc[at])])
                }
                4..=6 => {
                    let at = site(doc, from, inner);
                    (at..at, vec![(script.same)(&mut rng, doc[at])])
                }
                7..=9 => {
                    let at = site(doc, from, inner);
                    (at..at + 1, Vec::new())
                }
                _ => {
                    let at = site(doc, from, |i| (script.ws)(doc, i));
                    let flip = if doc[at] == b' ' { b'\n' } else { b' ' };
                    (at..at + 1, vec![flip])
                }
            };
            // no edit site touches a `#`, so pending ones only shift
            let delta = repl.len() as isize - range.len() as isize;
            for (at, _) in &mut breaks {
                if *at >= range.end {
                    *at = at.wrapping_add_signed(delta);
                }
            }
            breaks.extend(broken.map(|at| (at, rng.random_range(1..=3))));
            inc.splice(range, &repl);
        }
        // repairs due this batch, latest offset first
        breaks.sort_unstable();
        for i in (0..breaks.len()).rev() {
            breaks[i].1 -= 1;
            if breaks[i].1 == 0 {
                let (at, _) = breaks.remove(i);
                assert_eq!(inc.doc()[at], b'#');
                inc.splice(at..at + 1, b"");
                for (later, _) in &mut breaks[i..] {
                    *later -= 1;
                }
            }
        }

        let got = parser.validate_incremental(&mut inc);
        let want = parser.recognize(inc.doc());
        assert_eq!(got, want, "{} batch {batch}", def.name);
        let st = inc.stats();
        converged += usize::from(st.converged);
        failed += usize::from(want.is_err());
        assert!(
            st.retained_bytes <= st.doc_len / 16,
            "{} batch {batch}: {st}",
            def.name
        );
    }
    assert!(
        converged > batches / 4 && failed > 0 && failed < batches,
        "{}: of {batches} batches {converged} converged and {failed} failed",
        def.name
    );
}

#[test]
fn json_default_config_sweep_agrees_with_recognize() {
    default_sweep(&flap_grammars::json::def(), &json_script(), 41, 128 * 1024);
}

#[test]
fn sexp_default_config_sweep_agrees_with_recognize() {
    default_sweep(&flap_grammars::sexp::def(), &sexp_script(), 42, 256 * 1024);
}

/// The spacing bounds at the default config on a 2 MB document: a
/// 1-byte edit re-scans a few KiB, not a 64 KiB interval, and the
/// retained validation state stays within `doc_len / 16`.
#[test]
fn default_config_rescans_little_and_retains_a_sixteenth() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(25, 2 << 20);
    let mut inc = parser.incremental();
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));

    let at = inner_digit(&doc, doc.len() / 2);
    let swap = if doc[at] == b'5' { b"6" } else { b"5" };
    inc.splice(at..at + 1, swap);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    let st = inc.stats();
    assert!(st.converged, "{st}");
    assert!(st.parsed <= 16 * 1024, "{st}");
    assert!(st.retained_bytes <= st.doc_len / 16, "{st}");
}

/// A tiny edit deep inside a large document: validation must restart
/// near the edit (prefix reuse), stop shortly after it (suffix
/// convergence), and still report the from-scratch verdict.
#[test]
fn validation_converges_after_a_small_edit() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(21, 64 * 1024);
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert!(!inc.stats().converged, "initial parse has nothing to reuse");

    // swap one digit for another in the middle of the document
    let mid = doc.len() / 2;
    let at = (mid..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .expect("generated json contains digits");
    inc.splice(at..at + 1, b"7");
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert_eq!(parser.recognize(inc.doc()), Ok(()));

    let st = inc.stats();
    assert!(st.converged, "a 1-byte edit must re-converge");
    assert!(st.prefix_reused > 0, "restart must skip the prefix");
    assert!(st.suffix_reused > 0, "convergence must skip the suffix");
    assert!(
        st.parsed <= 4 * INTERVAL,
        "re-parse work ({} bytes) should be a few intervals, not the document",
        st.parsed
    );
    assert_eq!(st.prefix_reused + st.parsed + st.suffix_reused, doc.len());
}

/// Suffix convergence must return *shifted* outcomes: an error past
/// the edit moves by the edit's length delta (and its line/column
/// accounting moves with any newline change).
#[test]
fn converged_validation_shifts_a_recorded_error() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let mut doc = (def.generate)(22, 32 * 1024);
    let corrupt = doc.len() - 2;
    doc[corrupt] = 0x02; // un-lexable byte near the end
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    let first = parser.validate_incremental(&mut inc);
    assert_eq!(first, parser.recognize(&doc));
    assert!(first.is_err(), "corrupted document must fail");

    // grow a number near the front: delta = +2, document still valid
    // up to the corruption, so the old (shifted) error is reusable
    let at = doc
        .iter()
        .position(|b| b.is_ascii_digit())
        .expect("generated json contains digits");
    inc.splice(at..at, b"42");
    let shifted = parser.validate_incremental(&mut inc);
    assert_eq!(shifted, parser.recognize(inc.doc()));
    assert!(
        inc.stats().converged,
        "edit far before the error must converge"
    );
    let (a, b) = (first.unwrap_err(), shifted.unwrap_err());
    assert_eq!(a.pos() + 2, b.pos(), "error offset must shift by the delta");
}

/// An edit near the end of a large document: the restart point must
/// be close to the edit, not byte 0.
#[test]
fn late_edit_reuses_nearly_the_whole_prefix() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(23, 64 * 1024);
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    let want = parser.parse(&doc).map(def.finish);
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);

    let at = (doc.len() - 64..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .or_else(|| (0..doc.len()).rfind(|&i| doc[i].is_ascii_digit()))
        .expect("generated sexp contains digits");
    inc.splice(at..at + 1, b"9");
    let want = parser.parse(inc.doc()).map(def.finish);
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);
    let st = inc.stats();
    assert!(
        st.prefix_reused + 2 * INTERVAL >= at,
        "restart point {} must be within two intervals of the edit at {at}",
        st.prefix_reused
    );
}

/// Switching a session between value and validation mode (or between
/// parsers) invalidates recorded state instead of misusing it.
#[test]
fn mode_and_parser_switches_invalidate_cleanly() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let other = def.flap_parser(); // same grammar, distinct identity
    let doc = (def.generate)(24, 8 * 1024);
    let want = parser.parse(&doc).map(def.finish);

    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);
    // value -> validate on the same session
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert_eq!(
        inc.stats().prefix_reused,
        0,
        "mode switch drops checkpoints"
    );
    // validate -> validate under a different parser identity
    assert_eq!(other.validate_incremental(&mut inc), Ok(()));
    assert_eq!(
        inc.stats().prefix_reused,
        0,
        "owner switch drops checkpoints"
    );
    // and back to values
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);
}
