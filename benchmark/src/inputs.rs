//! Seeded inputs. Every document, request and edit derives from
//! `--seed`; the program under test only ever sees the generated
//! bytes, and every input's expected outcome comes from the grammar's
//! independent `reference` parser.

use std::panic::{catch_unwind, AssertUnwindSafe};

use flap_grammars::GrammarDef;
use flap_serve::frame::write_frame;

use crate::stats::{sub_seed, Rng};

/// The six grammars, in the paper's Fig 11 order; a grammar's index
/// here is its index everywhere in the benchmark.
pub const GRAMMARS: [&str; 6] = flap_grammars::BENCHMARK_NAMES;

/// Calls the generic constructor `$make(index, definition, args…)`
/// once per grammar, in [`GRAMMARS`] order, and collects the results.
macro_rules! per_grammar {
    ($make:path $(, $arg:expr)*) => {
        vec![
            $make(0, flap_grammars::json::def() $(, $arg)*),
            $make(1, flap_grammars::sexp::def() $(, $arg)*),
            $make(2, flap_grammars::arith::def() $(, $arg)*),
            $make(3, flap_grammars::pgn::def() $(, $arg)*),
            $make(4, flap_grammars::ppm::def() $(, $arg)*),
            $make(5, flap_grammars::csv::def() $(, $arg)*),
        ]
    };
}
pub(crate) use per_grammar;

/// The value-independent parts of a grammar definition: its
/// generator and its oracle.
pub struct Oracle {
    /// Generates roughly `target` bytes of valid input from a seed.
    pub generate: fn(u64, usize) -> Vec<u8>,
    /// The independent reference parser.
    pub reference: fn(&[u8]) -> Result<i64, String>,
}

fn oracle<V>(_: usize, def: GrammarDef<V>) -> Oracle {
    Oracle {
        generate: def.generate,
        reference: def.reference,
    }
}

/// Runs `reference` on `input`, treating a panic as a rejection.
pub fn verdict(reference: fn(&[u8]) -> Result<i64, String>, input: &[u8]) -> Option<i64> {
    catch_unwind(AssertUnwindSafe(|| reference(input).ok())).unwrap_or(None)
}

/// A document of about `target` bytes for grammar `g`.
pub fn document(
    g: usize,
    generate: fn(u64, usize) -> Vec<u8>,
    seed: u64,
    target: usize,
) -> Vec<u8> {
    let seed = sub_seed(seed, g as u64);
    match GRAMMARS[g] {
        "arith" => arith_document(seed, target),
        "ppm" => ppm_document(generate, seed, target),
        _ => generate(seed, target),
    }
}

/// A ppm image whose maxval is 255.
///
/// `ppm::generate` draws each image's maxval from 255, 1023 and
/// 65535, which sets the digits per sample and so the bytes per
/// token; between seeds that moved the ppm parse rate by half. This
/// redraws until the maxval is 255, the usual value, so the shape of
/// the input stays fixed while its contents follow the seed.
fn ppm_document(generate: fn(u64, usize) -> Vec<u8>, seed: u64, target: usize) -> Vec<u8> {
    // the header is "P3", a comment, "w h", then the maxval line
    let maxval_255 = |doc: &Vec<u8>| doc.split(|&b| b == b'\n').nth(3) == Some(&b"255"[..]);
    (0..64)
        .map(|k| generate(sub_seed(seed, k), target))
        .find(maxval_255)
        .unwrap_or_else(|| generate(seed, target))
}

/// An arith document of at least `target` bytes.
///
/// `arith::generate` ignores its byte target: its recursion stops on
/// depth and chance, so one call yields 2 B to about 2.5 KB whatever
/// the target (seed 42 gives a 15-byte document). This joins many
/// seeded expressions with ` + `, each in parentheses so that a
/// trailing comparison or `let` body stays well-formed.
pub fn arith_document(seed: u64, target: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(target + 4096);
    let mut k = 0u64;
    while out.len() < target {
        if k > 0 {
            out.extend_from_slice(b" + ");
        }
        out.push(b'(');
        out.extend_from_slice(&flap_grammars::arith::generate(sub_seed(seed, k), target));
        out.push(b')');
        k += 1;
    }
    out
}

/// One request of the small-requests firehose.
pub struct Request {
    /// Index into [`GRAMMARS`] of the pool it goes to.
    pub grammar: usize,
    /// The oracle's verdict: the reported value, or `None` when the
    /// request must fail to parse.
    pub expected: Option<i64>,
    /// Payload length in bytes.
    pub len: usize,
}

/// Smallest and largest size target of a firehose request.
const REQUEST_BYTES: (f64, f64) = (32.0, 4096.0);

/// `count` framed requests: the wire bytes and, per frame, its
/// grammar and expected outcome.
///
/// Grammars are drawn uniformly. Sizes are log-uniform over
/// [`REQUEST_BYTES`], except arith, whose generator keeps its natural
/// 2 B – 2.5 KB. About one request in 16 is truncated or has one byte
/// overwritten with 0x01, retried until the oracle rejects it. (Not
/// with `#`: the ppm lexer starts a comment at a `#` that directly
/// follows a token, as in `3#2`, where the ppm reference rejects the
/// field; see NOTES.md.)
pub fn firehose(seed: u64, count: usize) -> (Vec<u8>, Vec<Request>) {
    let oracles: Vec<Oracle> = per_grammar!(oracle);
    let mut rng = Rng::new(sub_seed(seed, 0xf1e_4005e));
    let mut wire = Vec::new();
    let mut requests = Vec::with_capacity(count);
    for i in 0..count {
        let g = rng.below(GRAMMARS.len());
        let (lo, hi) = REQUEST_BYTES;
        let target = (lo * (hi / lo).powf(rng.unit())) as usize;
        let mut payload = (oracles[g].generate)(sub_seed(seed, 1 << 32 | i as u64), target);
        let mut expected = verdict(oracles[g].reference, &payload);
        assert!(
            expected.is_some(),
            "{} generator produced an invalid request",
            GRAMMARS[g]
        );
        if rng.below(16) == 0 {
            for _ in 0..32 {
                let mut bad = payload.clone();
                if rng.below(2) == 0 {
                    bad.truncate(rng.below(bad.len()));
                } else {
                    let at = rng.below(bad.len());
                    bad[at] = 0x01;
                }
                if verdict(oracles[g].reference, &bad).is_none() {
                    payload = bad;
                    expected = None;
                    break;
                }
            }
        }
        write_frame(&mut wire, &payload).expect("writing to a Vec cannot fail");
        requests.push(Request {
            grammar: g,
            expected,
            len: payload.len(),
        });
    }
    (wire, requests)
}
