//! Incremental re-parse latency: a 1-byte edit in a multi-MB document
//! vs a full from-scratch parse, at several checkpoint densities.
//!
//! Usage: `cargo run -p flap-bench --release --bin incr --
//! [doc_mb] [--json] [--smoke [snapshot]]` (default 2 MB per
//! grammar; `--json` and `--smoke` as in `flap_bench::cli`, against
//! `BENCH_incremental.json`). `--smoke` also fails when the
//! default-config validate row's deterministic counts regress (see
//! [`count_regressions`]); no time is gated.
//!
//! Two workloads per grammar, both applying single-byte digit edits
//! and re-parsing:
//!
//! * **validate** — `validate_incremental` after an edit at the
//!   middle of the document: prefix reuse *plus* suffix convergence,
//!   so the work is about one gap between validation checkpoints
//!   regardless of document size. Validation checkpoints are spaced
//!   by their own cost (a few KiB apart) and the interval only caps
//!   the gap, so the rows are the default config (the headline) and
//!   two intervals small enough to engage the cap. The speedup column
//!   is against a full `recognize` of the same document.
//! * **value** — `parse_incremental` after edits at the 10th, 50th
//!   and 90th percentile offsets, at three checkpoint intervals:
//!   prefix reuse only (semantic actions must re-run downstream of
//!   the edit), so the saving tracks the edit position. Speedups are
//!   against a full `parse`.
//!
//! Each re-parse is timed on its own with `flap_bench::timing`'s
//! single-call form, since every one needs a fresh edit first; a row
//! reports the median. Every timed re-parse is also checked against
//! the from-scratch result, and the run aborts if reuse never
//! happened — the bench doubles as an end-to-end correctness check,
//! which is what CI's smoke invocation relies on.

// Parse errors inline their expected-token set so error construction
// never allocates (see flap-fuse); the larger Err variant is a
// deliberate tradeoff, constructed once per failed parse.
#![allow(clippy::result_large_err)]

use std::hint::black_box;
use std::process::ExitCode;

use flap::{IncrementalConfig, IncrementalSession, Parser};
use flap_bench::cli::Cli;
use flap_bench::json::{obj, Json};
use flap_bench::timing::{self, worst_spread_pct, Timing};
use flap_grammars::GrammarDef;

/// Value-mode checkpoint intervals.
const INTERVALS: [usize; 3] = [16 * 1024, 64 * 1024, 256 * 1024];
/// Validation rows besides the default config: intervals below the
/// cost-based spacing (a few KiB), where the interval caps the gap and
/// trades retained state for re-scanned bytes.
const VALIDATE_INTERVALS: [usize; 2] = [1024, 4 * 1024];
/// Smoke gate: most bytes a default-config re-validation may feed
/// through the automaton after a 1-byte edit.
const MAX_DEFAULT_PARSED: usize = 16 * 1024;
/// Smoke gate: retained validation state may be at most this share
/// (`1 / n`) of the document.
const RETAINED_SHARE: usize = 16;
/// Value-mode edit positions, as fractions of the document.
const EDIT_FRACTIONS: [f64; 3] = [0.1, 0.5, 0.9];

struct ValidateRow {
    interval: usize,
    reparse: Timing,
    /// `full_recognize / reparse`, at the medians.
    speedup: f64,
    /// The final re-parse's reuse accounting.
    stats: flap::ReuseStats,
}

struct ValueRow {
    interval: usize,
    /// Re-parse timing per entry of [`EDIT_FRACTIONS`].
    reparse: Vec<Timing>,
    /// `full_parse / reparse` per entry of [`EDIT_FRACTIONS`], at the
    /// medians.
    speedup: Vec<f64>,
}

struct GrammarResult {
    name: &'static str,
    doc_bytes: usize,
    full_parse: Timing,
    full_recognize: Timing,
    /// Validation at `IncrementalConfig::default()`.
    default_validate: ValidateRow,
    validate: Vec<ValidateRow>,
    value: Vec<ValueRow>,
}

/// The offset of a digit at roughly `frac` of the way into `doc`.
fn digit_at(doc: &[u8], frac: f64) -> usize {
    let start = (doc.len() as f64 * frac) as usize;
    (start..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .or_else(|| (0..start).rfind(|&i| doc[i].is_ascii_digit()))
        .expect("generated documents contain digits")
}

/// Applies a 1-byte digit swap at `at` (alternating so every edit is
/// a real change) and re-parses with `run`, returning the seconds and
/// the result.
fn timed_edit<V, R>(
    inc: &mut IncrementalSession<V>,
    at: usize,
    flip: &mut bool,
    run: impl FnOnce(&mut IncrementalSession<V>) -> R,
) -> (f64, R) {
    let b = if *flip { b"7" } else { b"8" };
    *flip = !*flip;
    inc.splice(at..at + 1, b);
    timing::time_once(|| run(inc))
}

/// Validation after a 1-byte digit edit mid-document (suffix
/// convergence), `iters` edits at checkpoint config `config`.
fn validate_row(
    def: &GrammarDef<i64>,
    parser: &Parser<i64>,
    doc: &[u8],
    config: IncrementalConfig,
    iters: usize,
    full_recognize: Timing,
) -> ValidateRow {
    let interval = config.interval;
    let mut inc = parser.incremental_with(config);
    inc.splice(0..0, doc);
    parser.validate_incremental(&mut inc).expect("validates");
    let at = digit_at(doc, 0.5);
    let mut flip = true;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (secs, r) = timed_edit(&mut inc, at, &mut flip, |i| parser.validate_incremental(i));
        r.expect("edited document stays valid");
        samples.push(secs);
        let st = inc.stats();
        assert!(
            st.converged && st.suffix_reused > 0,
            "{} validate at interval {interval}: no suffix reuse ({st:?})",
            def.name
        );
        // the first checkpoint lands at most one interval in; only
        // then can a mid-document edit skip any prefix
        assert!(
            st.prefix_reused > 0 || at < interval,
            "{} validate at interval {interval}: no prefix reuse ({st:?})",
            def.name
        );
    }
    // the timed runs above only flip a digit; the final document
    // must still agree with a from-scratch recognize
    assert_eq!(parser.recognize(inc.doc()), Ok(()));
    let reparse = Timing::of(samples);
    ValidateRow {
        interval,
        reparse,
        speedup: full_recognize.median / reparse.median,
        stats: inc.stats(),
    }
}

fn bench_one(def: &GrammarDef<i64>, doc_bytes: usize, iters: usize) -> GrammarResult {
    let parser: Parser<i64> = def.flap_parser();
    let doc = (def.generate)(42, doc_bytes);
    let expected = (def.reference)(&doc).expect("generated input is valid");
    let mut session = parser.session();

    let v = parser.parse_with(&mut session, &doc).expect("parses");
    assert_eq!(
        (def.finish)(v),
        expected,
        "full parse disagrees with oracle"
    );
    let full_parse = timing::time(iters, || {
        parser
            .parse_with(&mut session, black_box(&doc))
            .expect("parses")
    });
    let full_recognize = timing::time(iters, || {
        parser.recognize(black_box(&doc)).expect("recognizes")
    });

    let default_validate = validate_row(
        def,
        &parser,
        &doc,
        IncrementalConfig::default(),
        iters,
        full_recognize,
    );
    let validate = VALIDATE_INTERVALS
        .iter()
        .map(|&interval| {
            let config = IncrementalConfig { interval };
            validate_row(def, &parser, &doc, config, iters, full_recognize)
        })
        .collect();
    let mut value = Vec::new();
    for interval in INTERVALS {
        let config = IncrementalConfig { interval };

        // -- value: 1-byte edits at p10/p50/p90, prefix reuse only --
        let mut inc = parser.incremental_with(config);
        inc.splice(0..0, &doc);
        parser.parse_incremental(&mut inc).expect("parses");
        let mut reparse = Vec::new();
        let mut speedup = Vec::new();
        for frac in EDIT_FRACTIONS {
            let at = digit_at(&doc, frac);
            let mut flip = true;
            let mut samples = Vec::with_capacity(iters);
            let mut got = 0;
            for _ in 0..iters {
                let (secs, r) =
                    timed_edit(&mut inc, at, &mut flip, |i| parser.parse_incremental(i));
                got = r.expect("edited document stays valid");
                samples.push(secs);
                assert!(
                    inc.stats().prefix_reused > 0 || at < interval,
                    "{} value at interval {interval}, frac {frac}: no prefix reuse",
                    def.name
                );
            }
            let scratch = parser.parse(inc.doc()).expect("parses");
            assert_eq!(
                (def.finish)(got),
                (def.finish)(scratch),
                "{} value re-parse disagrees with from-scratch",
                def.name
            );
            let t = Timing::of(samples);
            speedup.push(full_parse.median / t.median);
            reparse.push(t);
        }
        value.push(ValueRow {
            interval,
            reparse,
            speedup,
        });
    }

    GrammarResult {
        name: def.name,
        doc_bytes: doc.len(),
        full_parse,
        full_recognize,
        default_validate,
        validate,
        value,
    }
}

/// The smoke gate's deterministic counts, from the default-config
/// validate rows: each must re-scan at most [`MAX_DEFAULT_PARSED`]
/// bytes, converge, and retain at most `doc_len / RETAINED_SHARE`.
/// Returns one message per violation.
fn count_regressions(results: &[GrammarResult]) -> Vec<String> {
    let mut out = Vec::new();
    for r in results {
        let st = &r.default_validate.stats;
        if st.parsed > MAX_DEFAULT_PARSED {
            out.push(format!(
                "{}: parsed {} B > {MAX_DEFAULT_PARSED} B",
                r.name, st.parsed
            ));
        }
        if !st.converged {
            out.push(format!("{}: did not converge", r.name));
        }
        if st.retained_bytes > st.doc_len / RETAINED_SHARE {
            out.push(format!(
                "{}: retained {} B > doc_len / {RETAINED_SHARE} = {} B",
                r.name,
                st.retained_bytes,
                st.doc_len / RETAINED_SHARE
            ));
        }
    }
    out
}

/// A number rounded to one decimal.
fn round1(v: f64) -> Json {
    Json::Num((v * 10.0).round() / 10.0)
}

fn validate_json(v: &ValidateRow) -> Json {
    obj(vec![
        ("interval", Json::Num(v.interval as f64)),
        ("reparse_us", round1(v.reparse.us())),
        ("speedup", round1(v.speedup)),
        ("parsed", Json::Num(v.stats.parsed as f64)),
        ("suffix_reused", Json::Num(v.stats.suffix_reused as f64)),
        ("checkpoints", Json::Num(v.stats.checkpoints as f64)),
        ("retained_bytes", Json::Num(v.stats.retained_bytes as f64)),
        ("converged", Json::Bool(v.stats.converged)),
    ])
}

fn report(results: &[GrammarResult], doc_mb: f64, iters: usize) -> Json {
    // headline: the json grammar's default-config validate speedup
    let headline = results
        .iter()
        .find(|r| r.name == "json")
        .map_or(0.0, |r| r.default_validate.speedup);
    obj(vec![
        ("bench", Json::Str("incremental".to_string())),
        ("doc_mb", Json::Num(doc_mb)),
        ("iters", Json::Num(iters as f64)),
        (
            "intervals",
            Json::Arr(INTERVALS.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
        (
            "validate_intervals",
            Json::Arr(
                VALIDATE_INTERVALS
                    .iter()
                    .map(|&i| Json::Num(i as f64))
                    .collect(),
            ),
        ),
        (
            "edit_fractions",
            Json::Arr(EDIT_FRACTIONS.iter().map(|&f| Json::Num(f)).collect()),
        ),
        ("headline_validate_speedup", round1(headline)),
        (
            "grammars",
            Json::Obj(
                results
                    .iter()
                    .map(|r| {
                        (
                            r.name.to_string(),
                            obj(vec![
                                ("doc_bytes", Json::Num(r.doc_bytes as f64)),
                                ("full_parse_us", round1(r.full_parse.us())),
                                ("full_recognize_us", round1(r.full_recognize.us())),
                                ("default_validate", validate_json(&r.default_validate)),
                                (
                                    "validate",
                                    Json::Arr(r.validate.iter().map(validate_json).collect()),
                                ),
                                (
                                    "value",
                                    Json::Arr(
                                        r.value
                                            .iter()
                                            .map(|v| {
                                                obj(vec![
                                                    ("interval", Json::Num(v.interval as f64)),
                                                    (
                                                        "reparse_us",
                                                        Json::Arr(
                                                            v.reparse
                                                                .iter()
                                                                .map(|t| round1(t.us()))
                                                                .collect(),
                                                        ),
                                                    ),
                                                    (
                                                        "speedup",
                                                        Json::Arr(
                                                            v.speedup
                                                                .iter()
                                                                .map(|&s| round1(s))
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(results: &[GrammarResult], doc_mb: f64, iters: usize) {
    println!(
        "incremental re-parse after a 1-byte edit ({doc_mb} MB documents, median of {iters}; \
         spread: widest interquartile range in the row, % of its median)"
    );
    for r in results {
        println!(
            "\n{}: full parse {:.0} µs, full recognize {:.0} µs (spread {:.0}%)",
            r.name,
            r.full_parse.us(),
            r.full_recognize.us(),
            worst_spread_pct([&r.full_parse, &r.full_recognize])
        );
        println!(
            "  {:<12}{:>14}{:>10}{:>12}{:>12}{:>12}{:>9}",
            "validate", "reparse µs", "speedup", "parsed", "ckpts", "retained", "spread"
        );
        let rows = std::iter::once(("default".to_string(), &r.default_validate)).chain(
            r.validate
                .iter()
                .map(|v| (format!("{}K", v.interval / 1024), v)),
        );
        for (label, v) in rows {
            println!(
                "  {:<12}{:>14.1}{:>9.1}x{:>12}{:>12}{:>12}{:>8.0}%",
                label,
                v.reparse.us(),
                v.speedup,
                v.stats.parsed,
                v.stats.checkpoints,
                v.stats.retained_bytes,
                100.0 * v.reparse.spread()
            );
            println!("               {}", v.stats);
        }
        println!(
            "  {:<12}{:>16}{:>16}{:>16}{:>9}",
            "value", "p10", "p50", "p90", "spread"
        );
        for v in &r.value {
            let cols: Vec<String> = v
                .reparse
                .iter()
                .zip(&v.speedup)
                .map(|(t, s)| format!("{:.0}µs ({s:.1}x)", t.us()))
                .collect();
            println!(
                "  {:<12}{:>16}{:>16}{:>16}{:>8.0}%",
                format!("{}K", v.interval / 1024),
                cols[0],
                cols[1],
                cols[2],
                worst_spread_pct(&v.reparse)
            );
        }
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("incr", Some("BENCH_incremental.json"));
    // a fast smoke pass — but the document must span the largest
    // checkpoint interval or the reuse asserts have nothing to do
    let doc_mb = cli.arg(0, if cli.smoke() { 1.0 } else { 2.0 });
    let iters = if cli.smoke() { 2 } else { 7 };

    let results: Vec<GrammarResult> = [flap_grammars::json::def(), flap_grammars::sexp::def()]
        .iter()
        .map(|def| bench_one(def, (doc_mb * 1e6) as usize, iters))
        .collect();
    let doc = report(&results, doc_mb, iters);
    cli.emit(
        &doc,
        || print_table(&results, doc_mb, iters),
        || {
            let regressions = count_regressions(&results);
            if !regressions.is_empty() {
                return Err(format!(
                    "default-config validation counts regressed:\n  {}",
                    regressions.join("\n  ")
                ));
            }
            Ok(format!(
                "; default-config validation re-scans <= {MAX_DEFAULT_PARSED} B, converges and \
                 retains <= 1/{RETAINED_SHARE} of the document"
            ))
        },
    )
}
