//! Regenerates Fig 11 of the paper: parser throughput (MB/s) for
//! every implementation on every benchmark grammar.
//!
//! Usage: `cargo run -p flap-bench --release --bin fig11 --
//! [target_MB] [--json] [--smoke [snapshot]]` (default 2 MB per
//! grammar; `--json` and `--smoke` as in `flap_bench::cli`, against
//! `BENCH_fig11.json`).
//!
//! Each cell is a median from `flap_bench::timing`. The
//! `flap-codegen-recognizer` row runs the recognizer generated at
//! build time, which has no semantic actions, beside the parsers.
//!
//! The absolute numbers depend on the machine; the paper's claim is
//! about *shape*: flap beats the token-stream implementations by
//! integer factors, and `normalized` (same grammar, unfused) trails
//! flap by 1.7–7.4×.

use std::hint::black_box;
use std::process::ExitCode;

use flap_bench::cli::Cli;
use flap_bench::json::{obj, Json};
use flap_bench::timing::{self, worst_spread_pct, Timing};
use flap_bench::{all_cases, time_impl, BenchCase};

/// One measured row: a name and MB/s per grammar, with the timings
/// they came from.
struct Row {
    name: String,
    mbps: Vec<f64>,
    timings: Vec<Timing>,
}

/// Measures every implementation row plus the generated-recognizer
/// row (last), in display order.
fn measure(cases: &[BenchCase], target: usize, iters: usize) -> Vec<Row> {
    let inputs: Vec<Vec<u8>> = cases.iter().map(|c| (c.generate)(42, target)).collect();
    let row = |name: &str, timings: Vec<Timing>| Row {
        name: name.to_string(),
        mbps: timings
            .iter()
            .zip(&inputs)
            .map(|(t, input)| t.mbps(input.len()))
            .collect(),
        timings,
    };
    let mut rows: Vec<Row> = (0..cases[0].impls.len())
        .map(|i| {
            let timings = cases
                .iter()
                .zip(&inputs)
                .map(|(c, input)| {
                    let expected = (c.reference)(input).expect("generated input is valid");
                    time_impl(&c.impls[i].run, input, expected, iters)
                })
                .collect();
            row(cases[0].impls[i].name, timings)
        })
        .collect();
    // The genuinely staged path: recognizers emitted by
    // flap_staged::codegen and compiled natively by build.rs. These
    // run no semantic actions (closures cannot be residualized); it
    // is the closest analogue of flap's MetaOCaml-generated code.
    let codegen = cases
        .iter()
        .zip(&inputs)
        .map(|(c, input)| {
            let rec = flap_bench::generated_recognizer(c.name);
            rec(input).expect("generated recognizer accepts the input");
            timing::time(iters, || rec(black_box(input)).expect("recognizes"))
        })
        .collect();
    rows.push(row(CODEGEN, codegen));
    rows
}

/// The codegen row's name: it runs no semantic actions, so it sets a
/// recognizer beside the parsers.
const CODEGEN: &str = "flap-codegen-recognizer";

fn mbps_of<'a>(rows: &'a [Row], name: &str) -> &'a [f64] {
    &rows.iter().find(|r| r.name == name).expect("impl row").mbps
}

/// One `{grammar: MB/s}` object in Fig 11 grammar order.
fn grammar_row(cases: &[BenchCase], values: &[f64]) -> Json {
    Json::Obj(
        cases
            .iter()
            .zip(values)
            .map(|(c, v)| (c.name.to_string(), Json::Num((v * 10.0).round() / 10.0)))
            .collect(),
    )
}

/// `flap` over `den`, per grammar.
fn flap_over(rows: &[Row], den: &str) -> Vec<f64> {
    let flap = mbps_of(rows, "flap");
    flap.iter()
        .zip(mbps_of(rows, den))
        .map(|(f, d)| f / d)
        .collect()
}

fn report(cases: &[BenchCase], rows: &[Row], target_mb: f64, iters: usize) -> Json {
    obj(vec![
        ("bench", Json::Str("fig11".to_string())),
        ("unit", Json::Str("MB/s".to_string())),
        ("target_mb", Json::Num(target_mb)),
        ("iters", Json::Num(iters as f64)),
        (
            "rows",
            Json::Obj(
                rows.iter()
                    .map(|r| (r.name.clone(), grammar_row(cases, &r.mbps)))
                    .collect(),
            ),
        ),
        (
            "ratios",
            obj(vec![
                (
                    "flap/norm",
                    grammar_row(cases, &flap_over(rows, "normalized")),
                ),
                ("flap/asp", grammar_row(cases, &flap_over(rows, "asp"))),
            ]),
        ),
    ])
}

fn print_table(cases: &[BenchCase], rows: &[Row], target_mb: f64, iters: usize) {
    println!(
        "Fig 11: parser throughput (MB/s), inputs ≈ {target_mb} MB, median of {iters} runs \
         (spread: widest interquartile range in the row, % of its median)"
    );
    println!();
    print!("{:<24}", "impl");
    for c in cases {
        print!("{:>10}", c.name);
    }
    println!("{:>9}", "spread");
    for r in rows {
        print!("{:<24}", r.name);
        for v in &r.mbps {
            print!("{:>10.1}", v);
        }
        println!("{:>8.0}%", worst_spread_pct(&r.timings));
    }
    println!("({CODEGEN}: no semantic actions)");
    println!();
    // the paper's headline ratios
    for (label, den, paper) in [
        ("flap/norm", "normalized", "1.7–7.4x"),
        ("flap/asp", "asp", "2.0–8.0x"),
    ] {
        print!("{label:<24}");
        for r in flap_over(rows, den) {
            print!("{:>10.1}", r);
        }
        println!("   (paper: {paper})");
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("fig11", Some("BENCH_fig11.json"));
    // a smoke run is a fast schema-only pass: its numbers mean nothing
    let target_mb = cli.arg(0, if cli.smoke() { 0.2 } else { 2.0 });
    let iters = if cli.smoke() { 2 } else { 7 };

    let cases = all_cases();
    let rows = measure(&cases, (target_mb * 1e6) as usize, iters);
    let doc = report(&cases, &rows, target_mb, iters);
    cli.emit(
        &doc,
        || print_table(&cases, &rows, target_mb, iters),
        || Ok(String::new()),
    )
}
