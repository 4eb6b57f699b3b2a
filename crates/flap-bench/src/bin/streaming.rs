//! Streaming throughput driver: chunked feeds vs the contiguous
//! slice, so the overhead of the resumable stepper shows up in BENCH
//! output next to the Fig 11 numbers.
//!
//! Usage: `cargo run -p flap-bench --release --bin streaming --
//! [doc_kb] [iters] [--json] [--smoke [snapshot]]` (default one
//! ≈256 KiB document, median of 5 timed runs; `--json` and `--smoke`
//! as in `flap_bench::cli`, against `BENCH_streaming.json`). Every
//! run, the smoke pass included, asserts that the contiguous and
//! every chunked parse agree with the grammar's reference parser.
//!
//! One `flap::Parser` per grammar (JSON and s-expressions) parses the
//! same document through one reused `ParseSession`, first as a single
//! slice (`parse_with`), then chunk by chunk through the streaming
//! API at several chunk sizes. Both run the same hot loop; the ratio
//! column is the pure suspend/resume cost (buffer append, token-tail
//! retention, line accounting per boundary). Expect large chunks to
//! sit near 1.00x and 64-byte chunks to bound the worst case.

use std::hint::black_box;
use std::process::ExitCode;

use flap::SliceChunks;
use flap_bench::cli::Cli;
use flap_bench::json::{obj, Json};
use flap_bench::timing::{self, worst_spread_pct, Timing};
use flap_grammars::GrammarDef;

const CHUNKS: [usize; 4] = [64, 1024, 4096, 64 * 1024];

struct GrammarResult {
    name: &'static str,
    doc_bytes: usize,
    contiguous: Timing,
    /// One timing per entry of [`CHUNKS`].
    chunked: Vec<Timing>,
}

fn bench_one(def: &GrammarDef<i64>, doc_bytes: usize, iters: usize) -> GrammarResult {
    let parser = def.flap_parser();
    let input = (def.generate)(42, doc_bytes);
    let expected = (def.reference)(&input).expect("generated input is valid");
    let mut session = parser.session();

    let v = parser.parse_with(&mut session, &input);
    assert_eq!(v, Ok(expected), "contiguous result disagrees with oracle");
    let contiguous = timing::time(iters, || {
        parser
            .parse_with(&mut session, black_box(&input))
            .expect("parses")
    });

    let chunked = CHUNKS
        .iter()
        .map(|&chunk| {
            let v = parser.parse_source_with(&mut session, &mut SliceChunks::new(&input, chunk));
            assert_eq!(
                v.ok(),
                Some(expected),
                "streamed result disagrees with oracle"
            );
            timing::time(iters, || {
                parser
                    .parse_source_with(
                        &mut session,
                        &mut SliceChunks::new(black_box(&input), chunk),
                    )
                    .expect("parses")
            })
        })
        .collect();
    GrammarResult {
        name: def.name,
        doc_bytes: input.len(),
        contiguous,
        chunked,
    }
}

fn report(results: &[GrammarResult], iters: usize) -> Json {
    let round1 = |v: f64| Json::Num((v * 10.0).round() / 10.0);
    obj(vec![
        ("bench", Json::Str("streaming".to_string())),
        ("unit", Json::Str("MB/s".to_string())),
        ("iters", Json::Num(iters as f64)),
        (
            "chunk_sizes",
            Json::Arr(CHUNKS.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
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
                                ("contiguous", round1(r.contiguous.mbps(r.doc_bytes))),
                                (
                                    "chunked",
                                    Json::Obj(
                                        CHUNKS
                                            .iter()
                                            .zip(&r.chunked)
                                            .map(|(c, t)| {
                                                (c.to_string(), round1(t.mbps(r.doc_bytes)))
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

fn print_table(results: &[GrammarResult], iters: usize) {
    println!(
        "streaming throughput: chunked feed vs contiguous slice (MB/s, median of {iters}; \
         spread: widest interquartile range in the row, % of its median)"
    );
    print!("{:<8}{:>9}{:>12}", "grammar", "doc", "contiguous");
    for chunk in CHUNKS {
        print!("{:>18}", format!("chunk {chunk}B"));
    }
    println!("{:>9}", "spread");
    for r in results {
        let contiguous = r.contiguous.mbps(r.doc_bytes);
        print!(
            "{:<8}{:>9}{:>12.1}",
            r.name,
            format!("{} KB", r.doc_bytes / 1024),
            contiguous
        );
        for t in &r.chunked {
            let mbps = t.mbps(r.doc_bytes);
            print!("{:>10.1} ({:>4.2}x)", mbps, mbps / contiguous);
        }
        let all = std::iter::once(&r.contiguous).chain(&r.chunked);
        println!("{:>8.0}%", worst_spread_pct(all));
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("streaming", Some("BENCH_streaming.json"));
    // a smoke run is a fast schema-and-oracle pass: its numbers mean
    // nothing
    let doc_kb: usize = cli.arg(0, if cli.smoke() { 64 } else { 256 });
    let iters: usize = cli.arg(1, if cli.smoke() { 2 } else { 5 });

    let results: Vec<GrammarResult> = [flap_grammars::json::def(), flap_grammars::sexp::def()]
        .iter()
        .map(|def| bench_one(def, doc_kb * 1024, iters))
        .collect();
    let doc = report(&results, iters);
    cli.emit(&doc, || print_table(&results, iters), || Ok(String::new()))
}
