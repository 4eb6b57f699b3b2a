//! Streaming throughput driver: chunked feeds vs the contiguous
//! slice, so the overhead of the resumable stepper shows up in BENCH
//! output next to the Fig 11 numbers.
//!
//! Usage: `cargo run -p flap-bench --release --bin streaming --
//! [doc_kb] [iters] [--json]` (default one ≈256 KiB document, 5
//! iterations). `--json` prints the results as the JSON document
//! checked in as `BENCH_streaming.json`.
//!
//! One `flap::Parser` per grammar (JSON and s-expressions) parses the
//! same document through one reused `ParseSession`, first as a single
//! slice (`parse_with`), then chunk by chunk through the streaming
//! API at several chunk sizes. Both run the same hot loop; the ratio
//! column is the pure suspend/resume cost (buffer append, token-tail
//! retention, line accounting per boundary). Expect large chunks to
//! sit near 1.00x and 64-byte chunks to bound the worst case.

use std::time::Instant;

use flap::SliceChunks;
use flap_bench::json::{obj, Json};
use flap_grammars::GrammarDef;

const CHUNKS: [usize; 4] = [64, 1024, 4096, 64 * 1024];

struct GrammarResult {
    name: &'static str,
    doc_bytes: usize,
    contiguous_mbps: f64,
    /// MB/s per entry of [`CHUNKS`].
    chunked_mbps: Vec<f64>,
}

fn bench_one(def: &GrammarDef<i64>, doc_bytes: usize, iters: usize) -> GrammarResult {
    let parser = def.flap_parser();
    let input = (def.generate)(42, doc_bytes);
    let expected = (def.reference)(&input).expect("generated input is valid");
    let mut session = parser.session();

    let mut best_contiguous = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = parser.parse_with(&mut session, &input).expect("parses");
        best_contiguous = best_contiguous.min(t0.elapsed().as_secs_f64());
        assert_eq!(v, expected, "contiguous result disagrees with oracle");
    }

    let mut chunked_mbps = Vec::new();
    for chunk in CHUNKS {
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let v = parser
                .parse_source_with(&mut session, &mut SliceChunks::new(&input, chunk))
                .expect("parses");
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(v, expected, "streamed result disagrees with oracle");
        }
        chunked_mbps.push(input.len() as f64 / best / 1e6);
    }
    GrammarResult {
        name: def.name,
        doc_bytes: input.len(),
        contiguous_mbps: input.len() as f64 / best_contiguous / 1e6,
        chunked_mbps,
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
                                ("contiguous", round1(r.contiguous_mbps)),
                                (
                                    "chunked",
                                    Json::Obj(
                                        CHUNKS
                                            .iter()
                                            .zip(&r.chunked_mbps)
                                            .map(|(c, &v)| (c.to_string(), round1(v)))
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

fn main() {
    let mut doc_kb: usize = 256;
    let mut iters: usize = 5;
    let mut json = false;
    let mut positional = 0;
    for a in std::env::args().skip(1) {
        if a == "--json" {
            json = true;
        } else if let Ok(v) = a.parse() {
            match positional {
                0 => doc_kb = v,
                _ => iters = v,
            }
            positional += 1;
        }
    }

    let results: Vec<GrammarResult> = [flap_grammars::json::def(), flap_grammars::sexp::def()]
        .iter()
        .map(|def| bench_one(def, doc_kb * 1024, iters))
        .collect();

    if json {
        println!("{}", report(&results, iters));
        return;
    }
    println!("streaming throughput: chunked feed vs contiguous slice (MB/s, best of {iters})");
    print!("{:<8}{:>9}{:>12}", "grammar", "doc", "contiguous");
    for chunk in CHUNKS {
        print!("{:>18}", format!("chunk {chunk}B"));
    }
    println!();
    for r in &results {
        print!(
            "{:<8}{:>9}{:>12.1}",
            r.name,
            format!("{} KB", r.doc_bytes / 1024),
            r.contiguous_mbps
        );
        for mbps in &r.chunked_mbps {
            print!("{:>10.1} ({:>4.2}x)", mbps, mbps / r.contiguous_mbps);
        }
        println!();
    }
}
