//! Multi-thread scaling of one shared compiled parser: the
//! throughput driver for the `Send + Sync` engine, run through a
//! persistent `flap::serve` worker pool at 1, 2, 4 and 8 workers.
//!
//! Usage: `cargo run -p flap-bench --release --bin parallel --
//! [docs] [doc_kb] [--json] [--smoke [snapshot]]` (default 256
//! documents of ≈8 KiB; `--json` and `--smoke` as in
//! `flap_bench::cli`, against `BENCH_parallel.json`).
//!
//! One immutable `flap::Parser` per grammar (JSON and s-expressions)
//! serves a pool that owns one reusable `ParseSession` per worker.
//! Each timed call is one `ParsePool::parse_batch` of the whole batch,
//! as shared `Arc<[u8]>` documents, so submission clones a pointer,
//! not the bytes. Every pool's results are first checked against the
//! independent reference parser. Scaling should track physical
//! cores; a flat line on a 1-core host is the hardware, not a
//! regression.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

use flap::serve::PoolConfig;
use flap_bench::cli::Cli;
use flap_bench::json::{obj, Json};
use flap_bench::timing::{self, worst_spread_pct, Timing};
use flap_grammars::GrammarDef;

const THREADS: [usize; 4] = [1, 2, 4, 8];

struct GrammarResult {
    name: &'static str,
    total_bytes: usize,
    /// One timing per entry of `THREADS`.
    pooled: Vec<Timing>,
}

impl GrammarResult {
    fn mbps(&self) -> Vec<f64> {
        self.pooled
            .iter()
            .map(|t| t.mbps(self.total_bytes))
            .collect()
    }
}

fn bench_one(def: &GrammarDef<i64>, docs: usize, doc_bytes: usize, iters: usize) -> GrammarResult {
    let parser = def.flap_parser();
    // pooled submissions share the documents: an Arc clone per job,
    // prepared outside the timed region
    let batch: Vec<Arc<[u8]>> = (0..docs as u64)
        .map(|seed| Arc::from((def.generate)(seed, doc_bytes)))
        .collect();
    let total_bytes: usize = batch.iter().map(|d| d.len()).sum();
    let expected: Vec<i64> = batch
        .iter()
        .map(|d| (def.reference)(d).expect("generated input is valid"))
        .collect();

    let pooled = THREADS
        .iter()
        .map(|&threads| {
            let pool = parser.serve(
                PoolConfig::default()
                    .workers(threads)
                    .queue_capacity(threads * 4)
                    .label(def.name),
            );
            // correctness first: every worker result must agree with
            // the oracle
            let results = pool.parse_batch(batch.iter().cloned());
            for (r, e) in results.iter().zip(&expected) {
                assert_eq!(
                    r.as_ref().ok(),
                    Some(e),
                    "pooled result disagrees with oracle"
                );
            }
            let t = timing::time(iters, || {
                pool.parse_batch(black_box(&batch).iter().cloned())
            });
            pool.shutdown();
            t
        })
        .collect();
    GrammarResult {
        name: def.name,
        total_bytes,
        pooled,
    }
}

/// One `{thread-count: MB/s}` object in `THREADS` order.
fn thread_row(values: &[f64]) -> Json {
    Json::Obj(
        THREADS
            .iter()
            .zip(values)
            .map(|(t, v)| (t.to_string(), Json::Num((v * 10.0).round() / 10.0)))
            .collect(),
    )
}

fn report(results: &[GrammarResult], docs: usize, doc_kb: usize, iters: usize) -> Json {
    let rows = results
        .iter()
        .map(|r| {
            (
                r.name.to_string(),
                obj(vec![("pooled", thread_row(&r.mbps()))]),
            )
        })
        .collect();
    obj(vec![
        ("bench", Json::Str("parallel".to_string())),
        ("unit", Json::Str("MB/s".to_string())),
        ("docs", Json::Num(docs as f64)),
        ("doc_kb", Json::Num(doc_kb as f64)),
        ("iters", Json::Num(iters as f64)),
        (
            "threads",
            Json::Arr(THREADS.iter().map(|t| Json::Num(*t as f64)).collect()),
        ),
        ("rows", Json::Obj(rows)),
    ])
}

fn print_table(results: &[GrammarResult], docs: usize, doc_kb: usize, iters: usize) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Pooled parse_batch throughput: {docs} docs x {doc_kb} KiB, median of {iters} runs, \
         {cores} cores available"
    );
    println!();
    print!("{:<8}{:>10}", "grammar", "batch");
    for t in THREADS {
        print!("{:>17}", format!("{t} worker(s)"));
    }
    println!("{:>9}", "spread");
    for r in results {
        print!(
            "{:<8}{:>10}",
            r.name,
            format!("{} KB", r.total_bytes / 1024)
        );
        let mbps = r.mbps();
        for v in &mbps {
            print!("{:>9.1} ({:>4.2}x)", v, v / mbps[0]);
        }
        println!("{:>8.0}%", worst_spread_pct(&r.pooled));
    }
    println!();
    println!(
        "MB/s (speedup vs 1 worker) of flap::serve::ParsePool::parse_batch over Arc'd \
         documents;\nspread: widest interquartile range in the row, % of its median."
    );
}

fn main() -> ExitCode {
    let cli = Cli::parse("parallel", Some("BENCH_parallel.json"));
    // a smoke run is a fast schema-only pass: its numbers mean nothing
    let docs = cli.arg(0, if cli.smoke() { 24 } else { 256 });
    let doc_kb = cli.arg(1, if cli.smoke() { 2 } else { 8 });
    let iters = if cli.smoke() { 2 } else { 5 };

    let results: Vec<GrammarResult> = [flap_grammars::json::def(), flap_grammars::sexp::def()]
        .iter()
        .map(|def| bench_one(def, docs, doc_kb * 1024, iters))
        .collect();
    let doc = report(&results, docs, doc_kb, iters);
    cli.emit(
        &doc,
        || print_table(&results, docs, doc_kb, iters),
        || Ok(String::new()),
    )
}
