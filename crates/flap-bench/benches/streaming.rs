//! Streaming vs contiguous throughput: the cost of the resumable
//! stepper.
//!
//! The one-shot path hands the whole slice to the same hot loop the
//! streaming path runs per chunk, so `contiguous` vs `chunk/N` here
//! isolates exactly the suspend/resume overhead: buffer append,
//! token-tail retention and line accounting at each boundary. Large
//! chunks should be within noise of contiguous; tiny chunks bound the
//! worst case.
//!
//! Run with `cargo bench -p flap-bench --bench streaming`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flap::SliceChunks;
use std::hint::black_box;

const CHUNKS: [usize; 4] = [64, 1024, 4096, 64 * 1024];

fn bench_streaming(c: &mut Criterion) {
    for def in [flap_grammars::json::def(), flap_grammars::sexp::def()] {
        let name = def.name;
        let parser = def.flap_parser();
        let input = (def.generate)(42, 256 * 1024);
        let expected = (def.reference)(&input).expect("generated input is valid");
        let mut session = parser.session();
        assert_eq!(parser.parse_with(&mut session, &input), Ok(expected));

        let mut group = c.benchmark_group(format!("streaming/{name}"));
        group.throughput(Throughput::Bytes(input.len() as u64));
        group.sample_size(20);
        group.measurement_time(std::time::Duration::from_secs(2));
        group.warm_up_time(std::time::Duration::from_millis(500));

        group.bench_function("contiguous", |b| {
            b.iter(|| {
                parser
                    .parse_with(&mut session, black_box(&input))
                    .expect("parses")
            })
        });
        for chunk in CHUNKS {
            group.bench_function(BenchmarkId::new("chunk", chunk), |b| {
                b.iter(|| {
                    parser
                        .parse_source_with(
                            &mut session,
                            &mut SliceChunks::new(black_box(&input), chunk),
                        )
                        .expect("parses")
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
