//! Regenerates Fig 12 of the paper: run time against input size for
//! every implementation, demonstrating linear-time parsing.
//!
//! Usage: `cargo run -p flap-bench --release --bin fig12`
//!
//! Prints, per grammar, one row per input size with the median of 5
//! timed runs (ms) per implementation, plus a ns/byte column for flap
//! — linearity shows up as a constant ns/byte down each column — and
//! the row's widest interquartile range as a percentage of its
//! median.

use flap_bench::all_cases;
use flap_bench::time_impl;
use flap_bench::timing::worst_spread_pct;

fn main() {
    let sizes: [usize; 6] = [125_000, 250_000, 500_000, 1_000_000, 1_500_000, 2_000_000];
    for c in all_cases() {
        println!("== {} ==", c.name);
        print!("{:>10}", "bytes");
        for imp in &c.impls {
            print!("{:>14}", imp.name);
        }
        println!("{:>12}{:>9}", "flap ns/B", "spread");
        for &size in &sizes {
            let input = (c.generate)(42, size);
            let expected = (c.reference)(&input).expect("generated input is valid");
            print!("{:>10}", input.len());
            let timings: Vec<_> = c
                .impls
                .iter()
                .map(|imp| time_impl(&imp.run, &input, expected, 5))
                .collect();
            for t in &timings {
                print!("{:>12.2}ms", t.median * 1e3);
            }
            println!(
                "{:>12.2}{:>8.0}%",
                timings[0].median * 1e9 / input.len() as f64,
                worst_spread_pct(&timings)
            );
        }
        println!();
    }
}
