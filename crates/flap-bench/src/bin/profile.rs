//! Event-count profile of the staged parser, per grammar: one
//! [`ParseProfiler`] observes one parse of a generated document, and
//! its counters are rendered through the compiled parser's label
//! tables — bytes per phase (skip vs lex), the token-class histogram,
//! reductions grouped by nonterminal and the hottest automaton rows.
//!
//! Usage: `cargo run -p flap-bench --release --bin profile`
//!
//! It reports counts, never time: the `benchmark` package's traced
//! ladder (`--trace 1`) measures what each layer costs.

use flap::obs::ParseProfiler;

/// Parses a generated document once under a [`ParseProfiler`] and
/// prints the counters through the compiled parser's label tables.
fn profile_grammar(def: flap_grammars::GrammarDef<i64>, doc_bytes: usize) {
    let input = (def.generate)(42, doc_bytes);
    let parser = flap::Parser::compile((def.lexer)(), &(def.cfe)()).unwrap();
    let compiled = parser.compiled();
    let mut session = parser.session();
    let mut prof = ParseProfiler::new();
    let value = parser
        .parse_with_obs(&mut session, &input, &mut prof)
        .unwrap();
    assert_eq!(
        (def.finish)(value),
        (def.reference)(&input).expect("generated input is valid"),
        "{}: observed parse disagrees with the oracle",
        def.name
    );

    println!("== {} profile ({} B) ==", def.name, input.len());
    let total = (prof.bytes_skipped + prof.bytes_lexed).max(1);
    println!(
        "phases      lex {} B ({:.1}%) in tokens, skip {} B ({:.1}%) between them",
        prof.bytes_lexed,
        100.0 * prof.bytes_lexed as f64 / total as f64,
        prof.bytes_skipped,
        100.0 * prof.bytes_skipped as f64 / total as f64,
    );

    println!("tokens      {} committed", prof.tokens());
    let mut classes: Vec<(usize, u64)> = prof
        .tokens_by_class
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (class, n) in classes {
        let label = compiled.prod_label(class as u32).unwrap_or("<skip>");
        println!("  {n:>10}  {label}");
    }

    println!(
        "reductions  {} ran, {} ε",
        prof.reduction_count(),
        prof.eps_reductions
    );
    // group rule counters by owning nonterminal
    let mut by_nt: Vec<(u32, u64)> = Vec::new();
    for (rule, &n) in prof.reductions.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let nt = compiled.prod_nt(rule as u32).unwrap_or(u32::MAX);
        match by_nt.iter_mut().find(|(o, _)| *o == nt) {
            Some((_, c)) => *c += n,
            None => by_nt.push((nt, n)),
        }
    }
    by_nt.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (nt, n) in by_nt {
        let rules: Vec<String> = prof
            .reductions
            .iter()
            .enumerate()
            .filter(|&(rule, &c)| c > 0 && compiled.prod_nt(rule as u32) == Some(nt))
            .map(|(rule, _)| {
                compiled
                    .prod_label(rule as u32)
                    .unwrap_or("<skip>")
                    .to_string()
            })
            .collect();
        println!("  {n:>10}  nt{nt} ({})", rules.join(", "));
    }

    println!(
        "rows        {} of {} states dispatched at token starts",
        prof.hottest_rows(usize::MAX).len(),
        compiled.state_count(),
    );
    for (row, hits) in prof.hottest_rows(5) {
        println!("  {hits:>10}  state {}", compiled.row_state(row));
    }
    println!();
}

fn main() {
    profile_grammar(flap_grammars::json::def(), 2_000_000);
    profile_grammar(flap_grammars::sexp::def(), 2_000_000);
}
