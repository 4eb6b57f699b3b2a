//! Quickstart: the paper's running example — an s-expression parser
//! with fused lexing, counting atoms.
//!
//! Run with:
//!
//! ```text
//! cargo run -p flap --example quickstart
//! ```

use flap::{Cfe, LexBuildError, Lexer, LexerBuilder, Parser, Token};

/// Fig 3b: the lexer — defined separately from the parser, with a
/// conventional interface (regex => Return token | Skip).
fn sexp_lexer() -> Result<(Lexer, [Token; 3]), LexBuildError> {
    let mut lx = LexerBuilder::new();
    let atom = lx.token("atom", "[a-z]+")?;
    lx.skip("[ \n]")?;
    let lpar = lx.token("lpar", r"\(")?;
    let rpar = lx.token("rpar", r"\)")?;
    Ok((lx.build()?, [atom, lpar, rpar]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (lexer, [atom, lpar, rpar]) = sexp_lexer()?;

    // Fig 3c: the grammar —
    // μ sexp. (lpar · (μ sexps. ε ∨ sexp·sexps) · rpar) ∨ atom
    let grammar: Cfe<i64> = Cfe::fix(|sexp| {
        let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
        Cfe::tok_val(lpar, 0)
            .then(sexps, |_, n| n)
            .then(Cfe::tok_val(rpar, 0), |n, _| n)
            .or(Cfe::tok_val(atom, 1))
    });

    // type-check → normalize (Fig 4) → fuse (Fig 6) → stage (Fig 10)
    let parser = Parser::compile(lexer, &grammar)?;

    let input = b"(define (double x) (add x x))";
    println!("input:  {}", String::from_utf8_lossy(input));
    println!("atoms:  {}", parser.parse(input)?);

    // the parser keeps only its tables; the intermediate forms are
    // one call away
    let dgnf = flap::flap_dgnf::normalize(&grammar)?;
    println!("\nDGNF grammar (Fig 3d):\n{}", dgnf.display(parser.lexer()));
    let (mut lexer, _) = sexp_lexer()?;
    let fused = flap::flap_fuse::fuse(&mut lexer, &dgnf)?;
    println!("fused grammar (Fig 3e):\n{}", fused.display(lexer.arena()));
    println!(
        "sizes: {} lexer rules, {} CFE nodes, {} nonterminals, {} productions, \
         {} fused productions, {} generated states",
        parser.sizes().lex_rules,
        parser.sizes().cfes,
        parser.sizes().nts,
        parser.sizes().prods,
        parser.sizes().fused_prods,
        parser.sizes().functions,
    );
    Ok(())
}
