//! **flap** — a deterministic parser with fused lexing.
//!
//! A Rust reproduction of Yallop, Xie & Krishnaswami, *flap: A
//! Deterministic Parser with Fused Lexing* (PLDI 2023,
//! arXiv:2304.05276).
//!
//! Lexers and parsers are defined *separately*, with a conventional
//! interface: a lexer maps regexes to `Return token` / `Skip`
//! actions, and a parser is built from typed parser combinators
//! (sequencing, alternation, fixed points). flap then
//!
//! 1. **type-checks** the grammar (Krishnaswami–Yallop types ensure
//!    deterministic, linear-time, LL(1)-style parsing),
//! 2. **normalizes** it into Deterministic Greibach Normal Form,
//! 3. **fuses** the lexer into the grammar, eliminating tokens
//!    entirely, and
//! 4. **stages** the result into a table-driven automaton whose
//!    per-character work is one load and one branch.
//!
//! On the six benchmark grammars, the `benchmark` package's per-layer
//! ladder (`--trace 1`) measures the fused parser, actions included,
//! at 1.09–1.50× the throughput of the same grammar run over a
//! separately lexed token stream (its `fusion_gain`). The paper
//! reports 1.7–7.4× for that comparison; `flap-bench` reproduces its
//! figures and tables.
//!
//! # Example
//!
//! The paper's running example — s-expressions, counting atoms:
//!
//! ```
//! use flap::{Cfe, LexerBuilder, Parser};
//!
//! // Fig 3b: the lexer
//! let mut lx = LexerBuilder::new();
//! let atom = lx.token("atom", "[a-z]+")?;
//! lx.skip("[ \n]")?;
//! let lpar = lx.token("lpar", r"\(")?;
//! let rpar = lx.token("rpar", r"\)")?;
//! let lexer = lx.build()?;
//!
//! // Fig 3c: the grammar
//! // μ sexp. (lpar · (μ sexps. ε ∨ sexp·sexps) · rpar) ∨ atom
//! let grammar: Cfe<i64> = Cfe::fix(|sexp| {
//!     let sexps = Cfe::fix(|sexps| {
//!         Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b))
//!     });
//!     Cfe::tok_val(lpar, 0)
//!         .then(sexps, |_, n| n)
//!         .then(Cfe::tok_val(rpar, 0), |n, _| n)
//!         .or(Cfe::tok_val(atom, 1))
//! });
//!
//! // normalize + fuse + stage
//! let parser = Parser::compile(lexer, &grammar)?;
//! assert_eq!(parser.parse(b"(lambda (x) (add x one))")?, 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Streaming input
//!
//! The engine is a resumable stepper, not a slice-only loop: input
//! can arrive chunk by chunk — from a socket, a pipe, a decompressor
//! — through the [`ByteSource`] abstraction, and a [`ParseSession`]
//! can suspend between chunks. The session retains the automaton
//! state, the *partial-token byte tail* (a lexeme straddling chunk
//! boundaries still reaches its semantic action as one contiguous
//! slice) and line/column accounting, so values and error positions
//! are byte-for-byte identical to a one-shot parse of the
//! concatenated input. Memory is bounded by one chunk plus the
//! longest lexeme — never the whole input:
//!
//! ```
//! # use flap::{Cfe, LexerBuilder, Parser, Step};
//! # let mut lx = LexerBuilder::new();
//! # let atom = lx.token("atom", "[a-z]+")?;
//! # lx.skip(" ")?;
//! # let lexer = lx.build()?;
//! # let grammar: Cfe<i64> =
//! #     Cfe::fix(|x| Cfe::eps_with(|| 0).or(Cfe::tok_val(atom, 1).then(x, |a, b| a + b)));
//! let parser = Parser::compile(lexer, &grammar)?;
//!
//! // push-style: feed chunks as they arrive, finish at end of input
//! let mut session = parser.session();
//! let mut stream = parser.stream(&mut session);
//! for chunk in [&b"hello wo"[..], b"rld and frie", b"nds"] {
//!     match stream.feed(chunk) {
//!         Step::NeedMore => {}
//!         other => panic!("unexpected {other:?}"),
//!     }
//! }
//! match stream.finish() {
//!     Step::Done(words) => assert_eq!(words, 4),
//!     other => panic!("unexpected {other:?}"),
//! }
//!
//! // pull-style: drain any std::io::Read without materializing it
//! let reader = std::io::Cursor::new(&b"one two three"[..]);
//! assert_eq!(parser.parse_reader(reader)?, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The one-shot [`Parser::parse`] / [`Parser::parse_with`] entry
//! points are thin wrappers over the same stepper, handed the whole
//! slice at once — there is exactly one hot loop, and the contiguous
//! fast path does no buffering or copying.
//!
//! # Concurrency
//!
//! A compiled [`Parser`] is immutable and `Send + Sync`: semantic
//! actions are stored as `Arc<dyn Fn … + Send + Sync>` and all
//! per-parse mutable state lives in a caller-owned [`ParseSession`].
//! Share one parser across any number of threads and give each
//! thread its own session (allocation-free steady state), or hand a
//! batch to a [`Parser::serve`] pool: persistent workers, a bounded
//! submission queue with backpressure, panic isolation and built-in
//! metrics (see the [`serve`] module). The pool is the only place
//! the library spawns threads.
//!
//! ```
//! # use flap::{Cfe, LexerBuilder, Parser};
//! use flap::serve::PoolConfig;
//! # let mut lx = LexerBuilder::new();
//! # let atom = lx.token("atom", "[a-z]+")?;
//! # let lexer = lx.build()?;
//! # let grammar: Cfe<i64> = Cfe::tok_val(atom, 1);
//! let parser = Parser::compile(lexer, &grammar)?;
//!
//! // one reused session: zero allocations per parse at steady state
//! let mut session = parser.session();
//! for input in [&b"abc"[..], b"de", b"f"] {
//!     assert_eq!(parser.parse_with(&mut session, input)?, 1);
//! }
//!
//! // a batch spread over 4 pool workers, results in input order; a
//! // panicking action fails its own slot, not the caller
//! let pool = parser.serve(PoolConfig::default().workers(4));
//! let results = pool.parse_batch(vec![&b"abc"[..]; 1024]);
//! assert!(results.iter().all(|r| *r.as_ref().unwrap() == 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate map
//!
//! This crate re-exports the user-facing pieces of the pipeline
//! crates:
//!
//! | crate | paper | contents |
//! |---|---|---|
//! | `flap-regex` | §2.3 | regexes, derivatives, character classes |
//! | `flap-lex` | Fig 7 | lexer specs, canonicalization, DFA lexer |
//! | `flap-cfe` | Fig 2 | typed context-free expressions |
//! | `flap-dgnf` | §3 | normalization, DGNF checks, Fig 8 parser |
//! | `flap-fuse` | §4 | fusion; the Fig 9 parser, kept as a one-shot differential oracle |
//! | `flap-staged` | §5 | staged compilation, the VM (streaming, incremental re-parsing, observer hooks), Rust codegen |

#![warn(missing_docs)]
// Parse errors inline their expected-token set so error construction
// never allocates (see flap-fuse); the larger Err variant is a
// deliberate tradeoff, constructed once per failed parse.
#![allow(clippy::result_large_err)]

pub mod cache;
pub mod obs;
mod parser;
pub mod serve;
pub mod typed;

/// Compiled-parser artifacts: serialize a parser's tables with
/// [`Parser::to_artifact`], persist or ship the bytes, and load them
/// back with [`Parser::from_artifact`] (zero-copy from an aligned
/// buffer) — running none of the compiler. Re-exports the container
/// primitives from `flap-artifact` and the loaders from
/// `flap-staged`.
pub mod artifact {
    pub use flap_artifact::{
        fnv1a, AlignedBuf, Artifact, ArtifactError, ArtifactWriter, Fnv64, SectionBuf,
        SectionReader, ARTIFACT_VERSION,
    };
    pub use flap_staged::artifact::{load_parser, load_recognizer, peek_fingerprint};
}

pub use flap_cfe::{node_count, type_check, Cfe, Ty, TypeError, VarId};
pub use flap_fuse::{Expected, FusedParseError as ParseError};
pub use flap_lex::{LexBuildError, Lexer, LexerBuilder, Token, TokenSet};
pub use flap_staged::{
    ByteSource, CompileError, CompileTimes, IncrementalConfig, IncrementalSession, IterSource,
    ParseSession, ReadSource, ReuseStats, SizeReport, SliceChunks, Step, StreamError, StreamParse,
};
pub use parser::Parser;

// The pipeline crates, for users who need the intermediate stages.
pub use flap_cfe;
pub use flap_dgnf;
pub use flap_fuse;
pub use flap_lex;
pub use flap_regex;
pub use flap_staged;
