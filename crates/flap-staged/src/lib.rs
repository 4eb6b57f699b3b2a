//! Staged compilation of fused grammars (§5.4–5.5 of the flap
//! paper).
//!
//! The unstaged fused parser of `flap-fuse` computes regex
//! derivatives for every input character. This crate performs that
//! work once, ahead of parsing, and its VM is the one production
//! engine (the unstaged parser stays as its differential oracle):
//!
//! * [`CompiledParser::compile`] builds one state per indexed
//!   function `S_{F_n,k}` of Fig 10 (memoized on the derivative
//!   vector and continuation) as one row of a cache-aligned,
//!   alphabet-compressed transition block, with a statically-known
//!   stop action per row. That block is the parser's one table
//!   form: the VM runs it, artifacts store it, and code generation
//!   reads it;
//! * [`CompiledParser::parse_with`] / [`CompiledParser::recognize`]
//!   execute the tables with a per-character cost of one class-map
//!   load, one table load and one jump — the Rust analogue of flap's
//!   generated OCaml — while skippable input outside tokens runs
//!   through the skip DFA's SWAR self-loop fast path
//!   ([`TableFootprint`] reports the compression payoff);
//! * [`ParseSession`] holds all per-parse mutable state (control and
//!   value stacks), so a compiled parser is immutable and
//!   `Send + Sync`: share one parser across threads, give each thread
//!   its own session, and steady-state parsing allocates nothing;
//! * [`CompiledParser::stream`] feeds input chunk by chunk from any
//!   [`ByteSource`], [`IncrementalSession`] re-parses an edited
//!   document from checkpoints, and the `_obs` variants of
//!   `parse_with`, `feed`, `finish` and the incremental entry points
//!   report to an [`Observer`];
//! * [`codegen::emit_rust`] prints the flat table as a compilable
//!   Rust recognizer (the generated code of §5.5, as one loop with an
//!   explicit stack), for compiled and artifact-loaded parsers alike;
//! * [`measure_pipeline`] collects the Table 1 size columns and the
//!   Table 2 compilation-time breakdown;
//! * [`artifact`] serializes compiled tables, and [`Origin`] records
//!   which grammar node owns each action, so a loader re-binds the
//!   actions without re-running the front end.
//!
//! # Quickstart
//!
//! ```
//! use flap_cfe::Cfe;
//! use flap_dgnf::normalize;
//! use flap_fuse::fuse;
//! use flap_lex::LexerBuilder;
//! use flap_staged::CompiledParser;
//!
//! let mut b = LexerBuilder::new();
//! let num = b.token("num", "[0-9]+")?;
//! b.skip(" ")?;
//! let plus = b.token("plus", r"\+")?;
//! let mut lexer = b.build()?;
//!
//! let sum: Cfe<i64> = Cfe::sep_by1(
//!     Cfe::tok_with(num, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap()),
//!     Cfe::tok_val(plus, 0),
//!     || 0,
//!     |a, b| a + b,
//! );
//! let grammar = normalize(&sum)?;
//! let fused = fuse(&mut lexer, &grammar)?;
//! let parser = CompiledParser::compile(&mut lexer, &fused);
//! assert_eq!(parser.parse(b"1 + 2 + 39")?, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Session reuse
//!
//! [`CompiledParser::parse`] allocates fresh stacks per call, which is
//! fine for one-off parses. Anything that parses in a loop — servers,
//! benchmarks, batch jobs — should create one [`ParseSession`] per
//! worker and pass it to [`CompiledParser::parse_with`]: after the
//! first few parses grow the stacks to the workload's high-water mark,
//! the hot path performs zero allocations. Sessions are plain owned
//! values; one per thread, no synchronization:
//!
//! ```
//! # use flap_cfe::Cfe;
//! # use flap_dgnf::normalize;
//! # use flap_fuse::fuse;
//! # use flap_lex::LexerBuilder;
//! # use flap_staged::{CompiledParser, ParseSession};
//! # let mut b = LexerBuilder::new();
//! # let num = b.token("num", "[0-9]+")?;
//! # let mut lexer = b.build()?;
//! # let g: Cfe<i64> = Cfe::tok_with(num, |lx| lx.len() as i64);
//! # let fused = fuse(&mut lexer, &normalize(&g)?)?;
//! # let parser = CompiledParser::compile(&mut lexer, &fused);
//! # let batch: Vec<&[u8]> = vec![b"12", b"345"];
//! let parser = &parser; // shared: CompiledParser is Send + Sync
//! std::thread::scope(|scope| {
//!     for chunk in batch.chunks(1) {
//!         scope.spawn(move || {
//!             let mut session = ParseSession::new(); // one per thread
//!             for input in chunk {
//!                 let _ = parser.parse_with(&mut session, input);
//!             }
//!         });
//!     }
//! });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Parse errors inline their expected-token set so error construction
// never allocates (see flap-fuse); the larger Err variant is a
// deliberate tradeoff, constructed once per failed parse.
#![allow(clippy::result_large_err)]

pub mod artifact;
pub mod codegen;
mod compile;
mod cont;
mod edit_log;
mod incremental;
mod metrics;
mod obs;
pub mod origin;
mod stream;
mod vm;

pub use compile::CompiledParser;
pub use edit_log::{IncrementalConfig, ReuseStats};
pub use incremental::IncrementalSession;
pub use metrics::{measure_pipeline, CompileError, CompileTimes, SizeReport, TableFootprint};
pub use obs::{NoopObserver, Observer, ParseProfiler};
pub use origin::Origin;
pub use stream::{ByteSource, IterSource, ReadSource, SliceChunks, Step, StreamError};
pub use vm::{ParseSession, StreamParse};

// Parse errors carry the expected-token set defined beside them in
// `flap-fuse`; re-exported so staged users need only this crate.
pub use flap_fuse::Expected;
