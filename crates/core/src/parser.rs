//! The end-user entry point: compile a lexer + combinator grammar
//! into a fused, staged parser.

use std::sync::Arc;

use flap_artifact::{AlignedBuf, ArtifactError};
use flap_cfe::Cfe;
use flap_fuse::FusedParseError;
use flap_lex::Lexer;
use flap_staged::{
    measure_pipeline, ByteSource, CompileError, CompileTimes, CompiledParser, IncrementalConfig,
    IncrementalSession, Origin, ParseSession, ReadSource, SizeReport, StreamError, StreamParse,
};

/// A compiled flap parser: the result of type-checking, normalizing
/// (Fig 4), fusing (Fig 6) and staging (Fig 10) a combinator grammar
/// against a lexer.
///
/// A `Parser` is an immutable, `Send + Sync` artifact: all per-parse
/// mutable state lives in caller-owned [`ParseSession`]s. The compiled
/// tables sit behind an [`Arc`], so cloning a `Parser` (or taking
/// [`Parser::compiled_arc`]) shares them rather than copying — hand
/// one parser to as many threads as you like, each with its own
/// session, or let a [`Parser::serve`] pool spread a batch over its
/// workers with [`ParsePool::parse_batch`](crate::serve::ParsePool::parse_batch).
///
/// See [`Parser::compile`] for construction and the crate docs for a
/// complete example.
pub struct Parser<V> {
    compiled: Arc<CompiledParser<V>>,
    /// Which grammar node owns each action: what an artifact needs to
    /// re-bind them.
    origin: Origin,
    lexer: Lexer,
    times: CompileTimes,
}

impl<V: 'static> Parser<V> {
    /// Runs the full flap pipeline (Fig 1):
    /// type-check → normalize → check DGNF → fuse → stage, then
    /// records which grammar node owns each action (see
    /// [`Parser::to_artifact`]).
    ///
    /// The returned parser owns the lexer and the compiled tables; the
    /// intermediate grammars are dropped. To inspect them, run
    /// [`flap_dgnf::normalize`] and [`flap_fuse::fuse`] directly.
    ///
    /// # Errors
    ///
    /// [`CompileError`] — a [`TypeError`](flap_cfe::TypeError) for an
    /// ill-typed grammar, or a [`FuseError`](flap_fuse::FuseError)
    /// when the grammar names a token its lexer lacks; normalization
    /// is total on well-typed grammars (Theorems 3.3 and 3.7).
    pub fn compile(mut lexer: Lexer, grammar: &Cfe<V>) -> Result<Parser<V>, CompileError> {
        let (compiled, sizes, times) = measure_pipeline(&mut lexer, grammar)?;
        let origin = Origin::trace(&lexer, grammar, &compiled, sizes);
        Ok(Parser {
            compiled: Arc::new(compiled),
            origin,
            lexer,
            times,
        })
    }

    /// Parses a complete input, returning the semantic value.
    ///
    /// Allocates a fresh [`ParseSession`] per call; loops should use
    /// [`Parser::parse_with`] with a reused session instead.
    ///
    /// # Errors
    ///
    /// [`FusedParseError`] with byte offset and line/column — there
    /// are no tokens to report, by design.
    pub fn parse(&self, input: &[u8]) -> Result<V, FusedParseError> {
        self.compiled.parse(input)
    }

    /// Parses a complete input using caller-owned scratch state — the
    /// allocation-free entry point (§2.8's "no allocation" property).
    ///
    /// # Errors
    ///
    /// As for [`Parser::parse`].
    pub fn parse_with(
        &self,
        session: &mut ParseSession<V>,
        input: &[u8],
    ) -> Result<V, FusedParseError> {
        self.compiled.parse_with(session, input)
    }

    /// As [`Parser::parse_with`], with an
    /// [`Observer`](crate::obs::Observer) receiving the parse's
    /// events — see [`crate::obs`] for the hook vocabulary and the
    /// zero-overhead invariant.
    ///
    /// # Errors
    ///
    /// As for [`Parser::parse`].
    pub fn parse_with_obs<O: crate::obs::Observer>(
        &self,
        session: &mut ParseSession<V>,
        input: &[u8],
        obs: &mut O,
    ) -> Result<V, FusedParseError> {
        self.compiled.parse_with_obs(session, input, obs)
    }

    /// A fresh session for [`Parser::parse_with`] — create one per
    /// worker thread and reuse it.
    pub fn session(&self) -> ParseSession<V> {
        ParseSession::new()
    }

    /// Recognizes a complete input without running semantic actions.
    ///
    /// # Errors
    ///
    /// As for [`Parser::parse`].
    pub fn recognize(&self, input: &[u8]) -> Result<(), FusedParseError> {
        self.compiled.recognize(input)
    }

    /// Begins (or continues) a suspendable streaming parse: feed the
    /// input chunk by chunk as it arrives — from a socket, a pipe, a
    /// decompressor — without materializing it.
    ///
    /// The session retains the automaton state, the partial-token
    /// byte tail (so a lexeme straddling chunk boundaries still
    /// reaches its action as one contiguous slice) and line/column
    /// accounting between feeds; results and error positions are
    /// byte-for-byte identical to a one-shot [`Parser::parse`] of the
    /// concatenated input.
    ///
    /// ```
    /// # use flap::{Cfe, LexerBuilder, Parser, Step};
    /// # let mut lx = LexerBuilder::new();
    /// # let num = lx.token("num", "[0-9]+")?;
    /// # let lexer = lx.build()?;
    /// # let grammar: Cfe<i64> = Cfe::tok_with(num, |lx| lx.len() as i64);
    /// let parser = Parser::compile(lexer, &grammar)?;
    /// let mut session = parser.session();
    /// let mut s = parser.stream(&mut session);
    /// assert!(matches!(s.feed(b"123"), Step::NeedMore));
    /// assert!(matches!(s.feed(b"45"), Step::NeedMore));
    /// match s.finish() {
    ///     Step::Done(n) => assert_eq!(n, 5),
    ///     other => panic!("{other:?}"),
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn stream<'a>(&'a self, session: &'a mut ParseSession<V>) -> StreamParse<'a, V> {
        self.compiled.stream(session)
    }

    /// Parses an entire [`ByteSource`] (chunked slices, iterators of
    /// chunks, [`std::io::Read`] adapters) through a reused session.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on either an I/O failure of the source or a
    /// parse failure of the input.
    pub fn parse_source_with(
        &self,
        session: &mut ParseSession<V>,
        source: &mut impl ByteSource,
    ) -> Result<V, StreamError> {
        self.compiled.parse_source_with(session, source)
    }

    /// As [`Parser::parse_source_with`] with a fresh session per
    /// call.
    ///
    /// # Errors
    ///
    /// As for [`Parser::parse_source_with`].
    pub fn parse_source(&self, source: &mut impl ByteSource) -> Result<V, StreamError> {
        self.compiled.parse_source(source)
    }

    /// Parses straight from a [`std::io::Read`] — a file, socket or
    /// pipe — through an internal chunk buffer, without materializing
    /// the input.
    ///
    /// # Errors
    ///
    /// As for [`Parser::parse_source`].
    pub fn parse_reader(&self, reader: impl std::io::Read) -> Result<V, StreamError> {
        self.parse_source(&mut ReadSource::new(reader))
    }

    /// A fresh edit-aware session for incremental re-parsing, with
    /// the default checkpoint density (see
    /// [`Parser::incremental_with`] to tune it).
    ///
    /// Load the document with `splice(0..0, text)`, parse, edit with
    /// further [`IncrementalSession::splice`] calls and re-parse:
    /// each re-parse restarts from the last checkpoint at or before
    /// the first edit rather than from byte 0, and
    /// [`Parser::validate_incremental`] additionally stops early once
    /// the automaton state re-converges with the previous run.
    ///
    /// ```
    /// # use flap::{Cfe, LexerBuilder, Parser};
    /// # let mut lx = LexerBuilder::new();
    /// # let num = lx.token("num", "[0-9]+")?;
    /// # lx.skip(" ")?;
    /// # let lexer = lx.build()?;
    /// # let grammar: Cfe<i64> = Cfe::fix(|more| {
    /// #     Cfe::tok_with(num, |b| b.len() as i64).then(
    /// #         Cfe::eps_with(|| 0).or(more.clone()), |a, b| a + b)
    /// # });
    /// let parser = Parser::compile(lexer, &grammar)?;
    /// let mut inc = parser.incremental();
    /// inc.splice(0..0, b"10 20 30");
    /// assert_eq!(parser.parse_incremental(&mut inc)?, 6);
    /// inc.splice(3..5, b"2000"); // "20" -> "2000"
    /// assert_eq!(parser.parse_incremental(&mut inc)?, 8);
    /// assert!(inc.stats().prefix_reused <= 3);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn incremental(&self) -> IncrementalSession<V> {
        IncrementalSession::new()
    }

    /// As [`Parser::incremental`] with explicit checkpoint density.
    pub fn incremental_with(&self, config: IncrementalConfig) -> IncrementalSession<V> {
        IncrementalSession::with_config(config)
    }

    /// Re-parses an [`IncrementalSession`]'s document after edits,
    /// reusing the longest unedited checkpointed prefix. The value —
    /// or the error, including position and line/column — is
    /// identical to a from-scratch [`Parser::parse`] of the current
    /// document; [`IncrementalSession::stats`] reports how much work
    /// was reused.
    ///
    /// # Errors
    ///
    /// As for [`Parser::parse`].
    pub fn parse_incremental(&self, inc: &mut IncrementalSession<V>) -> Result<V, FusedParseError>
    where
        V: Clone,
    {
        self.compiled.parse_incremental(inc)
    }

    /// Re-validates an [`IncrementalSession`]'s document after edits
    /// without running semantic actions — the incremental analogue of
    /// [`Parser::recognize`], and the entry point for the editor/LSP
    /// diagnostics workload: beyond prefix reuse, the re-parse stops
    /// as soon as its automaton state re-converges with the previous
    /// run's recorded state past the edit, making the cost of a small
    /// edit independent of document size.
    ///
    /// # Errors
    ///
    /// As for [`Parser::recognize`].
    pub fn validate_incremental(
        &self,
        inc: &mut IncrementalSession<V>,
    ) -> Result<(), FusedParseError> {
        self.compiled.validate_incremental(inc)
    }

    /// The Table 1 size columns for this grammar; a parser loaded by
    /// [`Parser::from_artifact`] reads them from the artifact.
    pub fn sizes(&self) -> SizeReport {
        self.origin.sizes()
    }

    /// The Table 2 compilation-time breakdown for this grammar. For a
    /// parser loaded by [`Parser::from_artifact`], the whole load
    /// counts as `stage` and the front-end phases are zero.
    pub fn times(&self) -> CompileTimes {
        self.times
    }

    /// The compiled automaton.
    pub fn compiled(&self) -> &CompiledParser<V> {
        &self.compiled
    }

    /// A shared handle to the compiled automaton — the tables are
    /// behind `Arc`, so this is how long-lived workers (thread pools,
    /// async tasks) keep the hot tables alive without holding the
    /// whole `Parser` (lexer, intermediate grammars) in memory.
    pub fn compiled_arc(&self) -> Arc<CompiledParser<V>> {
        Arc::clone(&self.compiled)
    }

    /// The canonicalized lexer.
    pub fn lexer(&self) -> &Lexer {
        &self.lexer
    }

    /// Emits the parser's flat table as the source of a Rust module
    /// with one `recognize` function (§5.5): a loop over the automaton
    /// states with an explicit stack, running no semantic actions.
    /// Parsers loaded by [`Parser::from_artifact`] emit the same
    /// source as the compiled ones they were saved from; see
    /// [`flap_staged::codegen::emit_rust`].
    pub fn emit_rust(&self, module_name: &str) -> String {
        flap_staged::codegen::emit_rust(&self.compiled, module_name)
    }

    /// Serializes the compiled tables into the versioned, checksummed
    /// `flap-artifact` container: everything the automaton needs to
    /// run — transition block, class map, stop actions, skip DFA,
    /// continuation pool, production labels — plus, for each action,
    /// the pre-order index of the grammar node that owns its closure
    /// and the structural encoding of the lexer and grammar. The
    /// closures themselves are Rust code and cannot be serialized.
    /// Load the bytes back with [`Parser::from_artifact`] (full
    /// parser, actions re-bound from the grammar) or
    /// [`flap_staged::artifact::load_recognizer`] (recognizer only, no
    /// grammar needed).
    pub fn to_artifact(&self) -> Vec<u8> {
        self.compiled.to_artifact_with(&self.origin)
    }

    /// Rebuilds a full parser from artifact bytes plus the grammar
    /// definition, running none of the compiler: no type-check,
    /// normalization, fusion or staging. It encodes `lexer` and
    /// `grammar` structurally (token names, canonical regexes,
    /// combinator tree) and compares the bytes with the encoding
    /// stored in the artifact, so tables compiled for another lexer or
    /// grammar are rejected rather than mis-parsed. It then takes each
    /// action from the grammar node the artifact names for it, in one
    /// walk of `grammar`.
    ///
    /// The bytes are copied once into a 64-byte-aligned buffer; the
    /// transition tables are then *borrowed* from that buffer
    /// (zero-copy — no per-table allocation). Callers that already
    /// hold an aligned buffer can use
    /// [`flap_staged::artifact::load_parser`] directly.
    ///
    /// ```
    /// # use flap::{Cfe, LexerBuilder, Parser};
    /// # fn lexer() -> flap::Lexer {
    /// #     let mut lx = LexerBuilder::new();
    /// #     lx.token("atom", "[a-z]+").unwrap();
    /// #     lx.skip(" ").unwrap();
    /// #     lx.build().unwrap()
    /// # }
    /// # let atom = flap::Token::from_index(0);
    /// # let grammar: Cfe<i64> =
    /// #     Cfe::fix(|x| Cfe::eps_with(|| 0).or(Cfe::tok_val(atom, 1).then(x, |a, b| a + b)));
    /// let compiled = Parser::compile(lexer(), &grammar)?;
    /// let bytes = compiled.to_artifact();
    /// // …persist `bytes`, ship them to a server, then:
    /// let loaded = Parser::from_artifact(&bytes, lexer(), &grammar)?;
    /// assert_eq!(loaded.parse(b"a b c")?, compiled.parse(b"a b c")?);
    /// assert_eq!(loaded.to_artifact(), bytes);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ArtifactError::ShapeMismatch`] if `lexer` and `grammar` are
    /// not the pair the artifact was compiled from;
    /// [`ArtifactError::MissingSection`] for an artifact written
    /// without provenance (by [`CompiledParser::to_artifact`]); any
    /// other [`ArtifactError`] if the bytes fail validation. Never
    /// panics.
    pub fn from_artifact(
        bytes: &[u8],
        lexer: Lexer,
        grammar: &Cfe<V>,
    ) -> Result<Parser<V>, ArtifactError> {
        let t0 = std::time::Instant::now();
        let buf = Arc::new(AlignedBuf::from_bytes(bytes));
        let (compiled, origin) = flap_staged::artifact::load_parser(&buf, &lexer, grammar)?;
        let times = CompileTimes {
            stage: t0.elapsed(),
            ..CompileTimes::default()
        };
        Ok(Parser {
            compiled: Arc::new(compiled),
            origin,
            lexer,
            times,
        })
    }
}

impl<V: Send + 'static> Parser<V> {
    /// Spawns a persistent worker pool serving this parser: long-lived
    /// workers with reusable sessions, a bounded submission queue with
    /// explicit backpressure, panic isolation and built-in metrics.
    /// The pool shares the compiled tables via [`Parser::compiled_arc`]
    /// and outlives this `Parser` if need be.
    ///
    /// The pool is the only place the library spawns threads. Parse a
    /// batch in parallel with
    /// [`ParsePool::parse_batch`](crate::serve::ParsePool::parse_batch);
    /// parse one sequentially with [`Parser::parse_with`] in a loop over
    /// one session. See the [`crate::serve`] module docs for the full
    /// API.
    pub fn serve(&self, config: crate::serve::PoolConfig) -> crate::serve::ParsePool<V> {
        crate::serve::ParsePool::new(self.compiled_arc(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_cfe::Cfe;
    use flap_lex::LexerBuilder;

    fn sexp() -> Parser<i64> {
        let (lexer, g) = sexp_parts();
        Parser::compile(lexer, &g).unwrap()
    }

    fn sexp_parts() -> (Lexer, Cfe<i64>) {
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let lexer = b.build().unwrap();
        let g: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        (lexer, g)
    }

    #[test]
    fn end_to_end() {
        let p = sexp();
        assert_eq!(p.parse(b"(a (b c) d)").unwrap(), 4);
        assert!(p.recognize(b"(a)").is_ok());
        assert!(p.parse(b"(").is_err());
        assert_eq!(p.sizes().nts, 3);
        assert!(p.times().total().as_nanos() > 0);
        assert!(p.emit_rust("gen").contains("pub fn recognize"));
    }

    #[test]
    fn parser_is_send_and_sync() {
        // Compile-time assertion: the whole point of the Arc-based
        // ownership model. `V` itself need not be Sync — values are
        // created and consumed on one thread per parse.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Parser<i64>>();
        assert_send_sync::<Parser<Vec<u8>>>();
        assert_send_sync::<flap_staged::CompiledParser<i64>>();
        assert_send_sync::<flap_fuse::FusedGrammar<i64>>();
        assert_send_sync::<flap_dgnf::Grammar<i64>>();
    }

    #[test]
    fn shared_across_threads_with_sessions() {
        let p = sexp();
        let p = &p;
        let inputs: Vec<&[u8]> = vec![b"(a b)", b"(a (b c))", b"(", b"x", b"(a b c d)"];
        let inputs = &inputs;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                handles.push(scope.spawn(move || {
                    let mut session = p.session();
                    inputs
                        .iter()
                        .map(|i| p.parse_with(&mut session, i).ok())
                        .collect::<Vec<_>>()
                }));
            }
            let expect: Vec<Option<i64>> = inputs.iter().map(|i| p.parse(i).ok()).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expect);
            }
        });
    }

    #[test]
    fn streaming_matches_one_shot_through_the_facade() {
        let p = sexp();
        let input = b"(a (b c) d)";
        let mut session = p.session();
        for chunk in [1usize, 3, 64] {
            let v = p
                .parse_source_with(&mut session, &mut crate::SliceChunks::new(input, chunk))
                .unwrap();
            assert_eq!(v, 4, "chunk={chunk}");
        }
        assert_eq!(p.parse_reader(std::io::Cursor::new(&input[..])).unwrap(), 4);
        match p.parse_source(&mut crate::SliceChunks::new(b"(a !", 2)) {
            Err(crate::StreamError::Parse(e)) => {
                assert_eq!(Err(e), p.parse(b"(a !"), "errors must match one-shot")
            }
            other => panic!("expected a parse error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn compiled_arc_shares_tables() {
        let p = sexp();
        let a = p.compiled_arc();
        let b = p.compiled_arc();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.parse(b"(a b)").unwrap(), 2);
    }

    #[test]
    fn compile_rejects_ill_typed() {
        let mut b = LexerBuilder::new();
        let a = b.token("a", "a").unwrap();
        let lexer = b.build().unwrap();
        let bad: Cfe<i64> = Cfe::tok_val(a, 1).or(Cfe::tok_val(a, 2));
        match Parser::compile(lexer, &bad) {
            Err(CompileError::Type(_)) => {}
            other => panic!("expected a type error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn intermediate_forms_are_inspectable() {
        let (mut lexer, g) = sexp_parts();
        let dgnf = flap_dgnf::normalize(&g).unwrap();
        let bnf = format!("{}", dgnf.display(&lexer));
        assert!(bnf.contains("atom"), "{bnf}");
        let fused = flap_fuse::fuse(&mut lexer, &dgnf).unwrap();
        let fused = format!("{}", fused.display(lexer.arena()));
        assert!(fused.contains("?"), "lookahead rule should render: {fused}");
    }
}
