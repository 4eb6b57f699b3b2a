//! **bulk-parse**: one ≈1 MB document per grammar, parsed with
//! actions by `Parser::parse_with` on a reused session, the six
//! grammars interleaved round by round.
//!
//! *Why:* the fused VM's per-byte loop, the skip DFA and the semantic
//! actions do nearly all the work and per-call costs vanish, so this
//! is where a faster engine ("make fusion pay") must show.
//!
//! Each round starts with one cold set-up (compile all six grammars
//! with `Parser::compile`), sampled into `setup_s`, then parses every
//! document once. One op of `ops_per_s` and the latencies is one
//! round's six parses, a batch job of 6 MB; `mb_per_s` is the
//! geometric mean of the six per-grammar rates, each the document's
//! size over its median parse time. In a traced run, traced and
//! untraced rounds alternate. Traced rounds also walk the same
//! document up the cost ladder (skip-DFA scan, standalone lexer, fused
//! recognizer, fused parser, unfused baseline, build-time generated
//! recognizer), and compile it once more phase by phase.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flap::flap_lex::CompiledLexer;
use flap::flap_regex::FlatDfa;
use flap::flap_staged::CompiledParser;
use flap::{ParseSession, Parser};
use flap_baselines::UnfusedParser;
use flap_grammars::GrammarDef;

use crate::inputs::{document, per_grammar, GRAMMARS};
use crate::report::Report;
use crate::stats::{geomean, median, peak_rss_mb, quantile, Calibration};
use crate::trace::Tracer;

/// Size target of each grammar's document.
const DOC_BYTES: usize = 1 << 20;

/// Stack for the bulk thread: the build-time generated recognizers
/// recurse once per repetition (Rust has no guaranteed tail calls),
/// which on a 1 MB ppm document needs far more than the default.
const STACK_BYTES: usize = 512 << 20;

/// One grammar's document and everything that runs over it.
trait Lane {
    fn doc_len(&self) -> usize;
    /// Lexemes the ladder's lexer rung found in the document.
    fn tokens(&self) -> usize;
    /// Cold set-up: compiles the grammar from its definition, as a
    /// user does at start-up. Returns the seconds it took.
    fn compile(&mut self, t: &mut Tracer) -> f64;
    /// The op: one parse of the document. Returns the seconds it took.
    fn parse(&mut self, t: &mut Tracer, report: &mut Report) -> f64;
    /// The traced-only rungs of the cost ladder, each in its own span.
    fn ladder(&mut self, t: &mut Tracer, report: &mut Report);
    /// `(states, table bytes)` of the compiled tables.
    fn footprint(&self) -> (usize, usize);
}

struct GrammarLane<V: 'static> {
    g: u8,
    def: GrammarDef<V>,
    doc: Vec<u8>,
    expected: i64,
    parser: Parser<V>,
    session: ParseSession<V>,
    /// Ladder-only: the standalone lexer, the skip DFA (csv has no
    /// skip rule), the unfused baseline and the generated recognizer.
    rungs: Option<Rungs<V>>,
    tokens: usize,
}

struct Rungs<V> {
    lexer: CompiledLexer,
    skip: Option<FlatDfa>,
    unfused: UnfusedParser<V>,
    codegen: fn(&[u8]) -> Result<(), usize>,
}

fn lane<V: 'static>(g: usize, def: GrammarDef<V>, seed: u64, traced: bool) -> Box<dyn Lane> {
    let doc = document(g, def.generate, seed, DOC_BYTES);
    let expected = (def.reference)(&doc).expect("generated document is valid");
    let rungs = traced.then(|| {
        let mut lexer = (def.lexer)();
        let skip = lexer
            .skip_regex()
            .map(|r| FlatDfa::build(lexer.arena_mut(), r));
        Rungs {
            lexer: CompiledLexer::build(&mut (def.lexer)()),
            skip,
            unfused: UnfusedParser::build((def.lexer)(), &(def.cfe)())
                .expect("benchmark grammars build unfused"),
            codegen: flap_bench::generated_recognizer(def.name),
        }
    });
    Box::new(GrammarLane {
        g: g as u8,
        parser: def.flap_parser(),
        def,
        doc,
        expected,
        session: ParseSession::new(),
        rungs,
        tokens: 0,
    })
}

impl<V: 'static> Lane for GrammarLane<V> {
    fn doc_len(&self) -> usize {
        self.doc.len()
    }

    fn tokens(&self) -> usize {
        self.tokens
    }

    fn compile(&mut self, t: &mut Tracer) -> f64 {
        t.begin("flap.compile", self.g);
        let t0 = Instant::now();
        let parser = Parser::compile((self.def.lexer)(), &(self.def.cfe)());
        let dt = t0.elapsed().as_secs_f64();
        t.end();
        self.parser = black_box(parser).expect("benchmark grammars compile");
        dt
    }

    fn parse(&mut self, t: &mut Tracer, report: &mut Report) -> f64 {
        let t0 = Instant::now();
        t.begin("flap-staged.parse", self.g);
        let out = self
            .parser
            .parse_with(&mut self.session, black_box(&self.doc));
        t.end();
        let dt = t0.elapsed().as_secs_f64();
        let got = black_box(out).map(self.def.finish);
        report.op(got.as_ref().ok() == Some(&self.expected), || {
            format!(
                "bulk {}: parse gave {got:?}, oracle {}",
                self.def.name, self.expected
            )
        });
        dt
    }

    fn ladder(&mut self, t: &mut Tracer, report: &mut Report) {
        let g = self.g;
        let name = self.def.name;
        let doc = black_box(&self.doc[..]);
        let rungs = self
            .rungs
            .as_ref()
            .expect("ladder rungs are built for traced runs");

        if let Some(skip) = &rungs.skip {
            t.begin("flap-regex.skip_scan", g);
            let skipped = skip_walk(skip, doc);
            t.end();
            black_box(skipped);
        }

        t.begin("flap-lex.lex", g);
        let mut tokens = 0usize;
        let mut lexed = true;
        for lexeme in rungs.lexer.lexemes(doc) {
            lexed &= black_box(lexeme).is_ok();
            tokens += 1;
        }
        t.end();
        report.op(lexed, || {
            format!("ladder {name}: the standalone lexer failed")
        });
        self.tokens = tokens;

        t.begin("flap-staged.recognize", g);
        let out = self.parser.recognize(doc);
        t.end();
        report.op(black_box(out).is_ok(), || {
            format!("ladder {name}: recognize failed")
        });

        t.begin("flap-baselines.unfused", g);
        let out = rungs.unfused.parse(doc);
        t.end();
        let got = black_box(out).ok().map(self.def.finish);
        report.op(got == Some(self.expected), || {
            format!(
                "ladder {name}: unfused gave {got:?}, oracle {}",
                self.expected
            )
        });

        t.begin("flap-bench.codegen_recognize", g);
        let out = (rungs.codegen)(doc);
        t.end();
        report.op(black_box(out).is_ok(), || {
            format!("ladder {name}: generated recognizer failed")
        });

        // the compile pipeline phase by phase, through public calls
        let mut lexer = (self.def.lexer)();
        let cfe = (self.def.cfe)();
        t.begin("flap-cfe.type_check", g);
        let typed = flap::type_check(black_box(&cfe));
        t.end();
        t.begin("flap-dgnf.normalize", g);
        let dgnf = flap::flap_dgnf::normalize(&cfe).expect("benchmark grammars normalize");
        let dgnf_ok = dgnf.check_dgnf();
        t.end();
        t.begin("flap-fuse.fuse", g);
        let fused = flap::flap_fuse::fuse(&mut lexer, &dgnf).expect("benchmark grammars fuse");
        t.end();
        t.begin("flap-staged.stage", g);
        let staged = CompiledParser::compile(&mut lexer, &fused);
        t.end();
        report.op(typed.is_ok() && dgnf_ok.is_ok(), || {
            format!("ladder {name}: phase-by-phase compile failed")
        });
        let out = black_box(staged).recognize(doc);
        report.op(out.is_ok(), || {
            format!("ladder {name}: phase-compiled parser failed")
        });
    }

    fn footprint(&self) -> (usize, usize) {
        let f = self.parser.compiled().table_footprint();
        (f.states, f.table_bytes)
    }
}

/// Walks the skip DFA over `doc`: a longest-match scan from every
/// position that is not inside a skipped run. Returns the bytes
/// skipped.
fn skip_walk(skip: &FlatDfa, doc: &[u8]) -> usize {
    let (mut i, mut skipped) = (0, 0);
    while i < doc.len() {
        let (_, _, best, _) = skip.run_longest(doc, 0, i, i, 0);
        if best > 0 {
            i += best;
            skipped += best;
        } else {
            i += 1;
        }
    }
    skipped
}

/// What a traced bulk run hands to the cross-layer checks.
pub struct Ladder {
    /// Cold `Parser::compile` of the six grammars, summed, in µs.
    pub compile_us: f64,
}

/// Runs bulk-parse for `budget`. With `tracer`, rounds alternate
/// traced and untraced and the per-layer metrics are reported;
/// without, the end-to-end metrics.
pub fn run(
    seed: u64,
    budget: Duration,
    tracer: Option<&mut Tracer>,
    cal: &mut Calibration,
    report: &mut Report,
) -> Ladder {
    let mut untraced = Tracer::new();
    let traced = tracer.is_some();
    let t = tracer.unwrap_or(&mut untraced);
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("bulk-parse".into())
            .stack_size(STACK_BYTES)
            .spawn_scoped(s, || rounds(seed, budget, traced, t, cal, report))
            .expect("spawn the bulk-parse thread")
            .join()
            .expect("bulk-parse thread panicked")
    })
}

fn rounds(
    seed: u64,
    budget: Duration,
    traced: bool,
    t: &mut Tracer,
    cal: &mut Calibration,
    report: &mut Report,
) -> Ladder {
    let mut lanes: Vec<Box<dyn Lane>> = per_grammar!(lane, seed, traced);
    let n = lanes.len();
    // per grammar: op seconds in untraced rounds, and in traced ones
    let mut times = vec![Vec::new(); n];
    let mut traced_times = vec![Vec::new(); n];
    let mut setup = Vec::new();
    // one op of the end-to-end metrics is one round: all six documents
    let mut round_us = Vec::new();

    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || start.elapsed() < budget {
        cal.sample();
        t.set_enabled(traced && round.is_multiple_of(2));
        setup.push(lanes.iter_mut().map(|l| l.compile(t)).sum::<f64>());
        let mut busy = 0.0;
        for (g, lane) in lanes.iter_mut().enumerate() {
            t.next_op();
            let dt = lane.parse(t, report);
            if t.enabled() {
                lane.ladder(t, report);
                traced_times[g].push(dt);
            } else {
                times[g].push(dt);
            }
            busy += dt;
        }
        round_us.push(busy * 1e6);
        round += 1;
    }
    t.set_enabled(false);

    let rates: Vec<f64> = lanes
        .iter()
        .zip(&times)
        .map(|(l, ts)| l.doc_len() as f64 / median(ts) / 1e6)
        .collect();
    for (g, (l, rate)) in lanes.iter().zip(&rates).enumerate() {
        eprintln!(
            "bulk-parse {:<5} {:>8} B  {rate:>8.2} MB/s",
            GRAMMARS[g],
            l.doc_len()
        );
    }
    if !traced {
        report.metric("mb_per_s", geomean(&rates), "MB/s");
        report.metric("ops_per_s", 1e6 / median(&round_us), "1/s");
        report.metric("latency_p50_us", quantile(&round_us, 0.5), "us");
        report.metric("latency_p90_us", quantile(&round_us, 0.9), "us");
        report.metric("setup_s", median(&setup), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ladder { compile_us: 0.0 };
    }

    let med = |name: &str, g: usize| median(&t.durations_us(name, g as u8));
    let mut overhead = Vec::new();
    for (g, lane) in lanes.iter().enumerate() {
        let gname = GRAMMARS[g];
        let bytes = lane.doc_len() as f64;
        // bytes per µs is MB/s
        let rate = |name: &str| bytes / med(name, g);
        if GRAMMARS[g] != "csv" {
            report.metric(
                format!("flap-regex.skip_scan_mb_per_s.{gname}"),
                rate("flap-regex.skip_scan"),
                "MB/s",
            );
        }
        let (lex, recognize, parse) = (
            rate("flap-lex.lex"),
            rate("flap-staged.recognize"),
            rate("flap-staged.parse"),
        );
        let unfused = rate("flap-baselines.unfused");
        report.metric(format!("flap-lex.lex_mb_per_s.{gname}"), lex, "MB/s");
        report.metric(
            format!("flap-lex.tokens.{gname}"),
            lane.tokens() as f64,
            "count",
        );
        report.metric(
            format!("flap-staged.recognize_mb_per_s.{gname}"),
            recognize,
            "MB/s",
        );
        report.metric(format!("flap-staged.parse_mb_per_s.{gname}"), parse, "MB/s");
        report.metric(
            format!("flap-staged.action_share.{gname}"),
            1.0 - parse / recognize,
            "ratio",
        );
        report.metric(
            format!("flap-baselines.unfused_mb_per_s.{gname}"),
            unfused,
            "MB/s",
        );
        report.metric(
            format!("flap-staged.fusion_gain.{gname}"),
            parse / unfused,
            "ratio",
        );
        report.metric(
            format!("flap-bench.codegen_recognize_mb_per_s.{gname}"),
            rate("flap-bench.codegen_recognize"),
            "MB/s",
        );
        report.check(recognize >= parse, || {
            format!("ladder order: {gname} recognize {recognize:.1} MB/s < parse {parse:.1} MB/s")
        });
        let share = median(&traced_times[g]) / median(&times[g]) - 1.0;
        overhead.push(share);
        // the traced parse rate must match the untraced one within
        // the tracing overhead measured on the same op
        let untraced_rate = rates[g];
        report.check((parse / untraced_rate - 1.0).abs() <= share.abs() + AGREEMENT, || {
            format!("traced {gname} parse {parse:.1} MB/s disagrees with untraced {untraced_rate:.1} MB/s")
        });
    }
    let sum = |name: &str| (0..n).map(|g| med(name, g)).sum::<f64>();
    report.metric("flap-cfe.type_check_us", sum("flap-cfe.type_check"), "us");
    report.metric("flap-dgnf.normalize_us", sum("flap-dgnf.normalize"), "us");
    report.metric("flap-fuse.fuse_us", sum("flap-fuse.fuse"), "us");
    report.metric("flap-staged.stage_us", sum("flap-staged.stage"), "us");
    let (states, bytes) = lanes
        .iter()
        .map(|l| l.footprint())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    report.metric("flap-staged.states", states as f64, "count");
    report.metric("flap-staged.table_bytes", bytes as f64, "B");
    report.metric(
        "trace.overhead_share.bulk-parse",
        overhead.iter().sum::<f64>() / n as f64,
        "ratio",
    );
    Ladder {
        compile_us: sum("flap.compile"),
    }
}

/// Noise allowed, beyond the measured tracing overhead, between the
/// traced and untraced parse rates of one run.
const AGREEMENT: f64 = 0.1;
