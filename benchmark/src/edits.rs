//! **edit-session**: an editor loop over a 2 MB json document and a
//! 2 MB sexp document, each loaded into an `IncrementalSession` with
//! the default checkpoint interval. The seeded edits are
//! keystroke-sized replacements, insertions and deletions inside
//! numbers (json) and atoms (sexp), alternating between the two
//! documents. About one edit in 128 breaks its document by inserting
//! a `#`, and one of the next few edits to that document deletes it
//! again. `validate_incremental` runs after every edit; every 64th
//! edit of a document, `parse_incremental` refreshes the value on a
//! second session that receives the same edits.
//!
//! *Why:* `EditLog` splice, checkpoint bookkeeping and convergence
//! dominate, and the VM runs over only about one or two checkpoint
//! intervals per edit. The value refresh uses the same layer
//! differently: prefix reuse only, and checkpoints carry values. So a
//! gain for validation that costs value mode shows up in `ops_per_s`
//! and `mb_per_s`.
//!
//! One op is one edit: both splices, the re-validation and, every
//! 64th edit, the value refresh. Whether an edit leaves its document
//! valid is known from the edit script, and every validation and
//! refresh is checked against it. Every fourth refresh also runs the
//! grammar's independent `reference` parser over the whole document
//! (outside the timed op), which must agree with the script.
//!
//! Each round reloads both documents from scratch and is one cold
//! set-up (compile both grammars, load both documents into both
//! sessions), sampled into `setup_s`. In a traced run, traced and
//! untraced rounds alternate.

use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

use flap::flap_lex::CompiledLexer;
use flap::{IncrementalSession, Parser};
use flap_grammars::GrammarDef;

use crate::inputs::{document, verdict};
use crate::report::Report;
use crate::stats::{geomean, median, peak_rss_mb, quantile, sub_seed, Calibration, Rng};
use crate::trace::Tracer;

/// Size target of each document.
const DOC_BYTES: usize = 2 << 20;
/// Edit sites drawn per document per round.
const SITES: usize = 64;
/// Edits per round, alternating the two documents.
const ROUND_EDITS: usize = 512;
/// Ops per throughput sample; a multiple of twice [`REFRESH_EVERY`],
/// so every batch holds the same number of refreshes.
const BATCH: usize = 128;
/// Edits of one document between value refreshes.
const REFRESH_EVERY: usize = 64;
/// Value refreshes between two runs of the reference parser.
const ORACLE_EVERY: usize = 4;
/// One edit in this many (on a valid document) breaks it.
const BREAK_ONE_IN: usize = 128;
/// Longest a site may grow by insertions.
const MAX_SITE: usize = 12;

/// What kind of token the edit sites are.
#[derive(Clone, Copy)]
enum Kind {
    /// The integer digits of a json number: `0|[1-9][0-9]*`.
    Digits,
    /// An sexp atom: `[a-z][a-z0-9]*`.
    Atom,
}

impl Kind {
    /// A byte that keeps the site well-formed at offset `at` of a
    /// site of `len` bytes (after the edit).
    fn byte(self, rng: &mut Rng, at: usize, len: usize) -> u8 {
        match self {
            Kind::Digits if at == 0 && len > 1 => b'1' + rng.below(9) as u8,
            Kind::Digits => b'0' + rng.below(10) as u8,
            Kind::Atom if at == 0 => b'a' + rng.below(26) as u8,
            Kind::Atom => {
                let c = rng.below(36) as u8;
                if c < 26 {
                    b'a' + c
                } else {
                    b'0' + c - 26
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
struct Site {
    start: usize,
    len: usize,
}

/// A document that is currently broken: its site, the offset of the
/// inserted `#` in it, and the edits left before the repair.
#[derive(Clone, Copy)]
struct Break {
    site: usize,
    at: usize,
    left: usize,
}

struct Doc {
    g: u8,
    def: GrammarDef<i64>,
    kind: Kind,
    original: Vec<u8>,
    /// Every editable site of `original`.
    candidates: Vec<Site>,
    expected: i64,
    parser: Parser<i64>,
    check: IncrementalSession<i64>,
    value: IncrementalSession<i64>,
    /// This round's sites, sorted and disjoint, in current positions.
    sites: Vec<Site>,
    broken: Option<Break>,
    edits: usize,
    refreshes: usize,
}

impl Doc {
    fn new(g: usize, def: GrammarDef<i64>, seed: u64) -> Doc {
        let original = document(g, def.generate, seed, DOC_BYTES);
        let expected = (def.reference)(&original).expect("generated document is valid");
        let (kind, token) = match def.name {
            "json" => (Kind::Digits, flap_grammars::json::tokens().number),
            "sexp" => (Kind::Atom, flap_grammars::sexp::tokens().atom),
            other => unreachable!("no edit script for {other}"),
        };
        let lexer = CompiledLexer::build(&mut (def.lexer)());
        let candidates: Vec<Site> = lexer
            .lexemes(&original)
            .map(|lx| lx.expect("generated document lexes"))
            .filter(|lx| lx.token == token)
            .map(|lx| {
                let start = lx.start + usize::from(original[lx.start] == b'-');
                let len = original[start..lx.end]
                    .iter()
                    .take_while(|b| match kind {
                        Kind::Digits => b.is_ascii_digit(),
                        Kind::Atom => b.is_ascii_alphanumeric(),
                    })
                    .count();
                Site { start, len }
            })
            .collect();
        assert!(
            candidates.len() >= SITES,
            "{} document has too few edit sites",
            def.name
        );
        let parser = def.flap_parser();
        Doc {
            g: g as u8,
            kind,
            original,
            candidates,
            expected,
            check: parser.incremental(),
            value: parser.incremental(),
            parser,
            def,
            sites: Vec::new(),
            broken: None,
            edits: 0,
            refreshes: 0,
        }
    }

    /// Cold set-up: compiles the grammar and loads the original
    /// document into fresh sessions. Returns whether the load agreed
    /// with the oracle, and the state it replaced, to be dropped
    /// outside the timed region.
    fn load(&mut self, t: &mut Tracer) -> (bool, Retired) {
        t.begin("flap.compile", self.g);
        let parser = Parser::compile((self.def.lexer)(), &(self.def.cfe)())
            .expect("benchmark grammars compile");
        t.end();
        let mut check = parser.incremental();
        let mut value = parser.incremental();
        t.begin("flap-staged.initial_load", self.g);
        check.splice(0..0, &self.original);
        let validated = parser.validate_incremental(&mut check);
        t.end();
        value.splice(0..0, &self.original);
        let parsed = parser.parse_incremental(&mut value);
        let loaded = black_box(validated).is_ok() && black_box(parsed).ok() == Some(self.expected);
        let retired = (
            std::mem::replace(&mut self.parser, parser),
            std::mem::replace(&mut self.check, check),
            std::mem::replace(&mut self.value, value),
        );
        (loaded, retired)
    }

    /// Draws this round's edit sites.
    fn start_round(&mut self, rng: &mut Rng) {
        let mut picks: Vec<usize> = Vec::with_capacity(SITES);
        while picks.len() < SITES {
            let i = rng.below(self.candidates.len());
            if !picks.contains(&i) {
                picks.push(i);
            }
        }
        picks.sort_unstable();
        self.sites = picks.iter().map(|&i| self.candidates[i]).collect();
        self.broken = None;
        self.edits = 0;
    }

    /// Applies `delta` to the length of site `s`, shifting later sites.
    fn resize(&mut self, s: usize, delta: isize) {
        self.sites[s].len = self.sites[s].len.wrapping_add_signed(delta);
        for later in &mut self.sites[s + 1..] {
            later.start = later.start.wrapping_add_signed(delta);
        }
    }

    /// Plans the next edit: the range to replace and the byte (if any)
    /// to put there. Updates the site bookkeeping.
    fn plan(&mut self, rng: &mut Rng) -> (Range<usize>, Option<u8>) {
        if let Some(b) = self.broken {
            if b.left == 0 {
                self.broken = None;
                let at = self.sites[b.site].start + b.at;
                self.resize(b.site, -1);
                return (at..at + 1, None);
            }
            self.broken = Some(Break {
                left: b.left - 1,
                ..b
            });
        }
        let s = loop {
            let s = rng.below(SITES);
            if self.broken.is_none_or(|b| b.site != s) {
                break s;
            }
        };
        let Site { start, len } = self.sites[s];
        if self.broken.is_none() && rng.below(BREAK_ONE_IN) == 0 {
            let at = 1 + rng.below(len);
            self.broken = Some(Break {
                site: s,
                at,
                left: rng.below(4),
            });
            self.resize(s, 1);
            return (start + at..start + at, Some(b'#'));
        }
        let leading_zero = self.check.doc()[start] == b'0';
        match rng.below(3) {
            1 if len < MAX_SITE && !(matches!(self.kind, Kind::Digits) && leading_zero) => {
                let at = 1 + rng.below(len);
                let byte = self.kind.byte(rng, at, len + 1);
                self.resize(s, 1);
                (start + at..start + at, Some(byte))
            }
            2 if len >= 2 => {
                let at = 1 + rng.below(len - 1);
                self.resize(s, -1);
                (start + at..start + at + 1, None)
            }
            _ => {
                let at = rng.below(len);
                (
                    start + at..start + at + 1,
                    Some(self.kind.byte(rng, at, len)),
                )
            }
        }
    }
}

/// State replaced by a cold set-up, dropped after the timed region.
type Retired = (
    Parser<i64>,
    IncrementalSession<i64>,
    IncrementalSession<i64>,
);

/// Samples collected over a run; the `IncrementalSession::stats`
/// ones only in traced rounds.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    latencies_us: Vec<f64>,
    traced_latencies_us: Vec<f64>,
    batch_ops_per_s: Vec<f64>,
    /// Per document: value-refresh bytes parsed per second.
    refresh_rate: [Vec<f64>; 2],
    rescanned: Vec<f64>,
    reuse_share: Vec<f64>,
    converged: Vec<f64>,
    checkpoints: Vec<f64>,
    retained: Vec<f64>,
}

/// Runs edit-session for `budget`. With `tracer`, rounds alternate
/// traced and untraced and the per-layer metrics are reported;
/// without, the end-to-end metrics.
pub fn run(
    seed: u64,
    budget: Duration,
    tracer: Option<&mut Tracer>,
    cal: &mut Calibration,
    report: &mut Report,
) {
    let mut untraced = Tracer::new();
    let traced = tracer.is_some();
    let t = tracer.unwrap_or(&mut untraced);
    let mut docs = [
        Doc::new(0, flap_grammars::json::def(), seed),
        Doc::new(1, flap_grammars::sexp::def(), seed),
    ];
    let mut rng = Rng::new(sub_seed(seed, 0xed17));
    let mut s = Samples::default();

    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || start.elapsed() < budget {
        t.set_enabled(traced && round.is_multiple_of(2));
        let t0 = Instant::now();
        let retired = docs.each_mut().map(|d| d.load(t));
        s.setup.push(t0.elapsed().as_secs_f64());
        for (d, (loaded, _)) in docs.iter().zip(&retired) {
            report.op(*loaded, || {
                format!(
                    "edit-session {}: initial load disagrees with the oracle",
                    d.def.name
                )
            });
        }
        drop(retired);
        for d in &mut docs {
            d.start_round(&mut rng);
        }
        let mut busy = 0.0;
        for i in 0..ROUND_EDITS {
            let doc = &mut docs[i % 2];
            busy += edit(doc, &mut rng, t, report, &mut s);
            if (i + 1).is_multiple_of(BATCH) {
                s.batch_ops_per_s.push(BATCH as f64 / busy);
                busy = 0.0;
                cal.sample();
            }
        }
        round += 1;
    }
    t.set_enabled(false);
    eprintln!("edit-session: {round} rounds of {ROUND_EDITS} edits");

    let refresh_mb_per_s = geomean(&s.refresh_rate.each_ref().map(|r| median(r))) / 1e6;
    if !traced {
        report.metric("mb_per_s", refresh_mb_per_s, "MB/s");
        report.metric("ops_per_s", median(&s.batch_ops_per_s), "1/s");
        report.metric("latency_p50_us", quantile(&s.latencies_us, 0.5), "us");
        report.metric("latency_p90_us", quantile(&s.latencies_us, 0.9), "us");
        report.metric("setup_s", median(&s.setup), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }
    let all = |name: &str| {
        let spans: Vec<f64> = (0..2).flat_map(|g| t.durations_us(name, g)).collect();
        median(&spans)
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    report.metric("flap-fuse.splice_us", all("flap-fuse.splice"), "us");
    report.metric("flap-staged.validate_us", all("flap-staged.validate"), "us");
    report.metric(
        "flap-staged.value_refresh_us",
        all("flap-staged.value_refresh"),
        "us",
    );
    report.metric("flap-staged.rescanned_bytes", median(&s.rescanned), "B");
    report.metric("flap-staged.reuse_share", mean(&s.reuse_share), "ratio");
    report.metric("flap-staged.converged_share", mean(&s.converged), "ratio");
    report.metric("flap-staged.checkpoints", median(&s.checkpoints), "count");
    report.metric("flap-staged.retained_bytes", median(&s.retained), "B");
    let initial: f64 = (0..2)
        .map(|g| median(&t.durations_us("flap-staged.initial_load", g)))
        .sum();
    report.metric("flap-staged.initial_load_us", initial, "us");
    report.metric(
        "trace.overhead_share.edit-session",
        median(&s.traced_latencies_us) / median(&s.latencies_us) - 1.0,
        "ratio",
    );
}

/// One op: plans an edit, applies it to both sessions, re-validates
/// and, every [`REFRESH_EVERY`] edits, refreshes the value. Returns
/// the op's seconds.
fn edit(doc: &mut Doc, rng: &mut Rng, t: &mut Tracer, report: &mut Report, s: &mut Samples) -> f64 {
    let (range, byte) = doc.plan(rng);
    let replacement = byte.as_slice();
    let g = doc.g;
    doc.edits += 1;
    let refresh = doc.edits.is_multiple_of(REFRESH_EVERY);

    t.next_op();
    t.begin("edit", g);
    let t0 = Instant::now();
    t.begin("flap-fuse.splice", g);
    doc.check.splice(range.clone(), black_box(replacement));
    t.end();
    t.begin("flap-fuse.splice", g);
    doc.value.splice(range, replacement);
    t.end();
    t.begin("flap-staged.validate", g);
    let validated = doc.parser.validate_incremental(&mut doc.check);
    t.end();
    let refreshed = refresh.then(|| {
        let t1 = Instant::now();
        t.begin("flap-staged.value_refresh", g);
        let value = doc.parser.parse_incremental(&mut doc.value);
        t.end();
        (black_box(value), t1.elapsed().as_secs_f64())
    });
    let dt = t0.elapsed().as_secs_f64();
    t.end();

    let valid = doc.broken.is_none();
    let name = doc.def.name;
    report.op(black_box(validated).is_ok() == valid, || {
        format!("edit-session {name}: validation after edit {} disagrees with the script (valid: {valid})", doc.edits)
    });
    let stats = doc.check.stats();
    if t.enabled() {
        s.traced_latencies_us.push(dt * 1e6);
        s.rescanned.push(stats.parsed as f64);
        s.reuse_share
            .push((stats.prefix_reused + stats.suffix_reused) as f64 / stats.doc_len as f64);
        s.converged.push(f64::from(u8::from(stats.converged)));
        s.checkpoints.push(stats.checkpoints as f64);
    } else {
        s.latencies_us.push(dt * 1e6);
    }

    if let Some((value, secs)) = refreshed {
        let want = valid.then_some(doc.expected);
        report.op(value.as_ref().ok().copied() == want, || {
            format!("edit-session {name}: value refresh gave {value:?}, script expects {want:?}")
        });
        let vstats = doc.value.stats();
        s.refresh_rate[g as usize].push(vstats.parsed as f64 / secs);
        if t.enabled() {
            s.retained
                .push((stats.retained_bytes + vstats.retained_bytes) as f64);
        }
        doc.refreshes += 1;
        if doc.refreshes.is_multiple_of(ORACLE_EVERY) {
            let oracle = verdict(doc.def.reference, doc.check.doc());
            report.op(oracle == want && doc.check.doc() == doc.value.doc(), || {
                format!("edit-session {name}: reference gives {oracle:?}, script expects {want:?}")
            });
        }
    }
    dt
}
