//! Action order and shape: grammars whose `String` actions format
//! their operands (`f(a,b)`, `m[a]`), so a value records exactly which
//! action ran on which arguments in which order. Integer grammars fold
//! with `+` and can hide an argument-order bug; these cannot.
//!
//! The grammars are built so that normalization produces every
//! program shape the staged VM lowers into its continuations — seq
//! chains rotating over 3 to 6 slots, maps inside seqs, fix
//! substitution under an outer tail, nested fixes and ε programs with
//! maps — and each test first checks that its shapes really occur.
//! The staged one-shot parse, chunked streams and incremental
//! re-parses after random edits must then all agree with the Fig 9
//! interpreter (`flap_fuse::parse_fused`), which still runs the
//! unlowered `Reduce` programs: values and errors alike. So must the
//! same parser saved as an artifact and loaded back over a freshly
//! built grammar, whose actions are re-bound by provenance: one wrong
//! closure shows up in the formatted value. Lex-then-parse, the
//! token-level Fig 8 machine running the same lowered continuations,
//! must compute the same values.

// Errors inline their expected-token set (allocation-free); the
// larger Err variant is deliberate.
#![allow(clippy::result_large_err)]

use flap::flap_dgnf::{DgnfParser, Grammar, ReduceOp};
use flap::flap_lex::CompiledLexer;
use std::ops::Range;

use flap::{
    Cfe, IncrementalConfig, IncrementalSession, Lexer, LexerBuilder, ParseError, Parser, Step,
    Token,
};
use flap_cfe::{CfeNode, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shared token set: five single-letter keywords, numbers and
/// parentheses, separated by blanks and newlines.
struct Toks {
    a: Token,
    b: Token,
    c: Token,
    d: Token,
    e: Token,
    num: Token,
    lp: Token,
    rp: Token,
}

fn lexer() -> (Lexer, Toks) {
    let mut b = LexerBuilder::new();
    let mut word = |w: &str| b.token(w, w).expect("valid token");
    let (a, bb, c, d, e) = (word("a"), word("b"), word("c"), word("d"), word("e"));
    let num = b.token("num", "[0-9]+").expect("valid token");
    let lp = b.token("lp", r"\(").expect("valid token");
    let rp = b.token("rp", r"\)").expect("valid token");
    b.skip("[ \n]+").expect("valid skip");
    let toks = Toks {
        a,
        b: bb,
        c,
        d,
        e,
        num,
        lp,
        rp,
    };
    (b.build().expect("lexer builds"), toks)
}

fn t(tok: Token) -> Cfe<String> {
    Cfe::tok_with(tok, |lx| String::from_utf8_lossy(lx).into_owned())
}

fn f(name: &'static str) -> impl Fn(String, String) -> String + Send + Sync + 'static {
    move |a, b| format!("{name}({a},{b})")
}

fn m(name: &'static str) -> impl Fn(String) -> String + Send + Sync + 'static {
    move |a| format!("{name}[{a}]")
}

/// `μl. ε ∨ item · l`, consing right to left: every grammar below is
/// a list of its items, so any concatenation of item sentences is a
/// document.
fn list(item: Cfe<String>) -> Cfe<String> {
    Cfe::fix(|l| Cfe::eps_with(|| "nil".to_string()).or(item.then(l, |x, r| format!("{x};{r}"))))
}

/// Seq chains: a left-nested chain of five `then`s is one production
/// whose program rotates over 3, 4, 5 and 6 slots; right-nested and
/// mixed chains put tails inside tails.
fn seq_chains(k: &Toks) -> Cfe<String> {
    let left = t(k.a)
        .then(t(k.b), f("p"))
        .then(t(k.c), f("q"))
        .then(t(k.d), f("r"))
        .then(t(k.e), f("s"))
        .then(t(k.num), f("t"));
    let right = t(k.b).then(t(k.c).then(t(k.d).then(t(k.num), f("u")), f("v")), f("w"));
    let mixed = t(k.c)
        .then(t(k.d), f("x"))
        .then(t(k.e).then(t(k.num), f("y")), f("z"));
    left.or(right).or(mixed)
}

/// Maps inside seqs: a map on the lead value before a seq (the
/// `Swap, Map, Swap` shape), and maps over partial seqs mid-chain.
fn maps_in_seq(k: &Toks) -> Cfe<String> {
    let lead = t(k.a).map(m("m")).then(t(k.b), f("p"));
    let mid = t(k.c)
        .then(t(k.d), f("q"))
        .map(m("n"))
        .then(t(k.e).map(m("o")), f("r"))
        .map(m("s"))
        .then(t(k.num), f("t"));
    lead.or(mid)
}

/// Fix substitution under an outer tail: `x · c` leads with the
/// μ-variable, so normalization substitutes the three-argument
/// `( items )` production into it beneath a one-nonterminal tail —
/// `RotL(4,3)`, as in json's arrays.
fn fix_subst(k: &Toks) -> Cfe<String> {
    let (lp, rp, c, num) = (k.lp, k.rp, k.c, k.num);
    Cfe::fix(|x| {
        let items = Cfe::eps_with(|| "none".to_string()).or(x.then(t(c), f("k")));
        t(lp)
            .then(items, f("open"))
            .then(t(rp), f("close"))
            .or(t(num))
    })
}

/// Nested fixes: the inner list's body leads with the outer variable
/// (under a map), so the outer substitution rewrites productions of
/// the inner fixed point.
fn nested_fixes(k: &Toks) -> Cfe<String> {
    let (lp, rp, a, num) = (k.lp, k.rp, k.a, k.num);
    Cfe::fix(|s| {
        let inner = Cfe::fix(|l| {
            Cfe::eps_with(|| "nil".to_string()).or(s.clone().map(m("w")).then(l, f("cons")))
        });
        t(lp)
            .then(inner, f("open"))
            .then(t(rp), f("close"))
            .or(t(a))
            .or(t(num).then(s, f("pre")))
    })
}

/// ε with maps: an optional tail whose ε branch is mapped twice, and
/// a nullable fixed point whose ε program picks up a map through fix
/// substitution.
fn eps_maps(k: &Toks) -> Cfe<String> {
    let opt = Cfe::eps_with(|| "e".to_string())
        .map(m("m1"))
        .map(m("m2"))
        .or(t(k.b).map(m("m3")));
    let first = t(k.a).then(opt, f("g"));
    let c = k.c;
    let tailrec = Cfe::fix(|x| {
        Cfe::eps_with(|| "z".to_string())
            .map(m("m4"))
            .or(t(c).then(x.map(m("m5")), f("h")))
    });
    let second = t(k.d).then(tailrec, f("i")).then(t(k.e), f("j"));
    first.or(second)
}

type Programs = Vec<Vec<ReduceOp<String>>>;

/// Every production's program and every ε program of the normalized
/// grammar.
fn programs(g: &Grammar<String>) -> (Programs, Programs) {
    let mut prods = Vec::new();
    let mut eps = Vec::new();
    for nt in g.nts() {
        let entry = g.entry(nt);
        prods.extend(entry.prods.iter().map(|p| p.reduce.ops().to_vec()));
        eps.extend(entry.eps.iter().map(|e| e.ops().to_vec()));
    }
    (prods, eps)
}

// ---------------------------------------------------------------------------
// Random sentences of a grammar

/// Whether `g` mentions any μ-variable (so deriving from it may
/// recurse).
fn mentions_var(g: &Cfe<String>) -> bool {
    match g.node() {
        CfeNode::Bot | CfeNode::Eps(_) | CfeNode::Tok(..) => false,
        CfeNode::Var(_) | CfeNode::Fix(..) => true,
        CfeNode::Seq(a, b, _) | CfeNode::Alt(a, b) => mentions_var(a) || mentions_var(b),
        CfeNode::Map(a, _) => mentions_var(a),
    }
}

/// Derives a random sentence, blank-separated; past `MAX_DEPTH`
/// variable expansions alternatives prefer a branch that cannot
/// recurse.
struct Sentences<'a> {
    rng: &'a mut StdRng,
    toks: &'a Toks,
    env: Vec<(VarId, Cfe<String>)>,
    depth: usize,
}

const MAX_DEPTH: usize = 24;

impl Sentences<'_> {
    fn derive(&mut self, g: &Cfe<String>, out: &mut Vec<u8>) {
        match g.node() {
            CfeNode::Bot => unreachable!("test grammars have no ⊥"),
            CfeNode::Eps(_) => {}
            CfeNode::Tok(tok, _) => {
                self.lexeme(*tok, out);
                out.push(if self.rng.random_range(0..8u32) == 0 {
                    b'\n'
                } else {
                    b' '
                });
            }
            CfeNode::Seq(a, b, _) => {
                self.derive(a, out);
                self.derive(b, out);
            }
            CfeNode::Alt(a, b) => {
                let first = if self.depth >= MAX_DEPTH && mentions_var(a) != mentions_var(b) {
                    !mentions_var(a)
                } else {
                    self.rng.random_bool(0.5)
                };
                self.derive(if first { a } else { b }, out);
            }
            CfeNode::Map(a, _) => self.derive(a, out),
            CfeNode::Fix(v, body) => {
                self.env.push((*v, body.clone()));
                self.derive(body, out);
                self.env.pop();
            }
            CfeNode::Var(v) => {
                let body = self
                    .env
                    .iter()
                    .rev()
                    .find(|(w, _)| w == v)
                    .map(|(_, body)| body.clone())
                    .expect("test grammars are closed");
                self.depth += 1;
                self.derive(&body, out);
                self.depth -= 1;
            }
        }
    }

    fn lexeme(&mut self, tok: Token, out: &mut Vec<u8>) {
        let k = self.toks;
        let word: &[u8] = match tok {
            t if t == k.a => b"a",
            t if t == k.b => b"b",
            t if t == k.c => b"c",
            t if t == k.d => b"d",
            t if t == k.e => b"e",
            t if t == k.lp => b"(",
            t if t == k.rp => b")",
            _ => {
                let n: u32 = self.rng.random_range(0..100_000);
                out.extend_from_slice(n.to_string().as_bytes());
                return;
            }
        };
        out.extend_from_slice(word);
    }
}

fn sentence(g: &Cfe<String>, toks: &Toks, rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::new();
    Sentences {
        rng,
        toks,
        env: Vec::new(),
        depth: 0,
    }
    .derive(g, &mut out);
    out
}

// ---------------------------------------------------------------------------
// The differential

/// The staged parser of `list(item)`, the same parser loaded back from
/// its artifact, and the Fig 9 interpreter over its own lexer and
/// fused grammar.
struct Engines {
    staged: Parser<String>,
    loaded: Parser<String>,
    dgnf: Grammar<String>,
    oracle: Oracle,
}

/// The Fig 9 interpreter.
struct Oracle {
    lexer: Lexer,
    fused: flap::flap_fuse::FusedGrammar<String>,
}

impl Oracle {
    fn parse(&mut self, doc: &[u8]) -> Result<String, ParseError> {
        flap::flap_fuse::parse_fused(&self.fused, self.lexer.arena_mut(), doc)
    }
}

impl Engines {
    /// The engines for `list(build(..))`, with the item grammar and
    /// its tokens (for deriving sentences).
    fn new(build: fn(&Toks) -> Cfe<String>) -> (Engines, Cfe<String>, Toks) {
        let (lexer, toks) = lexer();
        let item = build(&toks);
        let cfe = list(item.clone());
        let staged = Parser::compile(lexer, &cfe).expect("test grammar compiles");
        // a restarted process: a fresh lexer and grammar, new closures
        let (fresh_lexer, fresh_toks) = self::lexer();
        let bytes = staged.to_artifact();
        let loaded = Parser::from_artifact(&bytes, fresh_lexer, &list(build(&fresh_toks)))
            .expect("the artifact loads over a fresh grammar");
        assert_eq!(loaded.to_artifact(), bytes, "reloads re-serialize exactly");
        let (mut lexer, _) = self::lexer();
        let dgnf = flap::flap_dgnf::normalize(&cfe).expect("normalizes");
        let fused = flap::flap_fuse::fuse(&mut lexer, &dgnf).expect("fuses");
        let oracle = Oracle { lexer, fused };
        let engines = Engines {
            staged,
            loaded,
            dgnf,
            oracle,
        };
        (engines, item, toks)
    }
}

fn chunked(parser: &Parser<String>, doc: &[u8], chunk: usize) -> Result<String, ParseError> {
    let mut session = parser.session();
    let mut s = parser.stream(&mut session);
    for piece in doc.chunks(chunk) {
        match s.feed(piece) {
            Step::NeedMore => {}
            Step::Err(e) => return Err(e),
            Step::Done(_) => unreachable!("feed never completes a parse"),
        }
    }
    match s.finish() {
        Step::Done(v) => Ok(v),
        Step::Err(e) => Err(e),
        Step::NeedMore => unreachable!("finish never suspends"),
    }
}

/// One random edit: insert, delete or replace a span with a snippet of
/// `donor`. Edits land mid-token and across tokens and usually break
/// the document, so errors are compared as much as values.
fn random_edit(rng: &mut StdRng, doc: &[u8], donor: &[u8]) -> (Range<usize>, Vec<u8>) {
    let at = rng.random_range(0..=doc.len());
    let del = rng.random_range(0..=6usize).min(doc.len() - at);
    let n = rng.random_range(0..=12usize).min(donor.len());
    let from = rng.random_range(0..=donor.len() - n);
    (at..at + del, donor[from..from + n].to_vec())
}

/// A document of `n` random items, each also kept on its own.
fn items(item: &Cfe<String>, toks: &Toks, rng: &mut StdRng, n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|_| sentence(item, toks, rng)).collect()
}

fn agrees_with_oracle(name: &str, build: fn(&Toks) -> Cfe<String>, seed: u64) {
    let (engines, item, toks) = Engines::new(build);
    let Engines {
        staged,
        loaded,
        dgnf,
        mut oracle,
    } = engines;
    let parsers = [("compiled", &staged), ("loaded", &loaded)];
    let machine = DgnfParser::new(&dgnf);
    let clex = CompiledLexer::build(&mut lexer().0);
    let mut rng = StdRng::seed_from_u64(seed);

    for _ in 0..40 {
        let len = rng.random_range(1..=12);
        let doc = items(&item, &toks, &mut rng, len).concat();
        let want = oracle.parse(&doc);
        assert!(
            want.is_ok(),
            "{name}: generated sentence rejected: {}",
            String::from_utf8_lossy(&doc)
        );
        assert_eq!(
            machine.parse(&doc, clex.lexemes(&doc)).ok().as_ref(),
            want.as_ref().ok(),
            "{name}: lex-then-parse"
        );
        for (how, parser) in parsers {
            assert_eq!(parser.parse(&doc), want, "{name}: {how} one-shot parse");
            for chunk in [1, 3, 16] {
                assert_eq!(
                    chunked(parser, &doc, chunk),
                    want,
                    "{name}: {how}, chunks of {chunk}"
                );
            }
        }
    }

    // Incremental re-parses and re-validations after edits, with
    // dense checkpoints so edits land before, inside and after many of
    // them. Each round swaps one item for a fresh one (the document
    // stays valid), then makes a random edit (usually breaking it) and
    // reverts it.
    let mut doc_items = items(&item, &toks, &mut rng, 80);
    let donor = items(&item, &toks, &mut rng, 4).concat();
    let config = IncrementalConfig { interval: 32 };
    // per parser: one session re-parsing values, one validating
    let mut sessions: Vec<(&str, &Parser<String>, bool, IncrementalSession<String>)> = parsers
        .into_iter()
        .flat_map(|(how, p)| {
            [true, false].map(|values| (how, p, values, p.incremental_with(config)))
        })
        .collect();
    let mut edit = |range: Range<usize>, text: &[u8], what: &str| -> Vec<u8> {
        for (how, parser, values, inc) in &mut sessions {
            inc.splice(range.clone(), text);
            let want = oracle.parse(inc.doc());
            if *values {
                assert_eq!(
                    parser.parse_incremental(inc),
                    want,
                    "{name}: {how} incremental re-parse after {what}"
                );
            } else {
                assert_eq!(
                    parser.validate_incremental(inc),
                    want.map(drop),
                    "{name}: {how} incremental validation after {what}"
                );
            }
        }
        sessions[0].3.doc().to_vec()
    };
    edit(0..0, &doc_items.concat(), "load");
    for round in 0..30 {
        let j = rng.random_range(0..doc_items.len());
        let at: usize = doc_items[..j].iter().map(Vec::len).sum();
        let fresh = sentence(&item, &toks, &mut rng);
        let doc = edit(
            at..at + doc_items[j].len(),
            &fresh,
            &format!("item swap {round}"),
        );
        doc_items[j] = fresh;

        let (range, repl) = random_edit(&mut rng, &doc, &donor);
        let old = doc[range.clone()].to_vec();
        edit(range.clone(), &repl, &format!("random edit {round}"));
        let reverted = range.start..range.start + repl.len();
        let doc = edit(reverted, &old, &format!("revert {round}"));
        assert_eq!(doc, doc_items.concat(), "revert restores the document");
    }
}

#[test]
fn seq_chains_rotate_over_three_to_six_slots_and_agree() {
    let (engines, _, _) = Engines::new(seq_chains);
    let (prods, _) = programs(&engines.dgnf);
    for span in 3..=6 {
        assert!(
            prods
                .iter()
                .flatten()
                .any(|op| matches!(op, ReduceOp::RotR { span: s } if *s == span)),
            "no program rotates over {span} slots"
        );
    }
    agrees_with_oracle("seq-chains", seq_chains, 1);
}

#[test]
fn maps_inside_seqs_agree() {
    let (engines, _, _) = Engines::new(maps_in_seq);
    let (prods, _) = programs(&engines.dgnf);
    assert!(
        prods.iter().any(|ops| ops
            .windows(3)
            .any(|w| matches!(w, [ReduceOp::Swap, ReduceOp::Map(_), ReduceOp::Swap]))),
        "no `Swap, Map, Swap` program"
    );
    agrees_with_oracle("maps-in-seq", maps_in_seq, 2);
}

#[test]
fn fix_substitution_under_an_outer_tail_agrees() {
    let (engines, _, _) = Engines::new(fix_subst);
    let (prods, _) = programs(&engines.dgnf);
    assert!(
        prods
            .iter()
            .flatten()
            .any(|op| matches!(op, ReduceOp::RotL { span: 4, by: 3 })),
        "no `RotL(4,3)` program"
    );
    agrees_with_oracle("fix-subst", fix_subst, 3);
}

#[test]
fn nested_fixes_agree() {
    let (engines, _, _) = Engines::new(nested_fixes);
    let (prods, _) = programs(&engines.dgnf);
    assert!(
        prods
            .iter()
            .flatten()
            .any(|op| matches!(op, ReduceOp::RotL { .. })),
        "the outer substitution should rotate under the inner tail"
    );
    agrees_with_oracle("nested-fixes", nested_fixes, 4);
}

#[test]
fn eps_programs_with_maps_agree() {
    let (engines, _, _) = Engines::new(eps_maps);
    let (_, eps) = programs(&engines.dgnf);
    for maps in [1, 2] {
        assert!(
            eps.iter()
                .any(|ops| matches!(ops.first(), Some(ReduceOp::PushEps(_)))
                    && ops[1..].len() == maps
                    && ops[1..].iter().all(|op| matches!(op, ReduceOp::Map(_)))),
            "no ε program with {maps} map(s)"
        );
    }
    agrees_with_oracle("eps-maps", eps_maps, 5);
}
