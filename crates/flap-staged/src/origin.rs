//! Where a compiled parser's semantic actions come from, and the
//! structural encoding of the grammar that pins them down.
//!
//! Normalization, fusion and staging never create a closure: every
//! action in a continuation pool is an `Arc::clone` of one the grammar
//! author attached to a [`Cfe`] node. [`Origin::trace`] records, for
//! every action slot and for every token production's lead action,
//! the pre-order index of the `Cfe` node that owns the closure, found
//! by `Arc` pointer identity. With the canonical encoding of the
//! lexer rules and the `Cfe` shape (below), that is all
//! [`load_parser`](crate::artifact::load_parser) needs to re-bind a
//! stored pool to a fresh grammar value: encode the supplied pair,
//! compare the bytes, and pick the closures out of one pre-order
//! walk. No type-check, normalization or fusion runs.
//!
//! # The encoding
//!
//! Byte-equal encodings mean the same token names, the same canonical
//! regex DAGs and the same combinator tree; actions are opaque and
//! are not encoded. All fields are little-endian `u32`s unless noted:
//!
//! ```text
//! tag      "flap-grammar-v1"   (u32 length + bytes)
//! tokens   count, then each name (u32 length + bytes)
//! regexes  count, then each reachable regex node once, children
//!          first: a u8 kind (0 ⊥, 1 ε, 2 class + 4×u64 bitmap,
//!          3 seq, 4 alt, 5 and, 6 not, 7 star), then child ids
//!          (alt/and: count first); ids number nodes in this order
//! rules    count, then each rule's regex id and action (token
//!          index, or u32::MAX for skip)
//! grammar  every Cfe node in pre-order: a u8 kind (0 ⊥, 1 ε,
//!          2 token + index, 3 seq, 4 alt, 5 map, 6 fix, 7 var +
//!          de Bruijn level of its binder, u32::MAX if unbound)
//! ```
//!
//! Every walk uses an explicit stack, so deep grammars and regexes
//! cannot overflow the thread's stack here.

use std::collections::HashMap;
use std::sync::Arc;

use flap_artifact::{ArtifactError, Fnv64, SectionBuf, SectionReader};
use flap_cfe::{Cfe, CfeNode, VarId};
use flap_dgnf::cont::{closure_addr as addr, Actions};
use flap_lex::{LexAction, Lexer};
use flap_regex::{Node, RegexId};

use crate::compile::CompiledParser;
use crate::metrics::SizeReport;

/// Version tag at the head of every encoding.
const ENCODING_TAG: &str = "flap-grammar-v1";
/// Version tag hashed ahead of the encoding by [`grammar_key`].
const KEY_TAG: &str = "flap-grammar-key-v2";
/// Rule action and variable level meaning "none".
const NONE: u32 = u32::MAX;

/// A stable 64-bit content hash of the structural encoding of
/// `lexer` and `grammar` (format in the [module docs](self)): equal
/// for every construction of the same lexer and grammar (in any
/// process), and what a compiled artifact stores as its fingerprint.
/// Semantic actions are not encoded.
pub fn grammar_key<V>(lexer: &Lexer, grammar: &Cfe<V>) -> u64 {
    key_of(&encode(lexer, grammar).0)
}

fn key_of(encoding: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update_str(KEY_TAG);
    h.update(encoding);
    h.finish()
}

/// The canonical structural encoding of `lexer`'s rules and of
/// `grammar`'s combinator tree, with the grammar's nodes in pre-order
/// (the index space of provenance).
fn encode<'a, V>(lexer: &Lexer, grammar: &'a Cfe<V>) -> (Vec<u8>, Vec<&'a CfeNode<V>>) {
    let mut out = SectionBuf::new();
    out.put_str(ENCODING_TAG);
    out.put_u32(lexer.token_count() as u32);
    for t in lexer.tokens() {
        out.put_str(lexer.token_name(t));
    }
    let roots = encode_regexes(lexer, &mut out);
    out.put_u32(roots.len() as u32);
    for (root, rule) in roots.iter().zip(lexer.rules()) {
        out.put_u32(*root);
        out.put_u32(match rule.action {
            LexAction::Return(t) => t.index() as u32,
            LexAction::Skip => NONE,
        });
    }
    let nodes = encode_cfe(grammar, &mut out);
    (out.into_vec(), nodes)
}

/// Emits every regex node reachable from the rules, children before
/// parents and each node once, returning the rules' root ids.
fn encode_regexes(lexer: &Lexer, out: &mut SectionBuf) -> Vec<u32> {
    let arena = lexer.arena();
    let mut body = SectionBuf::new();
    // arena id -> encoding id, NONE until emitted
    let mut ids = vec![NONE; arena.len()];
    let mut next = 0u32;
    let mut stack: Vec<(RegexId, bool)> = Vec::new();
    let mut roots = Vec::with_capacity(lexer.rule_count());
    for rule in lexer.rules() {
        stack.push((rule.regex, false));
        while let Some((r, children_done)) = stack.pop() {
            if ids[r.index()] != NONE {
                continue;
            }
            let node = arena.node(r);
            if !children_done {
                stack.push((r, true));
                let mut push = |c: RegexId| {
                    if ids[c.index()] == NONE {
                        stack.push((c, false));
                    }
                };
                match node {
                    Node::Empty | Node::Eps | Node::Class(_) => {}
                    Node::Seq(a, b) => {
                        push(*b);
                        push(*a);
                    }
                    Node::Alt(xs) | Node::And(xs) => xs.iter().rev().for_each(|&x| push(x)),
                    Node::Not(a) | Node::Star(a) => push(*a),
                }
                continue;
            }
            let id = |c: &RegexId| ids[c.index()];
            match node {
                Node::Empty => body.put_u8(0),
                Node::Eps => body.put_u8(1),
                Node::Class(set) => {
                    body.put_u8(2);
                    for w in set.words() {
                        body.put_u64(w);
                    }
                }
                Node::Seq(a, b) => {
                    body.put_u8(3);
                    body.put_u32(id(a));
                    body.put_u32(id(b));
                }
                Node::Alt(xs) | Node::And(xs) => {
                    body.put_u8(if matches!(node, Node::Alt(_)) { 4 } else { 5 });
                    body.put_u32(xs.len() as u32);
                    for x in xs.iter() {
                        body.put_u32(id(x));
                    }
                }
                Node::Not(a) => {
                    body.put_u8(6);
                    body.put_u32(id(a));
                }
                Node::Star(a) => {
                    body.put_u8(7);
                    body.put_u32(id(a));
                }
            }
            ids[r.index()] = next;
            next += 1;
        }
        roots.push(ids[rule.regex.index()]);
    }
    out.put_u32(next);
    out.put_bytes(&body.into_vec());
    roots
}

/// Emits every node of `grammar` in pre-order, returning the nodes in
/// that order.
fn encode_cfe<'a, V>(grammar: &'a Cfe<V>, out: &mut SectionBuf) -> Vec<&'a CfeNode<V>> {
    enum Step<'a, V> {
        Visit(&'a Cfe<V>),
        /// Leave the scope of the innermost `Fix`.
        Unbind,
    }
    let mut nodes = Vec::new();
    let mut scope: Vec<VarId> = Vec::new();
    let mut stack = vec![Step::Visit(grammar)];
    while let Some(step) = stack.pop() {
        let g = match step {
            Step::Visit(g) => g,
            Step::Unbind => {
                scope.pop();
                continue;
            }
        };
        let node = g.node();
        nodes.push(node);
        match node {
            CfeNode::Bot => out.put_u8(0),
            CfeNode::Eps(_) => out.put_u8(1),
            CfeNode::Tok(t, _) => {
                out.put_u8(2);
                out.put_u32(t.index() as u32);
            }
            CfeNode::Seq(a, b, _) | CfeNode::Alt(a, b) => {
                out.put_u8(if matches!(node, CfeNode::Seq(..)) {
                    3
                } else {
                    4
                });
                stack.push(Step::Visit(b));
                stack.push(Step::Visit(a));
            }
            CfeNode::Map(a, _) => {
                out.put_u8(5);
                stack.push(Step::Visit(a));
            }
            CfeNode::Fix(v, body) => {
                out.put_u8(6);
                scope.push(*v);
                stack.push(Step::Unbind);
                stack.push(Step::Visit(body));
            }
            CfeNode::Var(v) => {
                out.put_u8(7);
                let level = scope.iter().rposition(|s| s == v);
                out.put_u32(level.map_or(NONE, |l| l as u32));
            }
        }
    }
    nodes
}

/// Where a compiled parser's actions come from: the encoding of the
/// lexer and grammar it was compiled from, the pre-order index of the
/// `Cfe` node owning each action slot's closure, and the grammar's
/// Table 1 counts. [`CompiledParser::to_artifact_with`] stores it, and
/// [`load_parser`](crate::artifact::load_parser) returns it, so a
/// loaded parser re-serializes to the same bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Origin {
    encoding: Vec<u8>,
    /// Lead action of each token production, in production order.
    tok: Vec<u32>,
    /// Binary, map and ε action tables, slot by slot.
    user: Vec<u32>,
    map: Vec<u32>,
    eps: Vec<u32>,
    sizes: SizeReport,
}

impl Origin {
    /// Traces every action of `parser`, compiled from `grammar` over
    /// `lexer`, back to the `Cfe` node that owns its closure.
    ///
    /// # Panics
    ///
    /// If some action is none of `grammar`'s closures, i.e. `parser`
    /// was compiled from another grammar.
    pub fn trace<V>(
        lexer: &Lexer,
        grammar: &Cfe<V>,
        parser: &CompiledParser<V>,
        sizes: SizeReport,
    ) -> Origin {
        let (encoding, nodes) = encode(lexer, grammar);
        // A shared subexpression owns its closures at every
        // occurrence; the first one names them.
        let mut owner: HashMap<usize, u32> = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let closure = match node {
                CfeNode::Eps(f) => addr(f),
                CfeNode::Tok(_, f) => addr(f),
                CfeNode::Seq(_, _, f) => addr(f),
                CfeNode::Map(_, f) => addr(f),
                _ => continue,
            };
            owner.entry(closure).or_insert(i as u32);
        }
        let [tok, user, map, eps] = parser.conts.closure_addrs().map(|addrs| {
            addrs
                .iter()
                .map(|a| {
                    *owner
                        .get(a)
                        .expect("every action is a closure of the compiled grammar")
                })
                .collect()
        });
        Origin {
            encoding,
            tok,
            user,
            map,
            eps,
            sizes,
        }
    }

    /// The grammar key of the traced lexer and grammar, as
    /// [`grammar_key`] computes it.
    pub fn key(&self) -> u64 {
        key_of(&self.encoding)
    }

    /// The Table 1 counts of the traced grammar.
    pub fn sizes(&self) -> SizeReport {
        self.sizes
    }

    /// The structural encoding of the traced lexer and grammar.
    pub(crate) fn encoding(&self) -> &[u8] {
        &self.encoding
    }

    /// The provenance section: each slot list with its length, then
    /// the six Table 1 counts.
    pub(crate) fn provenance(&self) -> Vec<u8> {
        let mut b = SectionBuf::new();
        for list in [&self.tok, &self.user, &self.map, &self.eps] {
            b.put_u32(list.len() as u32);
            for &i in list {
                b.put_u32(i);
            }
        }
        let s = self.sizes;
        for n in [
            s.lex_rules,
            s.cfes,
            s.nts,
            s.prods,
            s.fused_prods,
            s.functions,
        ] {
            b.put_u32(n as u32);
        }
        b.into_vec()
    }

    /// Checks that `lexer` and `grammar` encode to `stored`, then
    /// reads the `provenance` section and collects each slot's
    /// closure from one pre-order walk of `grammar`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::ShapeMismatch`] when the encodings differ;
    /// [`ArtifactError::Malformed`] when a provenance index is out of
    /// range or names a node of another kind than its slot's.
    pub(crate) fn bind<V>(
        lexer: &Lexer,
        grammar: &Cfe<V>,
        stored: &[u8],
        provenance: &[u8],
    ) -> Result<(Origin, Actions<V>), ArtifactError> {
        let (encoding, nodes) = encode(lexer, grammar);
        if encoding != stored {
            let at = encoding
                .iter()
                .zip(stored)
                .position(|(a, b)| a != b)
                .unwrap_or(encoding.len().min(stored.len()));
            return Err(ArtifactError::ShapeMismatch(format!(
                "the lexer and grammar are not the ones the artifact was compiled from \
                 (their encodings first differ at byte {at})"
            )));
        }
        let mut r = SectionReader::new(provenance);
        let mut list = || -> Result<Vec<u32>, ArtifactError> {
            let n = r.u32()?;
            (0..n).map(|_| r.u32()).collect()
        };
        let (tok, user, map, eps) = (list()?, list()?, list()?, list()?);
        let mut count = || r.u32().map(|n| n as usize);
        let sizes = SizeReport {
            lex_rules: count()?,
            cfes: count()?,
            nts: count()?,
            prods: count()?,
            fused_prods: count()?,
            functions: count()?,
        };
        r.finish()?;

        let actions = Actions {
            tok: pick(&nodes, &tok, |node| match node {
                CfeNode::Tok(_, f) => Some(Arc::clone(f)),
                _ => None,
            })?,
            user: pick(&nodes, &user, |node| match node {
                CfeNode::Seq(_, _, f) => Some(Arc::clone(f)),
                _ => None,
            })?,
            map: pick(&nodes, &map, |node| match node {
                CfeNode::Map(_, f) => Some(Arc::clone(f)),
                _ => None,
            })?,
            eps: pick(&nodes, &eps, |node| match node {
                CfeNode::Eps(f) => Some(Arc::clone(f)),
                _ => None,
            })?,
        };
        let origin = Origin {
            encoding,
            tok,
            user,
            map,
            eps,
            sizes,
        };
        Ok((origin, actions))
    }
}

/// The closure `closure` finds at each slot's node.
fn pick<V, T>(
    nodes: &[&CfeNode<V>],
    slots: &[u32],
    closure: impl Fn(&CfeNode<V>) -> Option<T>,
) -> Result<Vec<T>, ArtifactError> {
    slots
        .iter()
        .map(|&i| {
            let node = nodes
                .get(i as usize)
                .ok_or(ArtifactError::Malformed("provenance index out of range"))?;
            closure(node).ok_or(ArtifactError::Malformed(
                "provenance names a node of the wrong kind",
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_lex::{LexerBuilder, Token};

    fn word_lexer() -> Lexer {
        let mut lx = LexerBuilder::new();
        lx.token("atom", "[a-z]+").unwrap();
        lx.skip(" ").unwrap();
        lx.build().unwrap()
    }

    fn word_grammar(tok: Token) -> Cfe<i64> {
        Cfe::fix(move |x| Cfe::eps_with(|| 0).or(Cfe::tok_val(tok, 1).then(x, |a, b| a + b)))
    }

    #[test]
    fn grammar_key_is_stable_and_discriminating() {
        let lexer = word_lexer();
        let tok = Token::from_index(0);

        // Stability: two independent constructions of the same grammar
        // (fresh VarIds each time) produce the same key.
        let k1 = grammar_key(&lexer, &word_grammar(tok));
        let k2 = grammar_key(&lexer, &word_grammar(tok));
        assert_eq!(k1, k2, "key independent of VarId allocation");
        assert_eq!(k1, grammar_key(&word_lexer(), &word_grammar(tok)));

        // Shape discrimination.
        let flipped: Cfe<i64> = Cfe::fix(move |x| {
            Cfe::tok_val(tok, 1)
                .then(x, |a, b| a + b)
                .or(Cfe::eps_with(|| 0))
        });
        assert_ne!(k1, grammar_key(&lexer, &flipped), "alt order matters");

        // Lexer discrimination: same grammar, different token regex.
        let mut lx = LexerBuilder::new();
        lx.token("atom", "[a-z]+[0-9]*").unwrap();
        lx.skip(" ").unwrap();
        let other_lexer = lx.build().unwrap();
        assert_ne!(k1, grammar_key(&other_lexer, &word_grammar(tok)));
    }

    #[test]
    fn nested_fix_hashes_by_de_bruijn_level() {
        let lexer = word_lexer();
        // μx. μy. y·x  vs  μx. μy. x·y — distinguishable only through
        // the Var levels.
        let inner_outer: Cfe<i64> =
            Cfe::fix(|x| Cfe::fix(move |y| y.then(x, |a, b| a + b).or(Cfe::eps_with(|| 0))));
        let outer_inner: Cfe<i64> =
            Cfe::fix(|x| Cfe::fix(move |y| x.then(y, |a, b| a + b).or(Cfe::eps_with(|| 0))));
        assert_ne!(
            grammar_key(&lexer, &inner_outer),
            grammar_key(&lexer, &outer_inner)
        );
    }
}
