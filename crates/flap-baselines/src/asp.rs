//! Implementation (e) of §6: the asp approach (Krishnaswami & Yallop
//! 2019) — typed context-free expressions compiled to a First-set
//! dispatch structure over a token stream.
//!
//! asp's staged OCaml generates one function per grammar node whose
//! body branches on precomputed First sets of the alternatives. We
//! build the same residual structure ahead of time: a node arena with
//! the First/Null data baked into every `Alt`, executed by recursive
//! descent. Tokens are materialized by the shared compiled lexer —
//! asp does not fuse.

use std::collections::HashMap;
use std::sync::Arc;

use flap_cfe::{Cfe, CfeNode, EpsAction, MapAction, SeqAction, TokAction, Ty, VarId};
use flap_lex::{CompiledLexer, Lexer, Token, TokenSet};

use crate::stream::{parse_error, BaselineError};

enum Node<V> {
    Eps(EpsAction<V>),
    Tok(Token, TokAction<V>),
    Seq(u32, u32, SeqAction<V>),
    Alt {
        left: u32,
        right: u32,
        first_left: TokenSet,
        null_left: bool,
        first_right: TokenSet,
        null_right: bool,
    },
    Map(u32, MapAction<V>),
    /// Knot-tying for μ: run the referenced node.
    Ref(u32),
    Bot,
}

/// The asp-style parser: typed CFEs with First-set dispatch, over a
/// token stream.
pub struct AspParser<V> {
    lexer: CompiledLexer,
    nodes: Vec<Node<V>>,
    root: u32,
}

impl<V: 'static> AspParser<V> {
    /// Type-checks `cfe` and builds the dispatch structure.
    ///
    /// # Errors
    ///
    /// A message if the grammar is ill-typed.
    pub fn build(mut lexer: Lexer, cfe: &Cfe<V>) -> Result<Self, String> {
        flap_cfe::type_check(cfe).map_err(|e| e.to_string())?;
        let compiled = CompiledLexer::build(&mut lexer);
        let mut b = Builder {
            nodes: Vec::new(),
            env: HashMap::new(),
        };
        let root = b.compile(cfe)?;
        let mut parser = AspParser {
            lexer: compiled,
            nodes: b.nodes,
            root,
        };
        parser.bake_dispatch();
        Ok(parser)
    }

    /// Computes per-node types by global fixpoint and bakes
    /// First/Null into the `Alt` nodes (what asp's staging
    /// specializes away).
    fn bake_dispatch(&mut self) {
        let n = self.nodes.len();
        let mut tys = vec![Ty::bot(); n];
        loop {
            let mut changed = false;
            for i in 0..n {
                let ty = match &self.nodes[i] {
                    Node::Bot => Ty::bot(),
                    Node::Eps(_) => Ty::eps(),
                    Node::Tok(t, _) => Ty::tok(*t),
                    Node::Seq(a, b, _) => tys[*a as usize].seq(&tys[*b as usize]),
                    Node::Alt { left, right, .. } => tys[*left as usize].alt(&tys[*right as usize]),
                    Node::Map(a, _) | Node::Ref(a) => tys[*a as usize],
                };
                if ty != tys[i] {
                    tys[i] = ty;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for i in 0..n {
            if let Node::Alt {
                left,
                right,
                first_left,
                null_left,
                first_right,
                null_right,
            } = &mut self.nodes[i]
            {
                let (l, r) = (tys[*left as usize], tys[*right as usize]);
                *first_left = l.first;
                *null_left = l.null;
                *first_right = r.first;
                *null_right = r.null;
            }
        }
    }

    /// Parses a complete input.
    ///
    /// Executes the dispatch structure with an explicit continuation
    /// stack (asp's generated OCaml recurses natively; Rust threads
    /// have smaller stacks, so deep or long right-recursive inputs
    /// demand heap frames).
    ///
    /// # Errors
    ///
    /// [`BaselineError`] on lexing or parsing failure.
    pub fn parse(&self, input: &[u8]) -> Result<V, BaselineError> {
        enum Frame<V> {
            /// After the left operand of a Seq: descend into the right.
            SeqLeft(u32, u32), // (right node, seq node for its action)
            /// After the right operand: combine.
            SeqRight(u32, V), // (seq node, left value)
            /// After a Map body: apply.
            MapDone(u32),
        }
        let mut lexemes = self.lexer.lexemes(input);
        let mut next = lexemes.next().transpose()?;
        let mut frames: Vec<Frame<V>> = Vec::new();
        let mut cur = self.root;
        let mut result: Option<V>;
        'descend: loop {
            // descend until a leaf produces a value
            let v = loop {
                match &self.nodes[cur as usize] {
                    Node::Bot => return Err(parse_error(next, input)),
                    Node::Eps(f) => break f(),
                    Node::Tok(t, a) => match next {
                        Some(lx) if lx.token == *t => {
                            next = lexemes.next().transpose()?;
                            break a(lx.bytes(input));
                        }
                        _ => return Err(parse_error(next, input)),
                    },
                    Node::Seq(x, y, _) => {
                        frames.push(Frame::SeqLeft(*y, cur));
                        cur = *x;
                    }
                    Node::Alt {
                        left,
                        right,
                        first_left,
                        null_left,
                        first_right,
                        null_right,
                    } => {
                        cur = match next {
                            Some(lx) if first_left.contains(lx.token) => *left,
                            Some(lx) if first_right.contains(lx.token) => *right,
                            _ if *null_left => *left,
                            _ if *null_right => *right,
                            _ => return Err(parse_error(next, input)),
                        };
                    }
                    Node::Map(x, _) => {
                        frames.push(Frame::MapDone(cur));
                        cur = *x;
                    }
                    Node::Ref(x) => cur = *x,
                }
            };
            // unwind with the value until a pending right operand
            result = Some(v);
            while let Some(frame) = frames.pop() {
                let v = result.take().expect("value present while unwinding");
                match frame {
                    Frame::SeqLeft(right, seq) => {
                        frames.push(Frame::SeqRight(seq, v));
                        cur = right;
                        continue 'descend;
                    }
                    Frame::SeqRight(seq, left_v) => {
                        let Node::Seq(_, _, f) = &self.nodes[seq as usize] else {
                            unreachable!("SeqRight frames reference Seq nodes");
                        };
                        result = Some(f(left_v, v));
                    }
                    Frame::MapDone(m) => {
                        let Node::Map(_, f) = &self.nodes[m as usize] else {
                            unreachable!("MapDone frames reference Map nodes");
                        };
                        result = Some(f(v));
                    }
                }
            }
            break;
        }
        if let Some(lx) = next {
            return Err(BaselineError::Trailing { pos: lx.start });
        }
        Ok(result.expect("parse produced no value"))
    }
}

struct Builder<V> {
    nodes: Vec<Node<V>>,
    env: HashMap<VarId, u32>,
}

impl<V> Builder<V> {
    fn push(&mut self, n: Node<V>) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    fn compile(&mut self, g: &Cfe<V>) -> Result<u32, String> {
        Ok(match g.node() {
            CfeNode::Bot => self.push(Node::Bot),
            CfeNode::Eps(f) => self.push(Node::Eps(Arc::clone(f))),
            CfeNode::Tok(t, a) => self.push(Node::Tok(*t, Arc::clone(a))),
            CfeNode::Seq(a, b, f) => {
                let x = self.compile(a)?;
                let y = self.compile(b)?;
                self.push(Node::Seq(x, y, Arc::clone(f)))
            }
            CfeNode::Alt(a, b) => {
                let x = self.compile(a)?;
                let y = self.compile(b)?;
                self.push(Node::Alt {
                    left: x,
                    right: y,
                    first_left: TokenSet::EMPTY,
                    null_left: false,
                    first_right: TokenSet::EMPTY,
                    null_right: false,
                })
            }
            CfeNode::Map(a, f) => {
                let x = self.compile(a)?;
                self.push(Node::Map(x, Arc::clone(f)))
            }
            CfeNode::Fix(v, body) => {
                // reserve the knot, compile the body, tie it
                let slot = self.push(Node::Bot);
                let shadowed = self.env.insert(*v, slot);
                let b = self.compile(body);
                match shadowed {
                    Some(s) => {
                        self.env.insert(*v, s);
                    }
                    None => {
                        self.env.remove(v);
                    }
                }
                let b = b?;
                self.nodes[slot as usize] = Node::Ref(b);
                slot
            }
            CfeNode::Var(v) => {
                let target = *self.env.get(v).ok_or_else(|| format!("unbound {v:?}"))?;
                self.push(Node::Ref(target))
            }
        })
    }
}
