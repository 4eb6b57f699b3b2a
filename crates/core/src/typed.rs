//! A typed, heterogeneous facade over the uniform-value core —
//! the paper's `'a pa` interface.
//!
//! flap's OCaml interface gives every parser its own result type:
//!
//! ```text
//! val tok : 'a tok -> 'a pa
//! val (>>>) : 'a pa -> 'b pa -> ('a * 'b) pa
//! val fix : ('a pa -> 'a pa) -> 'a pa
//! ```
//!
//! MetaOCaml erases this typing at staging time. Rust has no typed
//! staging, so the core pipeline works with a single value type per
//! grammar; this module recovers the heterogeneous interface by
//! smuggling values as `Box<dyn Any + Send>` and downcasting at the
//! combinator boundaries. Each value is produced and consumed exactly
//! once, so the downcasts cannot fail.
//!
//! Use this facade for ergonomics; use the uniform [`Cfe<V>`]
//! interface when you want to shave the `Any`-boxing off the hot
//! path.
//!
//! User closures must be `Send + Sync` (the core pipeline stores them
//! as `Arc<dyn Fn … + Send + Sync>` so compiled parsers are
//! shareable) and values `Send`, so the untyped parser underneath,
//! [`TypedParser::inner`], can be served by a
//! [`ParsePool`](crate::serve::ParsePool) like any other.
//!
//! # Examples
//!
//! ```
//! use flap::typed::{fix, tok, TypedCfe};
//! use flap::LexerBuilder;
//!
//! let mut lx = LexerBuilder::new();
//! let num = lx.token("num", "[0-9]+").unwrap();
//! let comma = lx.token("comma", ",").unwrap();
//! let lexer = lx.build().unwrap();
//!
//! // numbers separated by commas, as a genuine Vec<u32>
//! let number: TypedCfe<u32> =
//!     tok(num, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap());
//! let sep = tok(comma, |_| ());
//! let list: TypedCfe<Vec<u32>> = fix(|rest: TypedCfe<Vec<u32>>| {
//!     let tail = sep.clone().then(rest).map(|((), v)| v).opt().map(Option::unwrap_or_default);
//!     number.clone().then(tail).map(|(h, mut t)| {
//!         t.insert(0, h);
//!         t
//!     })
//! });
//! let parser = list.compile(lexer).unwrap();
//! assert_eq!(parser.parse(b"1,2,34").unwrap(), vec![1, 2, 34]);
//! ```

use std::any::Any;
use std::marker::PhantomData;

use flap_cfe::Cfe;
use flap_fuse::FusedParseError;
use flap_lex::{Lexer, Token};
use flap_staged::{ByteSource, CompileError, ReadSource, StreamError};

use crate::parser::Parser;

/// The erased value representation used underneath the facade.
type Dyn = Box<dyn Any + Send>;

fn wrap<T: Send + 'static>(v: T) -> Dyn {
    Box::new(v)
}

fn unwrap<T: 'static>(v: Dyn) -> T {
    *v.downcast::<T>()
        .expect("typed facade: value of unexpected type")
}

/// A context-free expression with a typed semantic value, mirroring
/// the paper's `'a pa`.
pub struct TypedCfe<T> {
    inner: Cfe<Dyn>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TypedCfe<T> {
    fn clone(&self) -> Self {
        TypedCfe {
            inner: self.inner.clone(),
            _marker: PhantomData,
        }
    }
}

/// `⊥`: fails on every input.
pub fn bot<T>() -> TypedCfe<T> {
    TypedCfe {
        inner: Cfe::bot(),
        _marker: PhantomData,
    }
}

/// `ε`, yielding `f()`.
pub fn eps_with<T: Send + 'static>(f: impl Fn() -> T + Send + Sync + 'static) -> TypedCfe<T> {
    TypedCfe {
        inner: Cfe::eps_with(move || wrap(f())),
        _marker: PhantomData,
    }
}

/// `ε`, yielding a constant.
pub fn eps<T: Clone + Send + Sync + 'static>(v: T) -> TypedCfe<T> {
    eps_with(move || v.clone())
}

/// A token, with its value computed from the lexeme bytes — the
/// paper's `tok`.
pub fn tok<T: Send + 'static>(
    t: Token,
    f: impl Fn(&[u8]) -> T + Send + Sync + 'static,
) -> TypedCfe<T> {
    TypedCfe {
        inner: Cfe::tok_with(t, move |lx| wrap(f(lx))),
        _marker: PhantomData,
    }
}

/// The least fixed point — the paper's `fix`.
pub fn fix<T: Send + 'static>(f: impl FnOnce(TypedCfe<T>) -> TypedCfe<T>) -> TypedCfe<T> {
    TypedCfe {
        inner: Cfe::fix(|var| {
            f(TypedCfe {
                inner: var,
                _marker: PhantomData,
            })
            .inner
        }),
        _marker: PhantomData,
    }
}

impl<T: Send + 'static> TypedCfe<T> {
    /// Sequencing with a pair result — the paper's `>>>`.
    pub fn then<U: Send + 'static>(self, next: TypedCfe<U>) -> TypedCfe<(T, U)> {
        TypedCfe {
            inner: self
                .inner
                .then(next.inner, |a, b| wrap((unwrap::<T>(a), unwrap::<U>(b)))),
            _marker: PhantomData,
        }
    }

    /// Alternation (both branches must produce the same type).
    pub fn or(self, other: TypedCfe<T>) -> TypedCfe<T> {
        TypedCfe {
            inner: self.inner.or(other.inner),
            _marker: PhantomData,
        }
    }

    /// Applies a function to the semantic value.
    pub fn map<U: Send + 'static>(self, f: impl Fn(T) -> U + Send + Sync + 'static) -> TypedCfe<U> {
        TypedCfe {
            inner: self.inner.map(move |v| wrap(f(unwrap::<T>(v)))),
            _marker: PhantomData,
        }
    }

    /// Zero or one occurrence.
    pub fn opt(self) -> TypedCfe<Option<T>> {
        self.map(Some).or(eps_with(|| None))
    }

    /// Compiles the expression against `lexer` into a typed parser.
    ///
    /// # Errors
    ///
    /// As [`Parser::compile`].
    pub fn compile(&self, lexer: Lexer) -> Result<TypedParser<T>, CompileError> {
        Ok(TypedParser {
            inner: Parser::compile(lexer, &self.inner)?,
            _marker: PhantomData,
        })
    }

    /// The underlying uniform-value expression.
    pub fn erase(&self) -> Cfe<Dyn> {
        self.inner.clone()
    }
}

/// Zero or more repetitions, collected into a `Vec`.
///
/// Built as `μα. ε ∨ g·α`; element values are prepended, so the cost
/// is quadratic in the repetition length — acceptable for the
/// convenience facade, avoidable with the uniform interface.
pub fn star<T: Send + 'static>(g: TypedCfe<T>) -> TypedCfe<Vec<T>> {
    fix(|rest: TypedCfe<Vec<T>>| {
        eps_with(Vec::new).or(g.clone().then(rest).map(|(h, mut t)| {
            t.insert(0, h);
            t
        }))
    })
}

/// A compiled parser with a typed result.
pub struct TypedParser<T> {
    inner: Parser<Dyn>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: 'static> TypedParser<T> {
    /// Parses a complete input.
    ///
    /// # Errors
    ///
    /// As [`Parser::parse`].
    pub fn parse(&self, input: &[u8]) -> Result<T, FusedParseError> {
        self.inner.parse(input).map(unwrap::<T>)
    }

    /// Parses an entire [`ByteSource`] — the typed face of the
    /// streaming API, on a session of its own.
    ///
    /// # Errors
    ///
    /// [`StreamError`] on either an I/O failure of the source or a
    /// parse failure of the input.
    pub fn parse_source(&self, source: &mut impl ByteSource) -> Result<T, StreamError> {
        self.inner.parse_source(source).map(unwrap::<T>)
    }

    /// Parses straight from a [`std::io::Read`] through an internal
    /// chunk buffer.
    ///
    /// # Errors
    ///
    /// As for [`TypedParser::parse_source`].
    pub fn parse_reader(&self, reader: impl std::io::Read) -> Result<T, StreamError> {
        self.parse_source(&mut ReadSource::new(reader))
    }

    /// The untyped parser underneath (for metrics, inspection, or a
    /// [`ParsePool`](crate::serve::ParsePool) whose results the
    /// caller downcasts to `T`).
    pub fn inner(&self) -> &Parser<Dyn> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flap_lex::LexerBuilder;

    #[test]
    fn pairs_and_maps() {
        let mut b = LexerBuilder::new();
        let a = b.token("a", "a").unwrap();
        let n = b.token("n", "[0-9]+").unwrap();
        let lexer = b.build().unwrap();
        let g: TypedCfe<(String, u32)> = tok(a, |_| "a".to_string()).then(tok(n, |lx| {
            std::str::from_utf8(lx).unwrap().parse().unwrap()
        }));
        let p = g.compile(lexer).unwrap();
        assert_eq!(p.parse(b"a42").unwrap(), ("a".to_string(), 42));
    }

    #[test]
    fn star_collects_vectors() {
        let mut b = LexerBuilder::new();
        let w = b.token("w", "[a-z]+").unwrap();
        b.skip(" ").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let lexer = b.build().unwrap();
        // ( word* ) — star is fine in non-leading position
        let words: TypedCfe<Vec<String>> =
            star(tok(w, |lx| String::from_utf8(lx.to_vec()).unwrap()));
        let list = tok(lpar, |_| ())
            .then(words)
            .then(tok(rpar, |_| ()))
            .map(|(((), ws), ())| ws);
        let p = list.compile(lexer).unwrap();
        assert_eq!(
            p.parse(b"(hello brave world)").unwrap(),
            vec!["hello", "brave", "world"]
        );
        assert_eq!(p.parse(b"()").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn nullable_left_of_seq_is_rejected_as_in_the_paper() {
        // τ₁ ⊛ τ₂ demands ¬τ₁.Null: `word* "."` must be rewritten in
        // fixed-point form. The facade surfaces the same type error.
        let mut b = LexerBuilder::new();
        let w = b.token("w", "[a-z]+").unwrap();
        let stop = b.token("stop", r"\.").unwrap();
        let lexer = b.build().unwrap();
        let bad = star(tok(w, |_| ())).then(tok(stop, |_| ()));
        assert!(matches!(bad.compile(lexer), Err(CompileError::Type(_))));
    }

    #[test]
    fn typed_streaming_from_a_reader() {
        let mut b = LexerBuilder::new();
        let n = b.token("n", "[0-9]+").unwrap();
        let comma = b.token("comma", ",").unwrap();
        let lexer = b.build().unwrap();
        let number: TypedCfe<u32> = tok(n, |lx| std::str::from_utf8(lx).unwrap().parse().unwrap());
        let list = fix(|rest: TypedCfe<Vec<u32>>| {
            let tail = tok(comma, |_| ())
                .then(rest)
                .map(|((), v)| v)
                .opt()
                .map(Option::unwrap_or_default);
            number.clone().then(tail).map(|(h, mut t)| {
                t.insert(0, h);
                t
            })
        });
        let p = list.compile(lexer).unwrap();
        // 2-byte reads split the multi-digit lexemes across chunks
        let reader = std::io::Cursor::new(&b"10,203,3,4567"[..]);
        let mut src = ReadSource::with_capacity(reader, 2);
        assert_eq!(p.parse_source(&mut src).unwrap(), vec![10, 203, 3, 4567]);
        assert!(p.parse_reader(std::io::Cursor::new(&b"1,,2"[..])).is_err());
    }

    #[test]
    fn typed_sexp_tree() {
        #[derive(Debug, PartialEq)]
        enum Sexp {
            Atom(String),
            List(Vec<Sexp>),
        }
        let mut b = LexerBuilder::new();
        let atom = b.token("atom", "[a-z]+").unwrap();
        b.skip("[ \n]").unwrap();
        let lpar = b.token("lpar", r"\(").unwrap();
        let rpar = b.token("rpar", r"\)").unwrap();
        let lexer = b.build().unwrap();
        let g: TypedCfe<Sexp> = fix(|sexp: TypedCfe<Sexp>| {
            let items = star(sexp);
            tok(lpar, |_| ())
                .then(items)
                .then(tok(rpar, |_| ()))
                .map(|(((), xs), ())| Sexp::List(xs))
                .or(tok(atom, |lx| {
                    Sexp::Atom(String::from_utf8(lx.to_vec()).unwrap())
                }))
        });
        let p = g.compile(lexer).unwrap();
        assert_eq!(
            p.parse(b"(x (y) ())").unwrap(),
            Sexp::List(vec![
                Sexp::Atom("x".into()),
                Sexp::List(vec![Sexp::Atom("y".into())]),
                Sexp::List(vec![]),
            ])
        );
    }

    #[test]
    fn typed_values_cross_threads_through_a_pool() {
        let mut b = LexerBuilder::new();
        let w = b.token("w", "[a-z]+").unwrap();
        b.skip(" ").unwrap();
        let lexer = b.build().unwrap();
        let words: TypedCfe<Vec<String>> =
            star(tok(w, |lx| String::from_utf8(lx.to_vec()).unwrap()));
        let p = words.compile(lexer).unwrap();
        let pool = p
            .inner()
            .serve(crate::serve::PoolConfig::default().workers(2));
        let handles: Vec<_> = [&b"a bc"[..], b"", b"x y z"]
            .into_iter()
            .map(|doc| pool.submit(doc).unwrap())
            .collect();
        let got: Vec<Vec<String>> = handles
            .into_iter()
            .map(|h| *h.wait().unwrap().downcast::<Vec<String>>().unwrap())
            .collect();
        assert_eq!(got, [vec!["a", "bc"], vec![], vec!["x", "y", "z"]]);
    }

    #[test]
    fn ill_typed_rejected_through_facade() {
        let mut b = LexerBuilder::new();
        let a = b.token("a", "a").unwrap();
        let lexer = b.build().unwrap();
        let g: TypedCfe<u8> = tok(a, |_| 1).or(tok(a, |_| 2));
        assert!(g.compile(lexer).is_err());
    }
}
