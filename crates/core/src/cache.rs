//! A grammar-keyed compile cache for multi-tenant serving.
//!
//! Compiling a grammar is orders of magnitude more expensive than
//! parsing a document (see `flap-bench --bin boot`), so a server that
//! fields parse requests for many tenants' grammars must not compile
//! on every request. [`ParserCache`] maps a *content hash* of the
//! grammar — computed by [`grammar_key`] over the lexer rules and the
//! grammar's syntax tree — to a shared [`CompiledParser`], with:
//!
//! * **Single-flight compilation.** When several threads miss on the
//!   same key concurrently, exactly one runs the compile closure; the
//!   rest block on a condvar and receive the shared result. A failed
//!   compile wakes the waiters, and the next caller retries — errors
//!   are never cached.
//! * **Bounded capacity with LRU eviction.** The cache holds at most
//!   `capacity` ready parsers; inserting past that evicts the least
//!   recently *used* entry (in-flight compilations are never
//!   evicted). Tables are behind `Arc`s, so evicting a parser that a
//!   pool still serves is safe — the pool keeps its clone alive.
//! * **Counters.** Hits, misses, evictions and in-flight compiles are
//!   tracked in a shared [`CacheCounters`]. A caller that attaches them
//!   to a pool with
//!   [`PoolConfig::cache_counters`](crate::serve::PoolConfig::cache_counters)
//!   gets them in that pool's metrics, next to queue depth and
//!   latency. `flap-serve` uses no cache and attaches none, so the
//!   `cache_*` fields of its `--stats-json` report are always 0.
//!
//! # Sizing guidance
//!
//! Size the cache to the *working set of distinct grammars*, not the
//! request rate: each entry costs one compiled table block (tens of
//! kilobytes for the paper's grammars — see `table1`'s footprint
//! report). A capacity a little above the number of concurrently
//! active tenants makes evictions rare; watch the `cache_evictions`
//! counter, and grow the capacity if it climbs while `cache_hits`
//! stalls.
//!
//! # Key caveat
//!
//! [`grammar_key`] hashes the grammar's *shape* — lexer rules
//! (canonical regex structure, token names, skip/return actions) and
//! the combinator tree (with `Fix`/`Var` binding hashed by de Bruijn
//! level, so keys are stable across processes). Semantic *actions*
//! are opaque closures and are **not** hashed: two grammars that
//! differ only in action code collide. When tenants supply actions independently of grammar
//! shape, salt the key (e.g. `key ^ tenant_id`) or include an action
//! version in it.
//!
//! # Example
//!
//! ```
//! use flap::cache::{grammar_key, ParserCache};
//! use flap::{Cfe, LexerBuilder, Parser};
//!
//! let cache: ParserCache<i64> = ParserCache::new(8);
//!
//! let mut lx = LexerBuilder::new();
//! let atom = lx.token("atom", "[a-z]+")?;
//! lx.skip(" ")?;
//! let lexer = lx.build()?;
//! let grammar: Cfe<i64> =
//!     Cfe::fix(|x| Cfe::eps_with(|| 0).or(Cfe::tok_val(atom, 1).then(x, |a, b| a + b)));
//!
//! let key = grammar_key(&lexer, &grammar);
//! let compile = || Parser::compile(lexer, &grammar).map(|p| p.compiled_arc());
//! let first = cache.get_or_compile(key, compile)?;
//! let again = cache.get_or_compile::<flap::CompileError>(key, || unreachable!("cached"))?;
//! assert!(std::sync::Arc::ptr_eq(&first, &again));
//! assert_eq!(cache.counters().hits(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use flap_cfe::Cfe;
use flap_lex::Lexer;
use flap_staged::CompiledParser;

use crate::serve::{ParsePool, PoolConfig};

/// Shared, lock-free counters for one [`ParserCache`]. Clone the
/// `Arc` into [`PoolConfig::cache_counters`] to surface these in pool
/// metrics snapshots.
#[derive(Debug, Default)]
pub struct CacheCounters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) inflight: AtomicU64,
}

impl CacheCounters {
    /// Lookups served from a ready entry (including waiters that
    /// blocked on an in-flight compile and received its result).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the compile closure.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Ready entries discarded to enforce the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Compilations currently running (a gauge, not a counter).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

enum Entry<V> {
    Ready {
        parser: Arc<CompiledParser<V>>,
        last_used: u64,
    },
    InFlight,
}

struct CacheState<V> {
    entries: HashMap<u64, Entry<V>>,
    tick: u64,
}

/// A capacity-bounded, single-flight cache from [`grammar_key`]
/// hashes to compiled parsers. See the [module docs](self) for
/// semantics and sizing guidance.
pub struct ParserCache<V> {
    state: Mutex<CacheState<V>>,
    ready: Condvar,
    capacity: usize,
    counters: Arc<CacheCounters>,
}

impl<V> fmt::Debug for ParserCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParserCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<V> ParserCache<V> {
    /// A cache holding at most `capacity` ready parsers (a capacity
    /// of `0` is treated as `1`).
    pub fn new(capacity: usize) -> ParserCache<V> {
        ParserCache {
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// The cache's counters; clone into
    /// [`PoolConfig::cache_counters`] to report them in pool metrics.
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }

    /// Ready entries currently cached (in-flight compiles excluded).
    pub fn len(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.entries
            .values()
            .filter(|e| matches!(e, Entry::Ready { .. }))
            .count()
    }

    /// `true` when no ready entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key` without compiling; touches the entry's LRU
    /// stamp on a hit but records neither a hit nor a miss.
    pub fn get(&self, key: u64) -> Option<Arc<CompiledParser<V>>> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        match st.entries.get_mut(&key) {
            Some(Entry::Ready { parser, last_used }) => {
                *last_used = tick;
                Some(Arc::clone(parser))
            }
            _ => None,
        }
    }

    /// Returns the parser for `key`, running `compile` only if no
    /// ready or in-flight entry exists. Concurrent callers with the
    /// same key block until the single in-flight compile finishes and
    /// then share its result (counted as hits). A compile error is
    /// returned to the caller that ran it and is *not* cached; blocked
    /// waiters wake and retry with their own closure.
    pub fn get_or_compile<E>(
        &self,
        key: u64,
        compile: impl FnOnce() -> Result<Arc<CompiledParser<V>>, E>,
    ) -> Result<Arc<CompiledParser<V>>, E> {
        let mut st = self.state.lock().unwrap();
        loop {
            st.tick += 1;
            let tick = st.tick;
            match st.entries.get_mut(&key) {
                Some(Entry::Ready { parser, last_used }) => {
                    *last_used = tick;
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(parser));
                }
                Some(Entry::InFlight) => {
                    st = self.ready.wait(st).unwrap();
                }
                None => break,
            }
        }

        // Miss: claim the key, compile outside the lock.
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        st.entries.insert(key, Entry::InFlight);
        drop(st);

        let result = compile();

        let mut st = self.state.lock().unwrap();
        self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(parser) => {
                st.tick += 1;
                let tick = st.tick;
                st.entries.insert(
                    key,
                    Entry::Ready {
                        parser: Arc::clone(&parser),
                        last_used: tick,
                    },
                );
                self.evict_over_capacity(&mut st);
                self.ready.notify_all();
                Ok(parser)
            }
            Err(e) => {
                st.entries.remove(&key);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Removes the entry for `key` (if ready), returning whether one
    /// was removed. In-flight compiles cannot be invalidated.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        match st.entries.get(&key) {
            Some(Entry::Ready { .. }) => {
                st.entries.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Evicts least-recently-used ready entries until the ready count
    /// is back within capacity. Called with the lock held.
    fn evict_over_capacity(&self, st: &mut CacheState<V>) {
        loop {
            let ready = st
                .entries
                .iter()
                .filter(|(_, e)| matches!(e, Entry::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = st
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                    Entry::InFlight => None,
                })
                .min()
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    st.entries.remove(&k);
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }
}

impl<V: Send + 'static> ParserCache<V> {
    /// Builds a [`ParsePool`] over the cached parser for `key`,
    /// compiling it first if absent, with this cache's counters
    /// attached to the pool's metrics. `config.label` should name the
    /// grammar so the pool's snapshot identifies the tenant.
    pub fn pool<E>(
        &self,
        key: u64,
        compile: impl FnOnce() -> Result<Arc<CompiledParser<V>>, E>,
        config: PoolConfig,
    ) -> Result<ParsePool<V>, E> {
        let parser = self.get_or_compile(key, compile)?;
        Ok(ParsePool::new(
            parser,
            config.cache_counters(self.counters()),
        ))
    }
}

/// A stable FNV-1a content hash of a grammar's *shape*: the lexer's
/// rules (canonical regex structure, token index and name, skip/return
/// action) and the combinator tree of `grammar`, with `Fix`/`Var`
/// binding encoded by de Bruijn level so the key does not depend on
/// the process-global [`VarId`](flap_cfe::VarId) allocator. It hashes
/// the structural encoding of [`flap_staged::origin`], the same bytes
/// a compiled artifact stores, so a
/// [`Parser::to_artifact`](crate::Parser::to_artifact)'s fingerprint
/// ([`peek_fingerprint`](crate::artifact::peek_fingerprint)) is this
/// key. Semantic actions are **not** hashed — see the
/// [module docs](self#key-caveat).
pub fn grammar_key<V>(lexer: &Lexer, grammar: &Cfe<V>) -> u64 {
    flap_staged::origin::grammar_key(lexer, grammar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LexerBuilder, Parser};
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn word_lexer() -> Lexer {
        let mut lx = LexerBuilder::new();
        lx.token("atom", "[a-z]+").unwrap();
        lx.skip(" ").unwrap();
        lx.build().unwrap()
    }

    fn word_grammar(tok: flap_lex::Token) -> Cfe<i64> {
        Cfe::fix(move |x| Cfe::eps_with(|| 0).or(Cfe::tok_val(tok, 1).then(x, |a, b| a + b)))
    }

    fn compiled(g: &Cfe<i64>) -> Arc<CompiledParser<i64>> {
        Parser::compile(word_lexer(), g).unwrap().compiled_arc()
    }

    #[test]
    fn hit_returns_the_same_parser_and_counts() {
        let lexer = word_lexer();
        let tok = flap_lex::Token::from_index(0);
        let g = word_grammar(tok);
        let key = grammar_key(&lexer, &g);

        let cache: ParserCache<i64> = ParserCache::new(4);
        let a = cache
            .get_or_compile::<()>(key, || Ok(compiled(&g)))
            .unwrap();
        let b = cache
            .get_or_compile::<()>(key, || panic!("must not recompile"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.counters();
        assert_eq!((c.hits(), c.misses(), c.evictions()), (1, 1, 0));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(key).is_some());
        assert!(cache.get(key ^ 1).is_none());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let tok = flap_lex::Token::from_index(0);
        let g = word_grammar(tok);
        let cache: ParserCache<i64> = ParserCache::new(2);
        for key in [10u64, 20, 30] {
            cache
                .get_or_compile::<()>(key, || Ok(compiled(&g)))
                .unwrap();
            // Touch key 10 so it stays hot; 20 becomes the LRU victim.
            cache.get(10);
        }
        assert_eq!(cache.counters().evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(10).is_some(), "hot entry survived");
        assert!(cache.get(30).is_some(), "newest entry survived");
        assert!(cache.get(20).is_none(), "LRU entry evicted");
    }

    #[test]
    fn single_flight_compiles_once_under_contention() {
        let tok = flap_lex::Token::from_index(0);
        let cache: ParserCache<i64> = ParserCache::new(4);
        let compiles = AtomicUsize::new(0);
        let key = 42u64;

        // The grammar is built inside each thread: Cfe holds Rc and is
        // not Sync, but the cached CompiledParser is.
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let p = cache
                        .get_or_compile::<()>(key, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters pile up.
                            thread::sleep(std::time::Duration::from_millis(20));
                            Ok(compiled(&word_grammar(tok)))
                        })
                        .unwrap();
                    assert_eq!(p.parse(b"a b c").unwrap(), 3);
                });
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "single-flight");
        let c = cache.counters();
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 7);
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn compile_errors_are_not_cached_and_waiters_retry() {
        let tok = flap_lex::Token::from_index(0);
        let g = word_grammar(tok);
        let cache: ParserCache<i64> = ParserCache::new(4);
        let key = 7u64;

        let err = cache.get_or_compile::<&str>(key, || Err("boom"));
        assert_eq!(err.err(), Some("boom"));
        assert_eq!(cache.len(), 0, "error not cached");

        // The next caller compiles successfully.
        let p = cache
            .get_or_compile::<&str>(key, || Ok(compiled(&g)))
            .unwrap();
        assert_eq!(p.parse(b"a").unwrap(), 1);
        assert_eq!(cache.counters().misses(), 2);
    }

    #[test]
    fn grammar_key_is_stable_and_discriminating() {
        let lexer = word_lexer();
        let tok = flap_lex::Token::from_index(0);

        // Stability: two independent constructions of the same grammar
        // (fresh VarIds each time) produce the same key.
        let k1 = grammar_key(&lexer, &word_grammar(tok));
        let k2 = grammar_key(&lexer, &word_grammar(tok));
        assert_eq!(k1, k2, "key independent of VarId allocation");

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

    #[test]
    fn pool_helper_serves_and_reports_cache_counters() {
        let lexer = word_lexer();
        let tok = flap_lex::Token::from_index(0);
        let g = word_grammar(tok);
        let key = grammar_key(&lexer, &g);
        let cache: ParserCache<i64> = ParserCache::new(4);

        let pool = cache
            .pool::<()>(
                key,
                || Ok(compiled(&g)),
                PoolConfig::default().workers(1).queue_capacity(2),
            )
            .unwrap();
        assert_eq!(pool.submit(&b"a b"[..]).unwrap().wait(), Ok(2));

        // A second pool for the same grammar hits the cache, and both
        // pools' snapshots expose the shared counters.
        let pool2 = cache
            .pool::<()>(
                key,
                || panic!("must not recompile"),
                PoolConfig::default().workers(1).queue_capacity(2),
            )
            .unwrap();
        let snap = pool2.metrics().snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        pool.shutdown();
        pool2.shutdown();
    }
}
