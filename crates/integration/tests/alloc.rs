//! Steady-state allocation audit: repeated parses through one reused
//! `ParseSession` must hit the §2.8 "no allocation on the hot path"
//! property — zero allocator calls once the session's stacks have
//! grown to the workload's high-water mark.
//!
//! The global allocator is wrapped in a counter that tracks
//! allocations *on the current thread only*, so the audit is immune
//! to the test harness's other threads.
//!
//! The pooled serving path (`flap::serve`) runs its hot loop on
//! worker threads, which a thread-local counter cannot observe; its
//! round-trip audit lives in `alloc_pool.rs`, a single-test binary
//! with a process-global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn reused_session_parses_without_allocating() {
    // i64 values: the user actions themselves allocate nothing, so
    // any allocation seen here comes from the engine.
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(11, 16 * 1024);
    let expected = parser.parse(&input).expect("generated input parses");

    let mut session = parser.session();
    // Warm-up: grow the session stacks to this workload's high-water
    // mark (first parse) and give lazy runtime structures a chance to
    // settle (second parse).
    for _ in 0..2 {
        assert_eq!(parser.parse_with(&mut session, &input), Ok(expected));
    }

    let (n, result) = allocs_during(|| {
        let mut ok = true;
        for _ in 0..50 {
            ok &= parser.parse_with(&mut session, &input) == Ok(expected);
        }
        ok
    });
    assert!(result, "parses must stay correct while audited");
    assert_eq!(
        n, 0,
        "steady-state hot path must not allocate ({n} allocations in 50 parses)"
    );
}

#[test]
fn error_paths_do_not_allocate_either() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let mut bad = (def.generate)(5, 4 * 1024);
    let mid = bad.len() / 2;
    bad[mid] = 0x03;

    let mut session = parser.session();
    let expected = parser.parse_with(&mut session, &bad);
    assert!(expected.is_err(), "mutated input must fail");
    for _ in 0..2 {
        assert_eq!(parser.parse_with(&mut session, &bad), expected);
    }

    let (n, _) = allocs_during(|| {
        for _ in 0..50 {
            assert_eq!(parser.parse_with(&mut session, &bad), expected);
        }
    });
    assert_eq!(
        n, 0,
        "error construction must not allocate ({n} allocations in 50 parses)"
    );
}

#[test]
fn steady_state_streaming_does_not_allocate_per_chunk() {
    // Chunked feeds through one reused session: once the session's
    // retained-tail buffer and stacks have grown to the workload's
    // high-water mark, feeding must be allocation-free — the
    // streaming API may not re-introduce per-chunk buffer churn.
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(11, 16 * 1024);
    let expected = parser.parse(&input).expect("generated input parses");
    const CHUNK: usize = 512;

    let mut session = parser.session();
    let stream_once = |session: &mut flap::ParseSession<i64>| {
        let mut s = parser.stream(session);
        for piece in input.chunks(CHUNK) {
            match s.feed(piece) {
                flap::Step::NeedMore => {}
                other => panic!("unexpected mid-stream step: {other:?}"),
            }
        }
        match s.finish() {
            flap::Step::Done(v) => v,
            other => panic!("unexpected final step: {other:?}"),
        }
    };

    // Warm-up: grow the tail buffer and stacks, settle lazy runtime
    // structures.
    for _ in 0..2 {
        assert_eq!(stream_once(&mut session), expected);
    }

    let (n, result) = allocs_during(|| {
        let mut ok = true;
        for _ in 0..20 {
            ok &= stream_once(&mut session) == expected;
        }
        ok
    });
    assert!(result, "streamed parses must stay correct while audited");
    assert_eq!(
        n, 0,
        "steady-state streaming must not allocate ({n} allocations in 20 chunked parses)"
    );
}

#[test]
fn disabled_observer_path_does_not_allocate() {
    // The allocation half of the zero-overhead invariant: parsing
    // through `parse_with_obs` with the `NoopObserver` must behave
    // exactly like the unhooked entry point — zero allocations once
    // the session has warmed up.
    use flap::obs::NoopObserver;

    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(11, 16 * 1024);
    let expected = parser.parse(&input).expect("generated input parses");

    let mut session = parser.session();
    for _ in 0..2 {
        assert_eq!(
            parser.parse_with_obs(&mut session, &input, &mut NoopObserver),
            Ok(expected)
        );
    }

    let (n, result) = allocs_during(|| {
        let mut ok = true;
        for _ in 0..50 {
            ok &= parser.parse_with_obs(&mut session, &input, &mut NoopObserver) == Ok(expected);
        }
        ok
    });
    assert!(result, "observed parses must stay correct while audited");
    assert_eq!(
        n, 0,
        "the NoopObserver path must not allocate ({n} allocations in 50 parses)"
    );
}

#[test]
fn enabled_profiler_reaches_an_allocation_free_steady_state() {
    // The *enabled* path is allocation-bounded: the profiler's
    // counter tables grow to the grammar's high-water mark during
    // warm-up and are then reused, so steady-state profiling — reset
    // included — allocates nothing.
    use flap::obs::ParseProfiler;

    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(11, 16 * 1024);
    let expected = parser.parse(&input).expect("generated input parses");

    let mut session = parser.session();
    let mut prof = ParseProfiler::new();
    for _ in 0..2 {
        assert_eq!(
            parser.parse_with_obs(&mut session, &input, &mut prof),
            Ok(expected)
        );
    }

    let (n, result) = allocs_during(|| {
        let mut ok = true;
        for _ in 0..50 {
            prof.reset();
            ok &= parser.parse_with_obs(&mut session, &input, &mut prof) == Ok(expected);
        }
        ok
    });
    assert!(result, "profiled parses must stay correct while audited");
    assert_eq!(
        n, 0,
        "steady-state profiling must not allocate ({n} allocations in 50 parses)"
    );
    assert!(
        prof.tokens() > 0 && prof.reduction_count() > 0,
        "the audited parses must actually have been profiled"
    );
}

#[test]
fn fresh_session_per_parse_does_allocate() {
    // Sanity check on the audit itself: the convenience `parse`
    // allocates a session per call, so the counter must see it.
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let input = (def.generate)(11, 1024);
    parser.parse(&input).expect("parses");
    let (n, _) = allocs_during(|| parser.parse(&input).expect("parses"));
    assert!(n > 0, "per-call sessions should show up in the audit");
}
