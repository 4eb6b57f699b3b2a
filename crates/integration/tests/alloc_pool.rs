//! Steady-state allocation audit for the pooled serving path: after
//! warm-up, a `submit(Arc<[u8]>)` → parse → `wait` round trip through
//! a `flap::serve::ParsePool` allocates exactly once — the job's
//! completion slot, on the submitting thread — and the parse
//! allocates nothing, whichever thread runs it. It audits both: round
//! trips whose waiting caller usually runs its own job, then round
//! trips that the worker runs.
//!
//! Unlike `alloc.rs`, whose counter is thread-local (the parse runs on
//! the calling thread), a pooled job runs on the pool's worker or on
//! the waiting caller, so this audit counts allocations *globally*. A global
//! counter cannot tell audited work from concurrent test-harness
//! work, which is why this file holds exactly one test in its own
//! test binary: integration test binaries run serially, so during the
//! audited window the only live threads are this test and the pool's
//! single worker.
//!
//! The one-allocation round trip requires each piece to cooperate:
//! `JobInput::Shared` submissions clone an `Arc`, not bytes; the
//! bounded queue's `VecDeque` is pre-grown to its capacity; metrics
//! are plain atomics; and the pool's reused session has the
//! workload's high-water mark from warm-up. A borrowed `&[u8]` input
//! costs one more allocation, the copy of its bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flap::serve::PoolConfig;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn pooled_round_trip_allocates_only_its_completion_slot() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    // one worker: every job lands in the same session, so warm-up
    // deterministically grows the only session the audit will use
    let pool = parser.serve(PoolConfig::default().workers(1).queue_capacity(4));
    let input: Arc<[u8]> = Arc::from((def.generate)(11, 16 * 1024).as_slice());
    let expected = parser.parse(&input).expect("generated input parses");

    // Warm-up: grow the session's stacks to this workload's
    // high-water mark, and settle lazy runtime structures
    // (thread-locals, futexes) on both threads that may parse. The
    // waiting caller runs a lone job itself, so each round also sends
    // the worker two jobs, as the second audit below does: the worker
    // cannot run its first job inside an audit.
    for _ in 0..4 {
        let handle = pool.submit(input.clone()).expect("pool accepts");
        assert_eq!(handle.wait(), Ok(expected));
        let first = pool.submit(input.clone()).expect("pool accepts");
        let second = pool.submit(input.clone()).expect("pool accepts");
        assert_eq!(second.wait(), Ok(expected));
        assert_eq!(first.wait(), Ok(expected));
    }

    // One job outstanding at a time: the waiting caller usually runs it.
    const ROUND_TRIPS: u64 = 50;
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut ok = true;
    for _ in 0..ROUND_TRIPS {
        let handle = pool.submit(input.clone()).expect("pool accepts");
        ok &= handle.wait() == Ok(expected);
    }
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(ok, "pooled parses must stay correct while audited");
    assert_eq!(
        n, ROUND_TRIPS,
        "each pooled round trip must allocate exactly its completion slot \
         ({n} allocations in {ROUND_TRIPS} submit/wait round trips)"
    );

    // The same audit over jobs the worker runs. Of two jobs submitted
    // back to back, the caller waits on the second first: it is never
    // at the queue's front while the one session is idle, because the
    // worker takes it as soon as it returns the session from the
    // first. So the worker runs both, and each wait takes a slot the
    // worker filled.
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..ROUND_TRIPS / 2 {
        let first = pool.submit(input.clone()).expect("pool accepts");
        let second = pool.submit(input.clone()).expect("pool accepts");
        ok &= second.wait() == Ok(expected);
        ok &= first.wait() == Ok(expected);
    }
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(ok, "worker-run parses must stay correct while audited");
    assert_eq!(
        n, ROUND_TRIPS,
        "each worker-run round trip must allocate exactly its completion \
         slot ({n} allocations in {ROUND_TRIPS} submit/wait round trips)"
    );
}
