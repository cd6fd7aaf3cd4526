//! The heap slice of the counts of record: bytes the all-pairs fabric
//! query sets hold, and heap calls of one cold fabric batch. A rise in
//! any of them fails here whatever the host's speed; a change that
//! lowers one rewrites its pin and says so in CHANGES.md.
//!
//! One `#[test]` in its own binary: the tally is process-wide and
//! counts every thread, the engine's workers and runners included, so
//! no other test may run beside it. (`tests/counts.rs` holds the
//! solver's counts, whose tests run in parallel.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, Verdict};
use rzen_net::gen::spine_leaf;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Reach and drops for every ordered leaf pair of `spine_leaf(s, l)`,
/// host port to host port: the set `tests/counts.rs` solves.
fn fabric_queries(s: usize, l: usize) -> Vec<Query> {
    let net = spine_leaf(s, l);
    let mut queries = Vec::new();
    for a in s..s + l {
        for b in (s..s + l).filter(|&b| b != a) {
            let (src, dst) = ((a, 99), (b, 99));
            queries.push(Query::Reach {
                net: net.clone(),
                src,
                dst,
            });
            queries.push(Query::Drops {
                net: net.clone(),
                src,
                dst,
            });
        }
    }
    queries
}

/// The query set of `spine_leaf(s, l)` and the bytes it holds, its
/// network included.
fn held(s: usize, l: usize) -> (Vec<Query>, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let queries = fabric_queries(s, l);
    (queries, LIVE.load(Ordering::Relaxed) - before)
}

#[test]
fn fabric_heap_counts_are_pinned() {
    // Every query of a set holds a handle to one network: a
    // `spine_leaf(2, 8)` network is 11,220 bytes, and 112 copies of it
    // held 1.21 MiB; 264 copies of `spine_leaf(4, 12)`'s held 8.89 MiB.
    let (small, small_bytes) = held(2, 8);
    let (large, large_bytes) = held(4, 12);
    assert_eq!((small.len(), large.len()), (112, 264));
    drop(large);

    // One cold batch on one worker, SMT only, nothing cached or kept.
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        backend: QueryBackend::Smt,
        timeout: None,
        cache: false,
        sessions: false,
    });
    let before = CALLS.load(Ordering::Relaxed);
    let report = engine.run_batch(&small);
    let batch_calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(report
        .results
        .iter()
        .all(|r| matches!(r.verdict, Verdict::Sat(_))));

    assert_eq!(
        (small_bytes, large_bytes),
        (18_980, 66_072),
        "bytes held by the 112- and 264-query sets"
    );
    // Not exact: a blocking `recv` on a fresh std mpsc channel (each
    // solve's reply channel) allocates its waker list, and whether the
    // worker blocks before the runner replies is a thread race. 45 runs
    // read 60,045-60,053; the ceiling leaves room above that spread.
    assert!(
        batch_calls <= 60_064,
        "{batch_calls} heap calls for one cold 112-query batch"
    );
}
