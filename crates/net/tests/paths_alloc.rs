//! Allocation gate for `Network::paths`: the hops borrow the network's
//! interfaces, so enumerating a leaf pair of the `spine_leaf(2, 8)`
//! fabric (14 simple paths) costs the DFS bookkeeping plus one vector
//! per path, ~20 heap calls. Hops that owned their interfaces
//! deep-cloned two of them (forwarding table and ACLs) per hop: ~380.
//!
//! One `#[test]` in its own binary, so no parallel test touches the
//! process-wide tally while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rzen_net::gen::spine_leaf;

static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn leaf_pair_paths_make_few_heap_calls() {
    let net = spine_leaf(2, 8);
    let (leaf0, leaf1) = (2, 3);
    let before = CALLS.load(Ordering::Relaxed);
    let paths = net.paths(leaf0, 99, leaf1, 99);
    let n = paths.len();
    drop(paths);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(n, 14, "2 direct paths plus 12 through a third leaf");
    assert!(
        calls <= 32,
        "{calls} heap calls to enumerate {n} paths: hops are copying interfaces"
    );
}
