//! Allocation gate for the `Network` handle: cloning a network copies a
//! pointer, so a clone, a query's worth of clones, and hashing a clone
//! whose value was hashed before make no heap call at all. Before the
//! handle, one clone of `spine_leaf(2, 8)` deep-copied 11,220 bytes.
//!
//! One `#[test]` in its own binary, so no parallel test touches the
//! process-wide tally while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::{Hash, Hasher};
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

/// A hasher that allocates nothing, to see what hashing a network costs.
#[derive(Default)]
struct Sink(u64);

impl Hasher for Sink {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

#[test]
fn a_clone_makes_no_heap_call() {
    let net = spine_leaf(2, 8);
    let digest = net.digest();
    let before = CALLS.load(Ordering::Relaxed);
    let clones: Vec<_> = std::iter::repeat_with(|| net.clone()).take(112).collect();
    let vec_calls = CALLS.load(Ordering::Relaxed) - before;
    let before = CALLS.load(Ordering::Relaxed);
    let mut h = Sink::default();
    for clone in &clones {
        clone.hash(&mut h);
        assert_eq!(clone.digest(), digest);
        assert!(*clone == net);
    }
    let one = net.clone();
    drop(one);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        vec_calls, 1,
        "112 clones cost the one vector that holds them"
    );
    assert_eq!(
        calls, 0,
        "{calls} heap calls to clone, hash and compare shared networks"
    );
    assert_eq!(net.handles(), 113);
}
