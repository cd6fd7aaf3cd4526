//! Allocation gate for the solver shell: loading, solving and dropping a
//! formula costs a number of heap calls logarithmic in its size. Every
//! per-variable and per-clause structure is a handful of flat buffers
//! that grow by doubling (~200 calls at 8 192 variables). A solver that
//! kept one heap vector per watch list made ~33 000: an allocation per
//! non-empty list, plus its regrowth.
//!
//! One `#[test]` in its own binary, so no parallel test touches the
//! process-wide tally while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rzen_sat::{Lit, Solver, Var};

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

/// Allocations + reallocations made while building an `n`-variable
/// AND-chain (the `arena_mem.rs` cone: `x[i] ↔ x[i+1] ∧ x[i+2]`, root
/// asserted), solving it and dropping the solver.
fn heap_calls(n: usize) -> usize {
    let mut xs: Vec<Var> = Vec::with_capacity(n);
    let before = CALLS.load(Ordering::Relaxed);
    let mut s = Solver::new();
    xs.extend((0..n).map(|_| s.new_var()));
    for w in xs.windows(3) {
        let (o, a, b) = (w[0], w[1], w[2]);
        assert!(s.add_clause(&[Lit::neg(o), Lit::pos(a)]));
        assert!(s.add_clause(&[Lit::neg(o), Lit::pos(b)]));
        assert!(s.add_clause(&[Lit::pos(o), Lit::neg(a), Lit::neg(b)]));
    }
    assert!(s.add_clause(&[Lit::pos(xs[0])]));
    assert!(s.solve());
    assert!(xs.iter().all(|&x| s.value(x)), "the root forces every link");
    drop(s);
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn solver_heap_calls_grow_logarithmically() {
    // Register the obs metrics the solve path touches before counting.
    heap_calls(16);
    let n = 8_192;
    let small = heap_calls(n);
    let large = heap_calls(4 * n);
    assert!(
        small < 1_000,
        "{small} heap calls for {n} variables: something allocates per variable or per list"
    );
    assert!(
        large < small + 100,
        "{small} heap calls at {n} variables but {large} at {}: growth is not logarithmic",
        4 * n
    );
}
