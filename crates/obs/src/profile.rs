//! Heap attribution: the counting allocator and the per-span heap view.
//!
//! [`CountingAlloc`] is a `#[global_allocator]` wrapper over the system
//! allocator. While heap counting is on ([`set_enabled`]) it keeps
//! per-thread alloc byte/count tallies; the tallies are flushed to the
//! folded heap table at every span push/pop, charging the bytes to the
//! innermost span that was open while they were allocated. Bytes
//! allocated outside any span land in an explicit [`UNTRACKED`] bucket
//! computed residually against the global allocator totals, so the
//! folded heap view always sums to what the allocator actually handed
//! out.
//!
//! The span stack the bytes are charged to is owner-only: each thread
//! keeps the names of its open spans in a plain thread-local array that
//! no other thread reads. The "cpu" view is not here — it is an exact
//! fold of the trace rings ([`crate::export::folded_spans`]).
//!
//! ## The overhead contract
//!
//! While heap counting is off, a span entry costs the one relaxed atomic
//! load it always cost (the combined state word in [`crate::trace`]) and
//! an allocation costs one relaxed atomic load in [`CountingAlloc`]
//! before deferring to the system allocator. No timestamps, no locks, no
//! thread-locals are touched on either disabled path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Unread. perfbench builds `ServerConfig` as a struct literal naming
/// this constant; the perfbench narrowing removes it.
#[doc(hidden)]
pub const DEFAULT_SAMPLE_HZ: u32 = 99;

/// Deepest recorded span stack. Deeper nesting is truncated (pushes
/// beyond the limit still count depth so pops stay balanced); 32
/// comfortably covers the serve → engine → session → backend nesting,
/// which peaks below 12.
const MAX_STACK_DEPTH: usize = 32;

/// Folded-stack bucket charged with bytes allocated outside any span.
pub const UNTRACKED: &str = "<untracked>";

/// Turn heap counting on or off: while on, spans push their names onto
/// the thread's attribution stack and [`CountingAlloc`] tallies. The
/// folded table survives either way; [`reset`] clears it.
pub fn set_enabled(on: bool) {
    crate::trace::set_bit(crate::trace::HEAP_BIT, on);
}

/// Is heap counting on? One relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    crate::trace::state() & crate::trace::HEAP_BIT != 0
}

// ---------------------------------------------------------------------------
// Per-thread tallies and span stack
// ---------------------------------------------------------------------------

static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// `G_ALLOC_BYTES` at the last [`reset`], for the residual `<untracked>`
/// computation.
static HEAP_BASE_BYTES: AtomicU64 = AtomicU64::new(0);

struct HeapTl {
    /// Cumulative bytes/count allocated by this thread while heap
    /// counting was on (never reset; consumers take deltas).
    bytes: Cell<u64>,
    count: Cell<u64>,
    /// Bytes/count since the last span transition, waiting to be charged
    /// to the current stack.
    pending_bytes: Cell<u64>,
    pending_count: Cell<u64>,
    /// Names of the open spans, outermost first; only the first
    /// `depth.min(MAX_STACK_DEPTH)` are meaningful.
    frames: [Cell<&'static str>; MAX_STACK_DEPTH],
    depth: Cell<usize>,
}

thread_local! {
    static HEAP_TL: HeapTl = const {
        HeapTl {
            bytes: Cell::new(0),
            count: Cell::new(0),
            pending_bytes: Cell::new(0),
            pending_count: Cell::new(0),
            frames: [const { Cell::new("") }; MAX_STACK_DEPTH],
            depth: Cell::new(0),
        }
    };
}

/// Push a span name onto this thread's attribution stack. Called from
/// [`crate::trace::Span::enter`] when the heap bit is set. Returns
/// whether a frame was pushed (false only during thread teardown, when
/// the thread-local is gone); the caller pops iff this returned true.
pub(crate) fn push_frame(name: &'static str) -> bool {
    HEAP_TL
        .try_with(|t| {
            flush_pending(t);
            let depth = t.depth.get();
            if let Some(frame) = t.frames.get(depth) {
                frame.set(name);
            }
            t.depth.set(depth + 1);
        })
        .is_ok()
}

/// Pop the innermost frame pushed by [`push_frame`]. Pending heap
/// tallies are flushed first so they are charged to the span that was
/// open while the bytes were allocated.
pub(crate) fn pop_frame() {
    let _ = HEAP_TL.try_with(|t| {
        flush_pending(t);
        t.depth.set(t.depth.get().saturating_sub(1));
    });
}

/// Charge the thread's pending allocation tally to its current stack.
/// The pending cells are read-and-zeroed *before* the (possibly
/// allocating) table insert, so allocator re-entrancy simply accumulates
/// a fresh pending tally for the next flush instead of recursing.
fn flush_pending(t: &HeapTl) {
    let (bytes, count) = (t.pending_bytes.take(), t.pending_count.take());
    let depth = t.depth.get().min(MAX_STACK_DEPTH);
    // Outside any span the bytes are left to the residual <untracked> bucket.
    if (bytes == 0 && count == 0) || depth == 0 {
        return;
    }
    let stack: [&'static str; MAX_STACK_DEPTH] = std::array::from_fn(|i| t.frames[i].get());
    let mut table = heap_table().lock().expect("heap table lock poisoned");
    match table.get_mut(&stack[..depth]) {
        Some(row) => {
            row.0 += bytes;
            row.1 += count;
        }
        None => {
            table.insert(stack[..depth].to_vec(), (bytes, count));
        }
    }
}

/// `(bytes, allocations)` charged per span stack since the last [`reset`].
type HeapTable = HashMap<Vec<&'static str>, (u64, u64)>;

fn heap_table() -> &'static Mutex<HeapTable> {
    static TABLE: OnceLock<Mutex<HeapTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Process-wide allocator totals (see [`global_heap_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes handed out while heap counting was on.
    pub alloc_bytes: u64,
    /// Allocations while heap counting was on.
    pub alloc_count: u64,
    /// Bytes returned while heap counting was on.
    pub dealloc_bytes: u64,
    /// Deallocations while heap counting was on.
    pub dealloc_count: u64,
}

/// Process-wide [`CountingAlloc`] totals. Counts only advance while heap
/// counting is on — the disabled allocator path is one relaxed atomic
/// load — so these are windowed totals, not lifetime totals.
pub fn global_heap_stats() -> HeapStats {
    HeapStats {
        alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed),
        alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_bytes: G_DEALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_count: G_DEALLOC_COUNT.load(Ordering::Relaxed),
    }
}

/// This thread's cumulative `(bytes, count)` allocation tally while heap
/// counting was on. Monotonic; take a delta around a work item to
/// attribute its allocations (the serve worker does this per request).
pub fn thread_alloc_stats() -> (u64, u64) {
    HEAP_TL
        .try_with(|t| (t.bytes.get(), t.count.get()))
        .unwrap_or((0, 0))
}

/// A `#[global_allocator]` wrapper over the system allocator that
/// attributes allocations to spans while heap counting is on.
///
/// Install it per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rzen_obs::profile::CountingAlloc = rzen_obs::profile::CountingAlloc;
/// ```
///
/// While heap counting is *off* every call is one relaxed atomic load
/// plus the system allocator — no thread-local access, no counting.
/// While on, global and per-thread tallies advance; a `realloc` counts
/// as an allocation of the new size plus a deallocation of the old, so
/// byte totals stay conserved.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note_alloc(size: usize) {
        if !enabled() {
            return;
        }
        G_ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        G_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let _ = HEAP_TL.try_with(|t| {
            t.bytes.set(t.bytes.get() + size as u64);
            t.count.set(t.count.get() + 1);
            t.pending_bytes.set(t.pending_bytes.get() + size as u64);
            t.pending_count.set(t.pending_count.get() + 1);
        });
    }

    #[inline]
    fn note_dealloc(size: usize) {
        if !enabled() {
            return;
        }
        G_DEALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        G_DEALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers every allocation to `System` unchanged; the wrapper
// only updates atomic/thread-local counters and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            Self::note_alloc(new_size);
            Self::note_dealloc(layout.size());
        }
        new_ptr
    }
}

// ---------------------------------------------------------------------------
// Reset and the heap view
// ---------------------------------------------------------------------------

/// Clear the heap table and re-base the residual `<untracked>`
/// computation at the current global allocator totals. Per-thread
/// pending tallies from before the reset may still flush into the fresh
/// table at the next span transition; the residual computation saturates
/// rather than going negative.
pub fn reset() {
    heap_table()
        .lock()
        .expect("heap table lock poisoned")
        .clear();
    HEAP_BASE_BYTES.store(G_ALLOC_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The accumulated heap view as `(folded-stack, bytes, allocations)`
/// rows, sorted by descending bytes, with a final [`UNTRACKED`] row
/// holding the residual between the global allocator totals (since the
/// last [`reset`]) and the sum of the named rows.
pub fn heap_folded() -> Vec<(String, u64, u64)> {
    // Flush this thread's own pending tally so a caller measuring around
    // its own spans sees them attributed.
    let _ = HEAP_TL.try_with(flush_pending);
    let mut rows: Vec<(String, u64, u64)> = heap_table()
        .lock()
        .expect("heap table lock poisoned")
        .iter()
        .map(|(stack, &(bytes, count))| (stack.join(";"), bytes, count))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let named: u64 = rows.iter().map(|(_, bytes, _)| bytes).sum();
    let window = G_ALLOC_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(HEAP_BASE_BYTES.load(Ordering::Relaxed));
    let untracked = window.saturating_sub(named);
    if untracked > 0 {
        rows.push((UNTRACKED.to_string(), untracked, 0));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_charges_to_innermost_span() {
        reset();
        set_enabled(true);
        {
            let _outer = crate::span!("test.profile.outer");
            let _span = crate::span!("test.profile.heapspan");
            std::hint::black_box(vec![0u8; 4096]);
        }
        set_enabled(false);
        let rows = heap_folded();
        let named = rows
            .iter()
            .find(|(stack, _, _)| stack == "test.profile.outer;test.profile.heapspan")
            .expect("heap bytes attributed to the span");
        assert!(named.1 >= 4096, "at least the vec charged: {}", named.1);
    }
}
