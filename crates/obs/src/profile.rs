//! Allocation counting and the two profile views.
//!
//! [`CountingAlloc`] is a `#[global_allocator]` wrapper over the system
//! allocator. While recording is on ([`crate::trace::set_enabled`]) it
//! keeps global and per-thread alloc byte/count tallies; each span
//! event carries its thread's byte delta over the span
//! ([`crate::trace::Event::alloc_bytes`]). Both views are one fold of
//! the trace rings ([`crate::export::folded_spans`]): the cpu view
//! weighs stacks by span wall time, the heap view by allocated bytes.
//! Bytes allocated outside any recorded span land in an explicit
//! [`UNTRACKED`] row computed residually against the global allocator
//! totals, so the heap view always sums to at least what the allocator
//! handed out over the window.
//!
//! ## The overhead contract
//!
//! While recording is off, an allocation costs one relaxed atomic load
//! (the recording switch in [`crate::trace`]) before deferring to the
//! system allocator. No timestamps, no locks, no thread-locals are
//! touched on the disabled path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::export::{folded_spans, folded_text, Weight};
use crate::trace::Event;

/// Unread. perfbench builds `ServerConfig` as a struct literal naming
/// this constant; the perfbench narrowing removes it.
#[doc(hidden)]
pub const DEFAULT_SAMPLE_HZ: u32 = 99;

/// Folded-stack bucket charged with bytes allocated outside any span.
pub const UNTRACKED: &str = "<untracked>";

// ---------------------------------------------------------------------------
// Tallies
// ---------------------------------------------------------------------------

static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

struct HeapTl {
    /// Cumulative bytes/count allocated by this thread while recording
    /// was on (never reset; consumers take deltas).
    bytes: Cell<u64>,
    count: Cell<u64>,
    /// Set while the trace recorder runs on this thread: its ring growth
    /// is neither charged to the open spans nor to the global totals.
    uncounted: Cell<bool>,
}

thread_local! {
    static HEAP_TL: HeapTl = const {
        HeapTl {
            bytes: Cell::new(0),
            count: Cell::new(0),
            uncounted: Cell::new(false),
        }
    };
}

/// Run `f` with this thread's allocations uncounted. The trace recorder
/// wraps itself in this, so a thread's first events (ring and registry
/// growth) stay out of every tally. Not re-entrant: the recorder never
/// records.
pub(crate) fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    HEAP_TL.with(|t| t.uncounted.set(true));
    let out = f();
    HEAP_TL.with(|t| t.uncounted.set(false));
    out
}

/// Process-wide allocator totals (see [`global_heap_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes handed out while recording was on.
    pub alloc_bytes: u64,
    /// Allocations while recording was on.
    pub alloc_count: u64,
}

/// Process-wide [`CountingAlloc`] totals. Counts only advance while
/// recording is on — the disabled allocator path is one relaxed atomic
/// load — so these are windowed totals, not lifetime totals.
pub fn global_heap_stats() -> HeapStats {
    HeapStats {
        alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed),
        alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed),
    }
}

/// This thread's cumulative `(bytes, count)` allocation tally while
/// recording was on. Monotonic; take a delta around a work item to
/// attribute its allocations (spans and the serve worker do this).
pub fn thread_alloc_stats() -> (u64, u64) {
    HEAP_TL
        .try_with(|t| (t.bytes.get(), t.count.get()))
        .unwrap_or((0, 0))
}

/// A `#[global_allocator]` wrapper over the system allocator that
/// counts allocations while recording is on.
///
/// Install it per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rzen_obs::profile::CountingAlloc = rzen_obs::profile::CountingAlloc;
/// ```
///
/// While recording is *off* every allocation is one relaxed atomic load
/// plus the system allocator — no thread-local access, no counting.
/// While on, global and per-thread tallies advance (except inside the
/// trace recorder); a `realloc` counts as an allocation of the new size.
/// Deallocations are never counted.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note_alloc(size: usize) {
        if !crate::trace::enabled() {
            return;
        }
        HEAP_TL.with(|t| {
            if t.uncounted.get() {
                return;
            }
            G_ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
            G_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            t.bytes.set(t.bytes.get() + size as u64);
            t.count.set(t.count.get() + 1);
        });
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
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            Self::note_alloc(new_size);
        }
        new_ptr
    }
}

// ---------------------------------------------------------------------------
// The views
// ---------------------------------------------------------------------------

/// One profile view of a trace window: folded rows plus the title and
/// unit its flamegraph is drawn with.
pub struct Profile {
    /// `(stack, weight)` rows, heaviest first.
    pub rows: Vec<(String, u64)>,
    title: String,
    unit: &'static str,
}

impl Profile {
    /// The cpu view: µs of span wall time per stack. `dropped` is the
    /// number of events the rings lost to wrap-around over the window.
    pub fn cpu(events: &[Event], dropped: u64) -> Profile {
        let rows = folded_spans(events, Weight::WallUs);
        let total: u64 = rows.iter().map(|(_, us)| us).sum();
        Profile {
            rows,
            title: format!(
                "CPU view · {total} µs of span wall time · \
                 {dropped} events lost to ring wrap-around"
            ),
            unit: "µs",
        }
    }

    /// The heap view: allocated bytes per stack, plus an [`UNTRACKED`]
    /// row holding whatever of `window_bytes` (the
    /// [`global_heap_stats`] alloc-byte delta over the window) no
    /// recorded span accounts for.
    pub fn heap(events: &[Event], window_bytes: u64) -> Profile {
        let mut rows = folded_spans(events, Weight::Bytes);
        rows.retain(|(_, bytes)| *bytes > 0);
        let named: u64 = rows.iter().map(|(_, bytes)| bytes).sum();
        let untracked = window_bytes.saturating_sub(named);
        if untracked > 0 {
            rows.push((UNTRACKED.to_string(), untracked));
        }
        let total = named + untracked;
        Profile {
            rows,
            title: format!("Heap · {total} bytes allocated"),
            unit: "bytes",
        }
    }

    /// Sum of the rows' weights.
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|(_, weight)| weight).sum()
    }

    /// Render as a flamegraph SVG, or as folded text.
    pub fn render(&self, svg: bool) -> String {
        if svg {
            crate::flame::flamegraph_svg(&self.title, self.unit, &self.rows)
        } else {
            folded_text(&self.rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_charges_to_innermost_span() {
        let _g = crate::trace::tests::lock();
        crate::trace::clear();
        crate::trace::set_enabled(true);
        {
            let _outer = crate::span!("test.profile.outer");
            let _span = crate::span!("test.profile.heapspan");
            std::hint::black_box(vec![0u8; 4096]);
        }
        crate::trace::set_enabled(false);
        let rows = Profile::heap(&crate::trace::take_events(), 0).rows;
        let named = rows
            .iter()
            .find(|(stack, _)| stack == "test.profile.outer;test.profile.heapspan")
            .expect("heap bytes attributed to the span");
        assert!(named.1 >= 4096, "at least the vec charged: {}", named.1);
    }
}
