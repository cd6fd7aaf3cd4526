//! Continuous profiling: a span-stack CPU sampler and heap attribution.
//!
//! Two profile sources share one enablement bit (see [`crate::trace`]):
//!
//! * **Span-stack sampler (the "cpu" view).** Every instrumented thread
//!   publishes its current span stack into a fixed-size per-thread
//!   [`StackSlot`] guarded by a seqlock — the same write-side discipline
//!   as the flight recorder in [`crate::flight`]. A dedicated sampler
//!   thread wakes at a configurable rate (default
//!   [`DEFAULT_SAMPLE_HZ`]), snapshots every live thread's stack without
//!   stopping it, and accumulates folded stacks (`a;b;c count`) in a
//!   sharded hash table. No signals are involved, so the sampler is
//!   portable and async-signal-safety is a non-issue by construction.
//!
//!   The samples are **wall-clock**, not on-CPU: a thread is charged for
//!   every tick its span stack is open, including time spent blocked on
//!   a lock, on I/O, or sleeping. For spans that never block the view
//!   coincides with CPU time; for ones that do (lock waits, the debug
//!   `sleep` op) it shows where *wall* time goes — which is usually the
//!   more actionable number for latency work, and is what the "wall"
//!   labels in the rendered output mean.
//!
//! * **Heap attribution.** [`CountingAlloc`] is a `#[global_allocator]`
//!   wrapper over the system allocator. While profiling is enabled it
//!   keeps per-thread alloc byte/count tallies; the tallies are flushed
//!   to the folded heap table at every span push/pop, charging the bytes
//!   to the innermost span that was open while they were allocated.
//!   Bytes allocated outside any span land in an explicit
//!   [`UNTRACKED`] bucket computed residually against the global
//!   allocator totals, so the folded heap view always sums to what the
//!   allocator actually handed out.
//!
//! ## The overhead contract
//!
//! While profiling is disabled, a span entry costs the one relaxed
//! atomic load it always cost (the combined state word in
//! [`crate::trace`]) and an allocation costs one relaxed atomic load in
//! [`CountingAlloc`] before deferring to the system allocator. No
//! timestamps, no locks, no thread-locals are touched on either disabled
//! path.
//!
//! While profiling is enabled, span push/pop writes two words under a
//! seqlock in a thread-local slot, and the sampler's cost is bounded by
//! the sample rate times the live thread count — independent of request
//! throughput.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampler wake rate, in Hz. 99 (not 100) keeps samples from
/// beating against 10 ms-periodic work, the classic profiler-rate trick.
pub const DEFAULT_SAMPLE_HZ: u32 = 99;

/// Deepest published span stack. Deeper nesting is truncated for the
/// sampler (pushes beyond the limit still count depth so pops stay
/// balanced); 32 comfortably covers the serve → engine → session →
/// backend nesting, which peaks below 12.
pub const MAX_STACK_DEPTH: usize = 32;

/// Folded-stack bucket charged with bytes allocated outside any span.
pub const UNTRACKED: &str = "<untracked>";

const SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Per-thread published span stacks (seqlock, owner-writer / sampler-reader)
// ---------------------------------------------------------------------------

/// One published stack frame: the raw `(ptr, len)` parts of a
/// `&'static str` span name, held as relaxed atomics so the sampler's
/// concurrent reads are defined even when they race a write (the seqlock
/// then discards the torn copy — tearing is detected, never UB).
struct Frame {
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
}

/// One thread's published span stack. The owning thread is the only
/// writer; the sampler reads under the seqlock protocol (odd sequence =
/// write in progress; a copy is kept only when the sequence was even and
/// unchanged around it). All data fields are relaxed atomics — the
/// seqlock only provides *consistency* (via the fences in
/// [`StackSlot::begin_write`]/[`read_stack`]); per-word atomicity is
/// what makes the racing reads defined at all. Frames are reconstructed
/// into `&str`s only after a validated read, so a torn read never
/// materializes an invalid `&str`.
struct StackSlot {
    seq: AtomicU64,
    depth: AtomicUsize,
    frames: [Frame; MAX_STACK_DEPTH],
    alive: AtomicBool,
}

impl StackSlot {
    fn new() -> StackSlot {
        StackSlot {
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| Frame {
                ptr: AtomicPtr::new(std::ptr::null_mut()),
                len: AtomicUsize::new(0),
            }),
            alive: AtomicBool::new(true),
        }
    }

    /// Owner-side: mark a write in progress (sequence becomes odd). The
    /// release fence keeps the subsequent relaxed data stores from
    /// becoming visible before the odd sequence: a reader that observes
    /// any of them (relaxed loads + acquire fence) then re-reads `seq`
    /// and sees the odd value, so the copy is discarded. A plain release
    /// *store* would not do this — release only orders *earlier* ops.
    #[inline]
    fn begin_write(&self) -> u64 {
        let odd = self.seq.load(Ordering::Relaxed).wrapping_add(1);
        self.seq.store(odd, Ordering::Relaxed);
        fence(Ordering::Release);
        odd
    }

    /// Owner-side: publish the write (sequence becomes even again). The
    /// release store orders the preceding data stores before it.
    #[inline]
    fn end_write(&self, odd: u64) {
        self.seq.store(odd.wrapping_add(1), Ordering::Release);
    }
}

/// Sampler-side seqlock read of one slot's stack. Returns the frame
/// names (innermost last) or `None` if the read kept tearing.
fn read_stack(slot: &StackSlot) -> Option<Vec<&'static str>> {
    for _ in 0..4 {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 % 2 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let depth = slot.depth.load(Ordering::Relaxed).min(MAX_STACK_DEPTH);
        let mut raw = [(std::ptr::null::<u8>(), 0usize); MAX_STACK_DEPTH];
        for (copy, frame) in raw[..depth].iter_mut().zip(&slot.frames) {
            *copy = (
                frame.ptr.load(Ordering::Relaxed) as *const u8,
                frame.len.load(Ordering::Relaxed),
            );
        }
        // The acquire fence keeps the relaxed data loads above from
        // sinking below the `seq` re-read: if any of them raced a
        // writer's store, the writer's preceding odd sequence (release
        // fence in `begin_write`) is visible to the load below and the
        // copy is discarded.
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 != s2 {
            continue;
        }
        let mut out = Vec::with_capacity(depth);
        for &(ptr, len) in &raw[..depth] {
            if ptr.is_null() {
                return None;
            }
            // SAFETY: validated copy of the raw parts of a `&'static str`.
            out.push(unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len))
            });
        }
        return Some(out);
    }
    None
}

fn slots() -> &'static Mutex<Vec<Arc<StackSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<StackSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Owns the thread's registration; dropping (thread exit) retires the
/// slot so the sampler stops reading a stack that can no longer change.
struct SlotGuard(Arc<StackSlot>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let odd = self.0.begin_write();
        self.0.depth.store(0, Ordering::Relaxed);
        self.0.end_write(odd);
        self.0.alive.store(false, Ordering::Release);
    }
}

thread_local! {
    static SLOT: RefCell<Option<SlotGuard>> = const { RefCell::new(None) };
}

/// Has the *current thread* registered a published stack slot? Stays
/// `false` for threads that never entered a span while profiling was
/// enabled — the observable half of the disabled-path contract.
pub fn thread_slot_allocated() -> bool {
    SLOT.try_with(|s| s.borrow().is_some()).unwrap_or(false)
}

/// Push a span name onto this thread's published stack. Called from
/// [`crate::trace::Span::enter`] when the profile bit is set. Returns
/// whether a frame was pushed (false only during thread teardown, when
/// the thread-local is gone); the caller pops iff this returned true.
pub(crate) fn push_frame(name: &'static str) -> bool {
    SLOT.try_with(|s| {
        let mut slot = s.borrow_mut();
        let guard = slot.get_or_insert_with(|| {
            let arc = Arc::new(StackSlot::new());
            slots().lock().unwrap().push(Arc::clone(&arc));
            SlotGuard(arc)
        });
        let slot = &guard.0;
        flush_pending(slot);
        // Owner-side relaxed loads/stores: this thread is the only writer.
        let depth = slot.depth.load(Ordering::Relaxed);
        let odd = slot.begin_write();
        if depth < MAX_STACK_DEPTH {
            slot.frames[depth]
                .ptr
                .store(name.as_ptr() as *mut u8, Ordering::Relaxed);
            slot.frames[depth].len.store(name.len(), Ordering::Relaxed);
        }
        slot.depth.store(depth + 1, Ordering::Relaxed);
        slot.end_write(odd);
        true
    })
    .unwrap_or(false)
}

/// Pop the innermost frame pushed by [`push_frame`]. Pending heap
/// tallies are flushed first so they are charged to the span that was
/// open while the bytes were allocated.
pub(crate) fn pop_frame() {
    let _ = SLOT.try_with(|s| {
        let slot = s.borrow();
        if let Some(guard) = slot.as_ref() {
            let slot = &guard.0;
            flush_pending(slot);
            let depth = slot.depth.load(Ordering::Relaxed);
            if depth == 0 {
                return;
            }
            let odd = slot.begin_write();
            slot.depth.store(depth - 1, Ordering::Relaxed);
            slot.end_write(odd);
        }
    });
}

/// Owner-side copy of this thread's current stack (no seqlock needed:
/// the owner is the only writer, so relaxed loads see its own stores).
fn own_stack(slot: &StackSlot) -> Vec<&'static str> {
    let depth = slot.depth.load(Ordering::Relaxed).min(MAX_STACK_DEPTH);
    slot.frames[..depth]
        .iter()
        .map(|frame| {
            let ptr = frame.ptr.load(Ordering::Relaxed) as *const u8;
            let len = frame.len.load(Ordering::Relaxed);
            // SAFETY: owner-side read of the raw parts this thread wrote
            // from `&'static str` names.
            unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Sharded folded-stack tables
// ---------------------------------------------------------------------------

struct FoldedEntry {
    frames: Vec<&'static str>,
    value: u64,
    count: u64,
}

/// Hash buckets keyed by an FNV-1a hash of the frame pointer sequence;
/// collisions resolved by exact frame comparison inside the bucket.
struct FoldedTable {
    shards: [Mutex<HashMap<u64, Vec<FoldedEntry>>>; SHARDS],
}

impl FoldedTable {
    fn new() -> FoldedTable {
        FoldedTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn charge(&self, frames: &[&'static str], value: u64, count: u64) {
        let hash = stack_hash(frames);
        let mut shard = self.shards[(hash as usize) % SHARDS].lock().unwrap();
        let bucket = shard.entry(hash).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.frames == frames) {
            entry.value += value;
            entry.count += count;
        } else {
            bucket.push(FoldedEntry {
                frames: frames.to_vec(),
                value,
                count,
            });
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }

    /// Drain into `(folded-stack, value, count)` rows sorted by
    /// descending value then stack text for deterministic output.
    fn rows(&self) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for bucket in shard.lock().unwrap().values() {
                for entry in bucket {
                    out.push((entry.frames.join(";"), entry.value, entry.count));
                }
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

fn stack_hash(frames: &[&'static str]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for frame in frames {
        for &part in &[frame.as_ptr() as u64, frame.len() as u64] {
            hash ^= part;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

fn cpu_table() -> &'static FoldedTable {
    static TABLE: OnceLock<FoldedTable> = OnceLock::new();
    TABLE.get_or_init(FoldedTable::new)
}

fn heap_table() -> &'static FoldedTable {
    static TABLE: OnceLock<FoldedTable> = OnceLock::new();
    TABLE.get_or_init(FoldedTable::new)
}

// ---------------------------------------------------------------------------
// Heap attribution: the counting allocator and per-thread tallies
// ---------------------------------------------------------------------------

static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// `G_ALLOC_BYTES` at the last [`reset`], for the residual `<untracked>`
/// computation.
static HEAP_BASE_BYTES: AtomicU64 = AtomicU64::new(0);

struct HeapTl {
    /// Cumulative bytes/count allocated by this thread while profiling
    /// was enabled (never reset; consumers take deltas).
    bytes: Cell<u64>,
    count: Cell<u64>,
    /// Bytes/count since the last span transition, waiting to be charged
    /// to the current stack.
    pending_bytes: Cell<u64>,
    pending_count: Cell<u64>,
}

thread_local! {
    static HEAP_TL: HeapTl = const {
        HeapTl {
            bytes: Cell::new(0),
            count: Cell::new(0),
            pending_bytes: Cell::new(0),
            pending_count: Cell::new(0),
        }
    };
}

/// Charge the thread's pending allocation tally to its current stack.
/// The pending cells are read-and-zeroed *before* the (possibly
/// allocating) table insert, so allocator re-entrancy simply accumulates
/// a fresh pending tally for the next flush instead of recursing.
fn flush_pending(slot: &StackSlot) {
    let (bytes, count) = HEAP_TL
        .try_with(|t| (t.pending_bytes.take(), t.pending_count.take()))
        .unwrap_or((0, 0));
    if bytes == 0 && count == 0 {
        return;
    }
    let stack = own_stack(slot);
    if stack.is_empty() {
        // Outside any span: leave it to the residual <untracked> bucket.
        return;
    }
    heap_table().charge(&stack, bytes, count);
}

/// Process-wide allocator totals (see [`global_heap_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes handed out while profiling was enabled.
    pub alloc_bytes: u64,
    /// Allocations while profiling was enabled.
    pub alloc_count: u64,
    /// Bytes returned while profiling was enabled.
    pub dealloc_bytes: u64,
    /// Deallocations while profiling was enabled.
    pub dealloc_count: u64,
}

/// Process-wide [`CountingAlloc`] totals. Counts only advance while
/// profiling is enabled — the disabled allocator path is one relaxed
/// atomic load — so these are windowed totals, not lifetime totals.
pub fn global_heap_stats() -> HeapStats {
    HeapStats {
        alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed),
        alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_bytes: G_DEALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_count: G_DEALLOC_COUNT.load(Ordering::Relaxed),
    }
}

/// This thread's cumulative `(bytes, count)` allocation tally while
/// profiling was enabled. Monotonic; take a delta around a work item to
/// attribute its allocations (the serve worker does this per request).
pub fn thread_alloc_stats() -> (u64, u64) {
    HEAP_TL
        .try_with(|t| (t.bytes.get(), t.count.get()))
        .unwrap_or((0, 0))
}

/// A `#[global_allocator]` wrapper over the system allocator that
/// attributes allocations to spans while profiling is enabled.
///
/// Install it per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rzen_obs::profile::CountingAlloc = rzen_obs::profile::CountingAlloc;
/// ```
///
/// While profiling is *disabled* every call is one relaxed atomic load
/// plus the system allocator — no thread-local access, no counting.
/// While enabled, global and per-thread tallies advance; a `realloc`
/// counts as an allocation of the new size plus a deallocation of the
/// old, so byte totals stay conserved.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note_alloc(size: usize) {
        if !crate::trace::profiling() {
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
        if !crate::trace::profiling() {
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
// The sampler thread
// ---------------------------------------------------------------------------

struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

fn sampler() -> &'static Mutex<Option<Sampler>> {
    static SAMPLER: OnceLock<Mutex<Option<Sampler>>> = OnceLock::new();
    SAMPLER.get_or_init(|| Mutex::new(None))
}

/// Start the profiler: sets the profile bit (spans begin publishing
/// their stacks, the allocator begins counting) and spawns the sampler
/// thread at `hz` wakes per second (clamped to 1..=10 000). Returns
/// `false` without side effects if the profiler is already running —
/// start/stop are idempotent, not reference-counted.
pub fn start(hz: u32) -> bool {
    let mut guard = sampler().lock().unwrap();
    if guard.is_some() {
        return false;
    }
    crate::trace::set_profiling(true);
    let stop = Arc::new(AtomicBool::new(false));
    let period = Duration::from_nanos(1_000_000_000 / u64::from(hz.clamp(1, 10_000)));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("rzen-profiler".into())
        .spawn(move || sampler_loop(period, stop2))
        .expect("spawn profiler sampler thread");
    *guard = Some(Sampler { stop, handle });
    true
}

/// Stop the profiler: clears the profile bit and joins the sampler
/// thread. Returns `false` if it was not running (stop-without-start is
/// a no-op). Accumulated folded tables are kept for rendering; call
/// [`reset`] to clear them.
pub fn stop() -> bool {
    let taken = sampler().lock().unwrap().take();
    match taken {
        Some(sampler) => {
            crate::trace::set_profiling(false);
            sampler.stop.store(true, Ordering::Relaxed);
            let _ = sampler.handle.join();
            true
        }
        None => false,
    }
}

/// Is the sampler thread currently running?
pub fn is_running() -> bool {
    sampler().lock().unwrap().is_some()
}

fn sampler_loop(period: Duration, stop: Arc<AtomicBool>) {
    let samples = crate::counter!(
        "profile.samples_total",
        "span-stack samples accumulated by the CPU sampler"
    );
    let dropped = crate::counter!(
        "profile.dropped_samples_total",
        "sampler reads discarded because the seqlock kept tearing"
    );
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(period);
        let live: Vec<Arc<StackSlot>> = {
            let mut all = slots().lock().unwrap();
            all.retain(|s| s.alive.load(Ordering::Acquire));
            all.clone()
        };
        for slot in live {
            match read_stack(&slot) {
                Some(stack) if !stack.is_empty() => {
                    cpu_table().charge(&stack, 1, 1);
                    samples.inc();
                }
                Some(_) => {}
                None => dropped.inc(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reset and rendering
// ---------------------------------------------------------------------------

/// Clear both folded tables and re-base the residual `<untracked>`
/// computation at the current global allocator totals. Per-thread
/// pending tallies from before the reset may still flush into the fresh
/// table at the next span transition; the residual computation saturates
/// rather than going negative.
pub fn reset() {
    cpu_table().clear();
    heap_table().clear();
    HEAP_BASE_BYTES.store(G_ALLOC_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The accumulated "cpu" view — wall-clock span-stack samples, see the
/// module docs — as `(folded-stack, samples)` rows, sorted by descending
/// sample count.
pub fn cpu_folded() -> Vec<(String, u64)> {
    cpu_table()
        .rows()
        .into_iter()
        .map(|(stack, value, _)| (stack, value))
        .collect()
}

/// The accumulated heap view as `(folded-stack, bytes, allocations)`
/// rows, sorted by descending bytes, with a final [`UNTRACKED`] row
/// holding the residual between the global allocator totals (since the
/// last [`reset`]) and the sum of the named rows.
pub fn heap_folded() -> Vec<(String, u64, u64)> {
    // Flush this thread's own pending tally so a caller measuring around
    // its own spans sees them attributed.
    let _ = SLOT.try_with(|s| {
        if let Some(guard) = s.borrow().as_ref() {
            flush_pending(&guard.0);
        }
    });
    let mut rows = heap_table().rows();
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

/// Render the CPU view as folded-stack text (`a;b;c 42` per line), the
/// format consumed by every flamegraph toolchain.
pub fn render_folded_cpu() -> String {
    let mut out = String::new();
    for (stack, samples) in cpu_folded() {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&samples.to_string());
        out.push('\n');
    }
    out
}

/// Render the heap view as folded-stack text weighted by bytes
/// allocated, including the residual [`UNTRACKED`] line.
pub fn render_folded_heap() -> String {
    let mut out = String::new();
    for (stack, bytes, _) in heap_folded() {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&bytes.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the global profile bit must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn start_stop_idempotent() {
        let _g = lock();
        assert!(!stop(), "stop without start is a no-op");
        assert!(start(997));
        assert!(!start(997), "double start refused");
        assert!(is_running());
        assert!(stop());
        assert!(!stop(), "double stop refused");
        assert!(!is_running());
    }

    #[test]
    fn sampler_folds_span_stacks() {
        let _g = lock();
        reset();
        assert!(start(2_000));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut seen = false;
        while !seen && std::time::Instant::now() < deadline {
            {
                let _outer = crate::span!("test.profile.outer");
                let _inner = crate::span!("test.profile.inner");
                for _ in 0..200 {
                    std::hint::black_box(vec![0u8; 64]);
                }
                // Samples are wall-clock: the nested stack stays published
                // while this thread sleeps, so the sampler cannot miss it
                // even when test parallelism delays its wakes.
                std::thread::sleep(Duration::from_millis(2));
            }
            seen = cpu_folded()
                .iter()
                .any(|(stack, _)| stack == "test.profile.outer;test.profile.inner");
        }
        assert!(stop());
        assert!(seen, "sampler observed the nested stack");
        let folded = render_folded_cpu();
        assert!(folded.contains("test.profile.outer"));
    }

    #[test]
    fn heap_charges_to_innermost_span() {
        let _g = lock();
        reset();
        crate::trace::set_profiling(true);
        {
            let _span = crate::span!("test.profile.heapspan");
            std::hint::black_box(vec![0u8; 4096]);
        }
        crate::trace::set_profiling(false);
        let rows = heap_folded();
        let named = rows
            .iter()
            .find(|(stack, _, _)| stack == "test.profile.heapspan")
            .expect("heap bytes attributed to the span");
        assert!(named.1 >= 4096, "at least the vec charged: {}", named.1);
    }

    #[test]
    fn torn_stack_reads_are_discarded() {
        let slot = StackSlot::new();
        let odd = slot.begin_write();
        assert!(read_stack(&slot).is_none(), "odd sequence rejected");
        slot.end_write(odd);
        assert_eq!(read_stack(&slot), Some(Vec::new()));
    }
}
