//! Lightweight spans and instant events in per-thread ring buffers.
//!
//! ## The overhead contract
//!
//! Every recording site — [`Span::enter`], [`instant`], and friends —
//! starts with a single relaxed atomic load of the one recording switch
//! ([`enabled`]) and returns immediately when it is off. The *disabled*
//! path therefore
//! costs one load plus one well-predicted branch: no allocation, no lock,
//! no `Instant::now()`. This is the contract that lets the BDD manager's
//! `mk()` and the CDCL solver's `propagate()` carry trace hooks
//! permanently; `tests/obs.rs` in the integration crate asserts it by
//! driving both hot paths with tracing disabled and checking that no
//! thread buffer was ever allocated and no event recorded. The same
//! switch gates [`crate::profile::CountingAlloc`], so an allocation
//! also pays one load while recording is off.
//!
//! When tracing is enabled, a recording thread lazily allocates one
//! fixed-capacity ring buffer (registered globally so exporters can reach
//! it after the thread exits) and writes events with monotonic
//! timestamps taken against a process-wide epoch. Each span event also
//! carries the bytes its thread allocated while it was open
//! ([`Event::alloc_bytes`]); the recorder's own ring growth is not
//! counted. The ring wraps: a storm
//! of events costs memory proportional to the thread count, never the
//! event count, and the `dropped` tally records how much history was lost.
//!
//! The rings are also both profile views' only source:
//! [`crate::export::folded_spans`] folds a window's span events into
//! exact `a;b;c weight` stacks of span wall time or allocated bytes. Two
//! limits carry over from the rings: a span still open when the window
//! closes is not recorded yet, and only the last [`DEFAULT_RING_CAPACITY`]
//! events per thread survive (`trace.dropped_events_total` counts the
//! rest).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// The recording switch: span events go into the per-thread rings and
/// [`crate::profile::CountingAlloc`] counts.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Is recording (tracing and allocation counting) on? One relaxed
/// atomic load — the whole disabled-path cost of every instrumentation
/// site and every allocation.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off: span events and allocation counting.
/// Enabling pins the process-wide epoch (if not already pinned) so
/// timestamps are comparable across threads. Events already recorded
/// are kept either way; use [`take_events`] or [`clear`] to drain them.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Total events recorded process-wide since startup (including events
/// since overwritten by ring wrap-around).
pub fn events_recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One `key = value` payload on an event. An empty key means the slot is
/// unused. Payloads are plain `u64`s by design: no formatting or
/// allocation happens on the recording path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Arg {
    /// Argument name (`""` = unused slot).
    pub key: &'static str,
    /// Argument value.
    pub val: u64,
}

/// Event kind, mirroring the Chrome trace-event phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A duration span (`"ph": "X"`).
    Span,
    /// A point-in-time marker (`"ph": "i"`).
    Instant,
}

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Static event name, dotted by subsystem (`"bdd.solve"`).
    pub name: &'static str,
    /// Span or instant.
    pub phase: Phase,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u32,
    /// Up to two `u64` payloads.
    pub args: [Arg; 2],
    /// Bytes the recording thread allocated while the span was open,
    /// its children's included (0 for instants).
    pub alloc_bytes: u64,
}

struct Ring {
    events: Vec<Event>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            crate::counter!(
                "trace.dropped_events_total",
                "span-ring events overwritten by wrap-around (trace history lost)"
            )
            .inc();
        }
    }

    fn drain_in_order(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        self.events.clear();
        self.head = 0;
        out
    }
}

fn buffers() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<(u32, Arc<Mutex<Ring>>)>> = const { RefCell::new(None) };
}

/// Has the *current thread* allocated its trace ring buffer? Stays
/// `false` for threads that never recorded an event — the observable
/// half of the "no allocation while disabled" contract.
pub fn thread_buffer_allocated() -> bool {
    LOCAL.with(|l| l.borrow().is_some())
}

fn record(ev: Event) {
    crate::profile::uncounted(|| {
        LOCAL.with(|l| {
            let mut slot = l.borrow_mut();
            let (tid, buf) = slot.get_or_insert_with(|| {
                let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                let buf = Arc::new(Mutex::new(Ring {
                    events: Vec::new(),
                    capacity: DEFAULT_RING_CAPACITY,
                    head: 0,
                    dropped: 0,
                }));
                buffers().lock().unwrap().push(Arc::clone(&buf));
                (tid, buf)
            });
            buf.lock().unwrap().push(Event { tid: *tid, ..ev });
        });
    });
    RECORDED.fetch_add(1, Ordering::Relaxed);
}

fn record_instant(name: &'static str, args: [Arg; 2]) {
    record(Event {
        name,
        phase: Phase::Instant,
        start_ns: now_ns(),
        dur_ns: 0,
        tid: 0,
        args,
        alloc_bytes: 0,
    });
}

/// Record an instant event (no payload). No-op while tracing is disabled.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        record_instant(name, [Arg::default(); 2]);
    }
}

/// Record an instant event with one payload. No-op while disabled.
#[inline]
pub fn instant1(name: &'static str, key: &'static str, val: u64) {
    if enabled() {
        record_instant(name, [Arg { key, val }, Arg::default()]);
    }
}

/// Record an instant event with two payloads. No-op while disabled.
#[inline]
pub fn instant2(name: &'static str, k0: &'static str, v0: u64, k1: &'static str, v1: u64) {
    if enabled() {
        record_instant(name, [Arg { key: k0, val: v0 }, Arg { key: k1, val: v1 }]);
    }
}

/// An RAII span: created by [`Span::enter`] (usually via the
/// [`span!`](crate::span) macro), records one duration event when
/// dropped. If tracing was disabled at entry the guard is inert — entry
/// cost was one atomic load — even if tracing is enabled before the drop.
#[must_use = "a span measures the scope it is bound to; bind it with `let _span = ...`"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    /// The thread's allocation tally at entry.
    alloc0: u64,
    args: [Arg; 2],
    active: bool,
}

impl Span {
    /// Begin a span. While recording is off this is one relaxed atomic
    /// load and the returned guard does nothing on drop; while on, it
    /// notes the time and the thread's allocation tally.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let active = enabled();
        let (start_ns, alloc0) = if active {
            (now_ns(), crate::profile::thread_alloc_stats().0)
        } else {
            (0, 0)
        };
        Span {
            name,
            start_ns,
            alloc0,
            args: [Arg::default(); 2],
            active,
        }
    }

    /// Attach a payload (up to two; extras are silently ignored).
    #[inline]
    pub fn arg(mut self, key: &'static str, val: u64) -> Span {
        if self.active {
            for slot in &mut self.args {
                if slot.key.is_empty() {
                    *slot = Arg { key, val };
                    break;
                }
            }
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            let alloc_bytes = crate::profile::thread_alloc_stats()
                .0
                .saturating_sub(self.alloc0);
            record(Event {
                name: self.name,
                phase: Phase::Span,
                start_ns: self.start_ns,
                dur_ns: now_ns().saturating_sub(self.start_ns),
                tid: 0,
                args: self.args,
                alloc_bytes,
            });
        }
    }
}

/// Begin a [`Span`]: `span!("name")`, `span!("name", "k" => v)`, or
/// `span!("name", "k0" => v0, "k1" => v1)`. Bind the result:
/// `let _span = span!(...);`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name)
    };
    ($name:expr, $k0:expr => $v0:expr) => {
        $crate::trace::Span::enter($name).arg($k0, $v0 as u64)
    };
    ($name:expr, $k0:expr => $v0:expr, $k1:expr => $v1:expr) => {
        $crate::trace::Span::enter($name)
            .arg($k0, $v0 as u64)
            .arg($k1, $v1 as u64)
    };
}

/// Drain every thread's ring buffer into one list sorted by start time.
/// Events recorded after this call land in fresh (empty) rings.
pub fn take_events() -> Vec<Event> {
    let bufs = buffers().lock().unwrap();
    let mut out = Vec::new();
    for buf in bufs.iter() {
        out.append(&mut buf.lock().unwrap().drain_in_order());
    }
    out.sort_by_key(|e| e.start_ns);
    out
}

/// Total events overwritten by ring wrap-around (history lost), summed
/// over all threads.
pub fn events_dropped() -> u64 {
    let bufs = buffers().lock().unwrap();
    bufs.iter().map(|b| b.lock().unwrap().dropped).sum()
}

/// Discard all recorded events (keeps the buffers and the enabled flag).
pub fn clear() {
    for buf in buffers().lock().unwrap().iter() {
        let mut ring = buf.lock().unwrap();
        ring.events.clear();
        ring.head = 0;
        ring.dropped = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Tests that flip the global enabled flag must not interleave.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(false);
        let before = events_recorded();
        instant("test.trace.nothing");
        instant2("test.trace.nothing", "a", 1, "b", 2);
        {
            let _s = crate::span!("test.trace.nothing", "x" => 9);
        }
        assert_eq!(events_recorded(), before);
    }

    #[test]
    fn span_and_instant_round_trip() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let _s = crate::span!("test.trace.outer", "n" => 3);
            instant1("test.trace.mark", "v", 7);
        }
        set_enabled(false);
        let events = take_events();
        let span = events
            .iter()
            .find(|e| e.name == "test.trace.outer")
            .expect("span recorded");
        assert_eq!(span.phase, Phase::Span);
        assert_eq!(span.args[0], Arg { key: "n", val: 3 });
        let mark = events
            .iter()
            .find(|e| e.name == "test.trace.mark")
            .expect("instant recorded");
        assert_eq!(mark.phase, Phase::Instant);
        assert_eq!(mark.dur_ns, 0);
        assert!(span.start_ns <= mark.start_ns, "sorted by start time");
    }

    #[test]
    fn ring_wraps_without_growing() {
        let mut ring = Ring {
            events: Vec::new(),
            capacity: 4,
            head: 0,
            dropped: 0,
        };
        for i in 0..10u64 {
            ring.push(Event {
                name: "w",
                phase: Phase::Instant,
                start_ns: i,
                dur_ns: 0,
                tid: 0,
                args: [Arg::default(); 2],
                alloc_bytes: 0,
            });
        }
        assert_eq!(ring.dropped, 6);
        let drained = ring.drain_in_order();
        let starts: Vec<u64> = drained.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9], "oldest events overwritten");
    }

    #[test]
    fn span_inert_if_disabled_at_entry() {
        let _g = lock();
        set_enabled(false);
        let s = Span::enter("test.trace.inert");
        set_enabled(true);
        let before = events_recorded();
        drop(s);
        assert_eq!(events_recorded(), before, "guard captured disabled state");
        set_enabled(false);
    }
}
