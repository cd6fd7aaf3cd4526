//! Lightweight spans and instant events in per-thread ring buffers,
//! recorded while at least one [`Capture`] is live.
//!
//! ## The overhead contract
//!
//! Every recording site — [`Span::enter`], [`instant`], and friends —
//! starts with a single relaxed atomic load ([`enabled`]: is any capture
//! live?) and returns immediately when none is. The *disabled* path
//! therefore costs one load plus one well-predicted branch: no
//! allocation, no lock, no `Instant::now()`. This is the contract that
//! lets the BDD manager's `mk()` and the CDCL solver's `propagate()`
//! carry trace hooks permanently; `tests/obs.rs` in the integration
//! crate asserts it by driving both hot paths with no capture live and
//! checking that no thread buffer was ever allocated and no event
//! recorded. The same load gates [`crate::profile::CountingAlloc`], so
//! an allocation also pays one load while nothing records.
//!
//! ## Recording
//!
//! A recording thread lazily allocates one fixed-capacity ring buffer
//! (registered globally so a capture can read it after the thread exits)
//! and writes events with monotonic timestamps taken against a
//! process-wide epoch. Each span event also carries the bytes its thread
//! allocated while it was open ([`Event::alloc_bytes`]); the recorder's
//! own ring growth is not counted. The ring wraps: a storm of events
//! costs memory proportional to the thread count, never the event
//! count, and `trace.dropped_events_total` counts the history lost.
//!
//! ## Captures
//!
//! [`Capture::start`] opens a window and [`Capture::finish`] closes it,
//! returning a [`Window`]: the events that *started* inside it, copied
//! out of every ring without draining them, plus how many of them ring
//! wrap-around overwrote and the bytes allocated over it. Captures
//! overlap freely — `RZEN_TRACE=FILE` holds one for a process's whole
//! life while `/debug/trace` takes short ones — and none blocks or
//! steals from another. Two limits come from
//! the rings: a span still open when the window closes is not recorded
//! yet, and only the last [`DEFAULT_RING_CAPACITY`] events per thread
//! survive, so a long capture keeps only its tail.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// Live [`Capture`]s. While nonzero, span events go into the per-thread
/// rings and [`crate::profile::CountingAlloc`] counts. Relaxed
/// throughout: the count publishes no data (the rings have their own
/// locks); a thread that sees it change late only skips or adds events
/// at a window's edge, and `finish` filters by timestamp.
static LIVE: AtomicU32 = AtomicU32::new(0);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Is recording (tracing and allocation counting) on, i.e. is any
/// [`Capture`] live? One relaxed atomic load — the whole disabled-path
/// cost of every instrumentation site and every allocation.
#[inline(always)]
pub fn enabled() -> bool {
    LIVE.load(Ordering::Relaxed) > 0
}

/// Total events recorded process-wide since startup (including events
/// since overwritten by ring wrap-around).
pub fn events_recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

fn dropped_counter() -> &'static crate::Counter {
    crate::counter!(
        "trace.dropped_events_total",
        "span-ring events overwritten by wrap-around (trace history lost)"
    )
}

/// One recording window. Recording is on while any capture is live;
/// captures nest and overlap without affecting each other's results.
#[must_use = "recording stops when the capture is dropped; call `finish` for its events"]
pub struct Capture {
    start_ns: u64,
    /// Each registered ring's push count at start, by registry index;
    /// rings registered later started at zero.
    pushed0: Vec<u64>,
    alloc0: u64,
}

/// What a [`Capture`] recorded.
#[derive(Debug, Default)]
pub struct Window {
    /// Events that started inside the window, sorted by start time.
    pub events: Vec<Event>,
    /// Events that started inside the window but were overwritten by
    /// ring wrap-around before it closed.
    pub dropped: u64,
    /// Bytes the process allocated during the window.
    pub alloc_bytes: u64,
}

impl Capture {
    /// Open a window and turn recording on until it is finished or
    /// dropped.
    pub fn start() -> Capture {
        let pushed0 = buffers()
            .lock()
            .expect("trace ring registry poisoned")
            .iter()
            .map(|buf| buf.lock().expect("trace ring poisoned").pushed)
            .collect();
        let cap = Capture {
            start_ns: now_ns(),
            pushed0,
            alloc0: crate::profile::global_heap_stats().alloc_bytes,
        };
        LIVE.fetch_add(1, Ordering::Relaxed);
        cap
    }

    /// Start a capture if the `RZEN_TRACE` environment variable is set to
    /// anything other than empty or `0`. The second half is the export
    /// path it names (any value other than `1`).
    pub fn from_env() -> Option<(Capture, Option<String>)> {
        let v = std::env::var("RZEN_TRACE").ok()?;
        match v.as_str() {
            "" | "0" => None,
            "1" => Some((Capture::start(), None)),
            _ => Some((Capture::start(), Some(v))),
        }
    }

    /// Close the window and copy out what it recorded. The rings are
    /// left as they are, so other live captures still see every event.
    pub fn finish(self) -> Window {
        let end_ns = now_ns();
        let alloc_bytes = crate::profile::global_heap_stats().alloc_bytes - self.alloc0;
        let window = self.start_ns..end_ns;
        let mut events: Vec<Event> = Vec::new();
        let mut dropped = 0;
        for (i, buf) in buffers()
            .lock()
            .expect("trace ring registry poisoned")
            .iter()
            .enumerate()
        {
            let ring = buf.lock().expect("trace ring poisoned");
            // The ring holds its last `capacity` pushes; any earlier
            // push of this window was overwritten.
            let pushed = ring.pushed - self.pushed0.get(i).copied().unwrap_or(0);
            dropped += pushed.saturating_sub(ring.capacity as u64);
            events.extend(ring.in_order().filter(|e| window.contains(&e.start_ns)));
        }
        events.sort_by_key(|e| e.start_ns);
        Window {
            events,
            dropped,
            alloc_bytes,
        }
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
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
    /// Events ever pushed, overwritten ones included.
    pushed: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        self.pushed += 1;
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            dropped_counter().inc();
        }
    }

    /// The held events, oldest first.
    fn in_order(&self) -> impl Iterator<Item = &Event> {
        let (newest, oldest) = self.events.split_at(self.head);
        oldest.iter().chain(newest)
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
                    pushed: 0,
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Tests that start captures, or need none live, must not interleave.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
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
        let cap = Capture::start();
        {
            let _s = crate::span!("test.trace.outer", "n" => 3);
            instant1("test.trace.mark", "v", 7);
        }
        let events = cap.finish().events;
        assert!(!enabled(), "finishing the only capture stops recording");
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
        let _g = lock();
        let mut ring = Ring {
            events: Vec::new(),
            capacity: 4,
            head: 0,
            pushed: 0,
        };
        let dropped0 = dropped_counter().get();
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
        assert_eq!(dropped_counter().get() - dropped0, 6);
        assert_eq!(ring.pushed, 10);
        let starts: Vec<u64> = ring.in_order().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9], "oldest events overwritten");
    }

    #[test]
    fn span_inert_if_disabled_at_entry() {
        let _g = lock();
        let s = Span::enter("test.trace.inert");
        let cap = Capture::start();
        let before = events_recorded();
        drop(s);
        assert_eq!(events_recorded(), before, "guard captured disabled state");
        drop(cap);
    }
}
