//! `trace::Capture` windows: overlapping captures each see exactly their
//! own events, and a window's drop count covers only its own events.

use rzen_obs::trace::{self, Capture, Window, DEFAULT_RING_CAPACITY};
use std::sync::{Mutex, MutexGuard};

/// Each test asserts on when recording is on, so captures must not
/// interleave across tests.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A process-long capture (what `RZEN_TRACE=FILE` holds) keeps every
/// span recorded before, during and after a shorter capture that
/// overlaps it, and each capture returns exactly the spans that started
/// inside its own window.
#[test]
fn overlapping_captures_each_keep_their_own_window() {
    let _g = lock();
    let outer = Capture::start();
    drop(rzen_obs::span!("test.capture.before"));
    let inner = Capture::start();
    drop(rzen_obs::span!("test.capture.during"));
    let inner = inner.finish();
    assert!(trace::enabled(), "the outer capture still records");
    drop(rzen_obs::span!("test.capture.after"));
    let outer = outer.finish();
    assert!(!trace::enabled());
    let names = |w: &Window| -> Vec<&str> { w.events.iter().map(|e| e.name).collect() };
    assert_eq!(names(&inner), ["test.capture.during"]);
    assert_eq!(
        names(&outer),
        [
            "test.capture.before",
            "test.capture.during",
            "test.capture.after"
        ]
    );
    // Finishing copied, not drained: a capture over nothing new returns
    // none of them.
    assert!(names(&Capture::start().finish()).is_empty());
}

/// A ring that wrapped before a window opened costs that window nothing.
#[test]
fn a_window_counts_only_its_own_drops() {
    let _g = lock();
    let cap = Capture::start();
    for i in 0..DEFAULT_RING_CAPACITY as u64 + 5 {
        trace::instant1("test.capture.fill", "i", i);
    }
    assert_eq!(cap.finish().dropped, 5);
    let cap = Capture::start();
    for _ in 0..3 {
        drop(rzen_obs::span!("test.capture.after_wrap"));
    }
    let window = cap.finish();
    assert_eq!(
        window.dropped, 0,
        "the ring's earlier wraps are not this window's"
    );
    assert_eq!(window.events.len(), 3);
}
