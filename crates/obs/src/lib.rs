//! # rzen-obs — always-available observability for the rzen solver stack
//!
//! A dependency-free measurement substrate shared by every crate in the
//! workspace: the BDD manager, the CDCL solver, the bit-level compiler,
//! and the batch engine all report into it, and the CLI / bench harness
//! read it back out. The pieces:
//!
//! * **Metrics** ([`metrics`]) — a global registry of atomic counters,
//!   gauges, and log₂-bucketed histograms, registered lazily at the call
//!   site through the typed [`counter!`], [`gauge!`], and [`histogram!`]
//!   macros. Metrics are *always on*: updates are relaxed atomic adds and
//!   are flushed at operation boundaries (end of a solve, end of a query),
//!   never inside the per-node hot loops.
//!
//! * **Tracing** ([`trace`]) — lightweight spans and instant events
//!   recorded into fixed-capacity per-thread ring buffers while any
//!   [`trace::Capture`] is live. Every recording site is gated behind a
//!   single relaxed atomic load ([`trace::enabled`]), so the *disabled*
//!   cost on a hot path — the contract the solver substrates rely on — is
//!   one load and one predictable branch: no allocation, no lock, no
//!   timestamp. A capture is the only way to record: it turns recording
//!   and allocation counting on, and [`trace::Capture::finish`] copies out
//!   the events that started inside its window. Captures overlap without
//!   blocking or stealing from each other.
//!
//! * **Profiling** ([`profile`]) — two folded-stack views, both one fold
//!   of the trace rings ([`export::folded_spans`]) that charges every
//!   stack `a;b;c` the innermost span's self weight: µs of span wall
//!   time for the "cpu" view, allocated bytes for the heap view (counted
//!   by the [`CountingAlloc`] global-allocator wrapper, plus an
//!   `<untracked>` residual). Both export as folded-stack text or a
//!   self-contained flamegraph SVG ([`flame`]). Disabled cost: the same
//!   single relaxed atomic load as tracing.
//!
//! * **Flight recorder** ([`flight`]) — an always-on, lock-free ring of
//!   per-request [`RequestRecord`]s plus a top-K slow-query table, written
//!   by the serving layer on every completed request and read back over
//!   the server's `/debug/requests` and `/debug/slow` endpoints. Request
//!   identity ([`RequestCtx`]) is minted here so ids are process-unique
//!   across serve, engine, and backend spans.
//!
//! * **Export** ([`export`]) — a capture's events render as Chrome
//!   trace-event JSON (loadable in Perfetto or `chrome://tracing`), as a
//!   human-readable hierarchical phase report, or as folded span stacks;
//!   the metric registry renders as an aligned text table or a JSON
//!   object.
//!
//! * **JSON** ([`json`]) — the one writer every JSON emitter in the
//!   workspace renders through, a small parser for wire requests, and a
//!   syntax validator tests and CI check emitted files with.
//!
//! ## Example
//!
//! ```
//! use rzen_obs::{counter, histogram, span, trace};
//!
//! let capture = trace::Capture::start();
//! {
//!     let _span = span!("demo.phase", "items" => 3);
//!     counter!("demo.calls", "how often the demo ran").inc();
//!     histogram!("demo.latency_us").observe(125);
//! }
//! let window = capture.finish();
//! assert!(window.events.iter().any(|e| e.name == "demo.phase"));
//! let json = rzen_obs::export::chrome_trace(&window.events);
//! rzen_obs::json::validate(&json).unwrap();
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod flame;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod process;
pub mod profile;
pub mod trace;

pub use flight::{BackendClass, RequestCtx, RequestRecord, VerdictClass};
pub use metrics::{registry, Counter, Gauge, Histogram, MetricSnapshot, SnapshotValue};
pub use profile::CountingAlloc;
pub use trace::{Event, Phase, Span};

// The unit-test binary exercises heap attribution, which needs the
// counting allocator installed; downstream binaries install it themselves.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: CountingAlloc = CountingAlloc;

/// 64-bit FNV-1a as a [`std::hash::Hasher`], so `#[derive(Hash)]`
/// structures hash to a value that is stable across runs of one build
/// (no random keys, no addresses). The result-cache keys, the shard
/// routing and the model fingerprints all depend on it bit for bit.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// Starts at the FNV offset basis.
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Resume hashing from `state`, the `finish()` of an earlier hasher:
    /// writing more bytes then gives what writing them to that hasher
    /// would. A caller that hashes one large prefix under many suffixes
    /// saves the prefix's state once and resumes from it per suffix.
    #[inline]
    pub fn resume(state: u64) -> Fnv1a {
        Fnv1a(state)
    }
}

// `#[inline]`: the engine hashes a whole `Network` for each batch lookup
// and for each model a server loads, and without it these calls would
// not inline across the crate boundary.
impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
