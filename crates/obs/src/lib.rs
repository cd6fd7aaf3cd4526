//! # rzen-obs — always-available observability for the rzen solver stack
//!
//! A dependency-free measurement substrate shared by every crate in the
//! workspace: the BDD manager, the CDCL solver, the bit-level compiler,
//! and the batch engine all report into it, and the CLI / bench harness
//! read it back out. Three pieces:
//!
//! * **Metrics** ([`metrics`]) — a global registry of atomic counters,
//!   gauges, and log₂-bucketed histograms, registered lazily at the call
//!   site through the typed [`counter!`], [`gauge!`], and [`histogram!`]
//!   macros. Metrics are *always on*: updates are relaxed atomic adds and
//!   are flushed at operation boundaries (end of a solve, end of a query),
//!   never inside the per-node hot loops.
//!
//! * **Tracing** ([`trace`]) — lightweight spans and instant events
//!   recorded into fixed-capacity per-thread ring buffers. Every recording
//!   site is gated behind a single relaxed atomic load ([`trace::enabled`]),
//!   so the *disabled* cost on a hot path — the contract the solver
//!   substrates rely on — is one load and one predictable branch: no
//!   allocation, no lock, no timestamp. Enabling tracing
//!   ([`trace::set_enabled`]) allocates one ring buffer per recording
//!   thread on first use and timestamps events against a process-wide
//!   monotonic epoch.
//!
//! * **Profiling** — two folded-stack views. The "cpu" view is an exact
//!   fold of the trace rings ([`export::folded_spans`]): every stack
//!   `a;b;c` is charged the innermost span's self time in µs of span
//!   wall time. The heap view ([`profile`]) comes from the
//!   [`CountingAlloc`] global-allocator wrapper, which charges bytes to
//!   the innermost open span. Both export as folded-stack text or a
//!   self-contained flamegraph SVG ([`flame`]). Disabled cost: the same
//!   single relaxed atomic load as tracing — both share one state word.
//!
//! * **Flight recorder** ([`flight`]) — an always-on, lock-free ring of
//!   per-request [`RequestRecord`]s plus a top-K slow-query table, written
//!   by the serving layer on every completed request and read back over
//!   the server's `/debug/requests` and `/debug/slow` endpoints. Request
//!   identity ([`RequestCtx`]) is minted here so ids are process-unique
//!   across serve, engine, and backend spans.
//!
//! * **Export** ([`export`]) — the recorded events render as Chrome
//!   trace-event JSON (loadable in Perfetto or `chrome://tracing`), as a
//!   human-readable hierarchical phase report, or as folded span stacks;
//!   the metric registry renders as an aligned text table or a JSON
//!   object. A minimal JSON
//!   syntax validator ([`json::validate`]) lets tests and CI check the
//!   emitted files without external tooling.
//!
//! ## Example
//!
//! ```
//! use rzen_obs::{counter, histogram, span, trace};
//!
//! trace::set_enabled(true);
//! {
//!     let _span = span!("demo.phase", "items" => 3);
//!     counter!("demo.calls", "how often the demo ran").inc();
//!     histogram!("demo.latency_us").observe(125);
//! }
//! trace::set_enabled(false);
//! let events = trace::take_events();
//! assert!(events.iter().any(|e| e.name == "demo.phase"));
//! let json = rzen_obs::export::chrome_trace(&events);
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

// `#[inline]`: the engine hashes a whole `Network` per served request,
// and without it these calls would not inline across the crate boundary.
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

/// Read the `RZEN_TRACE` environment variable and enable tracing if it is
/// set to anything other than empty or `0`. Returns the trace output path
/// when the value names one (any value other than `1`); `RZEN_TRACE=1`
/// enables tracing without choosing a file (callers print the phase report
/// instead).
pub fn init_from_env() -> Option<String> {
    match std::env::var("RZEN_TRACE") {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) => {
            trace::set_enabled(true);
            if v == "1" {
                None
            } else {
                Some(v)
            }
        }
        Err(_) => None,
    }
}
