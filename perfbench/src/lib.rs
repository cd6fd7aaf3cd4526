//! # perfbench — the repeatable rzen performance harness
//!
//! One command runs a named workload with a seed, checks every verdict
//! against concrete semantics and an independent backend, and prints six
//! end-to-end metrics; a second, traced run of the same workload
//! attributes time to the layers (crates) from outside, with spans
//! around their public calls. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod alloc;
pub mod client;
pub mod host;
pub mod inputs;
pub mod measure;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod tools;
pub mod trace;
pub mod traced;

/// Live-heap accounting for `peak_heap_mb`; see [`alloc`].
#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;
