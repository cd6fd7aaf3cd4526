//! # rzen-serve — the network-verification query server
//!
//! Loads a network spec once, keeps warm solver state per shard, and
//! answers `reach` / `drops` / `hsa` / `paths` queries over
//! newline-delimited JSON on a plain TCP socket, with a minimal HTTP/1.1
//! shim on the same port for `GET /healthz`, `GET /metrics`
//! (the [`rzen_obs`] registry in text form), `POST /model` (atomic spec
//! hot-swap) and `POST /delta` (incremental model patch).
//!
//! Like [`rzen_obs`], the crate is std-only — no async runtime, no HTTP
//! framework. There is one connection layer: a reactor (`rzen-loop`:
//! epoll on Linux, `poll(2)` on every other Unix) that multiplexes every
//! connection on one thread and routes admitted work to shared-nothing
//! engine shards over SPSC rings.
//!
//! The serving disciplines — bounded admission with explicit shedding,
//! in-flight coalescing, deadlines that include ring wait, in-order
//! responses, graceful drain — are stated on the `eloop` module and in
//! `DESIGN.md` §9/§14; atomic model swap and deltas on `server`.
//!
//! ```no_run
//! use rzen_serve::{start, Model, ServerConfig};
//!
//! let spec = std::fs::read_to_string("specs/fig3.net").unwrap();
//! let handle = start(ServerConfig::default(), Model::parse(&spec).unwrap()).unwrap();
//! println!("listening on {}", handle.addr());
//! // ... send {"op":"reach","src":"u1:1","dst":"u3:2"} lines at it ...
//! handle.shutdown();
//! handle.join();
//! ```

#![warn(missing_docs)]

mod eloop;
pub mod proto;
mod server;
pub mod signal;

pub use server::{start, LoopMode, Model, ServerConfig, ServerHandle};
