//! # rzen-engine — batched verification query engine
//!
//! Runs many verification queries over a worker pool, racing the BDD and
//! SAT pipelines per query (a backend *portfolio*) with cooperative
//! cancellation, a structural result cache, and per-batch observability.
//!
//! ## Queries as data
//!
//! `Zen<T>` handles index a thread-local arena and cannot cross threads,
//! so the engine's unit of work — [`Query`] — carries only plain model
//! data (`Send + Clone + Hash`). Each worker owns one persistent runner
//! thread per backend, and a runner rebuilds the symbolic model in its own
//! context per query, which costs microseconds against solve times in the
//! milliseconds and keeps the workers fully independent. Batch and serve
//! reach a backend the same way; nothing is ever solved on the caller's
//! thread.
//!
//! ## Portfolio + cancellation
//!
//! With [`QueryBackend::Portfolio`], a worker has two runners and each
//! query goes to both under one [`rzen::Budget`]. The first decisive
//! verdict raises the budget's flag; the other solver observes it at its
//! next poll point (BDD: the hash-consing choke point; SAT:
//! conflict/decision boundaries) and unwinds. A wall-clock timeout uses
//! the same mechanism and degrades the single query to
//! [`Verdict::Timeout`] without wedging the batch.
//!
//! ## Caching
//!
//! Results are keyed by the query, hashed under a stable FNV-1a
//! fingerprint of its structure (the fingerprint selects the bucket; the
//! query is compared structurally, so hash collisions cannot serve a wrong
//! verdict). A `Reach`/`Drops` query holds its network as a
//! [`rzen_net::topology::Network`] handle: the entries of every query asked
//! of one network share its one value, its fingerprint hashes the
//! network's saved digest, and a lookup matches the network by pointer
//! before falling back to a full compare. Only decisive
//! verdicts are cached — a `Timeout` is a fact about the budget, not the
//! query, and a `Verdict::Error` records a worker panic.
//!
//! One cache behind one mutex serves batch workers and serve shards
//! alike. A query holds the lock only for its lookup and for its insert,
//! never across a solve, so [`Engine::clear_cache`] and
//! [`Engine::apply_delta`] run on the caller's thread and are complete
//! when they return.
//!
//! A delta keeps what it cannot break. A reach or drops verdict is the
//! fold over its pair's feasible paths, which reads only the interface
//! halves their hops compare equal on, so [`Engine::apply_delta`] re-keys
//! onto the new network
//! every entry whose pair's feasible paths are hop-for-hop the same on
//! both networks. Of the rest (the delta's *cone*), it keeps every SAT
//! entry whose witness packet still witnesses its query there: the
//! solver's own fold over the pair's paths, evaluated on that constant
//! packet. It evicts UNSAT entries in the cone, refuted witnesses, and
//! entries naming a device the new network lacks. The replays run with
//! the lock released, on a helper thread, and their survivors return
//! under the sweep's own sweep count, so a clear or sweep in between
//! drops them ([`DeltaCacheStats`]).
//!
//! Each clear or sweep bumps the cache's sweep count,
//! and a miss whose lookup came before one does not insert: its verdict
//! may have been solved against the pre-delta model. A query that still
//! holds the old model but looks up after the sweep does insert; its
//! entry is keyed by the old network, so it is never hit, and it stays
//! until the next clear.
//!
//! A caller that must not wait on the lock — the serve reactor — looks up
//! with [`Engine::probe`], which only tries it. A query over a clone of
//! the model's network costs no copy, and its lookup no hash or compare
//! of the network. A hit is answered there; a miss hands its ticket
//! (fingerprint and sweep count) to [`Engine::run_missed`], which solves
//! and inserts without a second lookup, so each query is looked up once
//! and every served entry shares the model's one network.
//!
//! ## Sessions
//!
//! Every runner solves through an [`rzen::SolverSession`] — an
//! incremental SAT solver or a BDD manager, and a bitblast cache. By
//! default the session is scoped to one query: dropped, with the context
//! reset, once the reply is sent. With `EngineConfig { sessions: true, .. }`
//! each runner keeps its session for its whole life, and batch workers
//! claim queries by *model fingerprint* so queries over the same
//! ACL/route-map/topology land on the same worker and reuse each other's
//! work. See [`rzen::session`].
//!
//! ## Example
//!
//! ```
//! use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, Verdict};
//! use rzen_net::acl::{Acl, AclRule};
//!
//! let acl = Acl { rules: vec![AclRule::any(true), AclRule::any(false)] };
//! let queries = vec![
//!     Query::AclFind { acl: acl.clone(), target_line: 1 },
//!     Query::AclFind { acl, target_line: 2 }, // shadowed -> Unsat
//! ];
//! let engine = Engine::new(EngineConfig { jobs: 2, ..Default::default() });
//! let report = engine.run_batch(&queries);
//! assert!(matches!(report.results[0].verdict, Verdict::Sat(_)));
//! assert!(matches!(report.results[1].verdict, Verdict::Unsat));
//! println!("{}", report.stats);
//! ```

mod cache;
mod engine;
mod query;
mod stats;

pub use cache::DeltaCacheStats;
pub use engine::{CacheMiss, Engine, EngineConfig, Probe, ServeWorker};
pub use query::{NetOp, Query, QueryBackend, Verdict, Witness};
pub use stats::{BatchReport, EngineStats, QueryResult};
