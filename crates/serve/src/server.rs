//! The server's transport-independent half: configuration, the loaded
//! model, the state shared between the reactor, its shards and its
//! offload threads, the [`ServerHandle`], and everything an endpoint
//! *answers* — the HTTP control plane (`/healthz`, `/metrics`,
//! `/debug/*`, `POST /model`, `POST /delta`) and the non-query ops
//! (`hsa`, `paths`, `sleep`). Sockets, framing, admission, coalescing,
//! response ordering and drain all live in [`crate::eloop`], the one
//! connection layer; nothing in this module reads or writes a socket.
//!
//! ## Hot swap and deltas
//!
//! `POST /model` re-parses a spec on an offload thread, then swaps the
//! shared model pointer atomically, clears the result cache and bumps
//! the session epoch so shard sessions rebuild. Requests
//! admitted before the swap keep their `Arc` to the old model and finish
//! against it; requests admitted after see only the new one. There is no
//! window where a request observes half of each. Re-posting a spec whose
//! composite fingerprint matches the running model is a no-op
//! (`"swapped":false`): caches and sessions stay warm.
//!
//! `POST /delta` applies an NDJSON sequence of [`rzen_delta::DeltaOp`]s
//! to a clone of the running spec and publishes the patched model with
//! the same pointer-store atomicity — but instead of clearing the cache
//! it runs the engine's dependency-aware sweep, which keeps every entry
//! off the ops' cones of influence and every in-cone SAT entry whose
//! witness still holds on the patched model, and leaves every warm
//! session alone. Both cache transitions run on the offload thread and
//! are complete when the response is written: a shard holds no cache
//! lock while it solves, so neither waits for a busy shard, and the
//! delta response always carries the full evicted/retained/revalidated
//! counts.
//! Model mutations are serialized by `Shared::swap`; `/healthz` reports
//! the composite fingerprint and the mutation generation.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use rzen_engine::{Engine, QueryBackend, SharedNet};
use rzen_net::spec::{self, Spec};

use rzen_obs::export::chrome_trace;
use rzen_obs::json::Writer;
use rzen_obs::trace::{Capture, Window};

use crate::proto;
use crate::signal;

/// Vestigial: there is one connection layer (the reactor in
/// [`crate::eloop`]), so this selects nothing. The type and its one
/// variant stay only because the benchmark harness
/// (`perfbench/src/run.rs`, frozen under `BENCHMARK.json` `paths`) builds
/// [`ServerConfig`] as a struct literal naming `LoopMode::Epoll`; remove
/// both once a benchmark PR drops the field there.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum LoopMode {
    /// The reactor.
    Epoll,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Engine shards when `shards` is 0 (concurrent query executions).
    pub jobs: usize,
    /// Admitted-but-not-yet-running jobs beyond the executing ones,
    /// divided across the shards; a request arriving past its shard's
    /// share is shed with `overloaded`.
    pub backlog: usize,
    /// Default per-request deadline; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Keep warm per-shard solver sessions.
    pub sessions: bool,
    /// Backend selection for engine queries.
    pub backend: QueryBackend,
    /// React to SIGINT/SIGTERM (the CLI sets this; tests drive
    /// [`ServerHandle::shutdown`] instead).
    pub handle_signals: bool,
    /// Expose the test-only `sleep` op.
    pub debug_ops: bool,
    /// Unread. perfbench builds this struct as a literal naming this
    /// field; the perfbench narrowing removes it.
    #[doc(hidden)]
    pub sample_hz: u32,
    /// Selects nothing; see [`LoopMode`].
    #[doc(hidden)]
    pub loop_mode: LoopMode,
    /// Engine shards behind the reactor; 0 means "same as `jobs`".
    pub shards: usize,
    /// Close connections with no traffic for this long; `None` disables
    /// reaping. Connections with work in flight are never reaped.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            backlog: 64,
            timeout: Some(Duration::from_secs(30)),
            sessions: false,
            backend: QueryBackend::Portfolio,
            handle_signals: false,
            debug_ops: false,
            sample_hz: rzen_obs::profile::DEFAULT_SAMPLE_HZ,
            loop_mode: LoopMode::Epoll,
            shards: 0,
            idle_timeout: None,
        }
    }
}

/// One loaded network model. Immutable once built; hot-swap replaces the
/// whole `Arc`.
pub struct Model {
    /// The parsed spec.
    pub spec: Spec,
    /// The Merkle-style composite model fingerprint
    /// ([`rzen_delta::composite_fingerprint`]): the hash of the ordered
    /// per-device structural fingerprints, reported by `/healthz` so
    /// clients can tell which model answered. Structural, not textual —
    /// re-posting a reformatted spec yields the same identity, and a
    /// delta moves only the touched devices' leaf hashes.
    pub fingerprint: u64,
    /// The spec's network as the one handle every `reach`/`drops` asked
    /// of this model probes the result cache with and caches under.
    pub net: SharedNet,
}

impl Model {
    /// Parse a spec text into a model.
    pub fn parse(text: &str) -> Result<Model, String> {
        Ok(Model::from_spec(spec::parse(text)?))
    }

    /// Wrap an already-parsed (e.g. delta-patched) spec in a model.
    pub fn from_spec(spec: Spec) -> Model {
        let fingerprint = rzen_delta::composite_fingerprint(&spec.net);
        let net = SharedNet::new(spec.net.clone());
        Model {
            spec,
            fingerprint,
            net,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) engine: Engine,
    pub(crate) model: RwLock<Arc<Model>>,
    /// Serializes model mutations (`POST /model`, `POST /delta`): each is
    /// a read-modify-write of the model pointer plus a cache
    /// transition, and interleaving two would lose one of them. Query
    /// admission never takes this lock — it only reads the pointer.
    pub(crate) swap: Mutex<()>,
    /// Counts accepted model mutations (swaps and deltas); reported by
    /// `/healthz` and in mutation responses so a client can tell which
    /// model lineage answered.
    pub(crate) generation: AtomicU64,
    /// Bumped when shard sessions must be rebuilt (full model swap).
    /// Deltas leave it alone: session caches key on hash-consed
    /// expression ids, so unchanged sub-circuits stay warm and changed
    /// ones get new ids — nothing stale can be served.
    pub(crate) session_epoch: AtomicU64,
    /// Stop accepting connections.
    pub(crate) shutdown: AtomicBool,
    /// Stop admitting requests (drain phase).
    pub(crate) draining: AtomicBool,
    /// Jobs admitted (queued or running) and not yet answered.
    pub(crate) admitted: AtomicUsize,
}

impl Shared {
    pub(crate) fn new(cfg: ServerConfig, model: Model, engine: Engine) -> Shared {
        Shared {
            cfg,
            engine,
            model: RwLock::new(Arc::new(model)),
            swap: Mutex::new(()),
            generation: AtomicU64::new(0),
            session_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            admitted: AtomicUsize::new(0),
        }
    }
}

/// The `serve.open_connections` gauge.
pub(crate) fn open_conns_gauge() -> &'static rzen_obs::Gauge {
    rzen_obs::gauge!(
        "serve.open_connections",
        "client connections currently open"
    )
}

/// How a finished job classified itself, for the flight record and the
/// error counters the reactor keeps when it finalizes the request.
#[derive(Clone, Copy)]
pub(crate) struct RespMeta {
    pub(crate) verdict: rzen_obs::VerdictClass,
    pub(crate) backend: rzen_obs::BackendClass,
    pub(crate) flags: u8,
    /// Heap bytes/allocations the shard spent on this job, measured as
    /// a delta of its thread tally around execution. Zero unless
    /// profiling was enabled while the job ran.
    pub(crate) alloc_bytes: u64,
    pub(crate) alloc_count: u64,
}

impl RespMeta {
    /// The verdict, backend and flag columns a solved or cached result
    /// gives its flight record; the heap columns stay zero.
    pub(crate) fn for_result(result: &rzen_engine::QueryResult) -> Self {
        RespMeta {
            verdict: result.verdict.class(),
            backend: result.backend_class(),
            flags: result.flight_flags(),
            ..RespMeta::default()
        }
    }
}

impl Default for RespMeta {
    fn default() -> Self {
        RespMeta {
            verdict: rzen_obs::VerdictClass::Ok,
            backend: rzen_obs::BackendClass::None,
            flags: 0,
            alloc_bytes: 0,
            alloc_count: 0,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    ctl: Arc<crate::eloop::EpollCtl>,
    reactor: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs admitted and not yet answered (queued + running).
    pub fn inflight(&self) -> usize {
        self.ctl.shared.admitted.load(Ordering::SeqCst)
    }

    /// Live connections currently tracked. Closed connections are
    /// removed as they go, so this must not grow with connection churn —
    /// tests assert on it to catch fd leaks.
    pub fn open_conns(&self) -> usize {
        self.ctl.open_conns()
    }

    /// Begin graceful shutdown: stop accepting, drain in-flight work,
    /// answer stragglers `shutting_down`. Returns immediately.
    pub fn shutdown(&self) {
        self.ctl.shared.shutdown.store(true, Ordering::SeqCst);
        // The reactor may be parked in its wait; the doorbell gets it to
        // the shutdown check immediately.
        self.ctl.doorbell.ring();
    }

    /// Wait for the drain to complete and every thread to retire.
    pub fn join(self) {
        let _ = self.reactor.join();
    }
}

/// Start a server for `model` under `cfg`. Returns once the listener is
/// bound and the shards are up; queries are answerable immediately.
pub fn start(cfg: ServerConfig, model: Model) -> io::Result<ServerHandle> {
    if cfg.handle_signals {
        signal::install();
    }
    let (addr, ctl, reactor) = crate::eloop::start(cfg, model)?;
    Ok(ServerHandle { addr, ctl, reactor })
}

/// Exact reachable-set size (header-space transformers). HSA builds
/// transformer sets in the thread-local context; reset on both sides so
/// engine queries on this shard thread never see a foreign arena.
pub(crate) fn do_hsa(
    id: Option<u64>,
    req_id: u64,
    src: (usize, u8),
    dst: (usize, u8),
    model: &Model,
    started: Instant,
) -> (String, RespMeta) {
    rzen::reset_ctx();
    let space = rzen::TransformerSpace::new();
    let set = rzen_net::analyses::hsa::reachable_set(&model.spec.net, &space, src.0, src.1, dst.0);
    let line = proto::response_line(id, req_id, |w| {
        w.field("op", "hsa").field("reachable", !set.is_empty());
        if !set.is_empty() {
            w.field("log2_count", set.count().log2());
            if let Some(sample) = set.element() {
                w.field("sample", proto::describe_header(&sample.overlay_header));
            }
        }
        rzen::reset_ctx();
        w.field("latency_us", started.elapsed().as_micros());
    });
    (line, RespMeta::default())
}

/// Simple-path count.
pub(crate) fn do_paths(
    id: Option<u64>,
    req_id: u64,
    src: (usize, u8),
    dst: (usize, u8),
    model: &Model,
    started: Instant,
) -> (String, RespMeta) {
    let paths = model.spec.net.paths(src.0, src.1, dst.0, dst.1);
    let line = proto::response_line(id, req_id, |w| {
        w.field("op", "paths")
            .field("paths", paths.len())
            .field("latency_us", started.elapsed().as_micros());
    });
    (line, RespMeta::default())
}

/// Debug: hold the executing thread for `ms`.
pub(crate) fn do_sleep(
    id: Option<u64>,
    req_id: u64,
    ms: u64,
    started: Instant,
) -> (String, RespMeta) {
    thread::sleep(Duration::from_millis(ms));
    let line = proto::response_line(id, req_id, |w| {
        w.field("op", "sleep")
            .field("latency_us", started.elapsed().as_micros());
    });
    (line, RespMeta::default())
}

pub(crate) fn idle_reaped_counter() -> &'static rzen_obs::Counter {
    rzen_obs::counter!(
        "serve.idle_reaped",
        "idle connections closed by --idle-timeout-ms"
    )
}

pub(crate) fn observe_latency(started: Instant) {
    rzen_obs::histogram!(
        "serve.request_us",
        "request wall latency (admission to response) in microseconds"
    )
    .observe(started.elapsed().as_micros() as u64);
}

/// One rendered HTTP response; the reactor turns it into bytes on the
/// wire with [`render_http`].
pub(crate) struct HttpAnswer {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
}

impl HttpAnswer {
    pub(crate) fn json(status: u16, body: String) -> HttpAnswer {
        HttpAnswer {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A JSON object whose members `body` writes.
    pub(crate) fn object(status: u16, body: impl FnOnce(&mut Writer)) -> HttpAnswer {
        let mut w = Writer::new();
        w.obj(body);
        HttpAnswer::json(status, w.finish())
    }

    pub(crate) fn error(status: u16, msg: &str) -> HttpAnswer {
        HttpAnswer::object(status, |w| {
            w.field("error", msg);
        })
    }
}

/// Route a bodyless (GET/HEAD) request. POSTs carry bodies and are
/// dispatched by the reactor, which owns body transport.
///
/// Beware: `/debug/trace` and `/debug/profile` *block for their capture
/// window* — the reactor must call this from an offload thread, never
/// inline. Each holds its own [`Capture`], so concurrent calls overlap
/// rather than queue, and none takes events from another or from a
/// process-long `RZEN_TRACE` capture.
pub(crate) fn answer_http_get(
    method: &str,
    path: &str,
    query: &str,
    shared: &Shared,
) -> HttpAnswer {
    if method != "GET" && method != "HEAD" {
        return HttpAnswer::error(404, "not found");
    }
    match path {
        "/healthz" => {
            let model = shared.model.read().unwrap().clone();
            HttpAnswer::object(200, |w| {
                w.field("status", "ok")
                    .field("model", format!("{:016x}", model.fingerprint))
                    .field("generation", shared.generation.load(Ordering::SeqCst))
                    .field("devices", model.spec.net.devices.len())
                    .field("inflight", shared.admitted.load(Ordering::SeqCst))
                    .field("draining", shared.draining.load(Ordering::SeqCst));
            })
        }
        "/metrics" => {
            // Registry metrics first, then the process-level series
            // (RSS, CPU seconds, fds, start time, build info) rendered
            // straight from /proc — those carry float values the integer
            // registry cannot hold.
            let mut text = rzen_obs::metrics::registry().render_prometheus();
            text.push_str(&rzen_obs::process::exposition(env!("CARGO_PKG_VERSION")));
            HttpAnswer {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: text,
            }
        }
        "/debug/requests" => HttpAnswer::json(
            200,
            rzen_obs::flight::render_json(&rzen_obs::flight::snapshot()),
        ),
        "/debug/slow" => HttpAnswer::json(
            200,
            rzen_obs::flight::render_json(&rzen_obs::flight::slow_snapshot()),
        ),
        "/debug/trace" => match capture_for(query) {
            Ok(window) => HttpAnswer::json(200, chrome_trace(&window.events)),
            Err(bad) => bad,
        },
        "/debug/profile" => {
            let heap = match query_param(query, "view").unwrap_or("cpu") {
                "cpu" => false,
                "heap" => true,
                _ => return HttpAnswer::error(400, "view must be cpu or heap"),
            };
            let svg = match query_param(query, "format").unwrap_or("folded") {
                "folded" => false,
                "svg" => true,
                _ => return HttpAnswer::error(400, "format must be folded or svg"),
            };
            let window = match capture_for(query) {
                Ok(window) => window,
                Err(bad) => return bad,
            };
            let profile = if heap {
                rzen_obs::profile::Profile::heap(&window)
            } else {
                rzen_obs::profile::Profile::cpu(&window)
            };
            let body = profile.render(svg);
            HttpAnswer {
                status: 200,
                content_type: if svg {
                    "image/svg+xml"
                } else {
                    "text/plain; charset=utf-8"
                },
                body,
            }
        }
        _ => HttpAnswer::error(404, "not found"),
    }
}

/// `POST /model`: hot-swap the running model and clear the result cache.
/// The pointer swap itself is atomic and in-flight requests finish
/// against the `Arc` they captured.
pub(crate) fn answer_model_post(shared: &Shared, text: &str) -> HttpAnswer {
    let model = match Model::parse(text) {
        Ok(m) => m,
        Err(e) => return HttpAnswer::error(400, &e),
    };
    // Parse happened above, outside the lock; the swap itself is a
    // pointer store. In-flight requests hold their own Arc and finish
    // against the old model.
    let _swap = shared.swap.lock().unwrap();
    let current = shared.model.read().unwrap().clone();
    if current.fingerprint == model.fingerprint {
        // Same structural identity: re-posting the running model
        // (reformatted or not) keeps the cache and every warm session.
        rzen_obs::counter!(
            "serve.model_noop_swaps",
            "POST /model requests whose fingerprint matched the running model"
        )
        .inc();
        return HttpAnswer::object(200, |w| {
            w.field("status", "ok")
                .field("swapped", false)
                .field("model", format!("{:016x}", current.fingerprint))
                .field("generation", shared.generation.load(Ordering::SeqCst))
                .field("devices", current.spec.net.devices.len());
        });
    }
    let model = Arc::new(model);
    *shared.model.write().unwrap() = model.clone();
    // Cache entries key on the network (compared in full unless it is
    // the same handle), so entries for the old model could never serve a
    // post-swap request: the clear reclaims memory, it does not gate
    // correctness.
    shared.engine.clear_cache();
    // Sessions rebuilt: the whole model may have changed.
    shared.session_epoch.fetch_add(1, Ordering::SeqCst);
    let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
    rzen_obs::counter!("serve.model_swaps", "successful POST /model swaps").inc();
    HttpAnswer::object(200, |w| {
        w.field("status", "ok")
            .field("swapped", true)
            .field("model", format!("{:016x}", model.fingerprint))
            .field("generation", generation)
            .field("devices", model.spec.net.devices.len());
    })
}

/// `POST /delta`: patch the running model and run the dependency-aware
/// cache sweep. The response names the new model (`model`,
/// `generation`, `devices`) and the delta (`ops`, `touched`), and
/// reports the sweep's counts: `evicted` entries, `retained` ones kept
/// warm, and of those the `revalidated` in-cone SAT entries whose
/// witness still holds on the patched model.
pub(crate) fn answer_delta_post(shared: &Shared, text: &str) -> HttpAnswer {
    let ops = match rzen_delta::parse_ops(text) {
        Ok(ops) if ops.is_empty() => return HttpAnswer::error(400, "empty delta"),
        Ok(ops) => ops,
        Err(e) => return HttpAnswer::error(400, &e),
    };
    // Same discipline as hot-swap: patch a clone off to the side, then
    // publish with one pointer store. A failing op discards the clone —
    // the running model is never half patched. In-flight requests keep
    // their admitted Arc.
    let _swap = shared.swap.lock().unwrap();
    let current = shared.model.read().unwrap().clone();
    let mut patched = current.spec.clone();
    let applied = match rzen_delta::apply_all(&mut patched, &ops) {
        Ok(applied) => applied,
        Err(e) => return HttpAnswer::error(400, &e),
    };
    let model = Arc::new(Model::from_spec(patched));
    *shared.model.write().unwrap() = model.clone();
    // The dependency-aware sweep replaces clear_cache(): entries off
    // every op's cone of influence, and in-cone SAT entries whose witness
    // replays true on the new model, are re-keyed onto its handle and
    // stay warm; the rest are evicted. Sessions are not quiesced at all
    // (see `Shared::session_epoch`).
    let stats = shared
        .engine
        .apply_delta_shared(&current.net, &model.net, &applied.steps);
    let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
    rzen_obs::counter!("serve.deltas", "successful POST /delta applications").inc();
    HttpAnswer::object(200, |w| {
        w.field("status", "ok")
            .field("model", format!("{:016x}", model.fingerprint))
            .field("generation", generation)
            .field("ops", applied.steps.len())
            .field("touched", applied.touched.join(","))
            .field("devices", model.spec.net.devices.len())
            .field("evicted", stats.evicted)
            .field("retained", stats.retained)
            .field("revalidated", stats.revalidated);
    })
}

/// Longest `/debug/trace` / `/debug/profile` capture window a client can
/// request: the offload thread answering it sleeps for the whole window.
const MAX_CAPTURE_MS: u64 = 10_000;

/// The value of one `key=value` pair in a query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Parse the `ms` capture-window parameter: absent defaults to 200,
/// valid values clamp to [`MAX_CAPTURE_MS`], anything non-numeric or
/// negative is an error the caller answers with 400.
fn capture_window_ms(query: &str) -> Result<u64, &'static str> {
    match query_param(query, "ms") {
        None => Ok(200),
        Some(v) => v
            .parse::<u64>()
            .map(|ms| ms.min(MAX_CAPTURE_MS))
            .map_err(|_| "ms must be a non-negative integer"),
    }
}

/// Record for the query's `ms` window. Garbage (non-numeric, negative)
/// is a 400 rather than a silently-defaulted capture.
fn capture_for(query: &str) -> Result<Window, HttpAnswer> {
    let ms = capture_window_ms(query).map_err(|e| HttpAnswer::error(400, e))?;
    let capture = Capture::start();
    thread::sleep(Duration::from_millis(ms));
    Ok(capture.finish())
}

/// Render one full HTTP response. `head` sends the status line and
/// headers (with the Content-Length the body *would* have) but no body.
pub(crate) fn render_http(status: u16, content_type: &str, body: &str, head: bool) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        if head { "" } else { body }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_window_defaults_clamps_and_rejects() {
        assert_eq!(capture_window_ms(""), Ok(200));
        assert_eq!(capture_window_ms("view=cpu"), Ok(200));
        assert_eq!(capture_window_ms("ms=0"), Ok(0));
        assert_eq!(capture_window_ms("ms=500&view=cpu"), Ok(500));
        assert_eq!(capture_window_ms("ms=10000"), Ok(MAX_CAPTURE_MS));
        assert_eq!(capture_window_ms("ms=3600000"), Ok(MAX_CAPTURE_MS));
        assert!(capture_window_ms("ms=abc").is_err());
        assert!(capture_window_ms("ms=-5").is_err());
        assert!(capture_window_ms("ms=1.5").is_err());
        assert!(capture_window_ms("ms=").is_err());
    }

    #[test]
    fn query_param_picks_exact_keys() {
        assert_eq!(query_param("ms=5&view=cpu", "view"), Some("cpu"));
        assert_eq!(query_param("ms=5&view=cpu", "ms"), Some("5"));
        assert_eq!(query_param("msx=5", "ms"), None);
        assert_eq!(query_param("", "ms"), None);
    }
}
