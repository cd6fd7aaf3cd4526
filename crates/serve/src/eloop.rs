//! The connection layer: one reactor thread multiplexing every
//! connection, shared-nothing engine shards behind SPSC rings.
//!
//! ## Shape
//!
//! The reactor owns the listener, every client socket, and the protocol
//! state machines ([`rzen_loop::framing`]): it accepts nonblocking,
//! sniffs NDJSON-vs-HTTP on the first bytes, parses incrementally across
//! partial reads, and keeps per-connection bounded write buffers that
//! re-arm write interest until drained. No client can block it: reads
//! and writes never wait, slow consumers pause their connection's reads
//! once its write buffer passes a high-water mark, and blocking HTTP
//! endpoints (`/debug/trace`, `/debug/profile`, `POST /model`,
//! `POST /delta`) run on offload threads that report back through the
//! doorbell pipe. Readiness comes from [`rzen_loop::sys::Epoll`] — raw
//! epoll on Linux, `poll(2)` on every other Unix, one level-triggered
//! contract — so these state machines are the only ones there are.
//!
//! ## Shards
//!
//! Engine work runs on `N` shard threads. Each shard owns its solver
//! session ([`rzen_engine::ServeWorker`]) outright and shares the
//! engine's one result cache, locked only for the insert (and for the
//! lookup when the reactor's probe was skipped). The reactor probes that
//! cache itself, in time independent of the model's size, and answers
//! hits on the spot, so only misses reach a shard. It routes them by
//! query fingerprint (which subsumes the model fingerprint, so identical
//! queries against the same model always land on the shard holding
//! their warm session state), hands jobs over an SPSC ring, and
//! collects completions from a second ring after the shard rings the
//! shared doorbell. Cache-wide transitions (hot-swap clear, delta sweep)
//! run on the offload thread that answers the request; a shard busy in a
//! solve holds no cache lock, so they never wait for it, and the reactor
//! never waits for them.
//!
//! ## Admission, coalescing and shedding
//!
//! Each NDJSON line is admitted on the reactor thread, in this order:
//!
//! 1. The model pointer is captured and the request id minted, so a hot
//!    swap between admission and execution cannot change what the
//!    request computes against. Parse failures, then endpoint-resolution
//!    failures (both endpoints resolved once, for every op that names
//!    them), then drain refusals are answered here without touching a
//!    shard.
//! 2. The per-request [`rzen::Budget`] is minted — from the request's
//!    `timeout_ms` or the server default — so time spent waiting in a
//!    ring counts against the deadline. A request that expires in the
//!    ring still runs: the solvers see the spent budget at their first
//!    poll and it degrades to a `timeout` verdict, while a result-cache
//!    hit can still answer it for free.
//! 3. **Probe before join and shed.** A `reach`/`drops` is looked up in
//!    the result cache ([`Engine::probe`]) as a query over a handle to
//!    the captured model's network: the query copies a pointer, its
//!    fingerprint hashes the network's saved digest, and entries over
//!    the same network match by pointer, so the probe costs the same on
//!    any model size. A hit is answered here (`"cache_hit":true`, a
//!    flight record with no shard): it takes no shard slot, so a hit is
//!    answered even while every shard is busy or full, and is never
//!    shed. A miss carries the query and its lookup ticket to the shard,
//!    which solves without looking up again. The probe only `try_lock`s
//!    the cache; while another thread holds it (a sweep, a shard's
//!    insert) the request goes on as a miss would, and its shard looks
//!    it up.
//! 4. **Join before shed.** A `reach`/`drops` identical to one already
//!    in flight (same fingerprint, op and endpoints, over the very same
//!    network handle — different models never match) joins that
//!    leader's group and consumes no shard slot at all, however loaded
//!    the shards are. A joiner waits at most its *own* deadline (a timer
//!    heap), then answers `timeout` without disturbing the leader. When
//!    the leader completes, its verdict fans out to every waiter
//!    (`"coalesced":true`); a leader that panicked releases them with
//!    `overloaded`. Groups live on the reactor thread only — no locks,
//!    and a group exists only while its leader holds a shard slot, so a
//!    shed leader can never strand a joiner.
//! 5. Everything else is routed (fingerprint affinity for queries,
//!    round-robin otherwise) and admitted against that shard's cap,
//!    `1 + ceil(backlog / shards)` outstanding jobs; past it the request
//!    is shed at once with an explicit `overloaded` — the client is
//!    never left hanging. `backlog = 0` still admits one job per shard.
//!
//! ## Response order
//!
//! Requests pipelined on one connection are admitted concurrently and
//! may complete in any order; each takes a sequence slot at admission
//! and responses are moved to the write buffer strictly in slot order,
//! so a client reads answers in the order it asked.
//!
//! ## Drain
//!
//! Shutdown (SIGTERM/ctrl-c via [`crate::signal`], or
//! [`crate::ServerHandle::shutdown`]) deregisters the listener and marks
//! the server draining: lines that still arrive are answered
//! `shutting_down`. The reactor keeps running until every admitted job
//! and every offload has been answered, flushes what clients will take
//! (force-closing those that won't after a 5 s grace), closes the
//! connections, then stops and joins the shards.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rzen::Budget;
use rzen_engine::{
    CacheMiss, Engine, EngineConfig, NetOp, Probe, Query, QueryResult, ServeWorker, Verdict,
};
use rzen_loop::framing::{HttpDecoder, HttpError, HttpRequest, LineDecoder, WriteBuf};
use rzen_loop::ring::{spsc, Consumer, Producer};
use rzen_loop::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use rzen_loop::Doorbell;
use rzen_net::topology::Network;
use rzen_obs::flight::{SmallStr, FLAG_CACHE_HIT, FLAG_COALESCED};
use rzen_obs::VerdictClass;

use crate::proto::{self, Op};
use crate::server::{
    answer_delta_post, answer_http_get, answer_model_post, do_hsa, do_paths, do_sleep,
    idle_reaped_counter, observe_latency, open_conns_gauge, render_http, HttpAnswer, Model,
    RespMeta, ServerConfig, Shared,
};
use crate::signal;

/// Token for the listening socket.
const TOK_LISTENER: u64 = u64::MAX;
/// Token for the doorbell's read end.
const TOK_DOORBELL: u64 = u64::MAX - 1;
/// Bytes per read() attempt.
const READ_CHUNK: usize = 16 << 10;
/// Write-buffer high-water mark: past this, the connection's reads pause
/// so a client that won't read responses can't balloon our memory.
const WBUF_PAUSE: usize = 256 << 10;
/// Reads resume once the write buffer drains below this.
const WBUF_RESUME: usize = 64 << 10;
/// How long the drain waits for clients to take their final responses
/// before force-closing the stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Shared control surface the [`crate::server::ServerHandle`] holds onto.
pub(crate) struct EpollCtl {
    pub(crate) shared: Arc<Shared>,
    pub(crate) doorbell: Arc<Doorbell>,
    open_conns: AtomicUsize,
}

impl EpollCtl {
    pub(crate) fn open_conns(&self) -> usize {
        self.open_conns.load(Ordering::SeqCst)
    }
}

/// Start the server. Returns the bound address, the control
/// surface, and the reactor thread handle.
pub(crate) fn start(
    cfg: ServerConfig,
    model: Model,
) -> io::Result<(SocketAddr, Arc<EpollCtl>, thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // Fail fast, before any thread exists: if the kernel won't give us
    // a poller or a pipe there is nothing to fall back to.
    let epoll = Epoll::new()?;
    let doorbell = Arc::new(Doorbell::new()?);

    let shards = if cfg.shards == 0 {
        cfg.jobs.max(1)
    } else {
        cfg.shards.max(1)
    };
    let engine = Engine::new(EngineConfig {
        jobs: shards,
        backend: cfg.backend,
        timeout: cfg.timeout,
        cache: true,
        sessions: cfg.sessions,
    });
    let ctl = Arc::new(EpollCtl {
        shared: Arc::new(Shared::new(cfg, model, engine)),
        doorbell,
        open_conns: AtomicUsize::new(0),
    });
    let reactor_ctl = ctl.clone();
    let reactor = thread::spawn(move || {
        let mut r = Reactor::new(reactor_ctl, epoll, shards);
        r.run(listener);
        r.shutdown_shards();
    });
    Ok((addr, ctl, reactor))
}

/// Everything the reactor needs to finish a request after the job left
/// the connection: identity, classification inputs, and the response
/// slot. `Copy` so the shard can hand it back even on the panic path.
#[derive(Clone, Copy)]
struct JobTicket {
    /// Connection token the response goes back to.
    token: u64,
    /// Response slot on the connection (responses flush in `seq` order).
    seq: u64,
    ctx: rzen_obs::RequestCtx,
    /// Admission time: flight latency includes ring wait.
    started: Instant,
    start_us: u64,
    /// Client correlation id.
    id: Option<u64>,
    op: &'static str,
    src: SmallStr,
    dst: SmallStr,
    /// Query fingerprint when this job leads a coalesce group.
    fp: Option<u64>,
}

/// One unit of work routed to a shard.
enum ShardJob {
    /// A `reach`/`drops`, over a handle to the model's network.
    Query {
        t: JobTicket,
        query: Query,
        budget: Budget,
        /// The reactor's probe missed: solve without a second lookup.
        miss: Option<CacheMiss>,
    },
    Hsa {
        t: JobTicket,
        src: (usize, u8),
        dst: (usize, u8),
        model: Arc<Model>,
    },
    Paths {
        t: JobTicket,
        src: (usize, u8),
        dst: (usize, u8),
        model: Arc<Model>,
    },
    Sleep {
        t: JobTicket,
        ms: u64,
    },
}

impl ShardJob {
    fn ticket(&self) -> &JobTicket {
        match self {
            ShardJob::Query { t, .. }
            | ShardJob::Hsa { t, .. }
            | ShardJob::Paths { t, .. }
            | ShardJob::Sleep { t, .. } => t,
        }
    }
}

/// A finished job coming back from a shard. The leader's response is
/// rendered shard-side; the raw result rides along when a coalesce
/// group may need to fan it out to waiters.
struct ShardDone {
    t: JobTicket,
    resp: String,
    meta: RespMeta,
    result: Option<Box<QueryResult>>,
}

/// Reactor-side view of one shard.
struct ShardSlot {
    jobs: Producer<ShardJob>,
    done: Consumer<ShardDone>,
    /// Jobs admitted to this shard and not yet collected back.
    outstanding: usize,
    handle: Option<thread::JoinHandle<()>>,
    waker: thread::Thread,
    depth: &'static rzen_obs::Gauge,
}

/// A completed offloaded HTTP endpoint, ready to write back.
struct HttpDone {
    token: u64,
    answer: HttpAnswer,
    head: bool,
}

/// In-flight identical queries: the leader runs, joiners wait on its
/// verdict. Lives reactor-local (single-threaded — no locks), keyed by
/// query fingerprint. Against collisions a newcomer joins only with the
/// same op and endpoints over the very network handle the leader was
/// admitted with — so two models, even equal ones, never merge.
struct Group {
    net: Network,
    op: NetOp,
    src: (usize, u8),
    dst: (usize, u8),
    leader_req: u64,
    waiters: Vec<JobTicket>,
}

/// What stage of protocol detection/decoding a connection is in.
enum Proto {
    /// First bytes: not yet enough to tell HTTP from NDJSON.
    Sniff(Vec<u8>),
    Ndjson(LineDecoder),
    Http(HttpDecoder),
}

struct Conn {
    stream: TcpStream,
    token: u64,
    proto: Proto,
    wbuf: WriteBuf,
    /// Currently-registered epoll interest mask.
    interest: u32,
    /// Next response slot to allocate (one per request line).
    next_seq: u64,
    /// Next slot to move into the write buffer: responses leave in
    /// request order even when jobs complete out of order.
    flush_seq: u64,
    /// `seq -> Some(rendered response)` once ready, `None` while the job
    /// is still in flight.
    pending: HashMap<u64, Option<String>>,
    /// Jobs (and coalesce waits) in flight for this connection.
    outstanding: usize,
    last_activity: Instant,
    close_after_flush: bool,
    read_paused: bool,
    /// An offloaded HTTP endpoint is running; reads stay paused.
    http_busy: bool,
    /// Read side saw EOF; the connection closes once everything owed is
    /// written.
    peer_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            proto: Proto::Sniff(Vec::new()),
            wbuf: WriteBuf::new(),
            interest: EPOLLIN | EPOLLRDHUP,
            next_seq: 0,
            flush_seq: 0,
            pending: HashMap::new(),
            outstanding: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
            read_paused: false,
            http_busy: false,
            peer_closed: false,
        }
    }
}

/// Has this connection nothing left to do?
fn conn_done(conn: &Conn) -> bool {
    (conn.close_after_flush && conn.wbuf.is_empty())
        || (conn.peer_closed
            && conn.outstanding == 0
            && conn.pending.is_empty()
            && conn.wbuf.is_empty())
}

/// Move ready responses (in `seq` order) into the write buffer and push
/// bytes at the socket. Returns false when the socket is dead.
fn flush_ready(conn: &mut Conn) -> bool {
    while matches!(conn.pending.get(&conn.flush_seq), Some(Some(_))) {
        let Some(Some(resp)) = conn.pending.remove(&conn.flush_seq) else {
            unreachable!("checked above")
        };
        conn.wbuf.queue(resp.as_bytes());
        conn.flush_seq += 1;
    }
    if conn.wbuf.len() > WBUF_PAUSE {
        conn.read_paused = true;
    }
    let alive = conn.wbuf.flush(&mut conn.stream).is_ok();
    if conn.read_paused && conn.wbuf.len() < WBUF_RESUME {
        conn.read_paused = false;
    }
    alive
}

/// Re-register the epoll interest mask when it changed: `EPOLLOUT` only
/// while the write buffer holds bytes, `EPOLLIN` only while we are
/// willing to read.
fn update_interest(epoll: &Epoll, conn: &mut Conn) {
    let mut want = EPOLLRDHUP;
    if !conn.read_paused && !conn.http_busy && !conn.close_after_flush {
        want |= EPOLLIN;
    }
    if !conn.wbuf.is_empty() {
        want |= EPOLLOUT;
    }
    if want != conn.interest
        && epoll
            .modify(conn.stream.as_raw_fd(), want, conn.token)
            .is_ok()
    {
        conn.interest = want;
    }
}

/// Metrics + flight record for one finished request; runs on every
/// path — error responses included, connection alive or not.
fn finalize(t: &JobTicket, meta: &RespMeta, leader: u64) {
    observe_latency(t.started);
    if meta.verdict.is_serve_error() {
        rzen_obs::metrics::registry()
            .counter_with(
                "serve.errors_total",
                "failed serve responses by failure kind",
                &[("kind", meta.verdict.as_str())],
            )
            .inc();
    }
    rzen_obs::flight::record(rzen_obs::RequestRecord {
        id: t.ctx.id,
        start_us: t.start_us,
        latency_us: t.started.elapsed().as_micros() as u64,
        model: t.ctx.model,
        generation: t.ctx.generation,
        leader,
        op: SmallStr::new(t.op),
        src: t.src,
        dst: t.dst,
        verdict: meta.verdict,
        backend: meta.backend,
        flags: meta.flags,
        alloc_bytes: meta.alloc_bytes,
        alloc_count: meta.alloc_count,
        shard: t.ctx.shard,
    });
}

struct Reactor {
    ctl: Arc<EpollCtl>,
    epoll: Epoll,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shards: Vec<ShardSlot>,
    per_shard_cap: usize,
    /// Round-robin cursor for work with no fingerprint affinity.
    rr: usize,
    coalesce: HashMap<u64, Group>,
    /// Joiner deadlines: `(deadline, query fp, waiter request id)`.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    http_done: Arc<Mutex<Vec<HttpDone>>>,
    /// Offload threads still running; the drain waits for them.
    offloads: Arc<AtomicUsize>,
    stop_shards: Arc<AtomicBool>,
    wakeups: &'static rzen_obs::Counter,
    draining: bool,
    drain_started: Option<Instant>,
    last_idle_scan: Instant,
}

impl Reactor {
    fn new(ctl: Arc<EpollCtl>, epoll: Epoll, shard_count: usize) -> Reactor {
        let backlog = ctl.shared.cfg.backlog;
        // One executing job plus this shard's share of the backlog.
        let per_shard_cap = 1 + backlog.div_ceil(shard_count);
        let stop_shards = Arc::new(AtomicBool::new(false));
        let mut shards = Vec::with_capacity(shard_count);
        for sid in 0..shard_count {
            let (jobs_tx, jobs_rx) = spsc::<ShardJob>(per_shard_cap);
            let (done_tx, done_rx) = spsc::<ShardDone>(per_shard_cap);
            let shared = ctl.shared.clone();
            let bell = ctl.doorbell.clone();
            let stop = stop_shards.clone();
            let handle =
                thread::spawn(move || shard_loop(shared, sid, jobs_rx, done_tx, bell, stop));
            let waker = handle.thread().clone();
            shards.push(ShardSlot {
                jobs: jobs_tx,
                done: done_rx,
                outstanding: 0,
                handle: Some(handle),
                waker,
                depth: rzen_obs::metrics::registry().gauge_with(
                    "serve.shard_queue_depth",
                    "jobs queued or running per engine shard",
                    &[("shard", &sid.to_string())],
                ),
            });
        }
        Reactor {
            ctl,
            epoll,
            conns: HashMap::new(),
            next_token: 0,
            shards,
            per_shard_cap,
            rr: 0,
            coalesce: HashMap::new(),
            timers: BinaryHeap::new(),
            http_done: Arc::new(Mutex::new(Vec::new())),
            offloads: Arc::new(AtomicUsize::new(0)),
            stop_shards,
            wakeups: rzen_obs::counter!("loop.wakeups", "reactor epoll_wait returns"),
            draining: false,
            drain_started: None,
            last_idle_scan: Instant::now(),
        }
    }

    fn run(&mut self, listener: TcpListener) {
        let _span = rzen_obs::span!("serve.reactor");
        if self
            .epoll
            .add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)
            .is_err()
            || self
                .epoll
                .add(self.ctl.doorbell.read_fd(), EPOLLIN, TOK_DOORBELL)
                .is_err()
        {
            return;
        }
        let mut events = vec![EpollEvent::default(); 256];
        loop {
            let timeout = self.wait_timeout_ms();
            let nev = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            self.wakeups.inc();
            {
                let shared = &self.ctl.shared;
                if !self.draining
                    && (shared.shutdown.load(Ordering::SeqCst)
                        || (shared.cfg.handle_signals && signal::triggered()))
                {
                    self.draining = true;
                    shared.draining.store(true, Ordering::SeqCst);
                    self.drain_started = Some(Instant::now());
                    let _ = self.epoll.delete(listener.as_raw_fd());
                }
            }
            for ev in events.iter().take(nev) {
                let (mask, token) = (ev.mask(), ev.token());
                match token {
                    TOK_LISTENER => {
                        if !self.draining {
                            self.accept_ready(&listener);
                        }
                    }
                    TOK_DOORBELL => self.ctl.doorbell.drain(),
                    token => self.handle_conn_event(token, mask),
                }
            }
            self.drain_completions();
            self.drain_http_done();
            self.fire_timers(Instant::now());
            self.reap_idle(Instant::now());
            if self.draining && self.drain_complete() {
                break;
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.remove(&token) {
                self.close_conn(conn);
            }
        }
    }

    /// Stop and join the shard threads. Runs after the event loop exits,
    /// when no producer can route another job.
    fn shutdown_shards(&mut self) {
        self.stop_shards.store(true, Ordering::SeqCst);
        for s in &self.shards {
            s.waker.unpark();
        }
        for s in &mut self.shards {
            if let Some(h) = s.handle.take() {
                let _ = h.join();
            }
        }
    }

    fn wait_timeout_ms(&self) -> i32 {
        let mut ms: u64 = if self.draining { 2 } else { 100 };
        if let Some(Reverse((deadline, _, _))) = self.timers.peek() {
            let until = deadline
                .saturating_duration_since(Instant::now())
                .as_millis() as u64;
            ms = ms.min(until.max(1));
        }
        if self.ctl.shared.cfg.idle_timeout.is_some() {
            ms = ms.min(250);
        }
        ms as i32
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    rzen_obs::counter!("serve.connections", "TCP connections accepted").inc();
                    let _ = stream.set_nonblocking(true);
                    // Request/response lines are tiny; Nagle + delayed
                    // ACK would add ~40ms to every exchange.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                        .is_err()
                    {
                        continue;
                    }
                    open_conns_gauge().add(1);
                    self.ctl.open_conns.fetch_add(1, Ordering::SeqCst);
                    self.conns.insert(token, Conn::new(stream, token));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // EMFILE, ECONNABORTED, ...: transient for a
                    // listener; the loop simply tries again next wake.
                    rzen_obs::counter!("serve.accept_errors", "transient accept() failures").inc();
                    break;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, token: u64, mask: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let alive = self.drive_conn(&mut conn, mask) && !conn_done(&conn);
        if alive {
            update_interest(&self.epoll, &mut conn);
            self.conns.insert(token, conn);
        } else {
            self.close_conn(conn);
        }
    }

    /// React to readiness on one connection. Returns false when the
    /// connection is dead.
    fn drive_conn(&mut self, conn: &mut Conn, mask: u32) -> bool {
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            return false;
        }
        if mask & EPOLLOUT != 0 {
            if conn.wbuf.flush(&mut conn.stream).is_err() {
                return false;
            }
            if conn.read_paused && conn.wbuf.len() < WBUF_RESUME {
                conn.read_paused = false;
            }
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            let mut buf = [0u8; READ_CHUNK];
            loop {
                if conn.read_paused || conn.http_busy || conn.close_after_flush {
                    break;
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if !self.ingest(conn, &buf[..n]) {
                            return false;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        true
    }

    /// Feed freshly-read bytes through the connection's protocol state
    /// machine. Returns false when the connection must close now.
    fn ingest(&mut self, conn: &mut Conn, data: &[u8]) -> bool {
        if let Proto::Sniff(acc) = &mut conn.proto {
            acc.extend_from_slice(data);
            // "GET ", "POST " and "HEAD " need at most 5 bytes to
            // recognize; a newline earlier than that can only be NDJSON.
            if acc.len() < 5 && !acc.contains(&b'\n') {
                return true;
            }
            let seed = std::mem::take(acc);
            conn.proto = if seed.starts_with(b"GET ")
                || seed.starts_with(b"POST ")
                || seed.starts_with(b"HEAD ")
            {
                Proto::Http(HttpDecoder::new(&seed))
            } else {
                let mut d = LineDecoder::new();
                d.feed(&seed);
                Proto::Ndjson(d)
            };
        } else {
            match &mut conn.proto {
                Proto::Ndjson(d) => d.feed(data),
                Proto::Http(d) => d.feed(data),
                Proto::Sniff(_) => unreachable!("handled above"),
            }
        }
        match &conn.proto {
            Proto::Ndjson(_) => self.pump_ndjson(conn),
            Proto::Http(_) => self.pump_http(conn),
            Proto::Sniff(_) => true,
        }
    }

    fn pump_ndjson(&mut self, conn: &mut Conn) -> bool {
        loop {
            let next = match &mut conn.proto {
                Proto::Ndjson(d) => d.next_line(),
                _ => return true,
            };
            match next {
                Ok(Some(line)) => self.admit_line(conn, &line),
                Ok(None) => break,
                Err(_) => {
                    // The decoder is poisoned past its 1 MiB line cap;
                    // answer once and close.
                    rzen_obs::counter!("serve.bad_requests", "malformed request lines").inc();
                    conn.wbuf
                        .queue(proto::error_response(None, 0, "request line too long").as_bytes());
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        flush_ready(conn)
    }

    fn pump_http(&mut self, conn: &mut Conn) -> bool {
        // One request per connection (`Connection: close`).
        if conn.http_busy || conn.close_after_flush {
            return true;
        }
        let polled = match &mut conn.proto {
            Proto::Http(d) => d.poll(),
            _ => return true,
        };
        match polled {
            Ok(None) => true,
            Ok(Some(req)) => {
                self.handle_http_request(conn, req);
                flush_ready(conn)
            }
            Err(HttpError::HeadersTooLarge) => {
                rzen_obs::counter!(
                    "serve.header_cap_exceeded",
                    "HTTP requests rejected for oversized headers (431)"
                )
                .inc();
                self.http_finish(
                    conn,
                    &HttpAnswer::error(431, "request header fields too large"),
                    false,
                );
                flush_ready(conn)
            }
            Err(HttpError::BodyTooLarge) => {
                self.http_finish(
                    conn,
                    &HttpAnswer::error(400, "body missing or oversized"),
                    false,
                );
                flush_ready(conn)
            }
        }
    }

    /// Queue an HTTP response and mark the connection to close once it
    /// is flushed.
    fn http_finish(&mut self, conn: &mut Conn, answer: &HttpAnswer, head: bool) {
        conn.wbuf
            .queue(render_http(answer.status, answer.content_type, &answer.body, head).as_bytes());
        conn.close_after_flush = true;
    }

    fn handle_http_request(&mut self, conn: &mut Conn, req: HttpRequest) {
        let _span = rzen_obs::span!("serve.http");
        let mut parts = req.request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let target = parts.next().unwrap_or("");
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let (path, query) = (path.to_string(), query.to_string());
        let head = method == "HEAD";
        match (method.as_str(), path.as_str()) {
            ("POST", "/model") | ("POST", "/delta") => {
                // The decoder already rejected bodies past the 16 MiB
                // cap; an absent or empty one is just as unusable.
                if req.content_length.unwrap_or(0) == 0 {
                    self.http_finish(
                        conn,
                        &HttpAnswer::error(400, "body missing or oversized"),
                        head,
                    );
                    return;
                }
                let Ok(text) = String::from_utf8(req.body) else {
                    self.http_finish(conn, &HttpAnswer::error(400, "body is not utf-8"), head);
                    return;
                };
                let is_model = path == "/model";
                let shared = self.ctl.shared.clone();
                self.offload(conn, head, move || {
                    if is_model {
                        answer_model_post(&shared, &text)
                    } else {
                        answer_delta_post(&shared, &text)
                    }
                });
            }
            ("GET" | "HEAD", "/debug/trace" | "/debug/profile") => {
                // These block for their whole capture window — never on
                // the reactor thread.
                let shared = self.ctl.shared.clone();
                self.offload(conn, head, move || {
                    answer_http_get(&method, &path, &query, &shared)
                });
            }
            _ => {
                let answer = answer_http_get(&method, &path, &query, &self.ctl.shared);
                self.http_finish(conn, &answer, head);
            }
        }
    }

    /// Run a blocking HTTP endpoint on its own thread; the result comes
    /// back through `http_done` + the doorbell. The connection's reads
    /// stay paused meanwhile.
    fn offload(
        &mut self,
        conn: &mut Conn,
        head: bool,
        f: impl FnOnce() -> HttpAnswer + Send + 'static,
    ) {
        conn.http_busy = true;
        let token = conn.token;
        let sink = self.http_done.clone();
        let offloads = self.offloads.clone();
        let bell = self.ctl.doorbell.clone();
        offloads.fetch_add(1, Ordering::SeqCst);
        thread::spawn(move || {
            let answer = catch_unwind(AssertUnwindSafe(f))
                .unwrap_or_else(|_| HttpAnswer::error(500, "internal: endpoint panicked"));
            sink.lock().unwrap().push(HttpDone {
                token,
                answer,
                head,
            });
            offloads.fetch_sub(1, Ordering::SeqCst);
            bell.ring();
        });
    }

    fn drain_http_done(&mut self) {
        let done: Vec<HttpDone> = std::mem::take(&mut *self.http_done.lock().unwrap());
        for d in done {
            let Some(mut conn) = self.conns.remove(&d.token) else {
                continue;
            };
            conn.http_busy = false;
            conn.last_activity = Instant::now();
            self.http_finish(&mut conn, &d.answer, d.head);
            let alive = flush_ready(&mut conn) && !conn_done(&conn);
            if alive {
                update_interest(&self.epoll, &mut conn);
                self.conns.insert(d.token, conn);
            } else {
                self.close_conn(conn);
            }
        }
    }

    /// Admit one NDJSON request line (the module docs give the order).
    /// Nothing here ever blocks — a result-cache hit is answered at once,
    /// other in-flight work parks in `pending[seq]` and the answer
    /// arrives through the shard's done ring. The cache probe takes the
    /// engine's cache lock with `try_lock` only: while another thread
    /// holds it (a `POST /model` or `POST /delta` sweep, a shard's
    /// insert), the query goes to its shard as a miss would and is looked
    /// up there, so no client can block the reactor on that lock either.
    fn admit_line(&mut self, conn: &mut Conn, line: &str) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let started = Instant::now();
        let start_us = rzen_obs::flight::now_us();
        rzen_obs::counter!("serve.requests", "query requests received").inc();
        let shared = self.ctl.shared.clone();
        // Model pointer captured before admission: a hot swap between
        // admission and execution must not change what this request
        // computes against.
        let model = shared.model.read().unwrap().clone();
        let ctx =
            rzen_obs::RequestCtx::mint(model.fingerprint, shared.generation.load(Ordering::SeqCst));
        let _span = rzen_obs::span!("serve.request", "req" => ctx.id);
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let mut t = JobTicket {
            token: conn.token,
            seq,
            ctx,
            started,
            start_us,
            id: None,
            op: "",
            src: SmallStr::default(),
            dst: SmallStr::default(),
            fp: None,
        };

        let req = match proto::parse_request(trimmed, shared.cfg.debug_ops) {
            Ok(r) => r,
            Err(e) => {
                rzen_obs::counter!("serve.bad_requests", "malformed request lines").inc();
                let meta = RespMeta {
                    verdict: VerdictClass::BadRequest,
                    ..RespMeta::default()
                };
                let resp = proto::error_response(None, ctx.id, &e);
                self.finish_local(conn, &t, meta, resp);
                return;
            }
        };
        t.id = req.id;
        t.op = req.op.name();
        let (src, dst) = match &req.op {
            Op::Reach { src, dst }
            | Op::Drops { src, dst }
            | Op::Hsa { src, dst }
            | Op::Paths { src, dst } => {
                t.src = SmallStr::new(src);
                t.dst = SmallStr::new(dst);
                match (model.spec.endpoint(src), model.spec.endpoint(dst)) {
                    (Ok(s), Ok(d)) => (s, d),
                    (Err(e), _) | (_, Err(e)) => {
                        let meta = RespMeta {
                            verdict: VerdictClass::ResolveFailed,
                            ..RespMeta::default()
                        };
                        let resp = proto::error_response(req.id, ctx.id, &e);
                        self.finish_local(conn, &t, meta, resp);
                        return;
                    }
                }
            }
            // Sleep names no endpoints.
            Op::Sleep { .. } => ((0, 0), (0, 0)),
        };
        if shared.draining.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            let meta = RespMeta {
                verdict: VerdictClass::ShuttingDown,
                ..RespMeta::default()
            };
            let resp = proto::error_response(req.id, ctx.id, "shutting_down");
            self.finish_local(conn, &t, meta, resp);
            return;
        }
        // The budget starts at admission so ring wait consumes the
        // deadline.
        let budget = match req
            .timeout_ms
            .map(Duration::from_millis)
            .or(shared.cfg.timeout)
        {
            Some(timeout) => Budget::with_timeout(timeout),
            None => Budget::unlimited(),
        };

        match &req.op {
            Op::Reach { .. } | Op::Drops { .. } => {
                let op = if matches!(req.op, Op::Reach { .. }) {
                    NetOp::Reach
                } else {
                    NetOp::Drops
                };
                let alloc0 = rzen_obs::profile::thread_alloc_stats();
                let query = op.query(model.spec.net.clone(), src, dst);
                let miss = match shared.engine.probe(&query) {
                    Probe::Hit(result) => {
                        self.answer_hit(conn, &t, &result, alloc0);
                        return;
                    }
                    Probe::Miss(miss) => Some(miss),
                    Probe::Skipped => None,
                };
                let fp = query.fingerprint();
                let job = |t| ShardJob::Query {
                    t,
                    query,
                    budget: budget.clone(),
                    miss,
                };
                // Coalesce before the shed check: a joiner consumes no
                // shard slot at all.
                if let Some(group) = self.coalesce.get_mut(&fp) {
                    if Network::ptr_eq(&group.net, &model.spec.net)
                        && (group.op, group.src, group.dst) == (op, src, dst)
                    {
                        rzen_obs::counter!(
                            "serve.coalesced",
                            "requests answered by joining an identical in-flight query"
                        )
                        .inc();
                        conn.pending.insert(seq, None);
                        conn.outstanding += 1;
                        group.waiters.push(t);
                        // The wait is bounded by *this* request's
                        // deadline: a short-budget joiner riding a
                        // long-budget leader degrades to its own
                        // `timeout`.
                        if let Some(deadline) = budget.deadline() {
                            self.timers.push(Reverse((deadline, fp, ctx.id)));
                        }
                        return;
                    }
                    // Fingerprint collision, or the same question over
                    // another model: run it alone, uncoalesced.
                    self.route_job(conn, t, job);
                    return;
                }
                t.fp = Some(fp);
                let leader_req = ctx.id;
                if self.route_job(conn, t, job) {
                    self.coalesce.insert(
                        fp,
                        Group {
                            net: model.spec.net.clone(),
                            op,
                            src,
                            dst,
                            leader_req,
                            waiters: Vec::new(),
                        },
                    );
                }
            }
            Op::Hsa { .. } => {
                let model = model.clone();
                self.route_job(conn, t, |t| ShardJob::Hsa { t, src, dst, model });
            }
            Op::Paths { .. } => {
                let model = model.clone();
                self.route_job(conn, t, |t| ShardJob::Paths { t, src, dst, model });
            }
            Op::Sleep { ms } => {
                let ms = *ms;
                self.route_job(conn, t, |t| ShardJob::Sleep { t, ms });
            }
        }
    }

    /// Route a job to a shard and admit it, or shed with `overloaded`.
    /// Queries with a fingerprint get fingerprint affinity (stable shard
    /// per query/model, so repeats hit that shard's cache); everything
    /// else round-robins. Returns whether the job was admitted.
    fn route_job(
        &mut self,
        conn: &mut Conn,
        mut t: JobTicket,
        build: impl FnOnce(JobTicket) -> ShardJob,
    ) -> bool {
        let sid = match t.fp {
            Some(fp) => (fp.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len(),
            None => {
                self.rr = (self.rr + 1) % self.shards.len();
                self.rr
            }
        };
        if self.shards[sid].outstanding >= self.per_shard_cap {
            rzen_obs::counter!(
                "serve.overloaded",
                "requests shed by the full admission queue"
            )
            .inc();
            let meta = RespMeta {
                verdict: VerdictClass::Overloaded,
                ..RespMeta::default()
            };
            let resp = proto::error_response(t.id, t.ctx.id, "overloaded");
            self.finish_local(conn, &t, meta, resp);
            return false;
        }
        t.ctx.shard = (sid + 1) as u16;
        conn.pending.insert(t.seq, None);
        conn.outstanding += 1;
        // Reserve the in-flight count before the push so the drain never
        // observes zero while a job sits in a ring.
        self.ctl.shared.admitted.fetch_add(1, Ordering::SeqCst);
        let slot = &mut self.shards[sid];
        slot.outstanding += 1;
        slot.depth.set(slot.outstanding as i64);
        if slot.jobs.push(build(t)).is_err() {
            // Unreachable: outstanding < cap == ring capacity. Kept as a
            // real shed rather than a panic in case the invariant moves.
            slot.outstanding -= 1;
            slot.depth.set(slot.outstanding as i64);
            self.ctl.shared.admitted.fetch_sub(1, Ordering::SeqCst);
            conn.pending.remove(&t.seq);
            conn.outstanding -= 1;
            rzen_obs::counter!(
                "serve.overloaded",
                "requests shed by the full admission queue"
            )
            .inc();
            let meta = RespMeta {
                verdict: VerdictClass::Overloaded,
                ..RespMeta::default()
            };
            let resp = proto::error_response(t.id, t.ctx.id, "overloaded");
            self.finish_local(conn, &t, meta, resp);
            return false;
        }
        slot.waker.unpark();
        true
    }

    /// Answer a result-cache hit on the reactor: the verdict line a shard
    /// would have rendered, and a flight record with no shard carrying
    /// the heap spent since `alloc0` (taken before the probe).
    fn answer_hit(
        &mut self,
        conn: &mut Conn,
        t: &JobTicket,
        result: &QueryResult,
        (alloc_bytes0, alloc_count0): (u64, u64),
    ) {
        let resp = proto::verdict_response(t.id, t.ctx.id, t.op, result, false);
        let (alloc_bytes1, alloc_count1) = rzen_obs::profile::thread_alloc_stats();
        let meta = RespMeta {
            alloc_bytes: alloc_bytes1.saturating_sub(alloc_bytes0),
            alloc_count: alloc_count1.saturating_sub(alloc_count0),
            ..RespMeta::for_result(result)
        };
        self.finish_local(conn, t, meta, resp);
    }

    /// Answer a request synchronously (cache hits, errors, shedding,
    /// drain refusals): finalize its record and park the response in its
    /// ordered slot.
    fn finish_local(&mut self, conn: &mut Conn, t: &JobTicket, meta: RespMeta, resp: String) {
        finalize(t, &meta, 0);
        conn.pending.insert(t.seq, Some(resp));
    }

    /// Collect finished jobs from every shard's done ring.
    fn drain_completions(&mut self) {
        for sid in 0..self.shards.len() {
            while let Some(done) = self.shards[sid].done.pop() {
                let slot = &mut self.shards[sid];
                slot.outstanding -= 1;
                slot.depth.set(slot.outstanding as i64);
                self.ctl.shared.admitted.fetch_sub(1, Ordering::SeqCst);
                self.complete(done);
            }
        }
    }

    /// Deliver a leader's response and fan its verdict out to any
    /// coalesced waiters.
    fn complete(&mut self, done: ShardDone) {
        finalize(&done.t, &done.meta, 0);
        let group = done.t.fp.and_then(|fp| self.coalesce.remove(&fp));
        self.deliver(done.t.token, done.t.seq, done.resp);
        let Some(group) = group else {
            return;
        };
        for w in group.waiters {
            let (resp, meta) = match &done.result {
                Some(result) => {
                    let mut flags = FLAG_COALESCED;
                    if result.cache_hit {
                        flags |= FLAG_CACHE_HIT;
                    }
                    (
                        proto::verdict_response(w.id, w.ctx.id, w.op, result, true),
                        RespMeta {
                            flags,
                            ..RespMeta::for_result(result)
                        },
                    )
                }
                // The leader panicked without a verdict; release the
                // waiters rather than hang them.
                None => (
                    proto::error_response(w.id, w.ctx.id, "overloaded"),
                    RespMeta {
                        verdict: VerdictClass::Overloaded,
                        flags: FLAG_COALESCED,
                        ..RespMeta::default()
                    },
                ),
            };
            finalize(&w, &meta, group.leader_req);
            self.deliver(w.token, w.seq, resp);
        }
    }

    /// Hand a finished response to its connection's ordered slot. A gone
    /// connection is not an error — the record was already finalized.
    fn deliver(&mut self, token: u64, seq: u64, resp: String) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        conn.outstanding = conn.outstanding.saturating_sub(1);
        conn.last_activity = Instant::now();
        conn.pending.insert(seq, Some(resp));
        let alive = flush_ready(&mut conn) && !conn_done(&conn);
        if alive {
            update_interest(&self.epoll, &mut conn);
            self.conns.insert(token, conn);
        } else {
            self.close_conn(conn);
        }
    }

    /// Time out coalesce joiners whose own deadline passed before their
    /// leader published.
    fn fire_timers(&mut self, now: Instant) {
        while let Some(&Reverse((deadline, fp, wid))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            let Some(group) = self.coalesce.get_mut(&fp) else {
                continue;
            };
            let Some(pos) = group.waiters.iter().position(|w| w.ctx.id == wid) else {
                continue;
            };
            let w = group.waiters.swap_remove(pos);
            let leader_req = group.leader_req;
            rzen_obs::counter!(
                "serve.join_timeouts",
                "joiners whose own deadline passed before the leader published"
            )
            .inc();
            let timed_out = QueryResult {
                index: 0,
                kind: w.op,
                verdict: Verdict::Timeout,
                latency: w.started.elapsed(),
                winner: None,
                cache_hit: false,
                sat_stats: None,
                bdd_stats: None,
                session: None,
            };
            let resp = proto::verdict_response(w.id, w.ctx.id, w.op, &timed_out, true);
            let meta = RespMeta {
                verdict: VerdictClass::Timeout,
                flags: FLAG_COALESCED,
                ..RespMeta::default()
            };
            finalize(&w, &meta, leader_req);
            self.deliver(w.token, w.seq, resp);
        }
    }

    /// Close connections silent past `--idle-timeout-ms`. Anything with
    /// work in flight or bytes owed is never reaped.
    fn reap_idle(&mut self, now: Instant) {
        let Some(idle) = self.ctl.shared.cfg.idle_timeout else {
            return;
        };
        if now.duration_since(self.last_idle_scan) < Duration::from_millis(100) {
            return;
        }
        self.last_idle_scan = now;
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.outstanding == 0
                    && !c.http_busy
                    && c.wbuf.is_empty()
                    && c.pending.is_empty()
                    && now.duration_since(c.last_activity) >= idle
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            if let Some(conn) = self.conns.remove(&token) {
                idle_reaped_counter().inc();
                self.close_conn(conn);
            }
        }
    }

    /// The drain is complete when every admitted job and offload is
    /// answered and every client took its bytes (bounded by the grace
    /// window for clients that won't read).
    fn drain_complete(&self) -> bool {
        if self.ctl.shared.admitted.load(Ordering::SeqCst) > 0
            || self.offloads.load(Ordering::SeqCst) > 0
        {
            return false;
        }
        let flushed = self
            .conns
            .values()
            .all(|c| c.wbuf.is_empty() && c.pending.is_empty());
        flushed
            || self
                .drain_started
                .map(|t| t.elapsed() > DRAIN_GRACE)
                .unwrap_or(false)
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        open_conns_gauge().add(-1);
        self.ctl.open_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One shard: owns a warm solver session; pulls jobs from its SPSC ring,
/// pushes completions back, and rings the doorbell. Parks when idle; the
/// reactor unparks it.
fn shard_loop(
    shared: Arc<Shared>,
    sid: usize,
    jobs: Consumer<ShardJob>,
    done: Producer<ShardDone>,
    bell: Arc<Doorbell>,
    stop: Arc<AtomicBool>,
) {
    let _span = rzen_obs::span!("serve.shard", "shard" => sid as u64);
    let mut epoch = shared.session_epoch.load(Ordering::SeqCst);
    let mut solver = shared.engine.serve_worker();
    loop {
        let Some(job) = jobs.pop() else {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            thread::park_timeout(Duration::from_millis(10));
            continue;
        };
        // A full model swap quiesces this shard's sessions: the old
        // solver (and its runner threads) retires between jobs, and a
        // fresh one starts cold. Deltas never bump the epoch — warm
        // sessions stay warm across them by design.
        let now = shared.session_epoch.load(Ordering::SeqCst);
        if now != epoch {
            epoch = now;
            solver = shared.engine.serve_worker();
            rzen_obs::counter!(
                "serve.session_rebuilds",
                "worker sessions quiesced and rebuilt by full model swaps"
            )
            .inc();
        }
        let t = *job.ticket();
        let _jspan = rzen_obs::span!("serve.job", "req" => t.ctx.id);
        let (alloc_bytes0, alloc_count0) = rzen_obs::profile::thread_alloc_stats();
        let mut out = catch_unwind(AssertUnwindSafe(|| execute_job(&shared, &solver, job)))
            .unwrap_or_else(|_| {
                // The panic may have left the thread-local arena half-built;
                // reset it so the next job on this shard starts clean.
                rzen::reset_ctx();
                rzen_obs::counter!("serve.job_panics", "jobs that panicked during execution").inc();
                ShardDone {
                    t,
                    resp: proto::error_response(t.id, t.ctx.id, "internal: analysis panicked"),
                    meta: RespMeta {
                        verdict: VerdictClass::Error,
                        ..RespMeta::default()
                    },
                    result: None,
                }
            });
        let (alloc_bytes1, alloc_count1) = rzen_obs::profile::thread_alloc_stats();
        out.meta.alloc_bytes = alloc_bytes1.saturating_sub(alloc_bytes0);
        out.meta.alloc_count = alloc_count1.saturating_sub(alloc_count0);
        let mut item = out;
        // The done ring is sized to the jobs ring, so this cannot spin in
        // practice; the retry is a belt against the invariant moving.
        while let Err(back) = done.push(item) {
            item = back;
            thread::yield_now();
        }
        bell.ring();
    }
}

fn execute_job(shared: &Shared, solver: &ServeWorker, job: ShardJob) -> ShardDone {
    let started = Instant::now();
    match job {
        ShardJob::Query {
            t,
            query,
            budget,
            miss,
        } => {
            // An exhausted budget (the request aged out in the ring)
            // still runs: the solvers observe it at their first poll and
            // the request degrades to `timeout`. Without a miss ticket
            // (the probe was skipped) a cache hit can still answer it
            // for free.
            let engine = &shared.engine;
            let result = match miss {
                Some(miss) => engine.run_missed(&query, budget, solver, t.ctx, miss),
                None => engine.run_one(&query, budget, solver, t.ctx),
            };
            let resp = proto::verdict_response(t.id, t.ctx.id, t.op, &result, false);
            let meta = RespMeta::for_result(&result);
            // Only a coalesce leader's verdict is needed back in full.
            let result = t.fp.map(|_| Box::new(result));
            ShardDone {
                t,
                resp,
                meta,
                result,
            }
        }
        ShardJob::Hsa { t, src, dst, model } => {
            let (resp, meta) = do_hsa(t.id, t.ctx.id, src, dst, &model, started);
            ShardDone {
                t,
                resp,
                meta,
                result: None,
            }
        }
        ShardJob::Paths { t, src, dst, model } => {
            let (resp, meta) = do_paths(t.id, t.ctx.id, src, dst, &model, started);
            ShardDone {
                t,
                resp,
                meta,
                result: None,
            }
        }
        ShardJob::Sleep { t, ms } => {
            let (resp, meta) = do_sleep(t.id, t.ctx.id, ms, started);
            ShardDone {
                t,
                resp,
                meta,
                result: None,
            }
        }
    }
}
