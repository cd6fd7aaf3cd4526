//! The batch engine: a worker pool over queries, persistent per-backend
//! runner threads behind each worker (a portfolio is two of them), each
//! solving through a solver session, and a structural result cache. A
//! session lives for one query or, with `sessions`, for the runner's
//! whole life, with fingerprint-affinity claim order.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use rzen::{Backend, Budget, FindOutcome, FindReport, SessionStats, SolverSession};
use rzen_net::topology::{DeltaStep, Network};

use crate::cache::{DeltaCacheStats, Key, KeyRef, ResultCache};
use crate::query::{NetOp, Query, QueryBackend, SharedNet, Verdict};
use crate::stats::{BatchReport, EngineStats, QueryResult};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads for the batch. Each worker owns one persistent
    /// runner thread per backend (two for the portfolio) for the whole
    /// batch and waits on them, so `jobs` bounds the queries in flight.
    pub jobs: usize,
    /// Backend selection per query.
    pub backend: QueryBackend,
    /// Per-query wall-clock budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Enable the structural result cache.
    pub cache: bool,
    /// Keep each runner's solver session (incremental SAT with activation
    /// literals, a shared BDD manager, and a cross-query bitblast cache)
    /// across queries, with same-model queries claimed by the same
    /// worker. Off, a runner drops each query's session after its reply
    /// and resets its context, so nothing carries over.
    pub sessions: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 1,
            backend: QueryBackend::Portfolio,
            timeout: None,
            cache: true,
            sessions: false,
        }
    }
}

/// The batch verification engine. Construct once, [`Engine::run_batch`]
/// any number of times; the result cache persists across batches.
pub struct Engine {
    cfg: EngineConfig,
    /// The result cache, shared by batch workers, serve shards and the
    /// serve reactor's [`Engine::probe`] alike. It is locked only to look
    /// up and to insert, never across a solve, so a sweep never waits for
    /// a solver; the probe only tries the lock, so it never waits for a
    /// sweep.
    cache: Mutex<ResultCache>,
}

/// What one query's solve produced, before verdict mapping.
struct Solved {
    /// The raw outcome, or the panic message if the query blew up.
    outcome: Result<FindOutcome<crate::Witness>, String>,
    winner: Option<Backend>,
    sat_stats: Option<rzen_sat::Stats>,
    bdd_stats: Option<rzen_bdd::BddStats>,
    /// Elapsed time when the decisive verdict arrived. `None` when nothing
    /// was decisive; the caller falls back to total elapsed time.
    decided: Option<Duration>,
    session: Option<SessionStats>,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            cfg,
            cache: Mutex::new(ResultCache::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Drop every cached verdict. For a caller that replaces its model:
    /// entries for the old model are keyed by the old network and could
    /// never be *served* wrongly, but they would pin its memory for the
    /// life of the process.
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().expect(POISONED);
        cache.clear();
        entries_gauge().set(0);
    }

    /// Cached verdicts currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect(POISONED).len()
    }

    /// Apply a model delta to the result cache: of the `Reach`/`Drops`
    /// entries keyed by `old_net`, evict those whose cone of influence
    /// one of `steps` touched — unless the entry is SAT and its witness
    /// packet still witnesses the query on `new_net` — and re-key the
    /// survivors to `new_net` so they keep answering post-delta queries
    /// without a solve. See [`DeltaCacheStats`] and the sweep's own docs
    /// for the invalidation rules. Everything else in the cache — other
    /// query kinds, other models — is untouched, and warm solver sessions
    /// are deliberately left alone: their caches key on hash-consed
    /// expression ids, so changed sub-models simply produce new ids
    /// while unchanged circuitry keeps hitting.
    ///
    /// The survivors share one copy of `new_net`. A caller that holds
    /// both models as [`SharedNet`]s calls
    /// [`Engine::apply_delta_shared`] instead, so they share its handle.
    ///
    /// The sweep runs on the calling thread and is complete on return.
    /// The witness replays run between two holds of the cache lock, on a
    /// helper thread of their own, so the caller's `Zen` context is left
    /// untouched and lookups are not held up by them. A clear or another
    /// sweep that lands in between drops the replayed entries.
    pub fn apply_delta(
        &self,
        old_net: &Network,
        new_net: &Network,
        steps: &[DeltaStep],
    ) -> DeltaCacheStats {
        self.sweep(old_net, &SharedNet::new(new_net.clone()), steps)
    }

    /// [`Engine::apply_delta`] between two shared models: entries that
    /// `old` inserted are recognised by pointer, and the survivors share
    /// `new`'s handle, so an identical post-delta query probed through
    /// `new` hits them without a compare.
    pub fn apply_delta_shared(
        &self,
        old: &SharedNet,
        new: &SharedNet,
        steps: &[DeltaStep],
    ) -> DeltaCacheStats {
        self.sweep(old.net(), new, steps)
    }

    /// Sweep under the lock, replay the in-cone SAT witnesses with it
    /// released, then re-admit the survivors under the lock again.
    fn sweep(&self, old_net: &Network, new: &SharedNet, steps: &[DeltaStep]) -> DeltaCacheStats {
        let mut cache = self.cache.lock().expect(POISONED);
        let replays = cache.sweep_delta(old_net, new, steps);
        entries_gauge().set(cache.len() as i64);
        drop(cache);
        let stats = match replays.settled() {
            Some(stats) => stats,
            None => {
                let replays = replays.replay();
                let mut cache = self.cache.lock().expect(POISONED);
                let stats = cache.readmit(replays);
                entries_gauge().set(cache.len() as i64);
                stats
            }
        };
        rzen_obs::counter!("engine.deltas", "model deltas applied to the result cache").inc();
        rzen_obs::counter!(
            "engine.cache.delta_evicted",
            "cache entries evicted by delta cone-of-influence sweeps"
        )
        .add(stats.evicted as u64);
        rzen_obs::counter!(
            "engine.cache.delta_retained",
            "cache entries kept warm (re-keyed) across delta sweeps"
        )
        .add(stats.retained as u64);
        rzen_obs::counter!(
            "engine.cache.delta_revalidated",
            "in-cone SAT entries kept warm across delta sweeps: their witness still held"
        )
        .add(stats.revalidated as u64);
        stats
    }

    /// Solve every query, distributing them over `jobs` workers. Results
    /// come back in input order regardless of completion order. Queries
    /// always run on spawned threads — never on the calling thread — so
    /// the caller's thread-local `Zen` context is left untouched.
    pub fn run_batch(&self, queries: &[Query]) -> BatchReport {
        // The idle path must be free: no worker spawn, no span, and a
        // well-formed report (percentiles and rates all defined on zero
        // samples).
        if queries.is_empty() {
            return BatchReport {
                results: Vec::new(),
                stats: EngineStats::aggregate(&[], Duration::ZERO),
            };
        }
        let started = Instant::now();
        let _span = rzen_obs::span!("engine.batch", "queries" => queries.len() as u64, "jobs" => self.cfg.jobs as u64);
        let n = queries.len();
        let workers = self.cfg.jobs.max(1).min(n);
        // Besides the session's scope, the claim order is the only thing
        // the mode decides. Per-query workers share one queue (whoever is
        // free takes the next query: nothing carries over, so balance is
        // all that matters); session workers each drain the model groups
        // routed to them, so queries sharing an ACL/route-map/topology
        // meet the same warm sessions.
        let claims: Vec<Arc<ClaimQueue>> = if self.cfg.sessions {
            affinity_buckets(queries, workers)
                .into_iter()
                .map(|bucket| Arc::new(ClaimQueue::new(bucket)))
                .collect()
        } else {
            let shared = Arc::new(ClaimQueue::new((0..n).collect()));
            vec![shared; workers]
        };

        let slots: Vec<Mutex<Option<QueryResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        thread::scope(|s| {
            let slots = &slots;
            for (w, claims) in claims.iter().enumerate() {
                s.spawn(move || {
                    let _span = rzen_obs::span!("engine.worker", "worker" => w as u64);
                    let worker = self.serve_worker();
                    while let Some(i) = claims.claim() {
                        let ctx = rzen_obs::RequestCtx::mint(queries[i].model_fingerprint(), 0);
                        let start_us = rzen_obs::flight::now_us();
                        let alloc0 = rzen_obs::profile::thread_alloc_stats();
                        let budget = self.request_budget();
                        let result = self.solve(i, Ask::Lookup(&queries[i]), &worker, budget, ctx);
                        record_flight(&ctx, start_us, alloc0, &queries[i], &result);
                        *slots[i].lock().unwrap() = Some(result);
                    }
                });
            }
        });

        let results = collect_results(slots, queries);
        let stats = EngineStats::aggregate(&results, started.elapsed());
        BatchReport { results, stats }
    }

    /// Look `query` up in the result cache, if caching is on, waiting
    /// for the lock. A hit breaks out with the finished result; a miss
    /// carries on with what its insert needs once the query is solved.
    fn cache_lookup(
        &self,
        index: usize,
        query: &Query,
        started: Instant,
    ) -> ControlFlow<QueryResult, Option<CacheMiss>> {
        if !self.cfg.cache {
            return ControlFlow::Continue(None);
        }
        let fingerprint = query.fingerprint();
        let cache = self.cache.lock().expect(POISONED);
        let key = KeyRef::of(query);
        lookup(cache, fingerprint, key, query.kind(), index, started).map_continue(|sweeps| {
            Some(CacheMiss {
                fingerprint,
                sweeps,
                key: None,
            })
        })
    }

    /// Probe the result cache, without waiting, for the `op` query from
    /// `src` to `dst` over `net`: the serve reactor's lookup, made before
    /// it routes a query to a shard. Nothing grows with the network: the
    /// fingerprint resumes from `net`'s saved state, and an entry that
    /// `net` inserted matches its network by pointer. A hit is the
    /// finished result; a miss is the ticket [`Engine::run_missed`]
    /// solves with, so the query is looked up once however it is
    /// answered, and its verdict is cached under `net`'s handle. While
    /// another thread holds the cache (a clear, a delta sweep, an
    /// insert), or with caching off, nothing is looked up and
    /// [`Engine::run_one`] looks up as usual.
    pub fn probe(&self, net: &SharedNet, op: NetOp, src: (usize, u8), dst: (usize, u8)) -> Probe {
        if !self.cfg.cache {
            return Probe::Skipped;
        }
        let Ok(cache) = self.cache.try_lock() else {
            return Probe::Skipped;
        };
        let fingerprint = net.fingerprint(op, src, dst);
        let key = KeyRef::shared(net, op, src, dst);
        match lookup(cache, fingerprint, key, op.kind(), 0, Instant::now()) {
            ControlFlow::Break(hit) => Probe::Hit(Box::new(hit)),
            ControlFlow::Continue(sweeps) => Probe::Miss(CacheMiss {
                fingerprint,
                sweeps,
                key: Some(Key::shared(net, op, src, dst)),
            }),
        }
    }

    /// A fresh budget for one query, from the configured default timeout.
    fn request_budget(&self) -> Budget {
        match self.cfg.timeout {
            Some(t) => Budget::with_timeout(t),
            None => Budget::unlimited(),
        }
    }

    /// The one way a query reaches a backend: consult the cache (unless
    /// the query comes with the miss of an earlier lookup), hand the
    /// query — cloned at most once, and shared — to every runner of
    /// `worker` (one per backend) under one
    /// shared budget, stamp latency the moment a decisive reply lands and
    /// cancel the rest, then drain the losers (for their substrate stats)
    /// before moving on, so persistent sessions stay in lock-step. If no
    /// reply is decisive the query comes back `Cancelled` — mapped to
    /// `Timeout`/`Cancelled` by whether the deadline passed — unless a
    /// runner panicked, which is the more actionable signal.
    fn solve(
        &self,
        index: usize,
        ask: Ask<'_>,
        worker: &ServeWorker,
        budget: Budget,
        ctx: rzen_obs::RequestCtx,
    ) -> QueryResult {
        let started = Instant::now();
        let req = ctx.id;
        let _span = rzen_obs::span!("engine.query", "req" => req, "index" => index as u64);
        rzen_obs::counter!("engine.queries", "queries dispatched to workers").inc();
        let (query, miss) = match ask {
            Ask::Lookup(query) => match self.cache_lookup(index, query, started) {
                ControlFlow::Break(hit) => return hit,
                ControlFlow::Continue(miss) => (Arc::new(query.clone()), miss),
            },
            Ask::Missed(query, miss) => (query, Some(miss)),
        };

        let runners = &worker.runners;
        let _race = (runners.len() > 1).then(|| rzen_obs::span!("engine.race", "req" => req));
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let mut error: Option<String> = None;
        for tx in runners {
            let job = Job {
                query: Arc::clone(&query),
                budget: budget.clone(),
                reply: reply_tx.clone(),
                req,
            };
            if tx.send(job).is_err() {
                error.get_or_insert_with(|| "backend runner unavailable".to_string());
            }
        }
        drop(reply_tx);

        let mut solved = Solved {
            outcome: Ok(FindOutcome::Cancelled),
            winner: None,
            sat_stats: None,
            bdd_stats: None,
            decided: None,
            session: None,
        };
        for reply in reply_rx.iter() {
            if let Some(moved) = &reply.session {
                solved
                    .session
                    .get_or_insert_with(SessionStats::default)
                    .absorb(moved);
            }
            let out = match reply.output {
                Ok(out) => out,
                Err(msg) => {
                    error.get_or_insert(msg);
                    continue;
                }
            };
            solved.sat_stats = out.sat_stats.or(solved.sat_stats);
            solved.bdd_stats = out.bdd_stats.or(solved.bdd_stats);
            let bdd = u64::from(reply.backend == Backend::Bdd);
            if solved.winner.is_none() && !matches!(out.outcome, FindOutcome::Cancelled) {
                // First decisive verdict wins: stop the other solver and
                // stamp the latency *now*, before the loser's teardown.
                budget.cancel();
                solved.decided = Some(started.elapsed());
                rzen_obs::trace::instant1("engine.race.decisive", "bdd", bdd);
                solved.winner = Some(reply.backend);
                solved.outcome = Ok(out.outcome);
            } else {
                rzen_obs::trace::instant1("engine.race.loser", "bdd", bdd);
            }
        }
        if let (None, Some(msg)) = (solved.winner, error) {
            solved.outcome = Err(msg);
        }
        let result = self.finish(index, &query, solved, &budget, started);
        // Only decisive verdicts are cached, so an `Error` (or a budget
        // artifact) can never be replayed to a later identical query.
        if let Some(miss) = miss.filter(|_| result.verdict.is_decisive()) {
            miss.insert(&self.cache, &query, &result.verdict);
        }
        result
    }

    /// Map the raw outcome to a [`Verdict`], count it, and assemble the
    /// result. Latency is the decision-time stamp when one exists (portfolio
    /// losers drain after it), total elapsed otherwise.
    fn finish(
        &self,
        index: usize,
        query: &Query,
        solved: Solved,
        budget: &Budget,
        started: Instant,
    ) -> QueryResult {
        let verdict = match solved.outcome {
            Ok(FindOutcome::Found(w)) => Verdict::Sat(w),
            Ok(FindOutcome::Unsat) => Verdict::Unsat,
            Ok(FindOutcome::Cancelled) => {
                if budget.deadline_passed() {
                    Verdict::Timeout
                } else {
                    Verdict::Cancelled
                }
            }
            Err(msg) => {
                rzen_obs::counter!("engine.errors", "queries that panicked inside a worker").inc();
                Verdict::Error(msg)
            }
        };

        match solved.winner {
            Some(Backend::Bdd) => {
                rzen_obs::counter!(
                    "engine.backend.wins",
                    "decisive verdicts by deciding backend",
                    "backend" => "bdd"
                )
                .inc();
            }
            Some(Backend::Smt) => {
                rzen_obs::counter!(
                    "engine.backend.wins",
                    "decisive verdicts by deciding backend",
                    "backend" => "smt"
                )
                .inc();
            }
            None => {}
        }

        let latency = solved.decided.unwrap_or_else(|| started.elapsed());
        rzen_obs::histogram!("engine.query_us", "per-query wall latency in microseconds")
            .observe(latency.as_micros() as u64);
        QueryResult {
            index,
            kind: query.kind(),
            verdict,
            latency,
            winner: solved.winner,
            cache_hit: false,
            sat_stats: solved.sat_stats,
            bdd_stats: solved.bdd_stats,
            session: solved.session,
        }
    }

    /// Create a worker: one persistent runner thread per configured
    /// backend (two for the portfolio), on which every query handed to it
    /// is solved through the runner's session — warm across all of them
    /// when `cfg.sessions` is set, one per query otherwise.
    /// Batch workers and serving threads each own one.
    pub fn serve_worker(&self) -> ServeWorker {
        let backends: &[Backend] = match self.cfg.backend {
            QueryBackend::Bdd => &[Backend::Bdd],
            QueryBackend::Smt => &[Backend::Smt],
            QueryBackend::Portfolio => &[Backend::Bdd, Backend::Smt],
        };
        let sessions = self.cfg.sessions;
        let (runners, handles) = backends
            .iter()
            .map(|&backend| {
                let (tx, rx) = mpsc::channel::<Job>();
                (tx, thread::spawn(move || runner(backend, sessions, rx)))
            })
            .unzip();
        ServeWorker { runners, handles }
    }

    /// Solve one query with an explicit per-request budget (a serving
    /// layer derives it from the request deadline, queue wait included),
    /// consulting and feeding the result cache. `ctx` is the request
    /// identity minted at serve admission; its id rides every span on the
    /// solve path. The serve layer owns the flight record for the request
    /// (it knows the endpoints and the full wall latency), so this method
    /// does not write one. The solve runs on `worker`'s runner threads, so
    /// the caller's thread-local `Zen` context is never touched.
    pub fn run_one(
        &self,
        query: &Query,
        budget: Budget,
        worker: &ServeWorker,
        ctx: rzen_obs::RequestCtx,
    ) -> QueryResult {
        self.solve(0, Ask::Lookup(query), worker, budget, ctx)
    }

    /// [`Engine::run_one`] for the query whose [`Engine::probe`] missed:
    /// build it from the probe's ticket (the one clone of the network
    /// its solve makes), solve it without a second lookup, and insert
    /// its verdict under the ticket.
    pub fn run_missed(
        &self,
        budget: Budget,
        worker: &ServeWorker,
        ctx: rzen_obs::RequestCtx,
        miss: CacheMiss,
    ) -> QueryResult {
        let query = match &miss.key {
            Some(Key::Net { net, op, src, dst }) => op.query(Network::clone(net), *src, *dst),
            Some(Key::Query(query)) => query.clone(),
            None => unreachable!("only a probe's misses leave the engine, and they carry a key"),
        };
        self.solve(0, Ask::Missed(Arc::new(query), miss), worker, budget, ctx)
    }
}

/// How a query comes to [`Engine::solve`]: to be looked up in the
/// result cache first, or built for the miss of an earlier lookup.
enum Ask<'q> {
    Lookup(&'q Query),
    Missed(Arc<Query>, CacheMiss),
}

/// What [`Engine::probe`] found.
#[derive(Debug)]
pub enum Probe {
    /// The cached verdict, as a finished result (`cache_hit` set).
    Hit(Box<QueryResult>),
    /// Not cached: solve with [`Engine::run_missed`].
    Miss(CacheMiss),
    /// Nothing was looked up (the cache was locked, or caching is off):
    /// solve with [`Engine::run_one`].
    Skipped,
}

/// Look `key` up in the locked cache, release the lock, and count the
/// hit or the miss. A hit breaks out with the finished result; a miss
/// carries on with the cache's sweep count at the lookup.
fn lookup(
    cache: MutexGuard<'_, ResultCache>,
    fingerprint: u64,
    key: KeyRef<'_>,
    kind: &'static str,
    index: usize,
    started: Instant,
) -> ControlFlow<QueryResult, u64> {
    let Some(verdict) = cache.get(fingerprint, key).cloned() else {
        let sweeps = cache.sweeps();
        drop(cache);
        rzen_obs::counter!("engine.cache.misses", "cache lookups that found no entry").inc();
        return ControlFlow::Continue(sweeps);
    };
    drop(cache);
    rzen_obs::counter!("engine.cache.hits", "queries served from the result cache").inc();
    rzen_obs::trace::instant1("engine.cache.hit", "index", index as u64);
    ControlFlow::Break(QueryResult {
        index,
        kind,
        verdict,
        latency: started.elapsed(),
        winner: None,
        cache_hit: true,
        sat_stats: None,
        bdd_stats: None,
        session: None,
    })
}

/// A long-lived worker: the runner threads [`Engine::run_one`] and the
/// batch workers solve on, alive for as long as it is. Dropping it joins
/// them.
pub struct ServeWorker {
    runners: Vec<mpsc::Sender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Drop for ServeWorker {
    fn drop(&mut self) {
        // Hanging up is the shutdown signal: a runner leaves its loop
        // once its queue is closed and drained. `Drop` must not panic,
        // so a runner that died outside its per-job guard is ignored.
        self.runners.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Where a cache miss's verdict goes once it is solved: the query's
/// fingerprint, the cache's sweep count at the lookup, and — for a miss
/// [`Engine::probe`] found — the key over the probed model's shared
/// network.
#[derive(Clone, Debug)]
pub struct CacheMiss {
    fingerprint: u64,
    sweeps: u64,
    key: Option<Key>,
}

impl CacheMiss {
    /// Cache `verdict` for `query` — unless the cache was swept or
    /// cleared since the lookup. The verdict may then have been solved
    /// against the pre-delta model: keyed by the old network, it could
    /// never be hit, and would sit in the cache until the next full swap.
    /// Only a lookup that came before the sweep is caught; a query
    /// holding the old model whose lookup comes after it still inserts.
    fn insert(self, cache: &Mutex<ResultCache>, query: &Query, verdict: &Verdict) {
        let key = self.key.unwrap_or_else(|| KeyRef::of(query).owned());
        let mut cache = cache.lock().expect(POISONED);
        if cache.sweeps() == self.sweeps {
            cache.insert(self.fingerprint, key, verdict.clone());
            entries_gauge().set(cache.len() as i64);
        }
    }
}

/// Why the cache lock can fail: no cache operation is meant to panic.
const POISONED: &str = "a thread panicked holding the result cache";

/// The `engine.cache.entries` gauge, set from the cache's own count
/// after each insert, sweep and clear.
fn entries_gauge() -> &'static rzen_obs::Gauge {
    rzen_obs::gauge!("engine.cache.entries", "entries in the result cache")
}

/// Query indices that the workers sharing this queue claim in order.
struct ClaimQueue {
    order: Vec<usize>,
    next: AtomicUsize,
}

impl ClaimQueue {
    fn new(order: Vec<usize>) -> ClaimQueue {
        ClaimQueue {
            order,
            next: AtomicUsize::new(0),
        }
    }

    fn claim(&self) -> Option<usize> {
        self.order
            .get(self.next.fetch_add(1, Ordering::SeqCst))
            .copied()
    }
}

/// Fingerprint-affinity claim order: each new model group goes to the
/// currently least-loaded worker; members follow their group. Workers
/// left without a group get no bucket.
fn affinity_buckets(queries: &[Query], workers: usize) -> Vec<Vec<usize>> {
    let mut group_worker: HashMap<u64, usize> = HashMap::new();
    let mut load = vec![0usize; workers];
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (i, q) in queries.iter().enumerate() {
        let w = *group_worker
            .entry(q.model_fingerprint())
            .or_insert_with(|| (0..workers).min_by_key(|&w| load[w]).unwrap_or(0));
        load[w] += 1;
        buckets[w].push(i);
    }
    buckets.retain(|bucket| !bucket.is_empty());
    buckets
}

/// Unwrap the slot vector; a missing slot (worker died outside the
/// per-query panic guard) degrades to an `Error` verdict instead of
/// poisoning the whole batch.
fn collect_results(slots: Vec<Mutex<Option<QueryResult>>>, queries: &[Query]) -> Vec<QueryResult> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner().unwrap().unwrap_or_else(|| QueryResult {
                index: i,
                kind: queries[i].kind(),
                verdict: Verdict::Error("worker terminated before filling its slot".into()),
                latency: Duration::ZERO,
                winner: None,
                cache_hit: false,
                sat_stats: None,
                bdd_stats: None,
                session: None,
            })
        })
        .collect()
}

/// Write one batch query's flight record. Batch queries have no client
/// endpoints; the op is the query kind and the serve-only fields stay
/// zero. (The serve layer writes its own records for served requests —
/// see `Engine::run_one`.) `alloc0` is the worker thread's allocation
/// tally from before the query ran; the record carries the delta, which
/// is zero unless profiling was enabled.
fn record_flight(
    ctx: &rzen_obs::RequestCtx,
    start_us: u64,
    alloc0: (u64, u64),
    query: &Query,
    result: &QueryResult,
) {
    use rzen_obs::flight::{self, SmallStr};
    let alloc1 = rzen_obs::profile::thread_alloc_stats();
    flight::record(rzen_obs::RequestRecord {
        id: ctx.id,
        start_us,
        latency_us: result.latency.as_micros() as u64,
        model: ctx.model,
        generation: ctx.generation,
        leader: 0,
        op: SmallStr::new(query.kind()),
        src: SmallStr::default(),
        dst: SmallStr::default(),
        verdict: result.verdict.class(),
        backend: result.backend_class(),
        flags: result.flight_flags(),
        alloc_bytes: alloc1.0.saturating_sub(alloc0.0),
        alloc_count: alloc1.1.saturating_sub(alloc0.1),
        shard: ctx.shard,
    });
}

/// Best-effort text of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query panicked".to_string()
    }
}

/// One query handed to a runner, with its reply channel. The runners of
/// a portfolio share one copy of the query.
struct Job {
    query: Arc<Query>,
    budget: Budget,
    reply: mpsc::Sender<Reply>,
    /// Request id of the query, stamped on the runner's per-job span.
    req: u64,
}

/// A runner's answer: the raw output (or panic message) plus, from a
/// runner that keeps its session, the session counters this query moved.
struct Reply {
    backend: Backend,
    output: Result<FindReport<crate::Witness>, String>,
    session: Option<SessionStats>,
}

/// A runner: owns this thread's `Zen` context and one [`SolverSession`],
/// solving jobs in arrival order; every job is solved through the
/// session. With `sessions` the session lives as long as the runner and
/// carries its caches from job to job. Without, it is scoped to one job:
/// once the reply is sent, the session is dropped and the context reset,
/// so nothing carries over and the runner holds nothing while it idles.
/// A panicking query is answered with its panic message, and the context
/// *and* session are rebuilt from scratch — a half-built session (e.g. a
/// variable order that lost levels mid-extension) could be unsound, and a
/// fresh one merely loses cached work.
fn runner(backend: Backend, sessions: bool, rx: mpsc::Receiver<Job>) {
    let _span = rzen_obs::span!("engine.session", "bdd" => u64::from(backend == Backend::Bdd));
    let fresh = || {
        rzen::reset_ctx();
        SolverSession::new(backend)
    };
    let mut session = fresh();
    while let Ok(job) = rx.recv() {
        let before = session.stats();
        let job_span = rzen_obs::span!("engine.backend", "req" => job.req, "bdd" => u64::from(backend == Backend::Bdd));
        let out = catch_unwind(AssertUnwindSafe(|| {
            job.query.run(&mut session, &job.budget)
        }));
        drop(job_span);
        let (output, moved) = match out {
            Ok(output) => (Ok(output), session.stats().delta_since(&before)),
            Err(p) => (Err(panic_message(p)), SessionStats::default()),
        };
        let panicked = output.is_err();
        let _ = job.reply.send(Reply {
            backend,
            output,
            session: sessions.then_some(moved),
        });
        if panicked || !sessions {
            session = fresh();
        }
    }
    // Leave no arena behind on the (dying) thread.
    rzen::reset_ctx();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rzen_net::topology::{DeltaStep, Touch};

    fn lookup_miss(engine: &Engine, query: &Query) -> CacheMiss {
        match engine.cache_lookup(0, query, Instant::now()) {
            ControlFlow::Continue(Some(miss)) => miss,
            _ => panic!("expected a cache miss"),
        }
    }

    /// A query that missed before a delta sweep (or a clear) and finishes
    /// after it does not insert: its verdict was solved against the old
    /// network and could never be hit. A miss looked up after the sweep
    /// inserts as usual.
    #[test]
    fn a_miss_from_before_a_sweep_is_not_inserted() {
        let old = rzen_net::gen::spine_leaf(2, 3);
        let mut new = old.clone();
        new.devices[3].interfaces.last_mut().unwrap().acl_in = Some(rzen_net::acl::Acl::default());
        let steps = [DeltaStep {
            pre: old.clone(),
            touch: Touch::Intf {
                device: 3,
                intf: 99,
            },
        }];
        let on = |net: &rzen_net::topology::Network| Query::Reach {
            net: net.clone(),
            src: (2, 99),
            dst: (3, 99),
        };
        let engine = Engine::new(EngineConfig::default());

        let in_flight = lookup_miss(&engine, &on(&old));
        engine.apply_delta(&old, &new, &steps);
        in_flight.insert(&engine.cache, &on(&old), &Verdict::Unsat);
        assert_eq!(engine.cache_len(), 0, "a pre-delta miss was inserted");

        let in_flight = lookup_miss(&engine, &on(&new));
        engine.clear_cache();
        in_flight.insert(&engine.cache, &on(&new), &Verdict::Unsat);
        assert_eq!(engine.cache_len(), 0, "a pre-clear miss was inserted");

        lookup_miss(&engine, &on(&new)).insert(&engine.cache, &on(&new), &Verdict::Unsat);
        assert_eq!(engine.cache_len(), 1);
    }
}
