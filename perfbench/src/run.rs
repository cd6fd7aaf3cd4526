//! Set-up, rounds and teardown of the four workloads.
//!
//! Every workload fixes one backend per pass, `jobs: 1`, `shards: 1`:
//! nothing races in an end-to-end run. A round is a fixed list of
//! operations; answers are judged after the round's clocks have
//! stopped, so checking costs neither wall time nor CPU of the round.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rzen_engine::{Query, QueryBackend, QueryResult};
use rzen_net::headers::Packet;
use rzen_net::spec::Spec;
use rzen_serve::{start, LoopMode, Model, ServerConfig, ServerHandle};

use crate::client::{answer_key, http, Client};
use crate::inputs::{delta_remove, delta_set, Inputs, Kind};
use crate::oracle::{self, Oracle};
use crate::trace;

/// Requests per `serve-hot` round at full size: about 0.6 s, some 16
/// rounds in 10 s. A round's p95 is set by its slowest twentieth, so a
/// 100 ms hiccup of the host owns the p95 of a 1.6 s round (50 000
/// requests, the issue's starting point) but only one in sixteen of
/// these, which the median over rounds ignores; the p95's spread over
/// ten runs went from 13.6 % to 10.6 %.
pub const HOT_REQUESTS: usize = 20_000;

/// What one round measured, before the per-round figures are derived.
#[derive(Default)]
pub struct Round {
    /// Wall seconds from first op issued to last answer read.
    pub wall_s: f64,
    /// Process user+sys CPU seconds over the same window (generator
    /// included).
    pub cpu_s: f64,
    /// Per-verdict latency, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops issued (verdict requests plus deltas).
    pub attempted: usize,
    /// Ops that errored, timed out, were shed, or answered wrongly.
    pub failed: usize,
    /// How many of `failed` are deltas (ops, but not verdicts).
    pub failed_deltas: usize,
    /// Verdict requests answered from the result cache.
    pub cache_hits: usize,
    /// Entries the round's deltas evicted / kept (served churn only).
    pub delta_evicted: u64,
    /// See `delta_evicted`.
    pub delta_retained: u64,
    /// Round-trip of each `POST /delta`, milliseconds.
    pub delta_post_ms: Vec<f64>,
    /// The engine's own results (batch workloads), one vector per pass,
    /// in issue order — the traced run reads solver and session counters
    /// from them.
    pub passes: Vec<(QueryBackend, Vec<QueryResult>)>,
    /// The cases in the order this round issued them (batch workloads):
    /// result `index` of a pass answers case `order[index]`.
    pub order: Vec<usize>,
    /// Served answers still to be judged.
    unjudged: Vec<Unjudged>,
}

/// A served answer that did not match an already-judged one.
struct Unjudged {
    case: usize,
    /// The leaf whose ACL was set when this was asked, if any.
    churned: Option<usize>,
    line: Vec<u8>,
}

impl Round {
    /// Correct decisive verdicts (deltas are ops but not verdicts).
    pub fn verdicts(&self) -> usize {
        self.latencies_ms.len() + self.failed_deltas - self.failed
    }
}

/// A workload between set-up and teardown.
pub enum State {
    /// `acl-sessions`, `fabric-batch`.
    Batch(Batch),
    /// `serve-hot`, `fabric-churn`.
    Served(Box<Served>),
}

/// A batch workload.
pub struct Batch {
    /// The inputs this state was set up from.
    pub inputs: Inputs,
}

/// A served workload: the running server and the generator's
/// connection to it.
pub struct Served {
    /// The inputs this state was set up from.
    pub inputs: Inputs,
    /// The parsed base spec (churned variants are patched from it).
    pub spec: Spec,
    handle: ServerHandle,
    /// Where the server listens.
    pub addr: SocketAddr,
    /// The one query connection.
    pub client: Client,
    /// Per case, the answer bytes already judged correct under the
    /// current model. A request whose answer equals them needs no
    /// further check; every delta empties it.
    memo: Vec<Option<Vec<u8>>>,
    /// Per case, a full witness packet found in-process: the wire only
    /// carries a witness's overlay header (see `oracle::served_ok`).
    full_witness: Vec<Option<Packet>>,
    /// `rzen_serve::start` wall time of this set-up, milliseconds.
    pub start_ms: f64,
    /// `spec::parse` wall time of this set-up, milliseconds.
    pub spec_parse_ms: f64,
}

/// The passes that make one batch round, a fresh engine each: the cold
/// SMT pass twice for the fabric; for the ACL sessions the SMT pass once
/// and the BDD pass twice. A BDD session answers in ~1 ms where an SMT
/// session takes ~6 ms, so with one pass each the round's median latency
/// would sit in the empty gap between the two populations and jump with
/// every seed; with two thirds of the verdicts from BDD, p50 is a BDD
/// session latency and p95 an SMT session latency.
pub fn passes(kind: Kind) -> &'static [QueryBackend] {
    match kind {
        Kind::AclSessions => &[QueryBackend::Smt, QueryBackend::Bdd, QueryBackend::Bdd],
        _ => &[QueryBackend::Smt, QueryBackend::Smt],
    }
}

/// The server configuration of both served workloads.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        backlog: 64,
        timeout: Some(Duration::from_secs(30)),
        sessions: false,
        backend: QueryBackend::Smt,
        handle_signals: false,
        debug_ops: false,
        sample_hz: rzen_obs::profile::DEFAULT_SAMPLE_HZ,
        loop_mode: LoopMode::Epoll,
        shards: 1,
        idle_timeout: None,
    }
}

/// Process user+sys CPU seconds so far.
pub fn cpu_now() -> f64 {
    rzen_obs::process::cpu_seconds_total().unwrap_or(0.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything from the seed to the first measured op: generate the
/// models, parse the spec, build the engine or start the server, and run
/// the discarded warm-up (the first pass of a batch round; every served
/// query once, which also fills the result cache). The warm-up comes
/// back unjudged so that checking it is not part of the set-up time.
pub fn set_up(kind: Kind, seed: u64, scale: usize) -> Result<(State, Round), String> {
    let inputs = Inputs::generate(kind, seed, scale);
    if !kind.served() {
        let batch = Batch { inputs };
        let warm = batch.run(&passes(kind)[..1], batch.inputs.order.clone());
        return Ok((State::Batch(batch), warm));
    }
    let t = Instant::now();
    let model = Model::parse(&inputs.spec_text)?;
    let spec_parse_ms = ms(t.elapsed());
    let spec = model.spec.clone();
    let t = Instant::now();
    let handle = start(server_config(), model).map_err(|e| format!("server start: {e}"))?;
    let start_ms = ms(t.elapsed());
    let addr = handle.addr();
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let n = inputs.cases.len();
    let mut served = Box::new(Served {
        inputs,
        spec,
        handle,
        addr,
        client,
        memo: vec![None; n],
        full_witness: vec![None; n],
        start_ms,
        spec_parse_ms,
    });
    let mut warm = Round::default();
    for case in served.inputs.order.clone() {
        served.ask(case, None, &mut warm)?;
    }
    Ok((State::Served(served), warm))
}

impl State {
    /// Run measured round `index` (its number picks the order ops are
    /// issued in and the churn leaf). Only the clocks run here; [`State::judge`] checks the
    /// answers afterwards.
    pub fn run(&mut self, index: usize, scale: usize) -> Result<Round, String> {
        match self {
            State::Batch(b) => Ok(b.run(passes(b.inputs.kind), b.inputs.round_order(index))),
            State::Served(s) if s.inputs.kind == Kind::ServeHot => s.hot_round(index, scale),
            State::Served(s) => s.churn_round(index),
        }
    }

    /// Judge every answer of `round`, counting the wrong ones into
    /// `round.failed`.
    pub fn judge(&mut self, round: &mut Round, oracle: &Oracle) {
        match self {
            State::Batch(b) => b.judge(round, oracle),
            State::Served(s) => s.judge(round, oracle),
        }
    }

    /// Stop the server (served workloads) and release everything.
    pub fn tear_down(self) {
        if let State::Served(served) = self {
            let Served { handle, client, .. } = *served;
            // Hang up first, so the drain has no open connection to wait on.
            drop(client);
            handle.shutdown();
            handle.join();
        }
    }
}

impl Batch {
    fn run(&self, passes: &[QueryBackend], order: Vec<usize>) -> Round {
        let kind = self.inputs.kind;
        let queries: Vec<Query> = order
            .iter()
            .map(|&i| self.inputs.cases[i].query.clone())
            .collect();
        let cpu0 = cpu_now();
        let t0 = Instant::now();
        let passes: Vec<(QueryBackend, Vec<QueryResult>)> = passes
            .iter()
            .map(|&backend| {
                let _span = trace::span("engine.run_batch", 0);
                (
                    backend,
                    oracle::engine(backend, kind == Kind::AclSessions, false)
                        .run_batch(&queries)
                        .results,
                )
            })
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_now() - cpu0;
        let latencies_ms: Vec<f64> = passes
            .iter()
            .flat_map(|(_, results)| results.iter().map(|r| ms(r.latency)))
            .collect();
        Round {
            wall_s,
            cpu_s,
            attempted: latencies_ms.len(),
            latencies_ms,
            passes,
            order,
            ..Round::default()
        }
    }

    fn judge(&self, round: &mut Round, oracle: &Oracle) {
        for (_, results) in &round.passes {
            for r in results {
                let case = round.order[r.index];
                if !oracle::result_ok(&self.inputs.cases[case], oracle.classes[case], &r.verdict) {
                    round.failed += 1;
                }
            }
        }
    }
}

impl Served {
    /// One closed-loop request: write, wait for the whole response line,
    /// record the latency, and compare the answer with the judged one.
    /// `churned` names the leaf whose ACL is set while this is asked.
    fn ask(
        &mut self,
        case: usize,
        churned: Option<usize>,
        round: &mut Round,
    ) -> Result<(), String> {
        let t = Instant::now();
        {
            let _span = trace::span("serve.round_trip", round.attempted as u64 + 1);
            self.client
                .ask(&self.inputs.cases[case].request)
                .map_err(|e| format!("request failed: {e}"))?;
        }
        round.latencies_ms.push(ms(t.elapsed()));
        round.attempted += 1;
        let key = answer_key(&self.client.line);
        round.cache_hits += usize::from(key.is_some_and(|(_, hit)| hit));
        if key.map(|(k, _)| k) != self.memo[case].as_deref() || key.is_none() {
            round.unjudged.push(Unjudged {
                case,
                churned,
                line: self.client.line.clone(),
            });
        }
        Ok(())
    }

    /// Judge the answers the round could not match against an already
    /// judged one.
    fn judge(&mut self, round: &mut Round, oracle: &Oracle) {
        let mut patched: Option<(usize, Spec)> = None;
        // Answers of this round already judged correct, by case and model:
        // the same answer again (a later hit on it) needs no second look.
        let mut judged: HashMap<(usize, Option<usize>), Vec<u8>> = HashMap::new();
        for u in std::mem::take(&mut round.unjudged) {
            let key = answer_key(&u.line).map(|(k, _)| k.to_vec());
            if key.is_some() && judged.get(&(u.case, u.churned)) == key.as_ref() {
                continue;
            }
            let text = String::from_utf8_lossy(&u.line);
            let parsed = rzen_obs::json::parse(text.trim()).ok();
            let field = |k: &str| {
                parsed
                    .as_ref()
                    .and_then(|v| v.get(k))
                    .and_then(|v| v.as_str())
            };
            let id = parsed
                .as_ref()
                .and_then(|v| v.get("id"))
                .and_then(|v| v.as_u64());
            let (verdict, witness) = (field("verdict").unwrap_or(""), field("witness"));
            if let Some(leaf) = u.churned {
                if patched.as_ref().map(|(l, _)| *l) != Some(leaf) {
                    patched = Some((leaf, self.spec_with_acl(leaf)));
                }
            }
            let base = &self.inputs.cases[u.case].query;
            let known = &mut self.full_witness[u.case];
            let ok = id == Some(u.case as u64)
                && match (u.churned, &patched) {
                    (Some(_), Some((_, spec))) => {
                        oracle::served_ok(&with_net(base, spec), None, verdict, witness, known)
                    }
                    _ => oracle::served_ok(
                        base,
                        Some(oracle.classes[u.case]),
                        verdict,
                        witness,
                        known,
                    ),
                };
            if ok {
                // Only answers of the model now live may short-cut checks
                // in later rounds; a churn round ends on the base model.
                if u.churned.is_none() {
                    self.memo[u.case] = key.clone();
                }
                if let Some(key) = key {
                    judged.insert((u.case, u.churned), key);
                }
            } else {
                round.failed += 1;
                if round.failed <= 3 {
                    println!(
                        "wrong answer for {}: {}",
                        self.inputs.cases[u.case].label,
                        text.trim()
                    );
                }
            }
        }
    }

    /// The base spec with the churn ACL set on `leaf`'s host port.
    fn spec_with_acl(&self, leaf: usize) -> Spec {
        let mut patched = self.spec.clone();
        let ops = rzen_delta::parse_ops(&delta_set(leaf)).expect("generated delta parses");
        rzen_delta::apply_all(&mut patched, &ops).expect("generated delta applies");
        patched
    }

    fn hot_round(&mut self, index: usize, scale: usize) -> Result<Round, String> {
        let n = HOT_REQUESTS / scale;
        let order = self.inputs.round_order(index);
        let mut round = Round::default();
        round.latencies_ms.reserve(n);
        let cpu0 = cpu_now();
        let t0 = Instant::now();
        for i in 0..n {
            self.ask(order[i % order.len()], None, &mut round)?;
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        round.cpu_s = cpu_now() - cpu0;
        Ok(round)
    }

    /// Post one delta; a refused delta is a failed op. Every judged
    /// answer is forgotten: the model they were judged under is gone.
    fn post_delta(&mut self, body: &str, round: &mut Round) {
        let t = Instant::now();
        let answer = {
            let _span = trace::span("serve.delta_post", 0);
            http(self.addr, "POST", "/delta", body)
        };
        round.delta_post_ms.push(ms(t.elapsed()));
        round.attempted += 1;
        self.memo.iter_mut().for_each(|m| *m = None);
        match answer {
            Ok((200, body)) => {
                let v = rzen_obs::json::parse(&body).ok();
                let num = |k: &str| {
                    v.as_ref()
                        .and_then(|v| v.get(k))
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0)
                };
                round.delta_evicted += num("evicted");
                round.delta_retained += num("retained");
            }
            _ => {
                round.failed += 1;
                round.failed_deltas += 1;
            }
        }
    }

    /// Two cycles: set the ACL on this round's leaf and ask everything
    /// twice over, then remove it and ask everything twice over. The
    /// first sweep after a delta re-verifies (28 cold re-solves among 84
    /// hits); the second is the hot traffic between two changes, all
    /// hits, which costs under 1 % of the round and puts the round's
    /// median latency inside the bulk of the hits. With one sweep the
    /// median is the 67th percentile of the hits, where the hits that
    /// follow a cold solve (cold caches, ~1.5x slower) begin, and it
    /// moved ±25 % from round to round.
    fn churn_round(&mut self, index: usize) -> Result<Round, String> {
        let leaf = self.inputs.churn_leaf(index);
        let order = self.inputs.round_order(index);
        let mut round = Round::default();
        let cpu0 = cpu_now();
        let t0 = Instant::now();
        for (body, churned) in [(delta_set(leaf), Some(leaf)), (delta_remove(leaf), None)] {
            self.post_delta(&body, &mut round);
            for &case in order.iter().chain(&order) {
                self.ask(case, churned, &mut round)?;
            }
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        round.cpu_s = cpu_now() - cpu0;
        Ok(round)
    }
}

/// `query` re-asked of `spec`'s network (the query embeds its model).
pub fn with_net(query: &Query, spec: &Spec) -> Query {
    match query {
        Query::Reach { src, dst, .. } => Query::Reach {
            net: spec.net.clone(),
            src: *src,
            dst: *dst,
        },
        Query::Drops { src, dst, .. } => Query::Drops {
            net: spec.net.clone(),
            src: *src,
            dst: *dst,
        },
        other => other.clone(),
    }
}
