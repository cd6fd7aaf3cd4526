//! The traced run: one round with the span recorder on, then every op of
//! the round replayed through the layers' public functions, one span
//! per call. Produces the per-layer metrics; end-to-end metrics never
//! come from here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rzen::{Backend, Budget};
use rzen_engine::{Query, QueryBackend};
use rzen_loop::framing::LineDecoder;
use rzen_serve::proto;

use crate::client::{http, metric_value};
use crate::host;
use crate::inputs::{delta_remove, delta_set, Inputs, Kind, HOST_PORT, SPINES};
use crate::measure::{self, RunConfig};
use crate::oracle::Oracle;
use crate::replay::{replay, Counts};
use crate::report::{Metric, Report};
use crate::run::{cpu_now, set_up, with_net, Round, Served, State};
use crate::stats::{median, percentile_unchecked};
use crate::trace::{self, stage_stats, StageStat};

/// Every per-layer metric, in the order it is printed, with its unit.
/// `BENCHMARK.json` declares exactly these (a test holds them together).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loop.decode_us_per_req", "us"),
    ("loop.wakeups_per_req", "1/req"),
    ("serve.parse_us_per_req", "us"),
    ("serve.encode_us_per_req", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.pipelined_us_per_req", "us"),
    ("serve.delta_post_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.shed", "count"),
    ("engine.query_build_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("engine.cache_hit_us", "us"),
    ("engine.dispatch_overhead_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.sweep_ms", "ms"),
    ("engine.delta_evicted", "count"),
    ("engine.delta_retained", "count"),
    ("engine.portfolio_bdd_win_share", "ratio"),
    ("engine.portfolio_cpu_ratio", "ratio"),
    ("delta.parse_us", "us"),
    ("delta.apply_us", "us"),
    ("delta.fingerprint_us", "us"),
    ("net.spec_parse_ms", "ms"),
    ("net.paths_us", "us"),
    ("net.paths_per_pair", "count"),
    ("net.footprint_us", "us"),
    ("core.ir_build_us", "us"),
    ("core.ir_nodes", "count"),
    ("core.bitblast_us", "us"),
    ("core.cnf_vars", "count"),
    ("core.cnf_clauses", "count"),
    ("core.witness_us", "us"),
    ("core.ctx_reset_us", "us"),
    ("core.session_bitblast_hit_ratio", "ratio"),
    ("core.session_sat_carried", "count"),
    ("core.session_bdd_reused", "count"),
    ("sat.solve_us", "us"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.learned", "count"),
    ("sat.restarts", "count"),
    ("sat.reduce_dbs", "count"),
    ("sat.gcs", "count"),
    ("sat.eliminated_vars", "count"),
    ("sat.props_per_us", "1/us"),
    ("sat.teardown_us", "us"),
    ("bdd.compile_us", "us"),
    ("bdd.any_sat_us", "us"),
    ("bdd.teardown_us", "us"),
    ("bdd.nodes", "count"),
    ("bdd.unique_entries", "count"),
    ("bdd.opcache_lookups", "count"),
    ("bdd.opcache_hit_ratio", "ratio"),
    ("stage_sum_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("top_stage_share", "ratio"),
    ("host.spin_ms", "ms"),
    ("host.peak_rss_mb", "MiB"),
];

/// Which stage's median self time feeds which `T(...)` metric.
const STAGE_METRICS: &[(&str, &str)] = &[
    ("loop.decode", "loop.decode_us_per_req"),
    ("serve.parse", "serve.parse_us_per_req"),
    ("serve.encode", "serve.encode_us_per_req"),
    ("engine.query_build", "engine.query_build_us"),
    ("engine.fingerprint", "engine.fingerprint_us"),
    ("engine.cache_hit", "engine.cache_hit_us"),
    ("delta.parse", "delta.parse_us"),
    ("delta.apply", "delta.apply_us"),
    ("delta.fingerprint", "delta.fingerprint_us"),
    ("net.paths", "net.paths_us"),
    ("net.footprint", "net.footprint_us"),
    ("core.ir_build", "core.ir_build_us"),
    ("core.bitblast", "core.bitblast_us"),
    ("core.witness", "core.witness_us"),
    ("core.ctx_reset", "core.ctx_reset_us"),
    ("sat.solve", "sat.solve_us"),
    ("bdd.compile", "bdd.compile_us"),
    ("bdd.any_sat", "bdd.any_sat_us"),
    ("sat.teardown", "sat.teardown_us"),
    ("bdd.teardown", "bdd.teardown_us"),
];

/// Stages that are solver work (the share `serve-hot` must keep < 5 %).
const SOLVER_STAGES: &[&str] = &[
    "core.bitblast",
    "sat.solve",
    "sat.teardown",
    "bdd.compile",
    "bdd.any_sat",
    "bdd.teardown",
];
/// Passes of the hit-path replay over the request set.
const HIT_PASSES: usize = 10;
/// Requests per pipelined burst.
const BURST_DEPTH: usize = 16;
/// Pipelined bursts at full size.
const BURSTS: usize = 400;

/// Metric values by name; anything never set reports 0.
type Values = BTreeMap<&'static str, f64>;

/// Ops the replays attempted and got wrong.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

/// What the staged replay of a set of queries yields beside its spans.
struct Staged {
    counts: Counts,
    /// Per query: the engine's latency for it solved fresh, and the sum
    /// of its replayed stages, µs, as the clock read them.
    pairs: Vec<(f64, f64)>,
    /// Host speed ([`host::speed`]) while the engine's latencies were
    /// measured and while the replay ran: the two are minutes apart, and
    /// the stage sum is held against the latency at one speed.
    engine_speed: f64,
    replay_speed: f64,
}

impl Staged {
    fn new(engine_speed: f64) -> Staged {
        Staged {
            counts: Counts::default(),
            pairs: Vec::new(),
            engine_speed,
            replay_speed: 1.0,
        }
    }

    /// Replay `query` and hold it against the expected class and the
    /// engine's latency for the same fresh query.
    fn one(
        &mut self,
        query: &Query,
        backend: Backend,
        class: Option<bool>,
        engine_us: f64,
        tally: &mut Tally,
    ) {
        let req = self.counts.queries + 1;
        let r = replay(query, backend, req, &mut self.counts);
        tally.attempted += 1;
        let ok = match (&r.witness, class) {
            (Some(w), Some(true)) => query.check_witness(w),
            (None, Some(false)) => true,
            _ => false,
        };
        tally.failed += usize::from(!ok);
        self.pairs.push((engine_us, r.staged_us));
    }

    /// Run `replays` (calls of [`Staged::one`]) between two readings of
    /// the spin loop.
    fn timed(&mut self, replays: impl FnOnce(&mut Staged)) {
        let before = host::spin_ms();
        replays(self);
        self.replay_speed = host::speed(before, host::spin_ms());
    }

    /// `solve_us` is the summed self time of the `sat.solve` stage.
    fn publish(&self, solve_us: f64, v: &mut Values) {
        let c = &self.counts;
        let at_reference: Vec<(f64, f64)> = self
            .pairs
            .iter()
            .map(|(engine, staged)| (engine * self.engine_speed, staged * self.replay_speed))
            .collect();
        let engine_us: f64 = at_reference.iter().map(|p| p.0).sum();
        let staged_us: f64 = at_reference.iter().map(|p| p.1).sum();
        let overhead_us: Vec<f64> = at_reference.iter().map(|p| p.0 - p.1).collect();
        for (name, value) in [
            (
                "net.paths_per_pair",
                if c.pairs == 0 {
                    0.0
                } else {
                    c.paths as f64 / c.pairs as f64
                },
            ),
            ("core.ir_nodes", c.ir_nodes as f64),
            ("core.cnf_vars", c.cnf_vars as f64),
            ("core.cnf_clauses", c.cnf_clauses as f64),
            ("sat.conflicts", c.sat.conflicts as f64),
            ("sat.decisions", c.sat.decisions as f64),
            ("sat.propagations", c.sat.propagations as f64),
            ("sat.learned", c.sat.learned_clauses as f64),
            ("sat.restarts", c.sat.restarts as f64),
            ("sat.reduce_dbs", c.sat.reduce_dbs as f64),
            ("sat.gcs", c.sat.gcs as f64),
            ("sat.eliminated_vars", c.sat.eliminated_vars as f64),
            ("bdd.nodes", c.bdd_nodes as f64),
            ("bdd.unique_entries", c.bdd_unique as f64),
            ("bdd.opcache_lookups", c.bdd_lookups as f64),
            (
                "bdd.opcache_hit_ratio",
                ratio(c.bdd_hits as f64, c.bdd_lookups as f64),
            ),
            (
                "sat.props_per_us",
                ratio(c.sat.propagations as f64, solve_us),
            ),
            ("stage_sum_ratio", ratio(staged_us, engine_us)),
            (
                "engine.dispatch_overhead_us",
                if overhead_us.is_empty() {
                    0.0
                } else {
                    median(&overhead_us)
                },
            ),
        ] {
            v.insert(name, value);
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn backend_of(b: QueryBackend) -> Backend {
    match b {
        QueryBackend::Bdd => Backend::Bdd,
        _ => Backend::Smt,
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The fresh-configuration replays of a batch workload, the session
/// counters of its traced round, and the portfolio it does not run.
fn batch_layers(
    inputs: &Inputs,
    oracle: &Oracle,
    (plain, plain_speed): (&Round, f64),
    traced_round: &Round,
    v: &mut Values,
    tally: &mut Tally,
) -> Staged {
    let queries: Vec<Query> = inputs
        .order
        .iter()
        .map(|&i| inputs.cases[i].query.clone())
        .collect();
    // The engine's latency for each query solved *fresh*: the fabric's
    // measured passes already are fresh; for the ACL sessions the
    // oracle's sessions-off passes are the reference.
    let mut reference: Vec<(Backend, Vec<f64>)> = Vec::new();
    let mut staged = Staged::new(oracle.fresh_speed);
    if inputs.kind == Kind::FabricBatch {
        staged.engine_speed = plain_speed;
        let (backend, results) = &plain.passes[0];
        let mut by_case = vec![0.0; inputs.cases.len()];
        for r in results {
            by_case[plain.order[r.index]] = us(r.latency);
        }
        reference.push((backend_of(*backend), by_case));
    } else {
        for (backend, results) in &oracle.fresh {
            reference.push((
                backend_of(*backend),
                results.iter().map(|r| us(r.latency)).collect(),
            ));
        }
    }
    staged.timed(|staged| {
        let _span = trace::span("harness.replay", 0);
        for (backend, latency_by_case) in &reference {
            for &case in &inputs.order {
                staged.one(
                    &inputs.cases[case].query,
                    *backend,
                    oracle.classes[case],
                    latency_by_case[case],
                    tally,
                );
            }
        }
    });

    let mut session = rzen::SessionStats::default();
    for r in traced_round.passes.iter().flat_map(|(_, results)| results) {
        if let Some(s) = &r.session {
            session.absorb(s);
        }
    }
    v.insert(
        "core.session_bitblast_hit_ratio",
        ratio(
            session.bitblast_hits as f64,
            (session.bitblast_hits + session.bitblast_compiled) as f64,
        ),
    );
    v.insert(
        "core.session_sat_carried",
        session.sat_clauses_carried as f64,
    );
    v.insert("core.session_bdd_reused", session.bdd_nodes_reused as f64);

    // What rule 1 excluded: the same queries with both backends racing.
    let engine = crate::oracle::engine(
        QueryBackend::Portfolio,
        inputs.kind == Kind::AclSessions,
        false,
    );
    let (cpu0, t0) = (cpu_now(), Instant::now());
    let raced = {
        let _span = trace::span("harness.portfolio", 0);
        engine.run_batch(&queries)
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_now() - cpu0;
    let decided = raced.results.iter().filter(|r| r.winner.is_some()).count();
    let bdd_wins = raced
        .results
        .iter()
        .filter(|r| r.winner == Some(Backend::Bdd))
        .count();
    v.insert(
        "engine.portfolio_bdd_win_share",
        ratio(bdd_wins as f64, decided as f64),
    );
    v.insert("engine.portfolio_cpu_ratio", ratio(cpu, wall));
    for r in &raced.results {
        tally.attempted += 1;
        let case = inputs.order[r.index];
        tally.failed += usize::from(!crate::oracle::result_ok(
            &inputs.cases[case],
            oracle.classes[case],
            &r.verdict,
        ));
    }
    staged
}

/// One `GET /metrics` scrape of the running server.
fn scrape(s: &Served) -> Result<String, String> {
    match http(s.addr, "GET", "/metrics", "") {
        Ok((200, body)) => Ok(body),
        other => Err(format!("GET /metrics failed: {other:?}")),
    }
}

/// The served path replayed in-process, stage by stage; the wire
/// measured around it; and (churn) the delta and cold-solve stages.
fn served_layers(
    s: &mut Served,
    oracle: &Oracle,
    traced_round: &Round,
    churn_leaf: usize,
    scale: usize,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<Staged, String> {
    let kind = s.inputs.kind;
    let order = s.inputs.order.clone();
    let engine = crate::oracle::engine(QueryBackend::Smt, false, true);
    let worker = engine.serve_worker();
    let mint = || rzen_obs::RequestCtx::mint(0, 0);

    // Every query once cold through `run_one`: fills the harness-owned
    // cache, and is the engine's fresh latency the replay is held to.
    let mut cold_us = vec![0.0; s.inputs.cases.len()];
    let spin_before_cold = host::spin_ms();
    for &case in &order {
        let r = engine.run_one(
            &s.inputs.cases[case].query,
            Budget::unlimited(),
            &worker,
            mint(),
        );
        cold_us[case] = us(r.latency);
        tally.attempted += 1;
        tally.failed += usize::from(!crate::oracle::result_ok(
            &s.inputs.cases[case],
            oracle.classes[case],
            &r.verdict,
        ));
    }
    let cold_speed = host::speed(spin_before_cold, host::spin_ms());

    // The hit path, as `eloop.rs` walks it for one request line.
    {
        let _span = trace::span("harness.serve_replay", 0);
        let mut decoder = LineDecoder::new();
        let mut req = 0u64;
        for _ in 0..HIT_PASSES {
            for &case in &order {
                req += 1;
                let line = trace::in_span("loop.decode", req, || {
                    decoder.feed(&s.inputs.cases[case].request);
                    decoder.next_line()
                });
                let line = line
                    .ok()
                    .flatten()
                    .ok_or("the decoder lost a request line")?;
                let parsed =
                    trace::in_span("serve.parse", req, || proto::parse_request(&line, false))?;
                let query =
                    trace::in_span("engine.query_build", req, || -> Result<Query, String> {
                        Ok(match &parsed.op {
                            proto::Op::Reach { src, dst } => Query::Reach {
                                net: s.spec.net.clone(),
                                src: s.spec.endpoint(src)?,
                                dst: s.spec.endpoint(dst)?,
                            },
                            proto::Op::Drops { src, dst } => Query::Drops {
                                net: s.spec.net.clone(),
                                src: s.spec.endpoint(src)?,
                                dst: s.spec.endpoint(dst)?,
                            },
                            _ => {
                                return Err("the request set only asks reach and drops".to_string())
                            }
                        })
                    })?;
                let fp = trace::in_span("engine.fingerprint", req, || query.fingerprint());
                let ctx = rzen_obs::RequestCtx::mint(fp, 0);
                let result = trace::in_span("engine.cache_hit", req, || {
                    engine.run_one(&query, Budget::unlimited(), &worker, ctx)
                });
                let response = trace::in_span("serve.encode", req, || {
                    proto::verdict_response(parsed.id, ctx.id, parsed.op.name(), &result, false)
                });
                tally.attempted += 1;
                let ok = result.cache_hit
                    && query == s.inputs.cases[case].query
                    && response.ends_with('\n');
                tally.failed += usize::from(!ok);
            }
        }
        for &case in &order {
            if let Query::Reach { net, src, dst } | Query::Drops { net, src, dst } =
                &s.inputs.cases[case].query
            {
                trace::in_span("net.footprint", case as u64, || {
                    net.path_footprint(src.0, src.1, dst.0, dst.1)
                });
            }
        }
    }

    // Capacity without the closed-loop wait: bursts of pipelined hits.
    let lines: Vec<&[u8]> = order
        .iter()
        .map(|&c| s.inputs.cases[c].request.as_slice())
        .collect();
    let bursts = (BURSTS / scale).max(1);
    let t = Instant::now();
    for b in 0..bursts {
        let batch: Vec<&[u8]> = (0..BURST_DEPTH)
            .map(|i| lines[(b * BURST_DEPTH + i) % lines.len()])
            .collect();
        let got = trace::in_span("serve.burst", b as u64, || s.client.burst(&batch))
            .map_err(|e| format!("burst: {e}"))?;
        tally.attempted += BURST_DEPTH;
        tally.failed += BURST_DEPTH - got;
    }
    v.insert(
        "serve.pipelined_us_per_req",
        us(t.elapsed()) / (bursts * BURST_DEPTH) as f64,
    );

    let mut staged = Staged::new(cold_speed);
    if kind == Kind::FabricChurn {
        // The delta path, stage by stage, against the harness engine's
        // warm cache: set (112 entries), then remove (the survivors).
        let mut spec = s.spec.clone();
        for body in [delta_set(churn_leaf), delta_remove(churn_leaf)] {
            let ops = trace::in_span("delta.parse", 0, || rzen_delta::parse_ops(&body))?;
            let before = spec.clone();
            let applied =
                trace::in_span("delta.apply", 0, || rzen_delta::apply_all(&mut spec, &ops))?;
            trace::in_span("delta.fingerprint", 0, || {
                rzen_delta::composite_fingerprint(&spec.net)
            });
            trace::in_span("engine.sweep", 0, || {
                engine.apply_delta(&before.net, &spec.net, &applied.steps)
            });
        }
        // The cold re-solves a delta causes: the queries whose footprint
        // holds the churned port, under the patched and the base model.
        let mut patched = s.spec.clone();
        rzen_delta::apply_all(
            &mut patched,
            &rzen_delta::parse_ops(&delta_set(churn_leaf))?,
        )?;
        let churned_port = (SPINES + churn_leaf, HOST_PORT);
        staged.timed(|staged| {
            let _span = trace::span("harness.replay", 0);
            for &case in &order {
                let base = &s.inputs.cases[case].query;
                let (Query::Reach { net, src, dst } | Query::Drops { net, src, dst }) = base else {
                    continue;
                };
                if !net
                    .path_footprint(src.0, src.1, dst.0, dst.1)
                    .contains(&churned_port)
                {
                    continue;
                }
                // The patched variant has no class computed ahead; a SAT
                // replay certifies itself, and the base class is what an
                // UNSAT would have to match (`deny-dport` leaves both
                // alone).
                for query in [base.clone(), with_net(base, &patched)] {
                    staged.one(
                        &query,
                        Backend::Smt,
                        oracle.classes[case],
                        cold_us[case],
                        tally,
                    );
                }
            }
        });
    }

    let hits = traced_round.cache_hits as f64;
    let verdicts = traced_round.latencies_ms.len() as f64;
    v.insert("engine.cache_hit_ratio", ratio(hits, verdicts));
    let deltas = traced_round.delta_post_ms.len().max(1) as f64;
    v.insert(
        "engine.delta_evicted",
        traced_round.delta_evicted as f64 / deltas,
    );
    v.insert(
        "engine.delta_retained",
        traced_round.delta_retained as f64 / deltas,
    );
    if !traced_round.delta_post_ms.is_empty() {
        v.insert("serve.delta_post_ms", median(&traced_round.delta_post_ms));
    }
    v.insert("serve.start_ms", s.start_ms);
    v.insert("net.spec_parse_ms", s.spec_parse_ms);
    Ok(staged)
}

/// Where a round's time goes according to the replay: per stage, the
/// microseconds one round spends in it.
fn attribution(
    kind: Kind,
    stats: &BTreeMap<&'static str, StageStat>,
    traced_round: &Round,
    v: &mut Values,
) -> Vec<(&'static str, f64)> {
    let per_op = |name: &str| stats.get(name).map_or(0.0, |s| s.median_us);
    let total = |name: &str| stats.get(name).map_or(0.0, |s| s.total_us);
    let solver_path = [
        "net.paths",
        "core.ctx_reset",
        "core.ir_build",
        "core.bitblast",
        "sat.solve",
        "sat.teardown",
        "bdd.compile",
        "bdd.any_sat",
        "bdd.teardown",
        "core.witness",
    ];
    let mut table: Vec<(&'static str, f64)> = Vec::new();
    if !kind.served() {
        let rounds_per_replay = if kind == Kind::FabricBatch { 2.0 } else { 1.0 };
        table.extend(
            solver_path
                .iter()
                .map(|&s| (s, total(s) * rounds_per_replay)),
        );
    } else {
        let hit_path = [
            "loop.decode",
            "serve.parse",
            "engine.query_build",
            "engine.fingerprint",
            "engine.cache_hit",
            "serve.encode",
        ];
        let in_process: f64 = hit_path.iter().map(|s| per_op(s)).sum();
        let mut sorted = traced_round.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        // The median round trip is a hit on both served workloads.
        let round_trip_us = percentile_unchecked(&sorted, 0.5) * 1e3;
        v.insert(
            "serve.wire_overhead_us",
            round_trip_us - per_op("engine.cache_hit"),
        );
        let requests = traced_round.latencies_ms.len() as f64;
        table.extend(hit_path.iter().map(|&s| (s, per_op(s) * requests)));
        table.push((
            "serve.wire",
            (round_trip_us - in_process).max(0.0) * requests,
        ));
        if kind == Kind::FabricChurn {
            // The replay solved each evicted query under both models:
            // exactly the cold solves of one round's two cycles.
            table.extend(solver_path.iter().map(|&s| (s, total(s))));
            for s in [
                "delta.parse",
                "delta.apply",
                "delta.fingerprint",
                "engine.sweep",
            ] {
                table.push((s, total(s)));
            }
        }
    }
    table.retain(|(_, us)| *us > 0.0);
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    table
}

/// Run the workload once plain and once traced, replay its ops through
/// the layers, and report the per-layer metrics.
pub fn traced(cfg: &RunConfig) -> Result<Report, String> {
    let oracle = measure::oracle(cfg);
    let scale = cfg.scale();
    let kind = cfg.kind;
    let (mut state, mut warm) = set_up(kind, cfg.seed, scale)?;
    state.judge(&mut warm, &oracle);
    let mut v = Values::new();
    let mut tally = Tally {
        attempted: warm.attempted,
        failed: warm.failed,
    };
    v.insert("host.spin_ms", host::spin_ms());

    let spin_before_plain = host::spin_ms();
    let mut plain = state.run(0, scale)?;
    let plain_speed = host::speed(spin_before_plain, host::spin_ms());
    state.judge(&mut plain, &oracle);
    let before = match &state {
        State::Served(s) => Some(scrape(s)?),
        State::Batch(_) => None,
    };
    trace::enable();
    let mut traced_round = {
        let _span = trace::span("harness.round", 0);
        state.run(0, scale)?
    };
    state.judge(&mut traced_round, &oracle);
    for r in [&plain, &traced_round] {
        tally.attempted += r.attempted;
        tally.failed += r.failed;
    }
    v.insert(
        "obs.trace_overhead_ratio",
        ratio(traced_round.wall_s, plain.wall_s),
    );

    let staged = match &mut state {
        State::Batch(b) => batch_layers(
            &b.inputs,
            &oracle,
            (&plain, plain_speed),
            &traced_round,
            &mut v,
            &mut tally,
        ),
        State::Served(s) => {
            let after = scrape(s)?;
            let delta = |name: &str| {
                metric_value(&after, name).unwrap_or(0.0)
                    - before
                        .as_deref()
                        .and_then(|b| metric_value(b, name))
                        .unwrap_or(0.0)
            };
            v.insert(
                "loop.wakeups_per_req",
                ratio(
                    delta("loop_wakeups_total"),
                    traced_round.latencies_ms.len() as f64,
                ),
            );
            v.insert("serve.shed", delta("serve_overloaded_total"));
            let leaf = s.inputs.churn_leaf(0);
            served_layers(s, &oracle, &traced_round, leaf, scale, &mut v, &mut tally)?
        }
    };
    let spans = trace::disable();
    let peak_rss = host::peak_rss_mb();
    state.tear_down();

    let stats = stage_stats(&spans);
    for &(stage, metric) in STAGE_METRICS {
        v.insert(metric, stats.get(stage).map_or(0.0, |s| s.median_us));
    }
    v.insert(
        "engine.sweep_ms",
        stats.get("engine.sweep").map_or(0.0, |s| s.median_us / 1e3),
    );
    staged.publish(stats.get("sat.solve").map_or(0.0, |s| s.total_us), &mut v);
    v.insert("host.peak_rss_mb", peak_rss);

    let table = attribution(kind, &stats, &traced_round, &mut v);
    let total: f64 = table.iter().map(|(_, us)| us).sum();
    let mut notes = vec![format!(
        "traced round {:.3}s vs plain {:.3}s; {} spans recorded",
        traced_round.wall_s,
        plain.wall_s,
        spans.len()
    )];
    if let Some((top, top_us)) = table.first() {
        v.insert("top_stage_share", ratio(*top_us, total));
        notes.push(format!(
            "top_stage {top}: {:.1}% of the replayed time of one round",
            top_us / total * 100.0
        ));
        for (stage, us) in &table {
            notes.push(format!(
                "  stage {stage:<20} {:>12.1} us/round {:>5.1}%",
                us,
                us / total * 100.0
            ));
        }
        let solver: f64 = table
            .iter()
            .filter(|(s, _)| SOLVER_STAGES.contains(s))
            .map(|(_, us)| us)
            .sum();
        notes.push(format!(
            "solver stages: {:.1}% of the replayed time",
            (solver / total * 100.0).max(0.0)
        ));
    }
    let sum_ratio = v.get("stage_sum_ratio").copied().unwrap_or(0.0);
    notes.push(format!(
        "host speed {:.3} under the engine's fresh latencies, {:.3} under their replay (1 = reference)",
        staged.engine_speed, staged.replay_speed
    ));
    notes.push(match sum_ratio {
        0.0 => "stage_sum_ratio n/a: the round solves nothing fresh".to_string(),
        r if (0.85..=1.15).contains(&r) => {
            format!("stage_sum_ratio {r:.3}: the stages account for the engine's latency")
        }
        r => format!("stage_sum_ratio {r:.3} outside 0.85-1.15: attribution UNRESOLVED"),
    });

    let dir = if Path::new("perfbench").is_dir() {
        "perfbench/out"
    } else {
        "out"
    };
    let path = Path::new(dir).join(format!("{}.trace.json", kind.name()));
    trace::write_chrome_trace(&path, kind.name(), &spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("trace written to {}", path.display()));
    if cfg.quick {
        notes.push("QUICK RUN: tenth-size rounds, numbers are NOT comparable".to_string());
    }

    Ok(Report {
        workload: kind.name(),
        seed: cfg.seed,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, v.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        notes,
    })
}
