//! Delta subsystem integration tests: differential correctness of scripted
//! deltas against a fresh parse of the equivalent full spec (for every
//! checked-in spec), the sweep's precision (an entry is re-checked only
//! when its pair's feasible paths changed), session-state
//! survival across deltas, the serve layer's `POST /delta` and no-op
//! `POST /model` behavior over real sockets, a delta answered while the
//! only shard is busy, and served == batch verdicts and delta counts at
//! one, two and three shards.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use rzen::Budget;
use rzen_delta::composite_fingerprint;
use rzen_engine::{
    DeltaCacheStats, Engine, EngineConfig, NetOp, Probe, Query, QueryBackend, Verdict,
};
use rzen_net::gen::spine_leaf;
use rzen_net::spec::{self, Spec};
use rzen_net::topology::Network;
use rzen_obs::json::{parse, Value};
use rzen_serve::{start, Model, ServerConfig};

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// The scripted delta for one checked-in spec. Every file in `specs/`
/// must have one — a new spec without a script fails the differential
/// test, which is the point: delta coverage stays total.
fn scripted_delta(name: &str) -> &'static str {
    match name {
        // Flip the transit ACL, then add and remove a middlebox: the
        // add/remove pair must cancel out structurally.
        "fig3.net" => concat!(
            "{\"op\":\"set-acl\",\"device\":\"u2\",\"intf\":1,\"dir\":\"in\",",
            "\"acl\":\"permit-dst 192.168.0.0/16\"}\n",
            "{\"op\":\"add-device\",\"name\":\"m1\",\"intfs\":[7]}\n",
            "{\"op\":\"remove-device\",\"name\":\"m1\"}\n",
        ),
        // Exercise every remaining op kind; the link flap restores the
        // topology so the edge-port set is unchanged.
        "spine_leaf.net" => concat!(
            "# drop l1's telnet filter, shield l2's hosts instead\n",
            "{\"op\":\"remove-acl\",\"device\":\"l1\",\"intf\":99,\"dir\":\"in\"}\n",
            "{\"op\":\"set-acl\",\"device\":\"l2\",\"intf\":99,\"dir\":\"out\",",
            "\"acl\":\"deny-dport 80 80\"}\n",
            "{\"op\":\"link-down\",\"a\":\"l1:2\",\"b\":\"s1:2\"}\n",
            "{\"op\":\"link-up\",\"a\":\"l1:2\",\"b\":\"s1:2\"}\n",
            "{\"op\":\"set-route\",\"device\":\"l1\",\"prefix\":\"10.2.0.0/16\",\"port\":2}\n",
        ),
        other => panic!(
            "no scripted delta for specs/{other}: add one to scripted_delta() \
             so the differential suite keeps covering every spec"
        ),
    }
}

/// The result-cache keys, the shard routing and the model identity
/// `/healthz` reports are FNV-1a fingerprints; a network enters a query's
/// as its `Network::digest`. Pin the hash on its published test vector,
/// and pin one model, one network digest and one query fingerprint, so a
/// change to the helper or to a hashed type's `Hash` shows up here.
#[test]
fn fnv1a_fingerprints_are_pinned() {
    use std::hash::Hasher;
    let mut h = rzen_obs::Fnv1a::default();
    h.write(b"a");
    assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);

    let spec = spec::parse(&std::fs::read_to_string(specs_dir().join("fig3.net")).unwrap())
        .expect("fig3 parses");
    assert_eq!(composite_fingerprint(&spec.net), 0x6c61_a568_2afc_abc2);
    assert_eq!(spec.net.digest(), 0x2008_def5_ec36_2c43);
    let query = Query::Reach {
        net: spec.net.clone(),
        src: spec.endpoint("u1:1").unwrap(),
        dst: spec.endpoint("u3:2").unwrap(),
    };
    assert_eq!(query.fingerprint(), 0xf220_2928_ab2e_ae28);
    assert_eq!(query.model_fingerprint(), 0xf68f_bb42_1b6b_e3bb);
}

/// Every spec's network, parsed (or generated) twice: two equal values
/// in separate allocations.
fn specs_built_twice() -> Vec<(Spec, Network)> {
    let mut specs: Vec<(Spec, Network)> = std::fs::read_dir(specs_dir())
        .expect("specs dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "net"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (spec::parse(&text).unwrap(), spec::parse(&text).unwrap().net)
        })
        .collect();
    assert!(!specs.is_empty(), "specs/ must hold at least one spec");
    specs.push((
        Spec::from_network(spine_leaf(2, 8)).unwrap(),
        spine_leaf(2, 8),
    ));
    specs
}

/// A query over a handle to a model's network fingerprints and compares
/// as the same query over an equal network built apart, so a served
/// probe and a batch lookup of one question meet in one bucket whichever
/// handle each holds.
#[test]
fn a_shared_net_fingerprints_each_pair_as_its_query() {
    for (spec, apart) in specs_built_twice() {
        assert!(!Network::ptr_eq(&spec.net, &apart));
        let queries = all_pairs(&spec);
        assert!(!queries.is_empty());
        for q in &queries {
            let (op, src, dst) = pair(q);
            let other = op.query(apart.clone(), src, dst);
            assert_eq!(
                other.fingerprint(),
                q.fingerprint(),
                "{} {src:?} -> {dst:?}",
                q.kind()
            );
            assert_eq!(other.model_fingerprint(), q.model_fingerprint());
            assert_eq!(other, *q);
        }
    }
}

/// Served cold solves of one model cache one network between them, and
/// a delta moves the survivors onto the new model's network, where a
/// probe through a handle to it hits them.
#[test]
fn served_entries_share_the_models_network_across_a_delta() {
    let base = Spec::from_network(spine_leaf(2, 3)).unwrap();
    let mut patched = base.clone();
    let applied =
        rzen_delta::apply_all(&mut patched, &rzen_delta::parse_ops(FENCE_LEAF1).unwrap()).unwrap();
    let (old, new) = (&base.net, &patched.net);
    assert_eq!((old.handles(), new.handles()), (1, 1), "the patch copied");
    let eng = engine(true);
    let worker = eng.serve_worker();
    let pairs: Vec<_> = all_pairs(&base).iter().map(pair).collect();
    for &(op, src, dst) in &pairs {
        let query = op.query(old.clone(), src, dst);
        let Probe::Miss(miss) = eng.probe(&query) else {
            panic!("a cold probe must miss");
        };
        let ctx = rzen_obs::RequestCtx::mint(0, 0);
        let r = eng.run_missed(&query, Budget::unlimited(), &worker, ctx, miss);
        assert!(r.verdict.is_decisive());
    }
    // Every entry holds the model's one value, held otherwise only here.
    assert_eq!(eng.cache_len(), pairs.len());
    assert_eq!(old.handles(), 1 + pairs.len());

    let stats = eng.apply_delta(old, new, &applied.steps);
    assert!(stats.evicted > 0 && stats.retained > 0, "{stats:?}");
    assert_eq!(eng.cache_len(), stats.retained);
    assert_eq!(old.handles(), 1, "an entry kept the old network");
    assert_eq!(new.handles(), 1 + stats.retained);
    let hits = pairs
        .iter()
        .filter(|&&(op, src, dst)| {
            matches!(eng.probe(&op.query(new.clone(), src, dst)), Probe::Hit(_))
        })
        .count();
    assert_eq!(hits, stats.retained);
}

/// A batch entry answers a probe through another handle to its network,
/// by pointer, and through an equal network built apart, by comparing
/// the networks in full; each probe's query fingerprints as the batch
/// query did.
#[test]
fn a_batch_entry_answers_a_probe_through_another_handle() {
    let spec = Spec::from_network(spine_leaf(2, 3)).unwrap();
    let apart = spine_leaf(2, 3);
    let eng = engine(true);
    let queries = all_pairs(&spec);
    let report = eng.run_batch(&queries);
    for (q, batch) in queries.iter().zip(&report.results) {
        let (op, src, dst) = pair(q);
        for net in [&spec.net, &apart] {
            let probe = op.query(net.clone(), src, dst);
            assert_eq!(probe.fingerprint(), q.fingerprint());
            let Probe::Hit(hit) = eng.probe(&probe) else {
                panic!(
                    "{} {src:?} -> {dst:?}: the batch entry was not found",
                    q.kind()
                );
            };
            assert_eq!(hit.verdict, batch.verdict);
        }
    }
}

fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        Verdict::Timeout => "timeout",
        Verdict::Cancelled => "cancelled",
        Verdict::Error(_) => "error",
    }
}

/// All-pairs Reach + Drops over the spec's edge ports — the same query
/// set `rzen-cli batch` runs.
fn all_pairs(spec: &Spec) -> Vec<Query> {
    let ports = spec.edge_ports();
    let mut queries = Vec::new();
    for &src in &ports {
        for &dst in &ports {
            if src == dst {
                continue;
            }
            queries.push(Query::Reach {
                net: spec.net.clone(),
                src,
                dst,
            });
            queries.push(Query::Drops {
                net: spec.net.clone(),
                src,
                dst,
            });
        }
    }
    queries
}

/// The kind and endpoints of an all-pairs query.
fn pair(q: &Query) -> (NetOp, (usize, u8), (usize, u8)) {
    match q {
        Query::Reach { src, dst, .. } => (NetOp::Reach, *src, *dst),
        Query::Drops { src, dst, .. } => (NetOp::Drops, *src, *dst),
        _ => unreachable!("all_pairs builds reach and drops only"),
    }
}

/// The NDJSON request line that asks a server for `q` (reach/drops only).
fn wire_line(spec: &Spec, q: &Query) -> String {
    let (Query::Reach { src, dst, .. } | Query::Drops { src, dst, .. }) = q else {
        unreachable!("all_pairs builds reach and drops only");
    };
    let (kind, s, d) = (q.kind(), spec.endpoint_name(*src), spec.endpoint_name(*dst));
    format!("{{\"op\":\"{kind}\",\"src\":\"{s}\",\"dst\":\"{d}\"}}")
}

/// Fence off leaf1's hosts in a `gen::spine_leaf` fabric: all-pairs
/// verdicts become a mix of sat and unsat.
const FENCE_LEAF1: &str =
    "{\"op\":\"set-acl\",\"device\":\"leaf1\",\"intf\":99,\"dir\":\"in\",\"acl\":\"deny\"}";

fn engine(cache: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: 4,
        backend: QueryBackend::Portfolio,
        timeout: None,
        cache,
        sessions: false,
    })
}

#[test]
fn scripted_deltas_agree_with_fresh_parse_on_every_spec() {
    let mut names: Vec<String> = std::fs::read_dir(specs_dir())
        .expect("specs dir")
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".net").then_some(name)
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "specs/ must hold at least one spec");

    for name in names {
        let text = std::fs::read_to_string(specs_dir().join(&name)).unwrap();
        let base = spec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ops = rzen_delta::parse_ops(scripted_delta(&name)).unwrap();
        let mut patched = base.clone();
        let applied = rzen_delta::apply_all(&mut patched, &ops).unwrap();
        assert!(!applied.touched.is_empty(), "{name}: delta touched nothing");

        // The serializer must close the loop: a fresh parse of the
        // rendered patched spec is the "equivalent full spec", and
        // re-rendering it must be a fixpoint.
        let rendered = spec::serialize(&patched).unwrap();
        let reparsed = spec::parse(&rendered)
            .unwrap_or_else(|e| panic!("{name}: patched spec does not reparse: {e}\n{rendered}"));
        assert_eq!(
            spec::serialize(&reparsed).unwrap(),
            rendered,
            "{name}: serializer must be a fixpoint on patched specs"
        );
        assert_eq!(
            composite_fingerprint(&patched.net),
            composite_fingerprint(&reparsed.net),
            "{name}: in-place patch and fresh parse must have one identity"
        );
        assert_eq!(patched.edge_ports(), reparsed.edge_ports());

        // Differential: all-pairs verdicts of the in-place patched model
        // against a from-scratch parse, solved by independent engines
        // with the cache off (every verdict is a real solve).
        let qp = all_pairs(&patched);
        let qr = all_pairs(&reparsed);
        let rp = engine(false).run_batch(&qp);
        let rr = engine(false).run_batch(&qr);
        for (i, q) in qp.iter().enumerate() {
            assert_eq!(
                verdict_kind(&rp.results[i].verdict),
                verdict_kind(&rr.results[i].verdict),
                "{name}: query {i} ({}) diverges between patched and reparsed",
                q.kind()
            );
            for (report, query) in [(&rp, q), (&rr, &qr[i])] {
                if let Verdict::Sat(w) = &report.results[i].verdict {
                    assert!(query.check_witness(w), "{name}: query {i}: bad witness");
                }
            }
        }
    }
}

#[test]
fn delta_evicts_only_changed_pairs_whose_witness_broke() {
    let text = std::fs::read_to_string(specs_dir().join("spine_leaf.net")).unwrap();
    let base = spec::parse(&text).unwrap();
    let l1 = *base.device_index.get("l1").unwrap();

    // Warm the cache with the full all-pairs set: 3 edge ports, 6
    // ordered pairs, Reach + Drops each.
    let eng = engine(true);
    let warm = eng.run_batch(&all_pairs(&base));
    assert!(warm.results.iter().all(|r| r.verdict.is_decisive()));
    assert_eq!(eng.cache_len(), 12);

    // One inbound ACL line on l1's host port. It changes the feasible
    // paths of every pair that enters at l1 — transit paths through l1
    // enter via the spine-facing ports, never through intf 99, and a
    // path into l1 leaves through intf 99, whose inbound half no fold
    // reads. Of those 4 entries (2 ordered pairs x Reach+Drops), the
    // SAT ones replay their witness on the new model: a reach out of l1
    // now meets the deny and is evicted; a drops witness was dropped
    // before and still is.
    let ops = rzen_delta::parse_ops(
        "{\"op\":\"set-acl\",\"device\":\"l1\",\"intf\":99,\"dir\":\"in\",\"acl\":\"deny\"}",
    )
    .unwrap();
    let mut patched = base.clone();
    let applied = rzen_delta::apply_all(&mut patched, &ops).unwrap();
    let stats = eng.apply_delta(&base.net, &patched.net, &applied.steps);
    assert_eq!(
        stats,
        DeltaCacheStats {
            evicted: 2,
            retained: 10,
            revalidated: 2,
            unaffected: 0
        },
        "l1's 2 outbound reaches break and its 2 outbound drops revalidate; \
         the 4 entries into l1 and l0<->l2's 4 keep their paths"
    );
    assert_eq!(eng.cache_len(), 10);

    // Survivors were re-keyed to the new model: re-running the full set
    // against the patched net hits every entry whose witness held, and
    // every verdict agrees with an engine that saw only the new model.
    let queries = all_pairs(&patched);
    let rerun = eng.run_batch(&queries);
    let fresh = engine(false).run_batch(&queries);
    for (i, q) in queries.iter().enumerate() {
        let (Query::Reach { src, .. } | Query::Drops { src, .. }) = q else {
            unreachable!()
        };
        let witness_broke = matches!(q, Query::Reach { .. }) && src.0 == l1;
        assert_eq!(
            rerun.results[i].cache_hit, !witness_broke,
            "query {i}: an entry hits unless its witness broke"
        );
        assert_eq!(
            verdict_kind(&rerun.results[i].verdict),
            verdict_kind(&fresh.results[i].verdict),
            "query {i} ({}): a retained entry answered for the wrong model",
            q.kind()
        );
    }
}

/// The sweep re-checks only the pairs whose feasible paths a delta
/// changed, so a delta that touches every simple path but only a few
/// feasible ones replays only those. On `spine_leaf(2, 8)`'s 112
/// all-pairs entries (every one SAT): a route on leaf5 changes the paths
/// of its 14 ordered pairs, whose 28 witnesses all still hold; an
/// inbound ACL on leaf5's host port changes only the 7 pairs entering
/// there, as no path into leaf5 reads that port's inbound half; a link
/// between two host ports opens no path any packet can take.
#[test]
fn a_delta_replays_only_the_pairs_whose_feasible_paths_changed() {
    let base = Spec::from_network(spine_leaf(2, 8)).unwrap();
    for (delta, replayed) in [
        (
            "{\"op\":\"set-route\",\"device\":\"leaf5\",\"prefix\":\"192.168.0.0/16\",\"port\":99}",
            28,
        ),
        (
            "{\"op\":\"set-acl\",\"device\":\"leaf5\",\"intf\":99,\"dir\":\"in\",\"acl\":\"deny-dport 23 23\"}",
            14,
        ),
        (
            "{\"op\":\"link-up\",\"a\":\"leaf5:99\",\"b\":\"leaf6:99\"}",
            0,
        ),
    ] {
        let eng = engine(true);
        eng.run_batch(&all_pairs(&base));
        assert_eq!(eng.cache_len(), 112);
        let mut patched = base.clone();
        let applied =
            rzen_delta::apply_all(&mut patched, &rzen_delta::parse_ops(delta).unwrap()).unwrap();
        let stats = eng.apply_delta(&base.net, &patched.net, &applied.steps);
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 0,
                retained: 112,
                revalidated: replayed,
                unaffected: 0
            },
            "{delta}"
        );
        // Every kept entry answers as a cold engine does on the patched
        // model.
        let queries = all_pairs(&patched);
        let rerun = eng.run_batch(&queries);
        let cold = engine(false).run_batch(&queries);
        for (i, q) in queries.iter().enumerate() {
            assert!(rerun.results[i].cache_hit, "{delta}: query {i} missed");
            assert_eq!(
                verdict_kind(&rerun.results[i].verdict),
                verdict_kind(&cold.results[i].verdict),
                "{delta}: query {i} ({})",
                q.kind()
            );
        }
    }
}

#[test]
fn warm_session_state_survives_a_delta() {
    let text = std::fs::read_to_string(specs_dir().join("spine_leaf.net")).unwrap();
    let base = spec::parse(&text).unwrap();
    let src = base.endpoint("l0:99").unwrap();
    let dst = base.endpoint("l2:99").unwrap();

    // Sessions on, cache off: every run_one is a real solve through the
    // worker's persistent solver sessions.
    let eng = Engine::new(EngineConfig {
        jobs: 1,
        backend: QueryBackend::Smt,
        timeout: None,
        cache: false,
        sessions: true,
    });
    // Warm the session on the full all-pairs set: the unsat Drops
    // queries are what make the SAT side learn clauses worth carrying.
    let worker = eng.serve_worker();
    let mut first = None;
    for q in all_pairs(&base) {
        let r = eng.run_one(
            &q,
            Budget::unlimited(),
            &worker,
            rzen_obs::RequestCtx::mint(0, 0),
        );
        assert!(r.verdict.is_decisive());
        if matches!(&q, Query::Reach { src: s, dst: d, .. } if (*s, *d) == (src, dst)) {
            first = Some(r);
        }
    }
    let first = first.expect("the observed pair is in the all-pairs set");

    let ops = rzen_delta::parse_ops(
        "{\"op\":\"set-acl\",\"device\":\"l1\",\"intf\":99,\"dir\":\"in\",\"acl\":\"deny\"}",
    )
    .unwrap();
    let mut patched = base.clone();
    let applied = rzen_delta::apply_all(&mut patched, &ops).unwrap();
    eng.apply_delta(&base.net, &patched.net, &applied.steps);

    // The same pair against the patched model: only l1's sub-model
    // changed, so the session must reuse the bitblast nodes and carried
    // clauses it compiled before the delta — deltas never quiesce
    // sessions, that is the whole point of sub-model fingerprints.
    let after = eng.run_one(
        &Query::Reach {
            net: patched.net.clone(),
            src,
            dst,
        },
        Budget::unlimited(),
        &worker,
        rzen_obs::RequestCtx::mint(0, 0),
    );
    assert!(after.verdict.is_decisive());
    let session = after.session.expect("session mode attaches stats");
    assert!(
        session.bitblast_hits > 0,
        "post-delta query must reuse nodes compiled before the delta"
    );
    assert!(
        session.sat_clauses_carried > 0,
        "learnt clauses must survive the delta"
    );
    assert_eq!(
        verdict_kind(&first.verdict),
        verdict_kind(&after.verdict),
        "the untouched pair's verdict must not move"
    );
}

// ---------------------------------------------------------------- serve --

const REACH: &str = "{\"op\":\"reach\",\"src\":\"u1:1\",\"dst\":\"u3:2\"}";

/// Deny everything into fig3's transit hop, which is on the only
/// u1 -> u3 path.
const U2_DENY: &str =
    "{\"op\":\"set-acl\",\"device\":\"u2\",\"intf\":1,\"dir\":\"in\",\"acl\":\"deny\"}";

fn cfg(sessions: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        backlog: 16,
        timeout: Some(Duration::from_secs(30)),
        sessions,
        backend: QueryBackend::Portfolio,
        handle_signals: false,
        debug_ops: false,
        shards: 0,
        idle_timeout: None,
        ..ServerConfig::default()
    }
}

fn fig3_text() -> String {
    std::fs::read_to_string(specs_dir().join("fig3.net")).unwrap()
}

fn request(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    resp.trim().to_string()
}

fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("http response");
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("response missing {key:?}: {v:?}"))
}

fn healthz(addr: SocketAddr) -> Value {
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    parse(&body).unwrap()
}

#[test]
fn post_delta_flips_verdicts_and_advances_the_generation() {
    let fig3 = fig3_text();
    let handle = start(cfg(true), Model::parse(&fig3).unwrap()).unwrap();
    let addr = handle.addr();

    let before = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&before, "verdict").as_str(), Some("sat"));
    let health = healthz(addr);
    let fp_before = field(&health, "model").as_str().unwrap().to_string();
    let gen_before = field(&health, "generation").as_u64().unwrap();

    // A bad delta (unknown device) must change nothing.
    let (status, body) = http_post(
        addr,
        "/delta",
        "{\"op\":\"set-acl\",\"device\":\"nope\",\"intf\":1,\"dir\":\"in\",\"acl\":\"deny\"}",
    );
    assert!(status.contains("400"), "{status} {body}");
    assert_eq!(
        field(&healthz(addr), "model").as_str().unwrap(),
        fp_before,
        "a rejected delta must not move the model"
    );

    // One ACL line over the wire: the transit hop now denies everything.
    let (status, body) = http_post(addr, "/delta", U2_DENY);
    assert!(status.contains("200"), "{status} {body}");
    let resp = parse(&body).unwrap();
    assert_eq!(field(&resp, "status").as_str(), Some("ok"));
    assert_eq!(field(&resp, "ops").as_u64(), Some(1));
    assert_eq!(field(&resp, "touched").as_str(), Some("u2"));
    assert_eq!(field(&resp, "generation").as_u64(), Some(gen_before + 1));
    // u2 is on the only u1->u3 path, so the cached pair is in the cone.
    assert!(field(&resp, "evicted").as_u64().unwrap() > 0);

    let after = parse(&request(addr, REACH)).unwrap();
    assert_eq!(
        field(&after, "verdict").as_str(),
        Some("unsat"),
        "the delta must be visible to the next query"
    );
    assert_eq!(field(&after, "cache_hit").as_bool(), Some(false));

    let health = healthz(addr);
    assert_ne!(
        field(&health, "model").as_str().unwrap(),
        fp_before,
        "healthz must report the new composite fingerprint"
    );
    assert_eq!(
        field(&health, "generation").as_u64(),
        Some(gen_before + 1),
        "each accepted mutation advances the generation exactly once"
    );

    // A delta is an optimisation of a full swap, never a different
    // answer: on a fabric, one leaf's ACL change posted as a delta must
    // leave every all-pairs verdict equal to posting the patched spec
    // whole, while re-solving strictly fewer of them (only the pairs
    // through that leaf; a swap clears the cache).
    let base = Spec::from_network(spine_leaf(2, 3)).unwrap();
    let mut patched = base.clone();
    rzen_delta::apply_all(&mut patched, &rzen_delta::parse_ops(FENCE_LEAF1).unwrap()).unwrap();
    let post = |path: &str, body: &str| {
        let (status, resp) = http_post(addr, path, body);
        assert!(status.contains("200"), "POST {path}: {status} {resp}");
    };
    // Every all-pairs verdict, and how many were solved rather than
    // served from the result cache.
    let ask_all = || -> (Vec<String>, usize) {
        let (mut verdicts, mut solved) = (Vec::new(), 0);
        for q in all_pairs(&base) {
            let resp = parse(&request(addr, &wire_line(&base, &q))).unwrap();
            verdicts.push(field(&resp, "verdict").as_str().unwrap().to_string());
            solved += (field(&resp, "cache_hit").as_bool() != Some(true)) as usize;
        }
        (verdicts, solved)
    };
    post("/model", &spec::serialize(&base).unwrap());
    ask_all();
    post("/delta", FENCE_LEAF1);
    let (via_delta, solved_after_delta) = ask_all();
    post("/model", &spec::serialize(&base).unwrap());
    ask_all();
    post("/model", &spec::serialize(&patched).unwrap());
    let (via_swap, solved_after_swap) = ask_all();
    assert_eq!(via_delta, via_swap);
    assert!(via_swap.iter().any(|v| v == "unsat") && via_swap.iter().any(|v| v == "sat"));
    assert!(
        0 < solved_after_delta && solved_after_delta < solved_after_swap,
        "delta re-solved {solved_after_delta}, full swap {solved_after_swap}"
    );

    // Cache observability rides along: the delta-eviction counters and
    // the entries gauge are live in /metrics (Prometheus names: dots
    // become underscores, counters gain `_total`).
    let (_, metrics) = http_get(addr, "/metrics");
    for name in [
        "engine_cache_entries",
        "engine_cache_delta_evicted_total",
        "engine_cache_delta_retained_total",
        "engine_cache_delta_revalidated_total",
        "engine_cache_hits_total",
        "engine_cache_misses_total",
        "engine_deltas_total",
    ] {
        assert!(
            metrics.contains(name),
            "/metrics missing {name}:\n{metrics}"
        );
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn equal_fingerprint_model_post_is_a_noop_that_keeps_the_cache() {
    let fig3 = fig3_text();
    let handle = start(cfg(false), Model::parse(&fig3).unwrap()).unwrap();
    let addr = handle.addr();

    let miss = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&miss, "cache_hit").as_bool(), Some(false));
    let hit = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&hit, "cache_hit").as_bool(), Some(true));
    let gen_before = field(&healthz(addr), "generation").as_u64().unwrap();

    // The same network, textually reformatted: model identity is the
    // Merkle composite over the *structure*, so this must be a no-op
    // that leaves the warm cache alone.
    let reformatted = format!("# a cosmetic comment\n\n{fig3}\n");
    assert_ne!(reformatted, fig3);
    let (status, body) = http_post(addr, "/model", &reformatted);
    assert!(status.contains("200"), "{status} {body}");
    let resp = parse(&body).unwrap();
    assert_eq!(field(&resp, "swapped").as_bool(), Some(false));
    assert_eq!(field(&resp, "generation").as_u64(), Some(gen_before));

    let still_hit = parse(&request(addr, REACH)).unwrap();
    assert_eq!(
        field(&still_hit, "cache_hit").as_bool(),
        Some(true),
        "a no-op swap must not clear the result cache"
    );

    // A genuinely different model still swaps and clears.
    let blocked = fig3.replace("acl-in deny-dport 5000 6000", "acl-in deny");
    assert_ne!(blocked, fig3);
    let (status, body) = http_post(addr, "/model", &blocked);
    assert!(status.contains("200"), "{status} {body}");
    let resp = parse(&body).unwrap();
    assert_eq!(field(&resp, "swapped").as_bool(), Some(true));
    assert_eq!(field(&resp, "generation").as_u64(), Some(gen_before + 1));
    let after = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&after, "verdict").as_str(), Some("unsat"));
    assert_eq!(field(&after, "cache_hit").as_bool(), Some(false));

    handle.shutdown();
    handle.join();
}

/// A delta runs on the thread that posts it, not on the shards: with the
/// only shard held in a 1.5 s job, `POST /delta` still answers at once
/// with its counts, and the next query sees the patched model.
#[test]
fn a_delta_does_not_wait_behind_a_busy_shard() {
    let mut c = cfg(false);
    c.shards = 1;
    c.debug_ops = true;
    let handle = start(c, Model::parse(&fig3_text()).unwrap()).unwrap();
    let addr = handle.addr();
    let warm = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&warm, "verdict").as_str(), Some("sat"));

    let mut sleeper = TcpStream::connect(addr).expect("connect");
    sleeper.set_nodelay(true).unwrap();
    sleeper
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    sleeper
        .write_all(b"{\"op\":\"sleep\",\"ms\":1500}\n")
        .unwrap();
    let admitted = Instant::now();
    while field(&healthz(addr), "inflight").as_u64() != Some(1) {
        assert!(
            admitted.elapsed() < Duration::from_secs(5),
            "the sleep was never admitted"
        );
        thread::sleep(Duration::from_millis(5));
    }
    // The shard pops an admitted job within microseconds; give it time
    // to be inside the sleep, not about to start it.
    thread::sleep(Duration::from_millis(50));

    let posted = Instant::now();
    let (status, body) = http_post(addr, "/delta", U2_DENY);
    let took = posted.elapsed();
    assert!(status.contains("200"), "{status} {body}");
    assert!(
        took < Duration::from_millis(500),
        "POST /delta took {took:?}: it waited for the shard's job"
    );
    assert!(field(&parse(&body).unwrap(), "evicted").as_u64().unwrap() >= 1);

    let after = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&after, "verdict").as_str(), Some("unsat"));
    let mut slept = String::new();
    BufReader::new(sleeper).read_line(&mut slept).unwrap();
    assert!(slept.contains("\"op\":\"sleep\""), "{slept}");

    handle.shutdown();
    handle.join();
}

/// The server is a second way to ask the engine the same questions: at
/// any shard count, every verdict must be the one `Engine::run_batch`
/// (what `rzen-cli batch` prints) gives for the same query, and a posted
/// delta must evict and retain what `Engine::apply_delta` does on a batch
/// engine warmed with the same queries, whichever shards solved them.
/// Lives here, not in `tests/serve.rs`: its
/// solver load at start-up starved that binary's 400 ms trace-capture
/// test about one run in twenty.
#[test]
fn served_verdicts_equal_the_batch_path_at_every_shard_count() {
    let base = Spec::from_network(spine_leaf(2, 4)).unwrap();
    let mut spec = base.clone();
    let applied =
        rzen_delta::apply_all(&mut spec, &rzen_delta::parse_ops(FENCE_LEAF1).unwrap()).unwrap();
    let warm = all_pairs(&base);
    let queries = all_pairs(&spec);
    let report = engine(true).run_batch(&queries);
    // Mixed, so an answer from another model or pair shows as a mismatch.
    assert!(report.stats.sat > 0 && report.stats.unsat > 0);
    let batch = engine(true);
    let warm_report = batch.run_batch(&warm);
    let swept = batch.apply_delta(&base.net, &spec.net, &applied.steps);
    assert!(
        swept.evicted > 0 && swept.retained > swept.revalidated && swept.revalidated > 0,
        "{swept:?}"
    );

    for shards in [1, 2, 3] {
        let mut c = cfg(false);
        c.shards = shards;
        let handle = start(c, Model::from_spec(base.clone())).unwrap();
        for (q, batch) in warm.iter().zip(&warm_report.results) {
            let line = wire_line(&base, q);
            let served = parse(&request(handle.addr(), &line)).unwrap();
            assert_eq!(
                field(&served, "verdict").as_str(),
                Some(verdict_kind(&batch.verdict)),
                "shards={shards}: {line}"
            );
        }
        let (status, body) = http_post(handle.addr(), "/delta", FENCE_LEAF1);
        assert!(status.contains("200"), "shards={shards}: {status} {body}");
        let resp = parse(&body).unwrap();
        assert_eq!(
            (
                field(&resp, "evicted").as_u64(),
                field(&resp, "retained").as_u64(),
                field(&resp, "revalidated").as_u64()
            ),
            (
                Some(swept.evicted as u64),
                Some(swept.retained as u64),
                Some(swept.revalidated as u64)
            ),
            "shards={shards}: the served sweep must count what the batch sweep does"
        );
        for (q, batch) in queries.iter().zip(&report.results) {
            let line = wire_line(&spec, q);
            let served = parse(&request(handle.addr(), &line)).unwrap();
            assert_eq!(
                field(&served, "verdict").as_str(),
                Some(verdict_kind(&batch.verdict)),
                "shards={shards}: {line}"
            );
        }
        handle.shutdown();
        handle.join();
    }
}
