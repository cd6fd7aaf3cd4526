//! Differential test of the result cache across model deltas: seeded
//! random delta scripts over every checked-in spec and a generated
//! fabric, on both backends. After each delta, a warm engine — its cache
//! swept by `Engine::apply_delta`, so some answers are hits, some kept
//! by a witness replay and some fresh solves — must answer every
//! all-pairs query with the verdict class of a cache-off engine on the
//! patched model, and every SAT witness it gives must check out there.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rzen_delta::{AclDir, DeltaOp};
use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, Verdict};
use rzen_net::gen::spine_leaf;
use rzen_net::ip::Prefix;
use rzen_net::spec::{self, Spec};

/// Deltas per script; each holds one to three ops.
const DELTAS: usize = 8;

/// ACLs a script installs: blanket, narrow, and prefix-scoped.
const ACLS: [&str; 6] = [
    "deny",
    "permit",
    "deny-dport 23 23",
    "deny-dport 0 1023",
    "permit-dst 10.0.0.0/15",
    "permit-dst 192.168.0.0/16",
];

fn specs() -> Vec<(String, Spec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut specs: Vec<(String, Spec)> = std::fs::read_dir(dir)
        .expect("specs dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "net"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let spec = spec::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
            (name, spec)
        })
        .collect();
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!specs.is_empty(), "specs/ must hold at least one spec");
    specs.push((
        "spine_leaf(2, 4)".into(),
        Spec::from_network(spine_leaf(2, 4)).unwrap(),
    ));
    specs
}

/// All-pairs Reach + Drops over the spec's edge ports.
fn all_pairs(spec: &Spec) -> Vec<Query> {
    let ports = spec.edge_ports();
    let mut queries = Vec::new();
    for &src in &ports {
        for &dst in ports.iter().filter(|&&dst| dst != src) {
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

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.gen_range(0..items.len())])
}

/// One random op over `spec`, or `None` when the drawn kind has nothing
/// to act on. The op may still be refused by the applier (an occupied
/// port, a route to a missing interface); the caller draws again.
fn random_op(spec: &Spec, rng: &mut StdRng, added: &mut usize) -> Option<DeltaOp> {
    let net = &spec.net;
    let device = pick(rng, &net.devices)?;
    let intf = pick(rng, &device.interfaces).map(|i| i.id);
    let dir = if rng.gen_bool(0.5) {
        AclDir::In
    } else {
        AclDir::Out
    };
    let endpoint = |d: usize, p: u8| format!("{}:{p}", net.devices[d].name);
    Some(match rng.gen_range(0..8) {
        0 | 1 => DeltaOp::SetAcl {
            device: device.name.clone(),
            intf: intf?,
            dir,
            acl: pick(rng, &ACLS)?.to_string(),
        },
        2 => {
            let slots: Vec<(String, u8, AclDir)> = net
                .devices
                .iter()
                .flat_map(|d| d.interfaces.iter().map(move |i| (d, i)))
                .flat_map(|(d, i)| {
                    [
                        (i.acl_in.is_some(), AclDir::In),
                        (i.acl_out.is_some(), AclDir::Out),
                    ]
                    .into_iter()
                    .filter(|(set, _)| *set)
                    .map(move |(_, dir)| (d.name.clone(), i.id, dir))
                })
                .collect();
            let (device, intf, dir) = pick(rng, &slots)?.clone();
            DeltaOp::RemoveAcl { device, intf, dir }
        }
        3 => DeltaOp::SetRoute {
            device: device.name.clone(),
            prefix: Prefix::new(u32::from_be_bytes([10, rng.gen_range(0..4u8), 0, 0]), 16),
            port: intf?,
        },
        4 => {
            let table = &device.interfaces.first()?.table;
            DeltaOp::RemoveRoute {
                device: device.name.clone(),
                prefix: pick(rng, &table.rules)?.prefix,
            }
        }
        5 => {
            let link = pick(rng, &net.links)?;
            DeltaOp::LinkDown {
                a: endpoint(link.from_device, link.from_intf),
                b: endpoint(link.to_device, link.to_intf),
            }
        }
        6 => {
            let ports = spec.edge_ports();
            let (a, b) = (pick(rng, &ports)?, pick(rng, &ports)?);
            if a.0 == b.0 {
                return None;
            }
            DeltaOp::LinkUp {
                a: endpoint(a.0, a.1),
                b: endpoint(b.0, b.1),
            }
        }
        _ if rng.gen_bool(0.5) && *added < 2 => {
            *added += 1;
            DeltaOp::AddDevice {
                name: format!("x{added}"),
                intfs: vec![1, 2],
            }
        }
        _ if net.devices.len() > 2 => DeltaOp::RemoveDevice {
            name: device.name.clone(),
        },
        _ => return None,
    })
}

/// A script of one to three ops that applies to `spec` as a whole.
fn random_script(spec: &Spec, rng: &mut StdRng, added: &mut usize) -> Vec<DeltaOp> {
    let mut scratch = spec.clone();
    let mut ops = Vec::new();
    let len = rng.gen_range(1..=3);
    while ops.len() < len {
        let Some(op) = random_op(&scratch, rng, added) else {
            continue;
        };
        if rzen_delta::apply(&mut scratch, &op).is_ok() {
            ops.push(op);
        }
    }
    ops
}

fn class(v: &Verdict) -> &'static str {
    match v {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        Verdict::Timeout => "timeout",
        Verdict::Cancelled => "cancelled",
        Verdict::Error(_) => "error",
    }
}

#[test]
fn warm_answers_across_random_delta_scripts_match_a_cold_engine() {
    let (mut hits, mut revalidated, mut evicted) = (0, 0, 0);
    let mut kinds = BTreeSet::new();
    for (s, (name, base)) in specs().into_iter().enumerate() {
        for backend in [QueryBackend::Bdd, QueryBackend::Smt] {
            let engine = |cache| {
                Engine::new(EngineConfig {
                    jobs: 2,
                    backend,
                    timeout: None,
                    cache,
                    sessions: false,
                })
            };
            let (warm, cold) = (engine(true), engine(false));
            let mut rng = StdRng::seed_from_u64(0x5eed ^ (s as u64) << 8 ^ backend as u64);
            let mut spec = base.clone();
            let mut added = 0;
            warm.run_batch(&all_pairs(&spec));
            for round in 0..DELTAS {
                let ops = random_script(&spec, &mut rng, &mut added);
                let script: Vec<String> = ops.iter().map(DeltaOp::to_line).collect();
                kinds.extend(ops.iter().map(DeltaOp::name));
                let mut patched = spec.clone();
                let applied = rzen_delta::apply_all(&mut patched, &ops)
                    .unwrap_or_else(|e| panic!("{name}: {script:?}: {e}"));
                let stats = warm.apply_delta(&spec.net, &patched.net, &applied.steps);
                revalidated += stats.revalidated;
                evicted += stats.evicted;
                spec = patched;

                let queries = all_pairs(&spec);
                let got = warm.run_batch(&queries);
                let want = cold.run_batch(&queries);
                for (i, q) in queries.iter().enumerate() {
                    let (got, want) = (&got.results[i], &want.results[i]);
                    let at = format!(
                        "{name} {backend:?} delta {round} {script:?}: {} {i} (hit: {})",
                        q.kind(),
                        got.cache_hit
                    );
                    assert_eq!(class(&got.verdict), class(&want.verdict), "{at}");
                    if let Verdict::Sat(w) = &got.verdict {
                        assert!(
                            q.check_witness(w),
                            "{at}: the witness fails on the new model"
                        );
                    }
                    hits += usize::from(got.cache_hit);
                }
            }
        }
    }
    // The scripts use every op kind, and reach all three ways a warm
    // answer can come about.
    assert_eq!(kinds.len(), 8, "op kinds drawn: {kinds:?}");
    eprintln!("hits {hits}, revalidated {revalidated}, evicted {evicted}");
    assert!(
        hits > 0 && revalidated > 0 && evicted > 0,
        "hits {hits}, revalidated {revalidated}, evicted {evicted}"
    );
}
