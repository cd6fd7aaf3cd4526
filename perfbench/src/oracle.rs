//! Deciding whether an op's answer is right, without the configuration
//! under test.
//!
//! * A SAT verdict is only accepted with a witness that replays through
//!   [`Query::check_witness`] — concrete semantics, no solver.
//! * Each distinct query's verdict class is computed once, before
//!   set-up, by the *other* backend on a fresh engine (sessions off,
//!   cache off). A class the generator knows by construction must agree.
//! * Every UNSAT class is additionally attacked with
//!   [`REFUTE_SAMPLES`] seeded concrete inputs; one that satisfies the
//!   query refutes the class.
//! * On the default seed the classes are also pinned in
//!   `expected/<workload>.txt`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, QueryResult, Verdict, Witness};
use rzen_net::headers::{Header, Packet};

use crate::inputs::{header_inside, Case, Inputs, Kind, DEFAULT_SEED};

/// Concrete samples thrown at every UNSAT class.
pub const REFUTE_SAMPLES: usize = 10_000;

/// The expected verdict class of each distinct query (`true` = SAT), in
/// `Inputs::cases` order, plus what the oracle itself found wrong.
pub struct Oracle {
    /// `Some(true)` SAT, `Some(false)` UNSAT, `None` when the oracle's
    /// sources disagree — every op on that query then counts as failed.
    pub classes: Vec<Option<bool>>,
    /// Human-readable oracle inconsistencies (empty on a healthy tree).
    pub problems: Vec<String>,
    /// Per-query latency of the fresh other-backend runs, one vector per
    /// backend run (the traced run reuses them as the engine reference).
    pub fresh: Vec<(QueryBackend, Vec<QueryResult>)>,
    /// Host speed ([`crate::host::speed`]) while `fresh` was measured.
    pub fresh_speed: f64,
}

/// A single-job engine with no timeout: the only two things the
/// workloads and the oracle vary are sessions and the result cache.
pub fn engine(backend: QueryBackend, sessions: bool, cache: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        backend,
        timeout: None,
        cache,
        sessions,
    })
}

/// A fresh single-backend engine: no sessions, no cache.
pub fn fresh_engine(backend: QueryBackend) -> Engine {
    engine(backend, false, false)
}

/// The backends a workload's measured rounds use.
fn measured_backends(kind: Kind) -> &'static [QueryBackend] {
    match kind {
        Kind::AclSessions => &[QueryBackend::Smt, QueryBackend::Bdd],
        _ => &[QueryBackend::Smt],
    }
}

fn other(backend: QueryBackend) -> QueryBackend {
    match backend {
        QueryBackend::Smt => QueryBackend::Bdd,
        _ => QueryBackend::Smt,
    }
}

fn class_of(v: &Verdict) -> Option<bool> {
    match v {
        Verdict::Sat(_) => Some(true),
        Verdict::Unsat => Some(false),
        _ => None,
    }
}

/// Does some seeded concrete input satisfy `query`? Used to attack an
/// UNSAT class: half the samples are uniform, half are drawn where a
/// counterexample would have to live (inside the probed rule's box, or
/// towards the destination leaf's prefix).
pub fn refuted_by_sampling(query: &Query, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let uniform =
        |rng: &mut StdRng| Header::new(rng.gen(), rng.gen(), rng.gen(), rng.gen(), rng.gen());
    (0..REFUTE_SAMPLES).any(|i| match query {
        Query::AclFind { acl, target_line } => {
            let rule = (*target_line as usize)
                .checked_sub(1)
                .and_then(|k| acl.rules.get(k));
            let h = match rule {
                Some(rule) if i % 2 == 0 => header_inside(rule, &mut rng),
                _ => uniform(&mut rng),
            };
            acl.matched_line_concrete(&h) == *target_line
        }
        Query::Reach { dst, .. } | Query::Drops { dst, .. } => {
            let mut h = uniform(&mut rng);
            if i % 2 == 0 {
                // Leaf `l` owns 10.l.0.0/16 in the generated fabric.
                let leaf = dst.0.saturating_sub(crate::inputs::SPINES) as u32;
                h.dst_ip = (10 << 24) | (leaf << 16) | (h.dst_ip & 0xffff);
            }
            query.check_witness(&Witness::Packet(Packet::plain(h)))
        }
        Query::RouteMapFind { .. } => false,
    })
}

impl Oracle {
    /// Compute the expected classes of `inputs`; on the default seed at
    /// full size they are also held against `expected/<workload>.txt`.
    pub fn compute(inputs: &Inputs) -> Oracle {
        let mut oracle = Oracle::compute_unpinned(inputs);
        if inputs.seed == DEFAULT_SEED && inputs.scale == 1 {
            oracle.pin(inputs, expected_text(inputs.kind));
        }
        oracle
    }

    /// The classes as the other backend, the generator and sampling give
    /// them, without consulting the pinned file (which is written from
    /// this).
    pub fn compute_unpinned(inputs: &Inputs) -> Oracle {
        let queries: Vec<Query> = inputs.cases.iter().map(|c| c.query.clone()).collect();
        let mut problems = Vec::new();
        let mut fresh = Vec::new();
        let spin_before = crate::host::spin_ms();
        for &measured in measured_backends(inputs.kind) {
            let backend = other(measured);
            fresh.push((backend, fresh_engine(backend).run_batch(&queries).results));
        }
        let fresh_speed = crate::host::speed(spin_before, crate::host::spin_ms());
        let mut classes: Vec<Option<bool>> = Vec::with_capacity(queries.len());
        for (i, case) in inputs.cases.iter().enumerate() {
            let mut class = class_of(&fresh[0].1[i].verdict);
            for (backend, results) in &fresh {
                let r = &results[i];
                if class_of(&r.verdict) != class || class.is_none() {
                    problems.push(format!(
                        "{}: backends disagree or undecided ({backend:?})",
                        case.label
                    ));
                    class = None;
                }
                if let Verdict::Sat(w) = &r.verdict {
                    if !case.query.check_witness(w) {
                        problems.push(format!(
                            "{}: oracle {backend:?} witness does not replay",
                            case.label
                        ));
                        class = None;
                    }
                }
            }
            if let (Some(built), Some(found)) = (case.built_sat, class) {
                if built != found {
                    problems.push(format!("{}: built {built}, solved {found}", case.label));
                    class = None;
                }
            }
            if class == Some(false) && refuted_by_sampling(&case.query, inputs.seed ^ i as u64) {
                problems.push(format!(
                    "{}: UNSAT refuted by a concrete sample",
                    case.label
                ));
                class = None;
            }
            classes.push(class);
        }
        Oracle {
            classes,
            problems,
            fresh,
            fresh_speed,
        }
    }

    /// Hold the classes against a pinned `expected/*.txt` text: a query
    /// whose pinned class differs (or is missing) loses its class.
    pub fn pin(&mut self, inputs: &Inputs, expected: &str) {
        let pinned: std::collections::HashMap<&str, &str> = expected
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| l.rsplit_once(' '))
            .collect();
        for (case, class) in inputs.cases.iter().zip(self.classes.iter_mut()) {
            let want = match class {
                Some(true) => "sat",
                Some(false) => "unsat",
                None => continue,
            };
            if pinned.get(case.label.as_str()) != Some(&want) {
                self.problems.push(format!(
                    "{}: expected file says {:?}, oracle says {want}",
                    case.label,
                    pinned.get(case.label.as_str())
                ));
                *class = None;
            }
        }
    }

    /// Render the classes in the `expected/*.txt` format.
    pub fn render(&self, inputs: &Inputs) -> String {
        let mut out = format!(
            "# perfbench expected verdict classes: workload {} seed {}\n",
            inputs.kind.name(),
            inputs.seed
        );
        for (case, class) in inputs.cases.iter().zip(&self.classes) {
            let class = match class {
                Some(true) => "sat",
                Some(false) => "unsat",
                None => "UNRESOLVED",
            };
            out.push_str(&format!("{} {class}\n", case.label));
        }
        out
    }
}

/// The pinned classes of the default seed, compiled in so the binary
/// finds them wherever it runs.
fn expected_text(kind: Kind) -> &'static str {
    match kind {
        Kind::AclSessions => include_str!("../expected/acl-sessions.txt"),
        Kind::FabricBatch => include_str!("../expected/fabric-batch.txt"),
        Kind::ServeHot => include_str!("../expected/serve-hot.txt"),
        Kind::FabricChurn => include_str!("../expected/fabric-churn.txt"),
    }
}

/// Judge one engine result against the expected class. A SAT answer
/// must carry a witness that replays concretely.
pub fn result_ok(case: &Case, expected: Option<bool>, verdict: &Verdict) -> bool {
    match (expected, verdict) {
        (Some(true), Verdict::Sat(w)) => case.query.check_witness(w),
        (Some(false), Verdict::Unsat) => true,
        _ => false,
    }
}

/// Parse the witness text a served response carries
/// (`dst=a.b.c.d src=a.b.c.d dport=N sport=N proto=N`) back into a
/// header.
pub fn parse_witness(text: &str) -> Option<Header> {
    let mut h = Header::new(0, 0, 0, 0, 0);
    let ip = |s: &str| -> Option<u32> {
        let mut parts = s.split('.').map(|o| o.parse::<u8>().ok());
        let mut addr = 0u32;
        for _ in 0..4 {
            addr = (addr << 8) | u32::from(parts.next()??);
        }
        parts.next().is_none().then_some(addr)
    };
    let mut seen = 0;
    for field in text.split(' ') {
        let (key, value) = field.split_once('=')?;
        match key {
            "dst" => h.dst_ip = ip(value)?,
            "src" => h.src_ip = ip(value)?,
            "dport" => h.dst_port = value.parse().ok()?,
            "sport" => h.src_port = value.parse().ok()?,
            "proto" => h.protocol = value.parse().ok()?,
            _ => return None,
        }
        seen += 1;
    }
    (seen == 5).then_some(h)
}

/// Judge one served answer (its verdict word and witness text) for
/// `query`. `expected` is `Some(class)` where the oracle classed the
/// query ahead, `None` for a churned variant (which leaf carries the ACL
/// changes every round): there a SAT answer certifies itself by
/// replaying, and an UNSAT answer is accepted only once the other
/// backend proves it too and sampling fails to refute it — computed
/// here, on demand.
///
/// The wire carries only a witness's *overlay* header. When the plain
/// packet made of it does not replay, the witness relied on an underlay
/// header; a full packet is then found by a fresh in-process SMT solve
/// (kept in `known`), and the answer stands if that packet replays
/// concretely and projects onto the header the wire showed.
pub fn served_ok(
    query: &Query,
    expected: Option<Option<bool>>,
    verdict: &str,
    witness: Option<&str>,
    known: &mut Option<Packet>,
) -> bool {
    match verdict {
        "sat" if expected.is_none_or(|class| class == Some(true)) => {
            let Some(h) = witness.and_then(parse_witness) else {
                return false;
            };
            let replays = |p: &Packet| {
                p.overlay_header == h && query.check_witness(&Witness::Packet(p.clone()))
            };
            if replays(&Packet::plain(h.clone())) || known.as_ref().is_some_and(&replays) {
                return true;
            }
            let solved = fresh_engine(QueryBackend::Smt).run_batch(std::slice::from_ref(query));
            match solved.results.into_iter().next().map(|r| r.verdict) {
                Some(Verdict::Sat(Witness::Packet(p))) if replays(&p) => {
                    *known = Some(p);
                    true
                }
                _ => false,
            }
        }
        "unsat" => match expected {
            Some(class) => class == Some(false),
            None => {
                let proof = fresh_engine(QueryBackend::Bdd).run_batch(std::slice::from_ref(query));
                matches!(proof.results[0].verdict, Verdict::Unsat) && !refuted_by_sampling(query, 0)
            }
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_text_round_trips() {
        let h = Header::new(0x0a01_0203, 0xc0a8_0001, 443, 1024, 6);
        let text = rzen_serve::proto::describe_header(&h);
        assert_eq!(parse_witness(&text), Some(h));
        assert_eq!(
            parse_witness("dst=1.2.3 src=1.2.3.4 dport=1 sport=1 proto=1"),
            None
        );
        assert_eq!(parse_witness("dst=1.2.3.4"), None);
    }

    #[test]
    fn sampling_finds_witnesses_of_reachable_lines_only() {
        let inputs = Inputs::generate(Kind::AclSessions, 2, 10);
        for case in &inputs.cases {
            let hit = refuted_by_sampling(&case.query, 99);
            if case.built_sat == Some(false) {
                assert!(!hit, "{} is shadowed yet sampled", case.label);
            }
        }
        let sat = inputs
            .cases
            .iter()
            .find(|c| c.built_sat == Some(true))
            .unwrap();
        assert!(refuted_by_sampling(&sat.query, 99));
    }
}
