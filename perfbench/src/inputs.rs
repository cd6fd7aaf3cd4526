//! Seeded inputs of the four workloads.
//!
//! The same seed always yields the same models, queries and order. The
//! fabric is fixed (`spine_leaf(2, 8)`); the seed moves what real
//! traffic moves — which ACLs arrive, in what order queries are asked,
//! which leaf churns — and none of it decides whether an op succeeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rzen_engine::Query;
use rzen_net::acl::{Acl, AclRule};
use rzen_net::gen::{random_acl, spine_leaf};
use rzen_net::headers::Header;
use rzen_net::ip::Prefix;
use rzen_net::spec::{self, Spec};

/// Spines of the shared fabric.
pub const SPINES: usize = 2;
/// Leaves of the shared fabric.
pub const LEAVES: usize = 8;
/// Distinct fabric queries: all ordered leaf pairs, reach and drops.
pub const FABRIC_QUERIES: usize = LEAVES * (LEAVES - 1) * 2;
/// The host-facing port of every leaf.
pub const HOST_PORT: u8 = 99;
/// Rules drawn per ACL model, before the shadowed lines are added.
pub const ACL_RULES: usize = 400;
/// ACL models per run.
pub const ACL_MODELS: usize = 3;
/// Probed lines per model that some packet reaches.
pub const ACL_SAT_LINES: usize = 45;
/// Probed lines per model that an earlier, wider rule shadows.
pub const ACL_UNSAT_LINES: usize = 15;
/// The seed `expected/*.txt` was written for.
pub const DEFAULT_SEED: u64 = 1;

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Batch ACL line reachability through warm solver sessions.
    AclSessions,
    /// Batch all-pairs fabric reach+drops, every query cold.
    FabricBatch,
    /// Served fabric queries, every request a result-cache hit.
    ServeHot,
    /// Served fabric queries beside model deltas.
    FabricChurn,
}

impl Kind {
    /// Every workload, in the order `repeat` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::AclSessions,
        Kind::FabricBatch,
        Kind::ServeHot,
        Kind::FabricChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AclSessions => "acl-sessions",
            Kind::FabricBatch => "fabric-batch",
            Kind::ServeHot => "serve-hot",
            Kind::FabricChurn => "fabric-churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload goes through `rzen_serve`.
    pub fn served(self) -> bool {
        matches!(self, Kind::ServeHot | Kind::FabricChurn)
    }
}

/// One distinct query with its stable label and, where the generator
/// knows it by construction, its verdict class.
pub struct Case {
    /// The query.
    pub query: Query,
    /// Stable human-readable identity (`expected/*.txt` keys on it).
    pub label: String,
    /// `Some(true)` = a witness exists by construction, `Some(false)` =
    /// shadowed by construction, `None` = left to the oracle.
    pub built_sat: Option<bool>,
    /// The NDJSON request line asking this query (served workloads).
    pub request: Vec<u8>,
}

/// Everything a workload run is made from.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The seed it was generated from.
    pub seed: u64,
    /// What the per-round counts were divided by (1 = the measured size).
    pub scale: usize,
    /// Distinct queries in canonical (seed-independent) order.
    pub cases: Vec<Case>,
    /// Seeded permutation of `0..cases.len()`: the order the warm-up
    /// and the replays issue ops in (measured rounds: [`Inputs::round_order`]).
    pub order: Vec<usize>,
    /// The fabric spec text (served workloads load it through
    /// `spec::parse`, as a user would).
    pub spec_text: String,
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// A strictly narrower copy of `rule`, so that `rule` shadows it without
/// being syntactically equal (the solver has to reason, not just hash).
fn narrowed(rule: &AclRule, rng: &mut StdRng) -> AclRule {
    let mut r = rule.clone();
    if r.dst.len < 32 {
        let len = (r.dst.len + rng.gen_range(1..=8u8)).min(32);
        let host: u32 = rng.gen();
        let wide_mask = r.dst.mask();
        let p = Prefix::new(r.dst.address | (host & !wide_mask), len);
        r.dst = Prefix::new(p.address & p.mask(), len);
    } else if r.dst_ports.0 < r.dst_ports.1 {
        r.dst_ports.1 = r.dst_ports.0 + (r.dst_ports.1 - r.dst_ports.0) / 2;
    }
    r
}

/// A header drawn uniformly from the box `rule` matches.
pub fn header_inside(rule: &AclRule, rng: &mut StdRng) -> Header {
    let addr = |p: &Prefix, rng: &mut StdRng| p.address | (rng.gen::<u32>() & !p.mask());
    Header::new(
        addr(&rule.dst, rng),
        addr(&rule.src, rng),
        rng.gen_range(rule.dst_ports.0..=rule.dst_ports.1),
        rng.gen_range(rule.src_ports.0..=rule.src_ports.1),
        rng.gen_range(rule.protocols.0..=rule.protocols.1),
    )
}

/// ACL model `index` of run seed `seed`, and its probed lines.
///
/// The *structure* of model `index` — which rules overlap, shadow and
/// split which — is that of `random_acl(ACL_RULES, index)` plus
/// `ACL_UNSAT_LINES` shadowed lines (narrowed copies of earlier rules)
/// before the catch-all, on every seed. What the seed redraws is what
/// the rules *match* and do: every field of every rule is XORed with a
/// seeded constant (any 32 bits for the two addresses, any 8 for a
/// single protocol, all or none for the two port ranges, which only a
/// full complement keeps ranges), and every action is redrawn. XOR with
/// a constant is a bijection of the header space that keeps prefixes
/// prefixes and ranges ranges, so a line is reachable after it exactly
/// when it was before: each run asks about different packets, different
/// CNF constants and different BDD branches, at the same difficulty.
/// Drawing `random_acl(ACL_RULES, seed + index)` afresh, as the first
/// version did, swings the cost of a model by ±25 % from draw to draw
/// (BDD size above all) and spread 25 % on time and 23 % on heap across
/// seeds. The probes — `ACL_SAT_LINES` lines found by sampling inside
/// rule boxes, so a witness exists, plus the shadowed lines: a quarter
/// unsatisfiable — are asked in seeded order.
fn acl_model(
    index: usize,
    seed: u64,
    sat_lines: usize,
    unsat_lines: usize,
) -> (Acl, Vec<(u16, bool)>) {
    let mut rng = StdRng::seed_from_u64(index as u64 ^ 0x5eed_0ac1);
    let mut rules = random_acl(ACL_RULES, index as u64).rules;
    let catch_all = rules.pop().expect("random_acl ends in a catch-all");
    let drawn = rules.len();
    for _ in 0..unsat_lines {
        let k = rng.gen_range(0..drawn);
        let shadow = narrowed(&rules[k], &mut rng);
        rules.push(shadow);
    }
    rules.push(catch_all);
    let mut acl = Acl { rules };

    let mut probes: Vec<(u16, bool)> = (0..unsat_lines)
        .map(|k| ((drawn + k + 1) as u16, false))
        .collect();
    let mut seen = vec![false; drawn + 1];
    let mut found = 0;
    for r in shuffled(drawn, &mut rng) {
        if found == sat_lines {
            break;
        }
        let line = acl.matched_line_concrete(&header_inside(&acl.rules[r], &mut rng)) as usize;
        // The shadowed lines sit after every base rule, so a header drawn
        // inside a base rule stops at a base line.
        if !seen[line] {
            seen[line] = true;
            found += 1;
            probes.push((line as u16, true));
        }
    }
    assert_eq!(
        found, sat_lines,
        "ACL model {index}: too few reachable lines"
    );

    let mut redraw = StdRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(index as u64));
    let (dst_flip, src_flip): (u32, u32) = (redraw.gen(), redraw.gen());
    let (dport_flip, sport_flip): (bool, bool) = (redraw.gen(), redraw.gen());
    let protocol_flip: u8 = redraw.gen();
    let mirrored = |(lo, hi): (u16, u16), flip: bool| if flip { (!hi, !lo) } else { (lo, hi) };
    for rule in &mut acl.rules {
        rule.dst.address = (rule.dst.address ^ dst_flip) & rule.dst.mask();
        rule.src.address = (rule.src.address ^ src_flip) & rule.src.mask();
        rule.dst_ports = mirrored(rule.dst_ports, dport_flip);
        rule.src_ports = mirrored(rule.src_ports, sport_flip);
        if rule.protocols.0 == rule.protocols.1 {
            let p = rule.protocols.0 ^ protocol_flip;
            rule.protocols = (p, p);
        }
        rule.permit = redraw.gen_bool(0.5);
    }
    (acl, probes)
}

fn acl_cases(seed: u64, scale: usize) -> Vec<Case> {
    let sat = ACL_SAT_LINES.div_ceil(scale);
    let unsat = ACL_UNSAT_LINES.div_ceil(scale);
    let mut cases = Vec::new();
    for m in 0..ACL_MODELS {
        let (acl, probes) = acl_model(m, seed, sat, unsat);
        for (line, is_sat) in probes {
            cases.push(Case {
                query: Query::AclFind {
                    acl: acl.clone(),
                    target_line: line,
                },
                label: format!("acl{m}:line{line}"),
                built_sat: Some(is_sat),
                request: Vec::new(),
            });
        }
    }
    cases
}

/// The fabric every non-ACL workload runs on, as a parsed spec.
pub fn fabric_spec() -> Spec {
    Spec::from_network(spine_leaf(SPINES, LEAVES)).expect("generated fabric has unique names")
}

/// All-pairs reach + drops over the host ports of `spec`'s fabric, or
/// the `keep` first of them in `rng`'s order (`--quick`).
pub fn fabric_cases(spec: &Spec, keep: usize, rng: &mut StdRng) -> Vec<Case> {
    let mut asks = Vec::new();
    for a in 0..LEAVES {
        for b in (0..LEAVES).filter(|&b| b != a) {
            asks.push((a, b, "reach"));
            asks.push((a, b, "drops"));
        }
    }
    if keep < asks.len() {
        let pick = shuffled(asks.len(), rng);
        let mut kept: Vec<usize> = pick[..keep].to_vec();
        kept.sort_unstable();
        asks = kept.into_iter().map(|i| asks[i]).collect();
    }
    asks.into_iter()
        .enumerate()
        .map(|(id, (a, b, op))| {
            let (src, dst) = ((SPINES + a, HOST_PORT), (SPINES + b, HOST_PORT));
            let (s, d) = (spec.endpoint_name(src), spec.endpoint_name(dst));
            let net = spec.net.clone();
            Case {
                query: if op == "reach" {
                    Query::Reach { net, src, dst }
                } else {
                    Query::Drops { net, src, dst }
                },
                label: format!("{op} {s} {d}"),
                built_sat: None,
                request: format!(
                    "{{\"id\":{id},\"op\":\"{op}\",\"src\":\"{s}\",\"dst\":\"{d}\"}}\n"
                )
                .into_bytes(),
            }
        })
        .collect()
}

impl Inputs {
    /// Generate the inputs of `kind` from `seed`. `scale` divides the
    /// per-round counts (`--quick` passes 10); 1 is the measured size.
    pub fn generate(kind: Kind, seed: u64, scale: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let spec = fabric_spec();
        let cases = match kind {
            Kind::AclSessions => acl_cases(seed, scale),
            _ => fabric_cases(&spec, FABRIC_QUERIES.div_ceil(scale), &mut rng),
        };
        let order = shuffled(cases.len(), &mut rng);
        Inputs {
            kind,
            seed,
            scale,
            cases,
            order,
            spec_text: spec::serialize(&spec).expect("generated fabric serializes"),
        }
    }

    /// The order measured round `round` issues the cases in: a fresh
    /// seeded permutation per round. Where cost depends on order (warm
    /// sessions: which probe pays for building what), a run's median over
    /// rounds is then a median over orders instead of one draw's luck.
    pub fn round_order(&self, round: usize) -> Vec<usize> {
        let stream = (round as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
        shuffled(
            self.cases.len(),
            &mut StdRng::seed_from_u64(self.seed ^ stream),
        )
    }

    /// The leaf whose host port round `round` toggles an ACL on
    /// (`fabric-churn`).
    pub fn churn_leaf(&self, round: usize) -> usize {
        (self.seed as usize).wrapping_add(round) % LEAVES
    }
}

/// The `POST /delta` body that sets the churn ACL on `leaf`'s host port.
pub fn delta_set(leaf: usize) -> String {
    format!(
        "{{\"op\":\"set-acl\",\"device\":\"leaf{leaf}\",\"intf\":{HOST_PORT},\"dir\":\"in\",\"acl\":\"deny-dport 23 23\"}}"
    )
}

/// The `POST /delta` body that removes it again.
pub fn delta_remove(leaf: usize) -> String {
    format!(
        "{{\"op\":\"remove-acl\",\"device\":\"leaf{leaf}\",\"intf\":{HOST_PORT},\"dir\":\"in\"}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_models_and_order() {
        let a = Inputs::generate(Kind::AclSessions, 5, 10);
        let b = Inputs::generate(Kind::AclSessions, 5, 10);
        let c = Inputs::generate(Kind::AclSessions, 6, 10);
        assert_eq!(a.order, b.order);
        assert!(a
            .cases
            .iter()
            .zip(&b.cases)
            .all(|(x, y)| x.query == y.query));
        assert_ne!(a.order, c.order);
        // Another seed asks about the same lines of ACLs that match
        // other packets, and each line stays as reachable as it was.
        let mut rng = StdRng::seed_from_u64(1);
        for (x, y) in a.cases.iter().zip(&c.cases) {
            let (
                Query::AclFind {
                    acl: ax,
                    target_line: lx,
                },
                Query::AclFind {
                    acl: ay,
                    target_line: ly,
                },
            ) = (&x.query, &y.query)
            else {
                panic!("acl-sessions asks AclFind only");
            };
            assert_eq!((lx, x.built_sat), (ly, y.built_sat));
            let differ =
                |f: fn(&AclRule) -> u32| ax.rules.iter().zip(&ay.rules).any(|(r, s)| f(r) != f(s));
            assert!(differ(|r| r.dst.address) && differ(|r| r.src.address));
            if x.built_sat == Some(false) {
                let shadowed = &ay.rules[*ly as usize - 1];
                let h = header_inside(shadowed, &mut rng);
                assert_ne!(ay.matched_line_concrete(&h), *ly);
            }
        }
        let f1 = Inputs::generate(Kind::FabricBatch, 5, 1);
        let f2 = Inputs::generate(Kind::FabricBatch, 6, 1);
        assert_eq!(f1.cases.len(), 112);
        assert_ne!(f1.order, f2.order);
        assert_ne!(f1.churn_leaf(0), f2.churn_leaf(0));
    }

    #[test]
    fn a_quarter_of_the_acl_probes_are_shadowed_and_the_rest_have_witnesses() {
        let inputs = Inputs::generate(Kind::AclSessions, 3, 1);
        assert_eq!(
            inputs.cases.len(),
            ACL_MODELS * (ACL_SAT_LINES + ACL_UNSAT_LINES)
        );
        let unsat = inputs
            .cases
            .iter()
            .filter(|c| c.built_sat == Some(false))
            .count();
        assert_eq!(unsat * 4, inputs.cases.len());
    }

    #[test]
    fn narrowing_stays_inside_the_shadowing_rule() {
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..20 {
            for rule in random_acl(30, seed).rules {
                let n = narrowed(&rule, &mut rng);
                for _ in 0..20 {
                    assert!(rule.matches_concrete(&header_inside(&n, &mut rng)));
                }
            }
        }
    }

    #[test]
    fn delta_bodies_parse() {
        assert_eq!(rzen_delta::parse_ops(&delta_set(3)).unwrap().len(), 1);
        assert_eq!(rzen_delta::parse_ops(&delta_remove(3)).unwrap().len(), 1);
    }
}
