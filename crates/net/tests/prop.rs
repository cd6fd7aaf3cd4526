//! Property tests: every symbolic network model must agree with its
//! plain-Rust reference semantics on arbitrary inputs, and solver
//! witnesses must always check out concretely.

use proptest::prelude::*;
use rzen::{ExprId, FindOptions, Zen, ZenFunction};
use rzen_net::acl::{Acl, AclRule};
use rzen_net::device::{fold_paths, forward_along, Hop, Interface};
use rzen_net::fwd::{FwdRule, FwdTable};
use rzen_net::gre::GreTunnel;
use rzen_net::headers::{Header, Packet};
use rzen_net::ip::Prefix;
use rzen_net::nat::{Nat, NatKind, NatRule};
use rzen_net::routing::Announcement;
use rzen_net::topology::{Device, Network};

fn prefix_strategy() -> impl Strategy<Value = Prefix> {
    (
        any::<u32>(),
        prop_oneof![Just(0u8), Just(8), Just(16), Just(24), Just(32)],
    )
        .prop_map(|(addr, len)| {
            let p = Prefix::new(addr, len);
            Prefix::new(addr & p.mask(), len)
        })
}

fn port_range_strategy() -> impl Strategy<Value = (u16, u16)> {
    (any::<u16>(), any::<u16>()).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

fn rule_strategy() -> impl Strategy<Value = AclRule> {
    (
        any::<bool>(),
        prefix_strategy(),
        prefix_strategy(),
        port_range_strategy(),
        port_range_strategy(),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| (a.min(b), a.max(b))),
    )
        .prop_map(
            |(permit, src, dst, dst_ports, src_ports, protocols)| AclRule {
                permit,
                src,
                dst,
                dst_ports,
                src_ports,
                protocols,
            },
        )
}

fn acl_strategy() -> impl Strategy<Value = Acl> {
    prop::collection::vec(rule_strategy(), 0..12).prop_map(|rules| Acl { rules })
}

fn header_strategy() -> impl Strategy<Value = Header> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(d, s, dp, sp, p)| Header::new(d, s, dp, sp, p))
}

fn nat_strategy() -> impl Strategy<Value = Nat> {
    prop::collection::vec(
        (any::<bool>(), prefix_strategy(), any::<u32>()).prop_map(|(s, matches, rewrite_to)| {
            NatRule {
                kind: if s { NatKind::Snat } else { NatKind::Dnat },
                matches,
                rewrite_to,
            }
        }),
        0..6,
    )
    .prop_map(|rules| Nat { rules })
}

/// `Some` of a draw from `s` half the time.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(on, v)| on.then_some(v))
}

fn packet_strategy() -> impl Strategy<Value = Packet> {
    (header_strategy(), opt(header_strategy())).prop_map(|(overlay_header, underlay_header)| {
        Packet {
            overlay_header,
            underlay_header,
        }
    })
}

/// An interface with every policy slot drawn at random, biased so that
/// about a third of random paths deliver some packet and most of the rest
/// drop for a reason the solver has to find (not by constant folding):
/// - table ports and ids share a small range, and three tables in four
///   end in a `/0` route to the interface that no drawn `/0` shadows;
/// - half the `acl_strategy` ACLs end in a permit-any line, since an
///   encapsulated or NATed header carries constant addresses that random
///   rules rarely match, and default-deny would then drop everything.
fn interface_strategy() -> impl Strategy<Value = Interface> {
    let acl = || {
        opt((acl_strategy(), any::<bool>()).prop_map(|(mut acl, open)| {
            if open {
                acl.rules.push(AclRule::any(true));
            }
            acl
        }))
    };
    let tunnel = || {
        opt((any::<u32>(), any::<u32>()).prop_map(|(src_ip, dst_ip)| GreTunnel { src_ip, dst_ip }))
    };
    (
        (
            1u8..3,
            prop::collection::vec((prefix_strategy(), 0u8..3), 0..3),
            0u8..4,
        ),
        (acl(), acl()),
        (opt(nat_strategy()), opt(nat_strategy())),
        (tunnel(), tunnel()),
    )
        .prop_map(
            |(
                (id, routes, default),
                (acl_in, acl_out),
                (nat_in, nat_out),
                (gre_start, gre_end),
            )| {
                let mut rules: Vec<FwdRule> = routes
                    .into_iter()
                    .filter(|(prefix, _)| prefix.len > 0)
                    .map(|(prefix, port)| FwdRule { prefix, port })
                    .collect();
                if default > 0 {
                    rules.push(FwdRule {
                        prefix: Prefix::ANY,
                        port: id,
                    });
                }
                Interface {
                    id,
                    acl_in,
                    acl_out,
                    gre_start,
                    gre_end,
                    nat_in,
                    nat_out,
                    table: FwdTable::new(rules),
                }
            },
        )
}

/// A path as the (ingress, egress) interface pairs its hops borrow.
type OwnedPath = Vec<(Interface, Interface)>;

fn path_strategy() -> impl Strategy<Value = OwnedPath> {
    prop::collection::vec((interface_strategy(), interface_strategy()), 1..5)
}

fn hops(path: &[(Interface, Interface)]) -> Vec<Hop<'_>> {
    path.iter()
        .map(|(intf_in, intf_out)| Hop { intf_in, intf_out })
        .collect()
}

/// A set of 1–5 paths of 1–4 hops over a pool of 2–5 interfaces, as
/// (pool, per path the pool indices of each hop's two interfaces). The
/// small pool makes paths share interfaces, and reach one interface with
/// different packets when an earlier hop NATs or tunnels. About half the
/// pool takes the first interface's table, so interfaces with different
/// ids carry equal tables.
fn path_set_strategy() -> impl Strategy<Value = (Vec<Interface>, Vec<Vec<(usize, usize)>>)> {
    let hop = (any::<usize>(), any::<usize>());
    (
        prop::collection::vec((interface_strategy(), any::<bool>()), 2..6),
        prop::collection::vec(prop::collection::vec(hop, 1..5), 1..6),
    )
        .prop_map(|(drawn, paths)| {
            let shared = drawn[0].0.table.clone();
            let pool: Vec<Interface> = drawn
                .into_iter()
                .map(|(mut i, share)| {
                    if share {
                        i.table = shared.clone();
                    }
                    i
                })
                .collect();
            let n = pool.len();
            let paths = paths
                .into_iter()
                .map(|path| path.into_iter().map(|(a, b)| (a % n, b % n)).collect())
                .collect();
            (pool, paths)
        })
}

type Combine = fn(Zen<bool>, Zen<Option<Packet>>) -> Zen<bool>;

fn delivered(any: Zen<bool>, out: Zen<Option<Packet>>) -> Zen<bool> {
    any.or(out.is_some())
}

fn dropped(all: Zen<bool>, out: Zen<Option<Packet>>) -> Zen<bool> {
    all.and(out.is_none())
}

/// The engine's two any-path folds, with their initial values: reach
/// (`or` of `is_some`) and drops (`and` of `is_none`).
const COMBINERS: [(bool, Combine); 2] = [(false, delivered), (true, dropped)];

/// The combined formula over `paths`, through [`fold_paths`] or through
/// the naive per-path fold of `forward_along`.
fn combine(
    paths: &[Vec<Hop>],
    p: Zen<Packet>,
    (init, f): (bool, Combine),
    memo: bool,
) -> Zen<bool> {
    let init = Zen::bool(init);
    if memo {
        fold_paths(paths, p, init, f)
    } else {
        paths
            .iter()
            .fold(init, |acc, path| f(acc, forward_along(path, p)))
    }
}

/// [`combine`] in a fresh context: (root, nodes created, hash-cons
/// lookups), input packet included.
fn combine_fresh(paths: &[Vec<Hop>], c: (bool, Combine), memo: bool) -> (ExprId, usize, u64) {
    rzen::reset_ctx();
    let root = combine(paths, Zen::<Packet>::symbolic(4), c, memo);
    rzen::with_ctx(|ctx| (root.expr_id(), ctx.num_exprs(), ctx.num_interns()))
}

/// `fold_paths` builds exactly the naive fold's formula, for both
/// combiners. In one context, equal roots mean equal formulas (nodes are
/// hash-consed); in fresh contexts, equal roots and node counts mean the
/// nodes were also created in the same order.
fn check_fold_paths(
    pool: &[Interface],
    index_paths: &[Vec<(usize, usize)>],
) -> Result<(), TestCaseError> {
    let paths: Vec<Vec<Hop>> = index_paths
        .iter()
        .map(|path| {
            path.iter()
                .map(|&(a, b)| Hop {
                    intf_in: &pool[a],
                    intf_out: &pool[b],
                })
                .collect()
        })
        .collect();
    for c in COMBINERS {
        rzen::reset_ctx();
        let p = Zen::<Packet>::symbolic(4);
        let naive = combine(&paths, p, c, false).expr_id();
        prop_assert_eq!(combine(&paths, p, c, true).expr_id(), naive);
        let (memo, naive) = (
            combine_fresh(&paths, c, true),
            combine_fresh(&paths, c, false),
        );
        prop_assert_eq!((memo.0, memo.1), (naive.0, naive.1));
    }
    Ok(())
}

/// The 112 queries of the `spine_leaf(2, 8)` fabric (every ordered leaf
/// pair, reach and drops, host port to host port): `fold_paths` makes
/// under 1,600 hash-cons lookups a query on average (1,315 measured), and
/// creates the very nodes the naive fold does. The naive fold makes
/// ~4,800 lookups, and a build that rebuilt every table lookup per hop
/// made ~5,500, to find those same ~300 nodes.
#[test]
fn fold_paths_finds_each_fabric_guard_once() {
    let net = rzen_net::gen::spine_leaf(2, 8);
    let leaves = 2..10;
    let (mut queries, mut memo_interns, mut naive_interns) = (0u64, 0, 0);
    for a in leaves.clone() {
        for b in leaves.clone().filter(|&b| b != a) {
            let paths = net.paths(a, 99, b, 99);
            for c in COMBINERS {
                let (memo, naive) = (
                    combine_fresh(&paths, c, true),
                    combine_fresh(&paths, c, false),
                );
                assert_eq!((memo.0, memo.1), (naive.0, naive.1), "leaf {a} -> leaf {b}");
                queries += 1;
                memo_interns += memo.2;
                naive_interns += naive.2;
            }
        }
    }
    assert_eq!(queries, 112);
    let (memo, naive) = (memo_interns / queries, naive_interns / queries);
    assert!(
        memo <= 1_600,
        "{memo} hash-cons lookups a query (naive fold: {naive}): guards are rebuilt per path"
    );
}

/// The composition `forward_along` used before it threaded a guard and a
/// packet: every hop applied to the payload of the previous hop's
/// `Option`. The per-interface functions are copied whole too, so this
/// oracle shares no code with the guard/rewrite split it checks.
mod option_fold {
    use rzen::{zif, Zen};
    use rzen_net::acl::Acl;
    use rzen_net::device::{Hop, Interface};
    use rzen_net::gre::{decap, encap};
    use rzen_net::headers::{routing_header, Packet, PacketFields};
    use rzen_net::nat::Nat;

    fn allow(acl: &Option<Acl>, p: Zen<Packet>) -> Zen<bool> {
        match acl {
            None => Zen::bool(true),
            Some(a) => a.allows(routing_header(p)),
        }
    }

    fn apply_nat(nat: &Option<Nat>, p: Zen<Packet>) -> Zen<Packet> {
        let Some(nat) = nat else { return p };
        let tunneled = p.underlay_header().is_some();
        let rewritten_u = p.with_underlay_header(Zen::some(nat.apply(p.underlay_header().value())));
        let rewritten_o = p.with_overlay_header(nat.apply(p.overlay_header()));
        zif(tunneled, rewritten_u, rewritten_o)
    }

    fn fwd_in(i: &Interface, p: Zen<Packet>) -> Zen<Option<Packet>> {
        let allowed = allow(&i.acl_in, p);
        let decapped = decap(i.gre_end.as_ref(), p);
        let translated = apply_nat(&i.nat_in, decapped);
        zif(allowed, Zen::some(translated), Zen::none(0))
    }

    fn fwd_out(i: &Interface, p: Zen<Packet>) -> Zen<Option<Packet>> {
        let port = i.table.lookup(routing_header(p));
        let allowed = allow(&i.acl_out, p);
        let translated = apply_nat(&i.nat_out, p);
        let encapped = encap(i.gre_start.as_ref(), translated);
        let pkt_out = zif(allowed, Zen::some(encapped), Zen::none(0));
        zif(port.eq(Zen::val(i.id)), pkt_out, Zen::none(0))
    }

    pub fn forward_along(path: &[Hop], p: Zen<Packet>) -> Zen<Option<Packet>> {
        let mut x: Zen<Option<Packet>> = Zen::some(p);
        for hop in path {
            let after_in = fwd_in(hop.intf_in, x.value());
            let x1 = zif(x.is_some(), after_in, Zen::none(0));
            let after_out = fwd_out(hop.intf_out, x1.value());
            x = zif(x1.is_some(), after_out, Zen::none(0));
        }
        x
    }
}

/// `forward_along` agrees with [`option_fold`]: concretely on `packets`
/// plus one delivered packet (if the path delivers any), and for every
/// packet by a BDD proof that the two `Option<Packet>` outputs are equal
/// — drops included, so the `None` payload must be canonical on both.
///
/// The BDD runs without the variable-ordering analysis: on these paths
/// (muxed routing headers, NAT, GRE) the order it picks ran about 100×
/// slower on a small-ACL version of this generator.
fn check_forward_along(path: &OwnedPath, packets: &[Packet]) -> Result<(), TestCaseError> {
    rzen::reset_ctx();
    let (a, b) = (path.clone(), path.clone());
    let new = ZenFunction::new(move |p| forward_along(&hops(&a), p));
    let old = ZenFunction::new(move |p| option_fold::forward_along(&hops(&b), p));
    let delivered = old.find(|_, out| out.is_some(), &FindOptions::smt());
    for p in packets.iter().chain(&delivered) {
        prop_assert_eq!(new.evaluate(p), old.evaluate(p), "packet {:?}", p);
    }
    let path = path.clone();
    let same = ZenFunction::new(move |p| {
        let hops = hops(&path);
        forward_along(&hops, p).eq(option_fold::forward_along(&hops, p))
    });
    let bdd = FindOptions {
        ordering_analysis: false,
        ..FindOptions::bdd()
    };
    let proof = same.verify(|_, eq| eq, &bdd);
    prop_assert!(proof.is_ok(), "outputs differ on {:?}", proof.err());
    Ok(())
}

/// A Reach/Drops query's inputs: a network and its entry and exit
/// ports.
#[derive(Clone, Debug)]
struct NetCase {
    net: Network,
    src: (usize, u8),
    dst: (usize, u8),
}

/// 2–5 devices of 1–3 `interface_strategy` interfaces (ACLs, NAT and GRE
/// on; a device keeps the first interface of each id), entered on the
/// first device and left on the last. One-way links chain the devices in
/// order, and up to 6 more join random pairs. In half the cases no table
/// has a default route, and about half the DNAT rules and tunnels are
/// aimed at some route's prefix (a retargeted DNAT rule matching every
/// address), so that a rewrite can decide where a packet goes.
fn net_case_strategy() -> impl Strategy<Value = NetCase> {
    let port = || (any::<usize>(), any::<usize>());
    (
        prop::collection::vec(prop::collection::vec(interface_strategy(), 1..4), 2..6),
        prop::collection::vec((port(), port()), 0..7),
        prop::collection::vec(port(), 6),
        prop::collection::vec(opt(any::<usize>()), 8),
        any::<bool>(),
    )
        .prop_map(|(mut devices, extra, chain, retarget, narrow)| {
            if narrow {
                for i in devices.iter_mut().flatten() {
                    i.table.rules.retain(|r| r.prefix.len > 0);
                }
            }
            let routed: Vec<u32> = devices
                .iter()
                .flatten()
                .flat_map(|i| &i.table.rules)
                .map(|r| r.prefix.address | 1)
                .collect();
            let mut picks = retarget.iter().cycle();
            let mut steer = |target: &mut u32| match (picks.next(), routed.is_empty()) {
                (Some(Some(k)), false) => {
                    *target = routed[k % routed.len()];
                    true
                }
                _ => false,
            };
            for i in devices.iter_mut().flatten() {
                for nat in i.nat_in.iter_mut().chain(i.nat_out.iter_mut()) {
                    for r in &mut nat.rules {
                        if steer(&mut r.rewrite_to) && r.kind == NatKind::Dnat {
                            r.matches = Prefix::ANY;
                        }
                    }
                }
                if let Some(t) = i.gre_start.as_mut() {
                    steer(&mut t.dst_ip);
                }
            }
            let mut net = Network::default();
            for (d, mut interfaces) in devices.into_iter().enumerate() {
                let mut ids = Vec::new();
                interfaces.retain(|i| {
                    let fresh = !ids.contains(&i.id);
                    ids.push(i.id);
                    fresh
                });
                net.add_device(Device {
                    name: format!("d{d}"),
                    interfaces,
                });
            }
            let n = net.devices.len();
            let at = |net: &Network, (d, k): (usize, usize)| {
                let d = d % n;
                let intfs = &net.devices[d].interfaces;
                (d, intfs[k % intfs.len()].id)
            };
            let links: Vec<_> = (0..n - 1)
                .map(|d| ((d, chain[d].0), (d + 1, chain[d].1)))
                .chain(extra)
                .collect();
            for (a, b) in links {
                let ((a, i), (b, j)) = (at(&net, a), at(&net, b));
                if a != b {
                    net.add_link(a, i, b, j);
                }
            }
            NetCase {
                src: at(&net, (0, chain[4].0)),
                dst: at(&net, (n - 1, chain[5].1)),
                net,
            }
        })
}

/// Addresses where some forwarding decision of `net` can flip: every
/// route, NAT-match and ACL-destination prefix's two ends and their
/// outside neighbours, and every tunnel and NAT target.
fn boundaries(net: &Network) -> Vec<u32> {
    let ends = |p: Prefix| {
        let lo = p.address & p.mask();
        let hi = lo | !p.mask();
        [lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]
    };
    let mut pool = vec![0, u32::MAX];
    for i in net.devices.iter().flat_map(|d| &d.interfaces) {
        pool.extend(i.table.rules.iter().flat_map(|r| ends(r.prefix)));
        for t in i.gre_start.iter().chain(&i.gre_end) {
            pool.extend([t.src_ip, t.dst_ip]);
        }
        for r in i.nat_in.iter().chain(&i.nat_out).flat_map(|n| &n.rules) {
            pool.extend(ends(r.matches));
            pool.push(r.rewrite_to);
        }
        for r in i.acl_in.iter().chain(&i.acl_out).flat_map(|a| &a.rules) {
            pool.extend(ends(r.dst));
        }
    }
    pool
}

/// A drawn packet, and for its overlay and underlay destination an
/// optional pick from a network's boundary addresses.
type PacketDraw = (Packet, (Option<usize>, Option<usize>));

/// The drawn packet with its destinations (overlay, and underlay if
/// tunneled) taken from `pool` where the picks say so.
fn aim((p, (pick_o, pick_u)): &PacketDraw, pool: &[u32]) -> Packet {
    let mut p = p.clone();
    if let Some(k) = pick_o {
        p.overlay_header.dst_ip = pool[k % pool.len()];
    }
    if let (Some(u), Some(k)) = (p.underlay_header.as_mut(), pick_u) {
        u.dst_ip = pool[k % pool.len()];
    }
    p
}

/// `c`'s fold over `paths` for the constant packet `p`.
fn fold_value(paths: &[Vec<Hop>], p: &Packet, c: (bool, Combine)) -> bool {
    let root = combine(paths, Zen::constant(p), c, true);
    rzen::with_ctx(|ctx| ctx.eval_const(root.expr_id()).as_bool())
}

/// `feasible_paths` is sound for the engine's two folds on `case`:
/// - it keeps a subsequence of `paths`, in order;
/// - on every packet, reach and drops folded over it equal the folds over
///   all simple paths;
/// - and the SMT solver finds no packet delivered on any path it drops.
fn check_feasible_paths(case: &NetCase, packets: &[Packet]) -> Result<(), TestCaseError> {
    let NetCase { net, src, dst } = case;
    let all = net.paths(src.0, src.1, dst.0, dst.1);
    let feasible = net.feasible_paths(src.0, src.1, dst.0, dst.1);
    let same_path = |a: &[Hop], b: &[Hop]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                std::ptr::eq(x.intf_in, y.intf_in) && std::ptr::eq(x.intf_out, y.intf_out)
            })
    };
    let mut kept = feasible.iter().peekable();
    let mut pruned = Vec::new();
    for path in &all {
        match kept.peek() {
            Some(f) if same_path(f, path) => {
                kept.next();
            }
            _ => pruned.push(path.clone()),
        }
    }
    prop_assert!(
        kept.next().is_none(),
        "feasible paths are not a subsequence of paths"
    );
    rzen::reset_ctx();
    for p in packets {
        for c in COMBINERS {
            prop_assert_eq!(
                fold_value(&feasible, p, c),
                fold_value(&all, p, c),
                "packet {:?}",
                p
            );
        }
    }
    if !pruned.is_empty() {
        rzen::reset_ctx();
        let f = ZenFunction::new(|p: Zen<Packet>| p);
        let leak = f.find(
            |p, _| combine(&pruned, p, COMBINERS[0], true),
            &FindOptions::smt(),
        );
        prop_assert!(leak.is_none(), "a pruned path delivers {:?}", leak);
    }
    rzen::reset_ctx();
    Ok(())
}

/// [`check_feasible_paths`] on a drawn case and 16 drawn packets, each
/// destination taken from the case's boundaries half the time.
fn check_feasible_case(case: &NetCase, draws: &[PacketDraw]) -> Result<(), TestCaseError> {
    let pool = boundaries(&case.net);
    let packets: Vec<Packet> = draws.iter().map(|d| aim(d, &pool)).collect();
    check_feasible_paths(case, &packets)
}

fn packet_draws() -> impl Strategy<Value = Vec<PacketDraw>> {
    prop::collection::vec(
        (
            packet_strategy(),
            (opt(any::<usize>()), opt(any::<usize>())),
        ),
        16,
    )
}

/// Every ordered pair of edge ports of `net` (`src == dst` included), as
/// cases.
fn pair_cases(net: &Network, edges: &[(usize, u8)]) -> Vec<NetCase> {
    edges
        .iter()
        .flat_map(|&src| {
            edges.iter().map(move |&dst| NetCase {
                net: net.clone(),
                src,
                dst,
            })
        })
        .collect()
}

/// [`check_feasible_paths`] on every edge-port pair of every
/// `specs/*.net` and of `spine_leaf(s, l)` for s ≤ 3, with 32 seeded
/// packets a pair, destinations drawn from the network's boundaries and
/// uniformly, plain and tunneled.
#[test]
fn feasible_paths_agree_with_simple_paths_on_specs_and_fabrics() {
    use rand::{Rng, SeedableRng};
    let specs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(specs).expect("specs dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "net") {
            let spec = rzen_net::spec::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            cases.extend(pair_cases(&spec.net, &spec.edge_ports()));
        }
    }
    for (s, l) in [(1, 3), (2, 5), (3, 4)] {
        let net = rzen_net::gen::spine_leaf(s, l);
        let leaves: Vec<(usize, u8)> = (s..s + l).map(|d| (d, 99)).collect();
        cases.extend(pair_cases(&net, &leaves));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(46);
    let mut header = |pool: &[u32]| {
        let dst = if rng.gen_bool(0.5) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            rng.gen()
        };
        Header::new(dst, rng.gen(), rng.gen(), rng.gen(), rng.gen())
    };
    for case in &cases {
        let pool = boundaries(&case.net);
        let packets: Vec<Packet> = (0..32)
            .map(|k| Packet {
                overlay_header: header(&pool),
                underlay_header: (k % 2 == 1).then(|| header(&pool)),
            })
            .collect();
        if let Err(e) = check_feasible_paths(case, &packets) {
            panic!("{:?} -> {:?}: {}", case.src, case.dst, e.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acl_model_matches_reference(acl in acl_strategy(), headers in prop::collection::vec(header_strategy(), 8)) {
        let model = acl.clone();
        let allows = ZenFunction::new(move |h| model.allows(h));
        let model = acl.clone();
        let line = ZenFunction::new(move |h| model.matched_line(h));
        for h in headers {
            prop_assert_eq!(allows.evaluate(&h), acl.allows_concrete(&h));
            prop_assert_eq!(line.evaluate(&h), acl.matched_line_concrete(&h));
        }
    }

    #[test]
    fn acl_find_witnesses_are_genuine(acl in acl_strategy()) {
        let n = acl.rules.len() as u16;
        if n == 0 { return Ok(()); }
        let model = acl.clone();
        let f = ZenFunction::new(move |h| model.matched_line(h));
        // For every line: the solver either proves it unreachable or the
        // witness matches the reference semantics.
        for i in 1..=n {
            match f.find(|_, l| l.eq(Zen::val(i)), &FindOptions::bdd()) {
                Some(w) => prop_assert_eq!(acl.matched_line_concrete(&w), i),
                None => {
                    // Cross-check with brute-ish sampling: no sampled
                    // header may hit the line.
                    for seed in 0..20 {
                        let h = rzen_net::gen::random_header(seed);
                        prop_assert_ne!(acl.matched_line_concrete(&h), i);
                    }
                }
            }
        }
    }

    #[test]
    fn fwd_model_matches_reference(
        rules in prop::collection::vec((prefix_strategy(), any::<u8>()), 0..10),
        headers in prop::collection::vec(header_strategy(), 8),
    ) {
        let table = FwdTable::new(rules.into_iter().map(|(prefix, port)| FwdRule { prefix, port }).collect());
        let t = table.clone();
        let f = ZenFunction::new(move |h| t.lookup(h));
        for h in headers {
            prop_assert_eq!(f.evaluate(&h), table.lookup_concrete(&h));
        }
    }

    #[test]
    fn nat_model_matches_reference(
        nat in nat_strategy(),
        headers in prop::collection::vec(header_strategy(), 8),
    ) {
        let n = nat.clone();
        let f = ZenFunction::new(move |h| n.apply(h));
        for h in headers {
            prop_assert_eq!(f.evaluate(&h), nat.apply_concrete(&h));
        }
    }

    #[test]
    fn route_map_model_matches_reference(seed in 0u64..32, n in 2usize..10) {
        let rm = rzen_net::gen::random_route_map(n, seed);
        let model = rm.clone();
        let f = ZenFunction::new(move |a| model.apply(a));
        // Probe with announcements derived from the map's own structure
        // plus generic ones.
        let mut probes = vec![
            Announcement::origin(0, 0, 65001),
            rzen_net::gen::reserved_announcement(),
        ];
        let mut a = Announcement::origin(0x0A000000, 24, 65001);
        a.communities = vec![0, 1, 2];
        a.med = 1;
        probes.push(a);
        for p in probes {
            prop_assert_eq!(f.evaluate(&p), rm.apply_concrete(&p), "probe vs map seed {}", seed);
        }
    }

    #[test]
    fn bgp_symbolic_matches_concrete_fixpoint(
        seed in 0u64..64,
        nrouters in 3usize..6,
        failures in prop::collection::vec(any::<bool>(), 8),
    ) {
        use rand::{Rng, SeedableRng};
        use rzen_net::routing::{Action, BgpNetwork, Clause, RouteMap};

        // Random topology with random simple policies.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = BgpNetwork::default();
        let origin = Announcement::origin(0x0A000000, 8, 65000);
        for i in 0..nrouters {
            let originates = if i == 0 { Some(origin.clone()) } else { None };
            net.add_router(&format!("r{i}"), originates);
        }
        let policy = |rng: &mut rand::rngs::StdRng| -> RouteMap {
            let actions = match rng.gen_range(0..4) {
                0 => vec![],
                1 => vec![Action::SetLocalPref(rng.gen_range(50..300))],
                2 => vec![Action::AddCommunity(rng.gen_range(0..8))],
                _ => vec![Action::PrependAsPath(65000 + rng.gen_range(0..10), 1)],
            };
            RouteMap { clauses: vec![Clause { conds: vec![], actions, permit: rng.gen_bool(0.9) }] }
        };
        // A connected-ish random graph: chain plus random chords.
        for i in 1..nrouters {
            let j = rng.gen_range(0..i);
            let (e, im) = (policy(&mut rng), policy(&mut rng));
            net.add_adjacency(j, i, e, im);
        }
        if nrouters > 3 {
            let (e, im) = (policy(&mut rng), policy(&mut rng));
            net.add_adjacency(0, nrouters - 1, e, im);
        }

        let failed: Vec<bool> = failures.into_iter().take(net.num_links).collect();
        let mut failed = failed;
        failed.resize(net.num_links, false);

        let concrete = net.converge_concrete(&failed);
        for (r, expected) in concrete.iter().enumerate().take(nrouters) {
            let symbolic = net.route_model(r).evaluate(&failed);
            prop_assert_eq!(&symbolic, expected, "router {} seed {}", r, seed);
        }
    }

    #[test]
    fn generated_acl_last_line_always_reachable(n in 2usize..40, seed in 0u64..16) {
        let acl = rzen_net::gen::random_acl(n, seed);
        let last = acl.rules.len() as u16;
        let model = acl.clone();
        let f = ZenFunction::new(move |h| model.matched_line(h));
        let w = f.find(|_, l| l.eq(Zen::val(last)), &FindOptions::smt());
        prop_assert!(w.is_some(), "generator must keep the last line reachable");
    }

    #[test]
    fn forward_along_matches_option_fold(
        path in path_strategy(),
        packets in prop::collection::vec(packet_strategy(), 8),
    ) {
        check_forward_along(&path, &packets)?;
    }

    #[test]
    fn fold_paths_matches_per_path_fold(set in path_set_strategy()) {
        check_fold_paths(&set.0, &set.1)?;
    }

    #[test]
    fn feasible_paths_agree_with_simple_paths(case in net_case_strategy(), draws in packet_draws()) {
        check_feasible_case(&case, &draws)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20000))]

    /// The long runs (CI: `cargo test --release -p rzen-net --test prop --
    /// --ignored`; ~10 min on one core, almost all of it the BDD proofs of
    /// the first).
    #[test]
    #[ignore = "long run; CI has a step for it"]
    fn forward_along_matches_option_fold_long(
        path in path_strategy(),
        packets in prop::collection::vec(packet_strategy(), 8),
    ) {
        check_forward_along(&path, &packets)?;
    }

    #[test]
    #[ignore = "long run; CI has a step for it"]
    fn fold_paths_matches_per_path_fold_long(set in path_set_strategy()) {
        check_fold_paths(&set.0, &set.1)?;
    }

    #[test]
    #[ignore = "long run; CI has a step for it"]
    fn feasible_paths_agree_with_simple_paths_long(case in net_case_strategy(), draws in packet_draws()) {
        check_feasible_case(&case, &draws)?;
    }
}
