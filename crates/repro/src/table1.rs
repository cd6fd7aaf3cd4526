//! Regenerate the paper's Table 1: which analyses the IVL can express.
//!
//! For the Zen column, a checkmark is *demonstrated*, not asserted: each
//! of the six analyses runs live on a small network built from the shared
//! models, and the checkmark is printed only if the analysis produced a
//! verified-correct result. The other columns reproduce the paper's
//! claims about prior IVLs for context.

use rzen::{FindOptions, TransformerSpace, Zen};
use rzen_net::acl::{Acl, AclRule};
use rzen_net::analyses::{anteater, ap, bonsai, hsa, minesweeper, shapeshifter};
use rzen_net::device::Interface;
use rzen_net::fwd::{FwdRule, FwdTable};
use rzen_net::headers::{Header, HeaderFields, Packet};
use rzen_net::ip::{ip, Prefix};
use rzen_net::routing::{Announcement, BgpNetwork, Clause, RouteMap};
use rzen_net::topology::{Device, Network};

fn line_network() -> Network {
    let mut net = Network::default();
    let table = FwdTable::new(vec![FwdRule {
        prefix: Prefix::ANY,
        port: 2,
    }]);
    let acl = Acl {
        rules: vec![
            AclRule {
                permit: false,
                dst_ports: (22, 22),
                ..AclRule::any(false)
            },
            AclRule::any(true),
        ],
    };
    for i in 0..3 {
        let mut in_intf = Interface::new(1, table.clone());
        if i == 1 {
            in_intf.acl_in = Some(acl.clone());
        }
        net.add_device(Device {
            name: format!("d{i}"),
            interfaces: vec![in_intf, Interface::new(2, table.clone())],
        });
    }
    net.add_duplex(0, 2, 1, 1);
    net.add_duplex(1, 2, 2, 1);
    net
}

fn permit_all() -> RouteMap {
    RouteMap {
        clauses: vec![Clause {
            conds: vec![],
            actions: vec![],
            permit: true,
        }],
    }
}

fn bgp_diamond() -> BgpNetwork {
    let mut n = BgpNetwork::default();
    let origin = Announcement::origin(ip(10, 0, 0, 0), 8, 65000);
    let r0 = n.add_router("r0", Some(origin));
    let r1 = n.add_router("r1", None);
    let r2 = n.add_router("r2", None);
    let r3 = n.add_router("r3", None);
    n.add_adjacency(r0, r1, permit_all(), permit_all());
    n.add_adjacency(r0, r2, permit_all(), permit_all());
    n.add_adjacency(r1, r3, permit_all(), permit_all());
    n.add_adjacency(r2, r3, permit_all(), permit_all());
    n
}

fn check_hsa() -> bool {
    let net = line_network();
    let space = TransformerSpace::new();
    let reach = hsa::reachable_set(&net, &space, 0, 1, 2);
    // Exactly the non-ssh traffic gets through the middle ACL.
    let ssh = space.set_of::<Packet>(|p| {
        rzen_net::headers::routing_header(p)
            .dst_port()
            .eq(Zen::val(22))
    });
    !reach.is_empty() && reach.intersect(&ssh).is_empty()
}

fn check_ap() -> bool {
    let space = TransformerSpace::new();
    let p1 = space.set_of::<Header>(|h| h.dst_port().eq(Zen::val(22)));
    let p2 = space.set_of::<Header>(|h| h.dst_ip().lt(Zen::val(ip(128, 0, 0, 0))));
    let atoms = ap::atomic_predicates(&space, &[p1.clone(), p2.clone()]);
    let l1 = ap::label(&p1, &atoms);
    atoms.len() == 4 && ap::from_label(&space, &l1, &atoms).set_eq(&p1)
}

fn check_anteater() -> bool {
    let net = line_network();
    let w = anteater::reachable(&net, 0, 1, 2, 2);
    let ssh_blocked = anteater::reachable_such_that(&net, 0, 1, 2, 2, |p, out| {
        out.is_some().and(
            rzen_net::headers::routing_header(p)
                .dst_port()
                .eq(Zen::val(22)),
        )
    });
    matches!(w, Some(ref wit) if wit.packet.overlay_header.dst_port != 22) && ssh_blocked.is_none()
}

fn check_minesweeper() -> bool {
    let net = bgp_diamond();
    minesweeper::reachable_under_k_failures(&net, 3, 1, &FindOptions::bdd()).is_ok()
        && minesweeper::reachable_under_k_failures(&net, 3, 2, &FindOptions::bdd()).is_err()
}

fn check_bonsai() -> bool {
    let space = TransformerSpace::new();
    let c = bonsai::compress(&space, &bgp_diamond());
    c.num_classes == 3 && c.class[1] == c.class[2]
}

fn check_shapeshifter() -> bool {
    let table = FwdTable::new(vec![
        FwdRule {
            prefix: Prefix::new(ip(10, 0, 0, 0), 8),
            port: 1,
        },
        FwdRule {
            prefix: Prefix::ANY,
            port: 2,
        },
    ]);
    let known =
        shapeshifter::abstract_ports(&table, &shapeshifter::PartialHeader::dst(ip(10, 1, 1, 1)));
    let unknown = shapeshifter::abstract_ports(&table, &shapeshifter::PartialHeader::default());
    known.contains(&(1, shapeshifter::Verdict::Always))
        && unknown.contains(&(1, shapeshifter::Verdict::Unknown))
}

/// Print the table; `true` iff every Zen checkmark was earned.
pub(crate) fn run() -> bool {
    // (analysis, [Rosette, Kaplan, Boogie, NV] from the paper's Table 1,
    // live Zen check)
    type Row = (&'static str, [bool; 4], fn() -> bool);
    let rows: [Row; 6] = [
        ("HSA", [false, false, false, true], check_hsa),
        ("AP", [false, false, false, false], check_ap),
        ("Anteater", [true, true, true, false], check_anteater),
        ("Minesweeper", [true, true, true, true], check_minesweeper),
        ("Bonsai", [false, false, false, false], check_bonsai),
        (
            "Shapeshifter",
            [false, false, false, true],
            check_shapeshifter,
        ),
    ];
    println!("Table 1: which IVLs can express example network analyses");
    println!("(prior-IVL columns as reported by the paper; Zen column demonstrated live)\n");
    println!(
        "{:<14} {:^8} {:^8} {:^8} {:^6} {:^6}",
        "Analysis", "Rosette", "Kaplan", "Boogie", "NV", "Zen"
    );
    let mark = |b: bool| if b { "✓" } else { "✗" };
    let mut all = true;
    for (name, prior, check) in rows {
        let (ok, ms) = crate::time_ms(check);
        all &= ok;
        println!(
            "{:<14} {:^8} {:^8} {:^8} {:^6} {:^6} ({ms:.0} ms)",
            name,
            mark(prior[0]),
            mark(prior[1]),
            mark(prior[2]),
            mark(prior[3]),
            mark(ok)
        );
        rzen::reset_ctx();
    }
    println!(
        "\nZen column: {}",
        if all {
            "all analyses expressed and verified ✓"
        } else {
            "SOME ANALYSES FAILED ✗"
        }
    );
    all
}
