//! End-to-end verification of the paper's Fig. 3 virtualized network,
//! including the §2 motivating scenario: a bug at the overlay/underlay
//! boundary that neither isolated verification finds, but the composed
//! model does.

use rzen::{FindOptions, Zen, ZenFunction};
use rzen_integration::{addrs, fig3_network, overlay_header};
use rzen_net::device::forward_along;
use rzen_net::headers::{Header, HeaderFields, Packet, PacketFields};

fn delivery_model(buggy: bool) -> ZenFunction<Packet, Option<Packet>> {
    let net = fig3_network(buggy);
    // Enter U1 from Va, exit U3 to Vb.
    let n = net.paths(0, 1, 2, 2).len();
    assert_eq!(n, 1, "the Fig. 3 line has one path");
    ZenFunction::new(move |p| forward_along(&net.paths(0, 1, 2, 2)[0], p))
}

#[test]
fn healthy_network_delivers_overlay_traffic() {
    let f = delivery_model(false);
    let sent = Packet::plain(overlay_header(443, 51000));
    let got = f.evaluate(&sent).expect("delivered");
    // Decapsulated at U3: no underlay header remains, overlay intact.
    assert_eq!(got.underlay_header, None);
    assert_eq!(got.overlay_header, sent.overlay_header);
}

#[test]
fn tunnel_is_transparent_for_all_packets_when_healthy() {
    // Symbolic: every Va→Vb overlay packet is delivered unmodified.
    let f = delivery_model(false);
    let ok = f.verify(
        |p, out| {
            let va_to_vb = p
                .overlay_header()
                .dst_ip()
                .eq(Zen::val(addrs::VB))
                .and(p.overlay_header().src_ip().eq(Zen::val(addrs::VA)))
                .and(p.underlay_header().is_none());
            va_to_vb.implies(
                out.is_some()
                    .and(out.value().overlay_header().eq(p.overlay_header()))
                    .and(out.value().underlay_header().is_none()),
            )
        },
        &FindOptions::bdd(),
    );
    assert!(ok.is_ok(), "healthy network must deliver everything");
}

#[test]
fn composed_model_finds_the_boundary_bug() {
    // §2: "the underlay may have a buggy packet filter that drops some
    // types of overlay packets. This bug will not be found if we verify
    // the underlay and the overlay separately."
    let f = delivery_model(true);
    let dropped = f
        .find(
            |p, out| {
                let va_to_vb = p
                    .overlay_header()
                    .dst_ip()
                    .eq(Zen::val(addrs::VB))
                    .and(p.overlay_header().src_ip().eq(Zen::val(addrs::VA)))
                    .and(p.underlay_header().is_none());
                va_to_vb.and(out.is_none())
            },
            &FindOptions::bdd(),
        )
        .expect("the composed model exposes the bug");
    // The witness is exactly the interaction: an overlay port that the
    // underlay filter (matching the GRE-copied ports) blocks.
    assert!(
        (5000..=6000).contains(&dropped.overlay_header.dst_port),
        "witness {dropped:?} should be in the blocked range"
    );
    // Confirm by simulation.
    assert_eq!(f.evaluate(&dropped), None);
}

#[test]
fn overlay_only_verification_misses_the_bug() {
    // Overlay-in-isolation: assume the underlay is a perfect pipe (the
    // first method of §2). The overlay itself has no filters, so overlay
    // verification passes even in the buggy network.
    let overlay_only = ZenFunction::new(|h: Zen<Header>| {
        // Perfect-pipe underlay: delivery is unconditional.
        Zen::some(h)
    });
    assert!(overlay_only
        .verify(|h, out| out.value_or(h).eq(h), &FindOptions::bdd())
        .is_ok());
}

#[test]
fn underlay_only_verification_misses_the_bug() {
    // Underlay-in-isolation: is U3 reachable from U1 for *some* packet?
    // Yes — ports outside the blocked range pass, so a generic underlay
    // reachability check succeeds despite the bug.
    let f = delivery_model(true);
    let witness = f.find(|_, out| out.is_some(), &FindOptions::bdd());
    assert!(witness.is_some(), "underlay still carries most traffic");
}

#[test]
fn both_backends_agree_on_the_bug() {
    let f = delivery_model(true);
    for opts in [FindOptions::bdd(), FindOptions::smt()] {
        let dropped = f.find(
            |p, out| {
                p.overlay_header()
                    .dst_ip()
                    .eq(Zen::val(addrs::VB))
                    .and(p.underlay_header().is_none())
                    .and(out.is_none())
            },
            &opts,
        );
        let d = dropped.expect("bug visible on both backends");
        assert_eq!(f.evaluate(&d), None);
    }
}

#[test]
fn fixing_the_filter_restores_delivery() {
    // The fix: the healthy network (no transit filter) delivers the very
    // packet that was dropped.
    let buggy = delivery_model(true);
    let healthy = delivery_model(false);
    let dropped = buggy
        .find(
            |p, out| {
                p.overlay_header()
                    .dst_ip()
                    .eq(Zen::val(addrs::VB))
                    .and(p.underlay_header().is_none())
                    .and(out.is_none())
            },
            &FindOptions::bdd(),
        )
        .unwrap();
    assert!(healthy.evaluate(&dropped).is_some());
}

#[test]
fn encapsulation_happens_in_transit() {
    // A packet observed between U1 and U2 carries the underlay header
    // (paper Fig. 3's middle row). Model the first hop only.
    let net = fig3_network(false);
    // Enter and leave U1.
    let f = ZenFunction::new(move |p| forward_along(&net.paths(0, 1, 0, 2)[0], p));
    let out = f
        .evaluate(&Packet::plain(overlay_header(443, 51000)))
        .expect("forwarded");
    let u = out.underlay_header.expect("encapsulated");
    assert_eq!(u.src_ip, addrs::U1);
    assert_eq!(u.dst_ip, addrs::U3);
    assert_eq!(out.overlay_header, overlay_header(443, 51000));
}
