//! The paper's Fig. 3 running example: a virtualized network where
//! overlay traffic (Va → Vb) is GRE-tunneled across a three-node
//! underlay — and the §2 motivating bug at the overlay/underlay boundary,
//! found only by verifying the *composed* model.
//!
//! Run with:
//! `cargo run --release -p rzen-integration --example virtual_network`

use rzen::{FindOptions, Zen, ZenFunction};
use rzen_integration::{addrs, fig3_network, overlay_header};
use rzen_net::device::forward_along;
use rzen_net::headers::{HeaderFields, Packet, PacketFields};
use rzen_net::ip::fmt_ip;

fn main() {
    println!("== Fig. 3: Va -- U1 ==== U2 ==== U3 -- Vb (GRE tunnel U1->U3) ==\n");

    for buggy in [false, true] {
        println!(
            "--- underlay transit filter: {} ---",
            if buggy {
                "present (buggy)"
            } else {
                "absent (healthy)"
            }
        );
        let net = fig3_network(buggy);
        let f = ZenFunction::new(move |p| forward_along(&net.paths(0, 1, 2, 2)[0], p));

        // Simulate one packet end to end.
        let sent = Packet::plain(overlay_header(443, 51000));
        match f.evaluate(&sent) {
            Some(got) => println!(
                "  simulate 443/tcp: delivered; decapsulated={}",
                got.underlay_header.is_none()
            ),
            None => println!("  simulate 443/tcp: DROPPED"),
        }

        // Composed verification: is every Va->Vb overlay packet delivered?
        let result = f.verify(
            |p, out| {
                let va_to_vb = p
                    .overlay_header()
                    .dst_ip()
                    .eq(Zen::val(addrs::VB))
                    .and(p.underlay_header().is_none());
                va_to_vb.implies(out.is_some())
            },
            &FindOptions::bdd(),
        );
        match result {
            Ok(()) => println!("  verify: all overlay traffic delivered ✓"),
            Err(cex) => {
                let h = &cex.overlay_header;
                println!("  verify: FOUND BOUNDARY BUG — overlay packet dropped in transit:");
                println!(
                    "    dst={} src={} dst_port={} src_port={} proto={}",
                    fmt_ip(h.dst_ip),
                    fmt_ip(h.src_ip),
                    h.dst_port,
                    h.src_port,
                    h.protocol
                );
                println!("    cause: GRE copies overlay ports into the underlay header;");
                println!("    the transit ACL blocks underlay dst ports 5000-6000.");
            }
        }
        println!();
    }
}
