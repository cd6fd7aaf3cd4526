//! Devices and interfaces: the combined (overlay and underlay) treatment
//! of packets — the paper's Figs. 6 and 7.
//!
//! `fwd_in` applies inbound policy (ACL, then decapsulation); `fwd_out`
//! applies outbound policy (forwarding-table check, ACL, encapsulation).
//! Each is a guard (does the packet get through?) plus a rewrite (what
//! leaves?), and `forward_along` composes the two halves directly;
//! `fold_paths` does so over a set of paths, building each guard once.
//! Composition is exactly the paper's point: these functions are built by
//! *calling* the ACL, LPM, and GRE models — no translation glue.

use crate::acl::Acl;
use crate::fwd::FwdTable;
use crate::gre::{decap, encap, GreTunnel};
use crate::headers::{routing_header, Packet, PacketFields};
use crate::nat::Nat;
use rzen::{zif, ExprId, Zen};
use rzen_bdd::FastHashMap;

/// A device interface with its attached policies (the paper's `Intf`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Interface {
    /// Port number on the owning device (what the forwarding table
    /// returns to select this interface; 0 is reserved for "drop").
    pub id: u8,
    /// Inbound ACL (checked on the routing header), if any.
    pub acl_in: Option<Acl>,
    /// Outbound ACL, if any.
    pub acl_out: Option<Acl>,
    /// Tunnel starting here: packets leaving are encapsulated.
    pub gre_start: Option<GreTunnel>,
    /// Tunnel ending here: packets arriving are decapsulated.
    pub gre_end: Option<GreTunnel>,
    /// Inbound NAT (typically DNAT), applied after decapsulation.
    pub nat_in: Option<Nat>,
    /// Outbound NAT (typically SNAT), applied after the outbound ACL and
    /// before encapsulation.
    pub nat_out: Option<Nat>,
    /// The owning device's forwarding table (the paper's `i.Device`).
    pub table: FwdTable,
}

impl Interface {
    /// A bare interface with just a port id and table.
    pub fn new(id: u8, table: FwdTable) -> Interface {
        Interface {
            id,
            table,
            ..Interface::default()
        }
    }
}

fn allow(acl: &Option<Acl>, p: Zen<Packet>) -> Zen<bool> {
    match acl {
        None => Zen::bool(true),
        Some(a) => a.allows(routing_header(p)),
    }
}

/// Rewrite the packet's routing header (the underlay header when
/// tunneled, the overlay header otherwise) with a NAT table.
fn apply_nat(nat: &Option<Nat>, p: Zen<Packet>) -> Zen<Packet> {
    let Some(nat) = nat else { return p };
    let tunneled = p.underlay_header().is_some();
    let rewritten_u = p.with_underlay_header(Zen::some(nat.apply(p.underlay_header().value())));
    let rewritten_o = p.with_overlay_header(nat.apply(p.overlay_header()));
    zif(tunneled, rewritten_u, rewritten_o)
}

/// Inbound guard: the inbound ACL admits the arriving packet.
pub(crate) fn in_guard(i: &Interface, p: Zen<Packet>) -> Zen<bool> {
    allow(&i.acl_in, p)
}

/// Inbound rewrite: decapsulation, then inbound NAT. The identity (the
/// very same expression) unless a tunnel ends here or NAT is configured.
pub(crate) fn in_rewrite(i: &Interface, p: Zen<Packet>) -> Zen<Packet> {
    apply_nat(&i.nat_in, decap(i.gre_end.as_ref(), p))
}

/// Outbound guard: the forwarding table selects this interface and the
/// outbound ACL allows the packet.
pub(crate) fn out_guard(i: &Interface, p: Zen<Packet>) -> Zen<bool> {
    out_guard_via(i, p, i.table.lookup(routing_header(p)))
}

/// [`out_guard`], given the port `i.table` selects for `p`.
fn out_guard_via(i: &Interface, p: Zen<Packet>, port: Zen<u8>) -> Zen<bool> {
    port.eq(Zen::val(i.id)) & allow(&i.acl_out, p)
}

/// Outbound rewrite: outbound NAT, then encapsulation. The identity
/// unless NAT is configured or a tunnel starts here.
pub(crate) fn out_rewrite(i: &Interface, p: Zen<Packet>) -> Zen<Packet> {
    encap(i.gre_start.as_ref(), apply_nat(&i.nat_out, p))
}

/// Inbound processing (paper Fig. 6 `FwdIn`): inbound ACL, then
/// decapsulation, then inbound NAT. `None` means the packet was dropped.
pub fn fwd_in(i: &Interface, p: Zen<Packet>) -> Zen<Option<Packet>> {
    zif(in_guard(i, p), Zen::some(in_rewrite(i, p)), Zen::none(0))
}

/// Outbound processing (paper Fig. 6 `FwdOut`): forwarding table must
/// select this interface, outbound ACL must allow, then outbound NAT,
/// then encapsulation.
pub fn fwd_out(i: &Interface, p: Zen<Packet>) -> Zen<Option<Packet>> {
    zif(out_guard(i, p), Zen::some(out_rewrite(i, p)), Zen::none(0))
}

/// One hop of a path: the interface a packet enters and the interface it
/// must leave through, borrowed from the network that owns them.
///
/// Two hops are equal, wherever they live, when the interface halves a
/// fold reads are: the ingress interface's inbound half (its guard and
/// rewrite read `acl_in`, `gre_end` and `nat_in`) and the egress
/// interface's outbound half (`id`, `table`, `acl_out`, `nat_out` and
/// `gre_start`), plus the ingress id. [`forward_along`] and [`fold_paths`] read nothing else of
/// a hop, so two hop-for-hop equal path lists fold to the very same
/// formula, and a delta that changes only halves no path reads (an
/// `acl_in` on a port a pair only leaves through) changes no verdict.
#[derive(Clone, Copy, Debug, Eq)]
pub struct Hop<'n> {
    /// Ingress interface.
    pub intf_in: &'n Interface,
    /// Egress interface.
    pub intf_out: &'n Interface,
}

impl PartialEq for Hop<'_> {
    fn eq(&self, other: &Hop<'_>) -> bool {
        let (a, b) = (self.intf_in, other.intf_in);
        let inbound =
            (a.id, &a.acl_in, &a.gre_end, &a.nat_in) == (b.id, &b.acl_in, &b.gre_end, &b.nat_in);
        let (a, b) = (self.intf_out, other.intf_out);
        inbound
            && (a.id, &a.table, &a.acl_out, &a.nat_out, &a.gre_start)
                == (b.id, &b.table, &b.acl_out, &b.nat_out, &b.gre_start)
    }
}

/// Forward a packet along a fixed path (paper Fig. 7 `Fwd`): apply
/// inbound then outbound processing at every hop; `None` if dropped
/// anywhere.
///
/// The fold threads a guard (`alive`: no hop has dropped the packet)
/// and the packet as rewritten so far, and wraps them in an `Option`
/// once at the end. Each guard is thus applied to the packet itself, not
/// to the payload of an earlier hop's `Option`: across a
/// header-preserving hop the packet stays the ingress `p`, so a device's
/// guard is one hash-consed expression shared by every path through it.
pub fn forward_along(path: &[Hop<'_>], p: Zen<Packet>) -> Zen<Option<Packet>> {
    HopMemo::default().forward(path, p)
}

/// Combine `forward_along(path, p)` over every path, in order: the
/// any-path folds of reach (`or` of `is_some`) and drops (`and` of
/// `is_none`).
///
/// Paths through one device share its guards, so the fold remembers,
/// for this call only, each interface half's guard and rewrite per
/// packet expression and each table's port per routing header. A hit
/// returns the `ExprId`s hash-consing would have found again, in the
/// same creation order, so the formula is exactly that of the naive
/// per-path fold; only the work of re-deriving it is skipped.
pub fn fold_paths<'n, T>(
    paths: &[Vec<Hop<'n>>],
    p: Zen<Packet>,
    init: T,
    mut f: impl FnMut(T, Zen<Option<Packet>>) -> T,
) -> T {
    let mut memo = HopMemo::default();
    paths
        .iter()
        .fold(init, |acc, path| f(acc, memo.forward(path, p)))
}

/// One interface half of a hop at a packet: (interface address,
/// outbound?, packet).
type HalfKey = (*const Interface, bool, ExprId);

/// The memo behind [`fold_paths`]; [`forward_along`] uses a fresh one.
#[derive(Default)]
struct HopMemo<'n> {
    /// Each half's (guard, rewrite). The address is a sound key: `'n`
    /// keeps the interface alive and put.
    halves: FastHashMap<HalfKey, (Zen<bool>, Zen<Packet>)>,
    /// (table, routing header) → selected port. Keyed by content: every
    /// interface carries its own copy of its device's table.
    ports: FastHashMap<(&'n FwdTable, ExprId), Zen<u8>>,
    /// The dropped result, `None`, built at the first path's end.
    none: Option<Zen<Option<Packet>>>,
}

impl<'n> HopMemo<'n> {
    fn forward(&mut self, path: &[Hop<'n>], p: Zen<Packet>) -> Zen<Option<Packet>> {
        let (mut alive, mut pkt) = (Zen::bool(true), p);
        for hop in path {
            (alive, pkt) = self.half(alive, hop.intf_in, false, pkt);
            (alive, pkt) = self.half(alive, hop.intf_out, true, pkt);
        }
        let some = Zen::some(pkt);
        zif(alive, some, *self.none.get_or_insert_with(|| Zen::none(0)))
    }

    /// One interface half of a hop: `alive` conjoined with its guard,
    /// and the packet after its rewrite. On a miss the guard and the
    /// conjunction are built before the rewrite, the naive order.
    fn half(
        &mut self,
        alive: Zen<bool>,
        i: &'n Interface,
        out: bool,
        pkt: Zen<Packet>,
    ) -> (Zen<bool>, Zen<Packet>) {
        let key = (i as *const Interface, out, pkt.expr_id());
        if let Some(&(guard, next)) = self.halves.get(&key) {
            return (alive & guard, next);
        }
        let guard = if out {
            let rh = routing_header(pkt);
            let port = *self
                .ports
                .entry((&i.table, rh.expr_id()))
                .or_insert_with(|| i.table.lookup(rh));
            out_guard_via(i, pkt, port)
        } else {
            in_guard(i, pkt)
        };
        let alive = alive & guard;
        let next = if out {
            out_rewrite(i, pkt)
        } else {
            in_rewrite(i, pkt)
        };
        self.halves.insert(key, (guard, next));
        (alive, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, AclRule};
    use crate::fwd::FwdRule;
    use crate::headers::{proto, Header};
    use crate::ip::{ip, Prefix};
    use rzen::ZenFunction;

    fn table_to(port: u8) -> FwdTable {
        FwdTable::new(vec![FwdRule {
            prefix: Prefix::ANY,
            port,
        }])
    }

    fn pkt(dst: u32, port: u16) -> Packet {
        Packet::plain(Header::new(dst, ip(1, 1, 1, 1), port, 9999, proto::TCP))
    }

    #[test]
    fn fwd_in_applies_acl() {
        let deny_ssh = Acl {
            rules: vec![
                AclRule {
                    permit: false,
                    dst_ports: (22, 22),
                    ..AclRule::any(false)
                },
                AclRule::any(true),
            ],
        };
        let i = Interface {
            acl_in: Some(deny_ssh),
            ..Interface::new(1, table_to(1))
        };
        let f = ZenFunction::new(move |p| fwd_in(&i.clone(), p));
        assert_eq!(f.evaluate(&pkt(ip(10, 0, 0, 1), 22)), None);
        assert!(f.evaluate(&pkt(ip(10, 0, 0, 1), 80)).is_some());
    }

    #[test]
    fn fwd_out_requires_port_match() {
        let i1 = Interface::new(1, table_to(1));
        let i2 = Interface::new(2, table_to(1)); // table selects port 1
        let f1 = ZenFunction::new(move |p| fwd_out(&i1.clone(), p));
        let f2 = ZenFunction::new(move |p| fwd_out(&i2.clone(), p));
        assert!(f1.evaluate(&pkt(ip(10, 0, 0, 1), 80)).is_some());
        assert_eq!(f2.evaluate(&pkt(ip(10, 0, 0, 1), 80)), None);
    }

    #[test]
    fn fwd_out_encapsulates() {
        let t = GreTunnel {
            src_ip: ip(192, 168, 0, 1),
            dst_ip: ip(192, 168, 0, 3),
        };
        let i = Interface {
            gre_start: Some(t),
            ..Interface::new(1, table_to(1))
        };
        let f = ZenFunction::new(move |p| fwd_out(&i.clone(), p));
        let out = f.evaluate(&pkt(ip(10, 0, 0, 1), 80)).expect("forwarded");
        assert_eq!(out.underlay_header.unwrap().dst_ip, t.dst_ip);
    }

    #[test]
    fn path_forwarding_composes() {
        // Two hops, second drops ssh.
        let deny_ssh = Acl {
            rules: vec![
                AclRule {
                    permit: false,
                    dst_ports: (22, 22),
                    ..AclRule::any(false)
                },
                AclRule::any(true),
            ],
        };
        let pass = Interface::new(1, table_to(1));
        let no_ssh = Interface {
            acl_in: Some(deny_ssh),
            ..Interface::new(1, table_to(1))
        };
        let f = ZenFunction::new(move |p| {
            let path = [
                Hop {
                    intf_in: &pass,
                    intf_out: &pass,
                },
                Hop {
                    intf_in: &no_ssh,
                    intf_out: &pass,
                },
            ];
            forward_along(&path, p)
        });
        assert!(f.evaluate(&pkt(ip(10, 0, 0, 1), 80)).is_some());
        assert_eq!(f.evaluate(&pkt(ip(10, 0, 0, 1), 22)), None);
    }

    #[test]
    fn dropped_stays_dropped() {
        let drop_all = Interface {
            acl_in: Some(Acl::default()),
            ..Interface::new(1, table_to(1))
        };
        let pass = Interface::new(1, table_to(1));
        let f = ZenFunction::new(move |p| {
            let path = [
                Hop {
                    intf_in: &drop_all,
                    intf_out: &pass,
                },
                Hop {
                    intf_in: &pass,
                    intf_out: &pass,
                },
            ];
            forward_along(&path, p)
        });
        assert_eq!(f.evaluate(&pkt(ip(10, 0, 0, 1), 80)), None);
    }

    #[test]
    fn find_delivered_packet_along_path() {
        // The paper's §4 "Finding (counter) example inputs": ask for a
        // packet delivered along a path.
        let deny_10_slash_8 = Acl {
            rules: vec![
                AclRule {
                    permit: false,
                    dst: Prefix::new(ip(10, 0, 0, 0), 8),
                    ..AclRule::any(false)
                },
                AclRule::any(true),
            ],
        };
        let guarded = Interface {
            acl_in: Some(deny_10_slash_8),
            ..Interface::new(1, table_to(1))
        };
        let pass = Interface::new(1, table_to(1));
        let f = ZenFunction::new(move |p| {
            let hop = Hop {
                intf_in: &guarded,
                intf_out: &pass,
            };
            forward_along(&[hop], p)
        });
        let delivered = f
            .find(|_, out| out.is_some(), &rzen::FindOptions::bdd())
            .expect("some packet gets through");
        assert!(!Prefix::new(ip(10, 0, 0, 0), 8).contains(delivered.overlay_header.dst_ip));
    }
}
