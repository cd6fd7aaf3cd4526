//! Destination-address sets carried along a path walk — the abstraction
//! behind [`crate::topology::Network::feasible_paths`].
//!
//! A [`DstSpace`] over-approximates the packets that can still be alive
//! at some point of a path by the destination addresses their routing
//! header can hold, kept apart per header shape. Every transfer function
//! keeps each concrete packet's destination inside the set, so a walk
//! that reaches an empty space has found a prefix of a path that no
//! packet survives. This is the paper's §4 state-set transformer idea
//! (HSA) cut down to the one field forwarding reads.

use crate::device::{Hop, Interface};
use crate::fwd::FwdTable;
use crate::ip::Prefix;
use crate::nat::{Nat, NatKind};

/// A set of IPv4 addresses: sorted, disjoint, non-adjacent inclusive
/// ranges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AddrSet(Vec<(u32, u32)>);

impl AddrSet {
    /// Every address.
    pub(crate) fn all() -> AddrSet {
        AddrSet(vec![(0, u32::MAX)])
    }

    /// One address.
    pub(crate) fn single(a: u32) -> AddrSet {
        AddrSet(vec![(a, a)])
    }

    /// No address.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Does some address of `p` lie in the set?
    pub(crate) fn meets(&self, p: Prefix) -> bool {
        let (lo, hi) = span(p);
        self.0.iter().any(|&(a, b)| a <= hi && lo <= b)
    }

    /// Addresses in both sets.
    pub(crate) fn intersect(&self, other: &AddrSet) -> AddrSet {
        let (mut out, mut i, mut j) = (Vec::new(), 0, 0);
        while i < self.0.len() && j < other.0.len() {
            let ((a, b), (c, d)) = (self.0[i], other.0[j]);
            if a.max(c) <= b.min(d) {
                out.push((a.max(c), b.min(d)));
            }
            if b < d {
                i += 1;
            } else {
                j += 1;
            }
        }
        AddrSet(out)
    }

    /// Addresses in either set.
    pub(crate) fn union(&self, other: &AddrSet) -> AddrSet {
        if other.is_empty() {
            return self.clone();
        }
        let mut all: Vec<(u32, u32)> = self.0.iter().chain(&other.0).copied().collect();
        all.sort_unstable();
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(all.len());
        for (lo, hi) in all {
            match out.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => out.push((lo, hi)),
            }
        }
        AddrSet(out)
    }
}

/// The first and last address of `p`.
fn span(p: Prefix) -> (u32, u32) {
    let lo = p.address & p.mask();
    (lo, lo | !p.mask())
}

/// The destinations `table` sends to `port`: the addresses whose first
/// matching rule (the longest prefix, once [`FwdTable::new`] sorted the
/// rules) selects `port`. Port 0 also takes every address no rule
/// matches.
pub(crate) fn routed_to(table: &FwdTable, port: u8) -> AddrSet {
    // Between two consecutive rule boundaries every address has the same
    // first matching rule, so one probe decides the whole stretch.
    let mut cuts: Vec<u64> = table
        .rules
        .iter()
        .flat_map(|r| {
            let (lo, hi) = span(r.prefix);
            [lo as u64, hi as u64 + 1]
        })
        .chain([0, 1 << 32])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0] as u32, (w[1] - 1) as u32);
        let selected = table
            .rules
            .iter()
            .find(|r| r.prefix.contains(lo))
            .map_or(0, |r| r.port);
        if selected != port {
            continue;
        }
        match out.last_mut() {
            Some(last) if last.1.checked_add(1) == Some(lo) => last.1 = hi,
            _ => out.push((lo, hi)),
        }
    }
    AddrSet(out)
}

/// The packets that may be alive at a point of a path, as the
/// destination addresses their routing header may hold, per header
/// shape. The tunneled shape is the product of its overlay and underlay
/// sets: both are empty or neither is.
#[derive(Clone, Debug)]
pub(crate) struct DstSpace {
    /// Plain packets: their only header's destination.
    plain: AddrSet,
    /// Tunneled packets: the overlay header's destination.
    overlay: AddrSet,
    /// Tunneled packets: the underlay (routing) header's destination.
    underlay: AddrSet,
}

impl DstSpace {
    /// Every packet of either shape: the solver's input packet is
    /// unconstrained.
    pub(crate) fn all() -> DstSpace {
        DstSpace::new(AddrSet::all(), AddrSet::all(), AddrSet::all())
    }

    /// The space of plain packets to `plain` and tunneled ones to
    /// `(overlay, underlay)`.
    fn new(plain: AddrSet, overlay: AddrSet, underlay: AddrSet) -> DstSpace {
        if overlay.is_empty() || underlay.is_empty() {
            let none = AddrSet::default();
            return DstSpace {
                plain,
                overlay: none.clone(),
                underlay: none,
            };
        }
        DstSpace {
            plain,
            overlay,
            underlay,
        }
    }

    /// No packet is alive.
    pub(crate) fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.underlay.is_empty()
    }

    /// After `hop`, given `routed`, the destinations its egress table
    /// sends to its egress interface.
    pub(crate) fn through(&self, hop: Hop<'_>, routed: &AddrSet) -> DstSpace {
        let (i, o) = (hop.intf_in, hop.intf_out);
        // Most ingress halves rewrite nothing: skip their copy.
        if i.gre_end.is_none() && i.nat_in.is_none() {
            return self.outbound(o, routed);
        }
        self.inbound(i).outbound(o, routed)
    }

    /// After `i`'s inbound half: the ACL keeps the space (an
    /// over-approximation), decapsulation makes every packet plain, and
    /// NAT rewrites the routing header.
    fn inbound(&self, i: &Interface) -> DstSpace {
        let s = match i.gre_end {
            Some(_) => DstSpace::new(
                self.plain.union(&self.overlay),
                AddrSet::default(),
                AddrSet::default(),
            ),
            None => self.clone(),
        };
        s.nat(&i.nat_in)
    }

    /// After `i`'s outbound half, given `routed`, the destinations `i`'s
    /// table sends to `i`: the routing header is cut to `routed`, the ACL
    /// keeps the space, NAT rewrites the routing header, and
    /// encapsulation tunnels every packet to the tunnel's endpoint.
    fn outbound(&self, i: &Interface, routed: &AddrSet) -> DstSpace {
        let s = DstSpace::new(
            self.plain.intersect(routed),
            self.overlay.clone(),
            self.underlay.intersect(routed),
        )
        .nat(&i.nat_out);
        match &i.gre_start {
            Some(t) => DstSpace::new(
                AddrSet::default(),
                s.plain.union(&s.overlay),
                AddrSet::single(t.dst_ip),
            ),
            None => s,
        }
    }

    /// After `nat` rewrites the routing header: a DNAT rule adds its
    /// target wherever its match meets the destinations (the matched
    /// addresses stay, an over-approximation); SNAT leaves them.
    fn nat(self, nat: &Option<Nat>) -> DstSpace {
        let Some(nat) = nat else { return self };
        let rewrite = |set: &AddrSet| {
            nat.rules
                .iter()
                .filter(|r| r.kind == NatKind::Dnat && set.meets(r.matches))
                .fold(set.clone(), |acc, r| {
                    acc.union(&AddrSet::single(r.rewrite_to))
                })
        };
        DstSpace {
            plain: rewrite(&self.plain),
            underlay: rewrite(&self.underlay),
            overlay: self.overlay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fwd::FwdRule;
    use crate::gre::GreTunnel;
    use crate::ip::ip;
    use crate::nat::NatRule;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The addresses `p` covers.
    fn block(p: Prefix) -> AddrSet {
        AddrSet(vec![span(p)])
    }

    fn has(set: &AddrSet, a: u32) -> bool {
        set.meets(Prefix::new(a, 32))
    }

    #[test]
    fn set_algebra_keeps_ranges_sorted_and_merged() {
        let a = block(p("10.0.0.0/8"));
        let b = block(p("11.0.0.0/8"));
        let ab = a.union(&b);
        assert_eq!(ab.0, [(ip(10, 0, 0, 0), ip(11, 255, 255, 255))]);
        assert_eq!(ab.intersect(&b), b);
        assert!(a.intersect(&b).is_empty());
        let gap = block(p("9.0.0.0/8")).union(&b);
        assert_eq!(gap.0.len(), 2);
        assert!(!gap.meets(p("10.1.0.0/16")) && gap.meets(p("0.0.0.0/0")));
        assert_eq!(
            gap.union(&a),
            block(p("8.0.0.0/6")).intersect(&ab.union(&gap))
        );
        assert_eq!(AddrSet::all().intersect(&gap), gap);
    }

    #[test]
    fn routed_to_is_the_longest_prefix_partition() {
        let t = FwdTable::new(vec![
            FwdRule {
                prefix: p("10.0.0.0/8"),
                port: 1,
            },
            FwdRule {
                prefix: p("10.1.0.0/16"),
                port: 2,
            },
        ]);
        let one = routed_to(&t, 1);
        assert!(has(&one, ip(10, 0, 0, 1)) && has(&one, ip(10, 2, 0, 0)));
        assert!(!has(&one, ip(10, 1, 0, 0)));
        assert_eq!(routed_to(&t, 2), block(p("10.1.0.0/16")));
        let unrouted = routed_to(&t, 0);
        assert!(has(&unrouted, ip(11, 0, 0, 0)) && !has(&unrouted, ip(10, 0, 0, 0)));
        assert!(routed_to(&t, 3).is_empty());
        // Adjacent stretches sent to one port merge into one range.
        let t = FwdTable::new(vec![
            FwdRule {
                prefix: p("10.1.0.0/16"),
                port: 1,
            },
            FwdRule {
                prefix: p("10.0.0.0/16"),
                port: 1,
            },
        ]);
        assert_eq!(routed_to(&t, 1), block(p("10.0.0.0/15")));
    }

    #[test]
    fn tunnels_move_the_routing_header() {
        let tunnel = GreTunnel {
            src_ip: ip(192, 168, 0, 1),
            dst_ip: ip(192, 168, 0, 3),
        };
        let start = Interface {
            gre_start: Some(tunnel),
            ..Interface::new(1, FwdTable::default())
        };
        let routed = block(p("10.0.0.0/8"));
        let s = DstSpace::all().outbound(&start, &routed);
        assert!(s.plain.is_empty());
        assert_eq!(s.underlay, AddrSet::single(tunnel.dst_ip));
        // Plain packets routed into 10/8 plus tunneled ones routed on
        // their underlay, whose overlay is anything.
        assert_eq!(s.overlay, AddrSet::all());

        let end = Interface {
            gre_end: Some(tunnel),
            ..Interface::new(1, FwdTable::default())
        };
        let back = s.inbound(&end);
        assert_eq!(back.plain, AddrSet::all());
        assert!(back.underlay.is_empty() && back.overlay.is_empty());
    }

    #[test]
    fn dnat_adds_its_target_only_where_it_matches() {
        let nat = Nat {
            rules: vec![NatRule {
                kind: NatKind::Dnat,
                matches: p("203.0.113.0/24"),
                rewrite_to: ip(10, 0, 0, 5),
            }],
        };
        let i = Interface {
            nat_in: Some(nat),
            ..Interface::new(1, FwdTable::default())
        };
        let routed = block(p("203.0.113.0/24"));
        let s = DstSpace::all().outbound(&Interface::new(1, FwdTable::default()), &routed);
        let s = s.inbound(&i);
        assert!(has(&s.plain, ip(10, 0, 0, 5)));
        let elsewhere = block(p("198.51.100.0/24"));
        let t = DstSpace::all().outbound(&Interface::new(1, FwdTable::default()), &elsewhere);
        assert_eq!(t.inbound(&i).plain, elsewhere);
    }
}
