//! Network topology: devices, links, and path enumeration.
//!
//! Analyses that reason per-path (Anteater-style reachability, Fig. 7
//! forwarding) enumerate simple paths here, or only the feasible ones, the
//! paths some packet may survive; set-based analyses (HSA) walk the same
//! structure with transformers instead.

use crate::device::{Hop, Interface};
use crate::dstset::{routed_to, AddrSet, DstSpace};
use rzen_bdd::FastHashMap;

/// A device: a named node with numbered interfaces.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Device {
    /// Human-readable name.
    pub name: String,
    /// Interfaces, indexed by their `id` (position in the vector is not
    /// significant; ids are).
    pub interfaces: Vec<Interface>,
}

impl Device {
    /// Look up an interface by port id.
    pub fn interface(&self, id: u8) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.id == id)
    }
}

/// A unidirectional link between two device interfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source device index.
    pub from_device: usize,
    /// Source interface id (egress).
    pub from_intf: u8,
    /// Destination device index.
    pub to_device: usize,
    /// Destination interface id (ingress).
    pub to_intf: u8,
}

/// A network: devices plus links.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Network {
    /// The devices.
    pub devices: Vec<Device>,
    /// The links.
    pub links: Vec<Link>,
}

impl Network {
    /// Add a device, returning its index.
    pub fn add_device(&mut self, d: Device) -> usize {
        self.devices.push(d);
        self.devices.len() - 1
    }

    /// Add a unidirectional link.
    pub fn add_link(&mut self, from_device: usize, from_intf: u8, to_device: usize, to_intf: u8) {
        self.links.push(Link {
            from_device,
            from_intf,
            to_device,
            to_intf,
        });
    }

    /// Add links in both directions.
    pub fn add_duplex(&mut self, a: usize, a_intf: u8, b: usize, b_intf: u8) {
        self.add_link(a, a_intf, b, b_intf);
        self.add_link(b, b_intf, a, a_intf);
    }

    /// Enumerate the simple device paths from `src` to `dst` (device
    /// indices), as hop lists usable with
    /// [`crate::device::forward_along`] and
    /// [`crate::device::fold_paths`]. The hops borrow this network's
    /// interfaces. `entry_intf` is the interface on `src` where the
    /// packet enters the network.
    pub fn paths(
        &self,
        src: usize,
        entry_intf: u8,
        dst: usize,
        exit_intf: u8,
    ) -> Vec<Vec<Hop<'_>>> {
        let mut out = Vec::new();
        self.walk(
            (src, entry_intf),
            (dst, exit_intf),
            (),
            |_, _| Some(()),
            |_, hops| out.push(hops.to_vec()),
        );
        out
    }

    /// The simple paths of [`Network::paths`] that some packet may
    /// survive, in the same order. The walk carries the destinations the
    /// routing header may hold (`dstset::DstSpace`), from every packet of
    /// either header shape, and cuts a branch as soon as none is left.
    /// Each concrete packet keeps its routing destination inside the
    /// carried space at every hop, so a path left out delivers no packet:
    /// it is `false` in any "delivered on some path" fold and `true` in
    /// any "dropped on every path" fold, and folding over these paths
    /// gives the very verdicts of folding over all of them.
    pub fn feasible_paths(
        &self,
        src: usize,
        entry_intf: u8,
        dst: usize,
        exit_intf: u8,
    ) -> Vec<Vec<Hop<'_>>> {
        // The destinations each egress interface's table sends to it,
        // computed at its first visit.
        let mut routed: FastHashMap<*const Interface, AddrSet> = FastHashMap::default();
        let mut out = Vec::new();
        self.walk(
            (src, entry_intf),
            (dst, exit_intf),
            DstSpace::all(),
            |space, hop| {
                let to = routed
                    .entry(hop.intf_out)
                    .or_insert_with(|| routed_to(&hop.intf_out.table, hop.intf_out.id));
                let next = space.through(hop, to);
                (!next.is_empty()).then_some(next)
            },
            |_, hops| out.push(hops.to_vec()),
        );
        out
    }

    /// The one depth-first walk over the simple device paths from
    /// `(src, entry)` to `(dst, exit)`, behind [`Network::paths`],
    /// [`Network::feasible_paths`] and [`Network::path_footprint`].
    /// `step` carries a state across each hop and cuts the branch where
    /// it answers `None`; `emit` sees each complete path as its devices
    /// and its hops.
    fn walk<'n, S>(
        &'n self,
        (src, entry): (usize, u8),
        (dst, exit): (usize, u8),
        start: S,
        mut step: impl FnMut(&S, Hop<'n>) -> Option<S>,
        mut emit: impl FnMut(&[usize], &[Hop<'n>]),
    ) {
        let mut trail = Trail {
            visited: vec![false; self.devices.len()],
            devs: Vec::new(),
            hops: Vec::new(),
        };
        self.walk_from(
            src,
            entry,
            (dst, exit),
            &start,
            &mut trail,
            &mut step,
            &mut emit,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_from<'n, S>(
        &'n self,
        dev: usize,
        in_intf: u8,
        (dst, exit): (usize, u8),
        state: &S,
        trail: &mut Trail<'n>,
        step: &mut impl FnMut(&S, Hop<'n>) -> Option<S>,
        emit: &mut impl FnMut(&[usize], &[Hop<'n>]),
    ) {
        let device = &self.devices[dev];
        let Some(intf_in) = device.interface(in_intf) else {
            return;
        };
        if dev == dst {
            if let Some(intf_out) = device.interface(exit) {
                let hop = Hop { intf_in, intf_out };
                if step(state, hop).is_some() {
                    trail.push(dev, hop);
                    emit(&trail.devs, &trail.hops);
                    trail.pop();
                }
            }
            return;
        }
        trail.visited[dev] = true;
        for link in self.links.iter().filter(|l| l.from_device == dev) {
            if trail.visited[link.to_device] {
                continue;
            }
            let Some(intf_out) = device.interface(link.from_intf) else {
                continue;
            };
            let hop = Hop { intf_in, intf_out };
            let Some(next) = step(state, hop) else {
                continue;
            };
            trail.push(dev, hop);
            self.walk_from(
                link.to_device,
                link.to_intf,
                (dst, exit),
                &next,
                trail,
                step,
                emit,
            );
            trail.pop();
        }
        trail.visited[dev] = false;
    }

    /// Devices reachable from `dev` by following links forward (including
    /// `dev` itself). Link-level connectivity only — tables and ACLs are
    /// ignored, so this over-approximates forwarding reachability, which
    /// is the safe direction for cache invalidation.
    pub fn reachable_from(&self, dev: usize) -> std::collections::HashSet<usize> {
        self.closure(dev, |l| (l.from_device, l.to_device))
    }

    /// Devices from which `dev` is reachable by following links forward
    /// (including `dev` itself): the reverse closure of
    /// [`Network::reachable_from`].
    pub fn reaching(&self, dev: usize) -> std::collections::HashSet<usize> {
        self.closure(dev, |l| (l.to_device, l.from_device))
    }

    fn closure(
        &self,
        start: usize,
        dir: impl Fn(&Link) -> (usize, usize),
    ) -> std::collections::HashSet<usize> {
        let mut seen = std::collections::HashSet::new();
        if start >= self.devices.len() {
            return seen;
        }
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(d) = stack.pop() {
            for l in &self.links {
                let (from, to) = dir(l);
                if from == d && seen.insert(to) {
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// Every `(device, interface)` pair that lies on some simple path from
    /// `(src, entry_intf)` to `(dst, exit_intf)` — both the ingress and
    /// egress interface of every hop, entry and exit ports included. This
    /// is the *path footprint* of a reachability query: a policy change on
    /// an interface outside the footprint cannot change the query's
    /// verdict, because no enumerated path evaluates that interface.
    pub fn path_footprint(
        &self,
        src: usize,
        entry_intf: u8,
        dst: usize,
        exit_intf: u8,
    ) -> std::collections::HashSet<(usize, u8)> {
        let mut out = std::collections::HashSet::new();
        self.walk(
            (src, entry_intf),
            (dst, exit_intf),
            (),
            |_, _| Some(()),
            |devs, hops| {
                out.extend(
                    devs.iter()
                        .zip(hops)
                        .flat_map(|(&d, hop)| [(d, hop.intf_in.id), (d, hop.intf_out.id)]),
                )
            },
        );
        out
    }

    /// All (device, interface-id) pairs — used by set-based analyses to
    /// seed exploration.
    pub fn all_interfaces(&self) -> Vec<(usize, u8)> {
        self.devices
            .iter()
            .enumerate()
            .flat_map(|(d, dev)| dev.interfaces.iter().map(move |i| (d, i.id)))
            .collect()
    }

    /// The link leaving `(device, intf)`, if any.
    pub fn link_from(&self, device: usize, intf: u8) -> Option<&Link> {
        self.links
            .iter()
            .find(|l| l.from_device == device && l.from_intf == intf)
    }
}

/// The path a [`Network::walk`] is on: the devices it visits, and each
/// one's hop.
struct Trail<'n> {
    visited: Vec<bool>,
    devs: Vec<usize>,
    hops: Vec<Hop<'n>>,
}

impl<'n> Trail<'n> {
    fn push(&mut self, dev: usize, hop: Hop<'n>) {
        self.devs.push(dev);
        self.hops.push(hop);
    }

    fn pop(&mut self) {
        self.devs.pop();
        self.hops.pop();
    }
}

/// What one delta operation touched, at the granularity cache
/// invalidation reasons about. Produced by the delta applier
/// (`rzen-delta`), consumed by the engine's dependency-aware eviction —
/// it lives here because both sides already depend on `rzen-net`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Touch {
    /// Per-interface policy changed (ACL, tunnel, NAT): only queries whose
    /// path footprint includes this exact `(device, intf)` can change.
    Intf {
        /// Device index in the *post-op* network.
        device: usize,
        /// Interface id on that device.
        intf: u8,
    },
    /// The device's forwarding table changed: any query whose footprint
    /// visits the device at all can change.
    Table {
        /// Device index in the *post-op* network.
        device: usize,
    },
    /// A duplex link went down. A query is affected only if the *used*
    /// link was on one of its paths — i.e. both endpoints are in its
    /// footprint.
    LinkDown {
        /// One endpoint of the removed duplex pair.
        a: (usize, u8),
        /// The other endpoint.
        b: (usize, u8),
    },
    /// A duplex link came up. Existing paths are untouched; new paths can
    /// only appear for queries where one endpoint was forward-reachable
    /// from the source and the other could reach the destination on the
    /// pre-op graph.
    LinkUp {
        /// One endpoint of the added duplex pair.
        a: (usize, u8),
        /// The other endpoint.
        b: (usize, u8),
    },
    /// A device was appended (unlinked): no existing query can change.
    DeviceAdded {
        /// Index of the new device.
        device: usize,
    },
    /// A device was removed. Indices shift, so nothing keyed by the old
    /// network can be salvaged: evict everything for that model.
    DeviceRemoved,
}

/// One applied delta operation: the network as it stood *before* the op,
/// plus what the op touched. Multi-op deltas are invalidated one step at
/// a time against each step's own pre-op graph — evaluating every op
/// against the original graph would miss paths enabled by a chain of
/// `link-up`s.
#[derive(Clone, Debug)]
pub struct DeltaStep {
    /// The network before this op was applied.
    pub pre: Network,
    /// What the op touched.
    pub touch: Touch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fwd::{FwdRule, FwdTable};
    use crate::ip::Prefix;

    fn dev(name: &str, ports: &[u8]) -> Device {
        let table = FwdTable::new(vec![FwdRule {
            prefix: Prefix::ANY,
            port: ports[0],
        }]);
        Device {
            name: name.into(),
            interfaces: ports
                .iter()
                .map(|&p| Interface::new(p, table.clone()))
                .collect(),
        }
    }

    fn triangle() -> Network {
        // a --1/1-- b --2/1-- c, plus a --2/2-- c directly.
        let mut n = Network::default();
        let a = n.add_device(dev("a", &[1, 2, 9]));
        let b = n.add_device(dev("b", &[1, 2]));
        let c = n.add_device(dev("c", &[1, 2, 9]));
        n.add_duplex(a, 1, b, 1);
        n.add_duplex(b, 2, c, 1);
        n.add_duplex(a, 2, c, 2);
        n
    }

    #[test]
    fn enumerates_simple_paths() {
        let n = triangle();
        // Enter a at 9, exit c at 9.
        let paths = n.paths(0, 9, 2, 9);
        assert_eq!(paths.len(), 2); // a-b-c and a-c
        let lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        assert!(lens.contains(&2) && lens.contains(&3));
    }

    #[test]
    fn no_path_to_disconnected_device() {
        let mut n = triangle();
        let d = n.add_device(dev("d", &[1]));
        assert!(n.paths(0, 9, d, 1).is_empty());
    }

    #[test]
    fn missing_interface_yields_no_path() {
        let n = triangle();
        assert!(n.paths(0, 7, 2, 9).is_empty());
    }

    #[test]
    fn link_lookup() {
        let n = triangle();
        let l = n.link_from(0, 1).unwrap();
        assert_eq!(l.to_device, 1);
        assert_eq!(l.to_intf, 1);
        assert!(n.link_from(0, 9).is_none());
    }

    #[test]
    fn all_interfaces_lists_everything() {
        let n = triangle();
        assert_eq!(n.all_interfaces().len(), 8);
    }

    #[test]
    fn closures_follow_link_direction() {
        // a -> b -> c (one-way chain), d isolated.
        let mut n = Network::default();
        let a = n.add_device(dev("a", &[1]));
        let b = n.add_device(dev("b", &[1, 2]));
        let c = n.add_device(dev("c", &[1]));
        let d = n.add_device(dev("d", &[1]));
        n.add_link(a, 1, b, 1);
        n.add_link(b, 2, c, 1);

        let from_a = n.reachable_from(a);
        assert!(from_a.contains(&a) && from_a.contains(&b) && from_a.contains(&c));
        assert!(!from_a.contains(&d));
        assert_eq!(n.reachable_from(c).len(), 1); // just itself
        let to_c = n.reaching(c);
        assert!(to_c.contains(&a) && to_c.contains(&b) && to_c.contains(&c));
        assert_eq!(n.reaching(a).len(), 1);
    }

    #[test]
    fn footprint_covers_exactly_the_interfaces_on_paths() {
        let n = triangle();
        // a:9 -> c:9 has two paths: a-b-c and a-c direct.
        let fp = n.path_footprint(0, 9, 2, 9);
        // Every interface of a, b, c that a path evaluates:
        for pair in [
            (0, 9), // entry
            (0, 1), // a's egress toward b
            (0, 2), // a's egress toward c
            (1, 1), // b ingress
            (1, 2), // b egress
            (2, 1), // c ingress from b
            (2, 2), // c ingress from a
            (2, 9), // exit
        ] {
            assert!(fp.contains(&pair), "missing {pair:?} in {fp:?}");
        }
        assert_eq!(fp.len(), 8);
    }

    #[test]
    fn footprint_excludes_interfaces_off_path() {
        // spine-leaf: an edge port of a third leaf is on no path between
        // the other two leaves.
        let n = crate::gen::spine_leaf(2, 3);
        let (l0, l1, l2) = (2, 3, 4);
        let fp = n.path_footprint(l0, 99, l2, 99);
        assert!(fp.contains(&(l0, 99)) && fp.contains(&(l2, 99)));
        assert!(
            !fp.contains(&(l1, 99)),
            "l1's host port must not be on any l0->l2 path"
        );
        // Empty when no path exists.
        let mut disconnected = n.clone();
        disconnected.links.clear();
        assert!(disconnected.path_footprint(l0, 99, l2, 99).is_empty());
    }
}
