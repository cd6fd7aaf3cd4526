//! Network topology: devices, links, and path enumeration.
//!
//! Analyses that reason per-path (Anteater-style reachability, Fig. 7
//! forwarding) enumerate simple paths here, or only the feasible ones, the
//! paths some packet may survive; set-based analyses (HSA) walk the same
//! structure with transformers instead.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use crate::device::{Hop, Interface};
use crate::dstset::{routed_to, AddrSet, DstSpace};
use rzen_bdd::{FastHashMap, Fnv1a};

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

/// A network: devices plus links, as a handle to one shared value.
///
/// Cloning a `Network` copies a pointer, not the devices, so every query,
/// cache entry and served model asked of one network holds the same
/// value. Fields read through `Deref` (`net.devices`). A write goes
/// through `DerefMut`, which is copy-on-write: a value other handles
/// share is copied first, so they never see the write, and a value this
/// handle alone holds is written in place.
///
/// Equality is structural, and immediate for two handles to one value
/// ([`Network::ptr_eq`]). `Hash` writes the value's [`Network::digest`],
/// computed at its first use and reset by every `DerefMut`, so hashing a
/// network is O(1) after the first time, whoever hashed it.
#[derive(Clone, Default)]
pub struct Network(Arc<Shared>);

/// The devices and links a [`Network`] handle points to.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NetworkData {
    /// The devices.
    pub devices: Vec<Device>,
    /// The links.
    pub links: Vec<Link>,
}

#[derive(Clone, Default)]
struct Shared {
    data: NetworkData,
    /// `data`'s digest, once something asked for it.
    digest: OnceLock<u64>,
}

impl Deref for Network {
    type Target = NetworkData;

    fn deref(&self) -> &NetworkData {
        &self.0.data
    }
}

impl DerefMut for Network {
    fn deref_mut(&mut self) -> &mut NetworkData {
        let shared = Arc::make_mut(&mut self.0);
        shared.digest.take();
        &mut shared.data
    }
}

impl PartialEq for Network {
    fn eq(&self, other: &Network) -> bool {
        Network::ptr_eq(self, other) || self.0.data == other.0.data
    }
}

impl Eq for Network {}

impl Hash for Network {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest());
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.data.fmt(f)
    }
}

impl Network {
    /// Do both handles point to the same value? Then they are equal;
    /// two equal networks built apart are not the same value.
    pub fn ptr_eq(a: &Network, b: &Network) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// How many handles share this value, this one included.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// The FNV-1a hash of the devices and links (the derived `Hash` of
    /// [`NetworkData`]), computed once per shared value.
    pub fn digest(&self) -> u64 {
        *self.0.digest.get_or_init(|| {
            let mut h = Fnv1a::default();
            self.0.data.hash(&mut h);
            h.finish()
        })
    }

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
    ///
    /// The one-shot form of [`FeasibleWalker::paths`]; a caller walking
    /// many pairs of one network keeps a walker instead.
    pub fn feasible_paths(
        &self,
        src: usize,
        entry_intf: u8,
        dst: usize,
        exit_intf: u8,
    ) -> Vec<Vec<Hop<'_>>> {
        FeasibleWalker::new(self).paths(src, entry_intf, dst, exit_intf)
    }

    /// The one depth-first walk over the simple device paths from
    /// `(src, entry)` to `(dst, exit)`, behind [`Network::paths`],
    /// [`FeasibleWalker::paths`] and [`Network::path_footprint`].
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

    /// Every `(device, interface)` pair that lies on some simple path from
    /// `(src, entry_intf)` to `(dst, exit_intf)` — both the ingress and
    /// egress interface of every hop, entry and exit ports included. This
    /// is the *path footprint* of a reachability query: a policy change on
    /// an interface outside the footprint cannot change the query's
    /// verdict, because no enumerated path evaluates that interface.
    /// The engine does not call it; it stays because the benchmark
    /// harness (`perfbench/src/traced.rs`, frozen) times it.
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

/// [`Network::feasible_paths`] over many pairs of one network. The
/// destinations each egress interface's table sends to it are computed
/// at the interface's first visit and shared by every later walk.
pub struct FeasibleWalker<'n> {
    net: &'n Network,
    routed: FastHashMap<*const Interface, AddrSet>,
}

impl<'n> FeasibleWalker<'n> {
    /// A walker over `net`'s feasible paths, with nothing computed yet.
    pub fn new(net: &'n Network) -> FeasibleWalker<'n> {
        FeasibleWalker {
            net,
            routed: FastHashMap::default(),
        }
    }

    /// The feasible paths from `(src, entry_intf)` to `(dst, exit_intf)`:
    /// see [`Network::feasible_paths`].
    pub fn paths(
        &mut self,
        src: usize,
        entry_intf: u8,
        dst: usize,
        exit_intf: u8,
    ) -> Vec<Vec<Hop<'n>>> {
        let routed = &mut self.routed;
        let mut out = Vec::new();
        self.net.walk(
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
}

/// One applied delta operation. It carries nothing: the engine's cache
/// sweep compares the networks before and after a delta, not its ops.
/// `rzen_delta::Applied::steps` still holds one per op, because the
/// benchmark harness (`perfbench/src/traced.rs`, frozen under
/// `BENCHMARK.json` `paths`) passes them to `Engine::apply_delta`.
#[derive(Clone, Copy, Debug)]
pub struct DeltaStep;

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

    /// What `impl Hash for Network` writes, through a std hasher.
    fn hash_of(n: &Network) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        n.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_write_through_a_clone_leaves_the_original_alone() {
        let original = triangle();
        let digest = original.digest();
        let mut clone = original.clone();
        assert!(Network::ptr_eq(&original, &clone));
        clone.add_link(0, 9, 2, 9);
        assert!(!Network::ptr_eq(&original, &clone));
        assert_eq!(original.links.len(), 6);
        assert_eq!(original.digest(), digest);
        assert_eq!(original, triangle());
        assert_ne!(clone, original);
        assert_ne!(clone.digest(), digest);
    }

    #[test]
    fn a_write_through_a_lone_handle_resets_its_digest() {
        let mut n = triangle();
        let before = n.digest();
        let value = &*n as *const NetworkData;
        n.devices[1].interfaces[0].id = 7;
        assert_eq!(&*n as *const NetworkData, value, "written in place");
        let mut fresh = triangle();
        fresh.devices[1].interfaces[0].id = 7;
        assert_ne!(n.digest(), before, "a stale digest survived the write");
        assert_eq!(n.digest(), fresh.digest());
        assert_eq!(hash_of(&n), hash_of(&fresh));
    }

    #[test]
    fn equal_networks_built_apart_compare_and_hash_equal() {
        let (a, b) = (triangle(), triangle());
        assert!(!Network::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a.digest(), Network::default().digest());
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
