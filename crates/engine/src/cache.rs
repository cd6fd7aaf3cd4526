//! The result cache, keyed on what a query asks: the network, kind and
//! endpoints of a `Reach`/`Drops`, the full [`Query`] of any other kind.
//!
//! The fingerprint is a 64-bit FNV-1a hash — fast to compare and stable,
//! but *not* collision-free, so it only selects a bucket. Within a bucket
//! keys are compared structurally; a colliding fingerprint therefore
//! costs one extra comparison instead of silently serving another
//! query's verdict (and witness).
//!
//! A `Reach`/`Drops` entry holds its network behind an `Arc`. Entries a
//! served model inserts all share that model's one [`SharedNet`], so the
//! cache holds one network per model, not one per entry, and a lookup
//! through the same handle matches the network by pointer. Any other
//! network (a batch query's own copy, another handle) is compared in
//! full: a pointer match only ever saves the compare, it never replaces
//! it with something weaker.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;

use rzen_net::headers::Packet;
use rzen_net::topology::{DeltaStep, Network, Touch};

use crate::query::{witness_holds, NetOp, Port, Query, SharedNet, Verdict, Witness};

/// How a delta sweep disposed of the cache's entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaCacheStats {
    /// Entries whose verdict the delta may have changed: dropped. These
    /// are the entries in a step's cone of influence, less those
    /// `revalidated`.
    pub evicted: usize,
    /// Entries kept warm: re-keyed to the new network, so a post-delta
    /// identical query hits them without a solve. Counts the entries
    /// off every step's cone and the `revalidated` ones.
    pub retained: usize,
    /// Of `retained`, the in-cone SAT entries whose witness still holds
    /// on the new network.
    pub revalidated: usize,
    /// Entries the sweep did not reason about (other query kinds, other
    /// models): left in place untouched.
    pub unaffected: usize,
}

/// What a cache entry is keyed on.
#[derive(Clone, Debug)]
pub(crate) enum Key {
    /// A `Reach`/`Drops`: its network, by shared handle, and its kind and
    /// endpoints.
    Net {
        net: Arc<Network>,
        op: NetOp,
        src: Port,
        dst: Port,
    },
    /// Any other query, whole.
    Query(Query),
}

/// A key to look up, borrowing its parts.
#[derive(Clone, Copy)]
pub(crate) enum KeyRef<'a> {
    Net {
        net: &'a Network,
        op: NetOp,
        src: Port,
        dst: Port,
    },
    Query(&'a Query),
}

impl<'a> KeyRef<'a> {
    /// The key of `query`.
    pub(crate) fn of(query: &'a Query) -> KeyRef<'a> {
        match query.as_net() {
            Some((net, op, src, dst)) => KeyRef::Net { net, op, src, dst },
            None => KeyRef::Query(query),
        }
    }

    /// The key of a `Reach`/`Drops` over `shared`'s network.
    pub(crate) fn shared(shared: &'a SharedNet, op: NetOp, src: Port, dst: Port) -> KeyRef<'a> {
        KeyRef::Net {
            net: shared.net(),
            op,
            src,
            dst,
        }
    }

    /// An owned key; a network goes behind a fresh `Arc` of its own.
    pub(crate) fn owned(self) -> Key {
        match self {
            KeyRef::Net { net, op, src, dst } => Key::Net {
                net: Arc::new(net.clone()),
                op,
                src,
                dst,
            },
            KeyRef::Query(query) => Key::Query(query.clone()),
        }
    }
}

impl Key {
    /// The key of a `Reach`/`Drops` over `shared`'s network, sharing it.
    pub(crate) fn shared(shared: &SharedNet, op: NetOp, src: Port, dst: Port) -> Key {
        Key::Net {
            net: shared.net().clone(),
            op,
            src,
            dst,
        }
    }

    /// This key, borrowed.
    fn as_ref(&self) -> KeyRef<'_> {
        match self {
            Key::Net { net, op, src, dst } => KeyRef::Net {
                net,
                op: *op,
                src: *src,
                dst: *dst,
            },
            Key::Query(query) => KeyRef::Query(query),
        }
    }

    /// Does this entry answer `key`? Kind and endpoints must be equal,
    /// and the network the same object or structurally equal.
    pub(crate) fn matches(&self, key: KeyRef<'_>) -> bool {
        match (self, key) {
            (
                Key::Net { net, op, src, dst },
                KeyRef::Net {
                    net: other,
                    op: o,
                    src: s,
                    dst: d,
                },
            ) => (*op, *src, *dst) == (o, s, d) && (std::ptr::eq(&**net, other) || **net == *other),
            (Key::Query(query), KeyRef::Query(other)) => query == other,
            _ => false,
        }
    }
}

/// Verdicts of decisive queries by [`Key`], with the query's structural
/// fingerprint as the hash.
#[derive(Debug, Default)]
pub(crate) struct ResultCache {
    map: HashMap<u64, Vec<(Key, Verdict)>>,
    /// Total entries across buckets, maintained incrementally so the
    /// entries gauge never needs an O(n) walk.
    count: usize,
    /// Bumped by every clear and delta sweep, so an insert can tell that
    /// the cache moved under it since its lookup.
    sweeps: u64,
}

impl ResultCache {
    pub(crate) fn new() -> ResultCache {
        ResultCache::default()
    }

    /// The cached verdict for `key`, if this exact question was decided
    /// before. `fingerprint` must be the query's [`Query::fingerprint`];
    /// a bucket match alone is never enough.
    pub(crate) fn get(&self, fingerprint: u64, key: KeyRef<'_>) -> Option<&Verdict> {
        self.map
            .get(&fingerprint)?
            .iter()
            .find(|(k, _)| k.matches(key))
            .map(|(_, v)| v)
    }

    /// Drop every cached verdict (model hot-swap, tests).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.count = 0;
        self.sweeps += 1;
    }

    /// Clears and delta sweeps so far.
    pub(crate) fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Record a verdict under `key`.
    pub(crate) fn insert(&mut self, fingerprint: u64, key: Key, verdict: Verdict) {
        let bucket = self.map.entry(fingerprint).or_default();
        match bucket.iter_mut().find(|(k, _)| k.matches(key.as_ref())) {
            Some(slot) => slot.1 = verdict,
            None => {
                bucket.push((key, verdict));
                self.count += 1;
            }
        }
    }

    /// Cached entries across all buckets.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The dependency-aware sweep behind [`crate::Engine::apply_delta`]:
    /// walk every cached `Reach`/`Drops` entry over `old_net`, set aside
    /// the ones whose cone of influence a delta step touched, and re-key
    /// the rest to `new`'s network (sharing its handle, fingerprinted
    /// from its saved state) so identical post-delta queries keep hitting
    /// them. Entries for other query kinds or other models are left
    /// untouched. Each distinct entry network is compared with `old_net`
    /// once, and not at all when it *is* `old_net`.
    ///
    /// Of the in-cone entries, an UNSAT verdict is evicted: nothing short
    /// of a solve re-proves it. A SAT verdict carries its packet, which
    /// [`Replays::replay`] folds through the new network; the caller
    /// re-admits the packets that still witness their query with
    /// [`ResultCache::readmit`], and the refuted ones are evicted. A
    /// `remove-device` step shifts device indices, so then every entry
    /// for this model is evicted and nothing is replayed.
    ///
    /// Affectedness is judged per step, in application order:
    ///
    /// * `Intf` — the query's *path footprint* (every `(device, intf)` on
    ///   an enumerated simple path, endpoints included) must contain the
    ///   changed interface.
    /// * `Table` — the footprint must visit the device at all.
    /// * `LinkDown` — both endpoints must be in the footprint (a used
    ///   link implies both).
    /// * `LinkUp` — a new path can only appear if, on that step's pre-op
    ///   graph, one endpoint was link-reachable from the source device
    ///   and the other could reach the destination device.
    /// * `DeviceAdded` — appended and unlinked, affects nothing.
    /// * `DeviceRemoved` — indices shift; every entry for this model is
    ///   evicted.
    ///
    /// Footprints are computed on `old_net`. That stays sound across a
    /// multi-op sequence: a path that exists only thanks to an earlier
    /// `link-up` is caught by *that* step's pre-op reachability test, and
    /// a footprint only shrinks when a `link-down` fired, which already
    /// set the entry aside.
    pub(crate) fn sweep_delta(
        &mut self,
        old_net: &Network,
        new: &SharedNet,
        steps: &[DeltaStep],
    ) -> Replays {
        let mut stats = DeltaCacheStats::default();
        let mut witnesses = Vec::new();
        let device_removed = steps
            .iter()
            .any(|s| matches!(s.touch, Touch::DeviceRemoved));
        let mut footprints: HashMap<(Port, Port), HashSet<Port>> = HashMap::new();
        // Per-step memoized link closures for the LinkUp rule.
        let mut reach: Vec<HashMap<usize, HashSet<usize>>> =
            steps.iter().map(|_| HashMap::new()).collect();
        let mut coreach: Vec<HashMap<usize, HashSet<usize>>> =
            steps.iter().map(|_| HashMap::new()).collect();
        // Which entry networks are `old_net`, by address. Taken while
        // every entry is alive, so distinct networks have distinct
        // addresses.
        let mut of_old: HashMap<*const Network, bool> = HashMap::new();
        for (key, _) in self.map.values().flatten() {
            if let Key::Net { net, .. } = key {
                of_old
                    .entry(Arc::as_ptr(net))
                    .or_insert_with(|| std::ptr::eq(&**net, old_net) || **net == *old_net);
            }
        }

        let mut kept: HashMap<u64, Vec<(Key, Verdict)>> = HashMap::new();
        let mut count = 0usize;
        for (fp, bucket) in self.map.drain() {
            for (key, v) in bucket {
                let (op, src, dst) = match &key {
                    Key::Net { net, op, src, dst } if of_old[&Arc::as_ptr(net)] => {
                        (*op, *src, *dst)
                    }
                    _ => {
                        stats.unaffected += 1;
                        count += 1;
                        kept.entry(fp).or_default().push((key, v));
                        continue;
                    }
                };
                let affected = device_removed
                    || steps.iter().enumerate().any(|(si, step)| {
                        match step.touch {
                            Touch::Intf { .. } | Touch::Table { .. } | Touch::LinkDown { .. } => {
                                footprints.entry((src, dst)).or_insert_with(|| {
                                    old_net.path_footprint(src.0, src.1, dst.0, dst.1)
                                });
                            }
                            _ => {}
                        }
                        match step.touch {
                            Touch::Intf { device, intf } => {
                                footprints[&(src, dst)].contains(&(device, intf))
                            }
                            Touch::Table { device } => {
                                footprints[&(src, dst)].iter().any(|&(d, _)| d == device)
                            }
                            Touch::LinkDown { a, b } => {
                                let f = &footprints[&(src, dst)];
                                f.contains(&a) && f.contains(&b)
                            }
                            Touch::LinkUp { a, b } => {
                                let fwd = reach[si]
                                    .entry(src.0)
                                    .or_insert_with(|| step.pre.reachable_from(src.0));
                                let can_reach_a = fwd.contains(&a.0);
                                let can_reach_b = fwd.contains(&b.0);
                                let rev = coreach[si]
                                    .entry(dst.0)
                                    .or_insert_with(|| step.pre.reaching(dst.0));
                                (can_reach_a && rev.contains(&b.0))
                                    || (can_reach_b && rev.contains(&a.0))
                            }
                            Touch::DeviceAdded { .. } => false,
                            Touch::DeviceRemoved => true,
                        }
                    });
                if affected {
                    match v {
                        Verdict::Sat(Witness::Packet(p)) if !device_removed => {
                            witnesses.push((op, src, dst, p));
                        }
                        _ => stats.evicted += 1,
                    }
                    continue;
                }
                stats.retained += 1;
                // Re-key: the surviving verdict transfers to the new
                // network (nothing on any of its paths changed), and a
                // post-delta query — which names the new network — can
                // only hit it under the new fingerprint.
                count += 1;
                kept.entry(new.fingerprint(op, src, dst))
                    .or_default()
                    .push((Key::shared(new, op, src, dst), v));
            }
        }
        self.map = kept;
        self.count = count;
        self.sweeps += 1;
        Replays {
            new: new.clone(),
            ticket: self.sweeps,
            stats,
            pending: witnesses.len(),
            witnesses,
        }
    }

    /// Re-admit the witnesses that survived `replays`' replay, keyed on
    /// the new network — unless the cache was cleared or swept again
    /// since the sweep that set them aside, in which case they are
    /// dropped with it. Returns the sweep's final counts.
    pub(crate) fn readmit(&mut self, replays: Replays) -> DeltaCacheStats {
        let Replays {
            new,
            ticket,
            mut stats,
            pending,
            witnesses,
        } = replays;
        if self.sweeps != ticket {
            stats.evicted += pending;
            return stats;
        }
        stats.evicted += pending - witnesses.len();
        stats.retained += witnesses.len();
        stats.revalidated += witnesses.len();
        for (op, src, dst, p) in witnesses {
            self.insert(
                new.fingerprint(op, src, dst),
                Key::shared(&new, op, src, dst),
                Verdict::Sat(Witness::Packet(p)),
            );
        }
        stats
    }
}

/// The in-cone SAT entries a delta sweep set aside, as the packets that
/// witnessed them, with the sweep's counts so far. Replaying them needs
/// no cache, so the caller holds no lock while [`Replays::replay`] runs.
#[must_use = "set-aside witnesses return to the cache only through `ResultCache::readmit`"]
pub(crate) struct Replays {
    /// The network the witnesses are replayed on and re-keyed to.
    new: SharedNet,
    /// The cache's sweep count when the sweep finished.
    ticket: u64,
    /// The sweep's counts, without the set-aside entries.
    stats: DeltaCacheStats,
    /// Entries set aside by the sweep.
    pending: usize,
    /// Each set-aside entry's kind, endpoints and witness; after the
    /// replay, only those that still hold.
    witnesses: Vec<(NetOp, Port, Port, Packet)>,
}

impl Replays {
    /// The sweep's final counts, if it set nothing aside (and so has
    /// nothing to replay or re-admit).
    pub(crate) fn settled(&self) -> Option<DeltaCacheStats> {
        (self.pending == 0).then_some(self.stats)
    }

    /// Keep the witnesses that still hold on the new network. The folds
    /// run on one scoped helper thread, whose `Zen` context dies with
    /// it, so the caller's context does not grow. If that thread cannot
    /// run or panics, nothing is kept: an eviction only costs a solve.
    pub(crate) fn replay(mut self) -> Replays {
        let _span = rzen_obs::span!("engine.sweep.replay", "witnesses" => self.pending as u64);
        let (net, witnesses) = (self.new.net(), std::mem::take(&mut self.witnesses));
        self.witnesses = thread::scope(|s| {
            thread::Builder::new()
                .name("rzen-replay".into())
                .spawn_scoped(s, || {
                    witnesses
                        .into_iter()
                        .filter(|(op, src, dst, p)| {
                            let paths = net.feasible_paths(src.0, src.1, dst.0, dst.1);
                            witness_holds(&paths, *op, p)
                        })
                        .collect()
                })
                .ok()
                .and_then(|replay| replay.join().ok())
                .unwrap_or_default()
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acl_query(target_line: u16) -> Query {
        Query::AclFind {
            acl: rzen_net::gen::random_acl(4, 7),
            target_line,
        }
    }

    /// Regression: two *different* queries forced into the same 64-bit
    /// fingerprint must not serve each other's verdicts. (A genuine FNV-1a
    /// collision is infeasible to construct, so the collision is forced by
    /// inserting under the same key — exactly what a collision looks like
    /// to the cache.)
    #[test]
    fn forced_fingerprint_collision_does_not_cross_serve() {
        let colliding = 0xdead_beef_u64;
        let (a, b, c) = (acl_query(1), acl_query(2), acl_query(3));
        let mut cache = ResultCache::new();
        cache.insert(colliding, key(&a), Verdict::Unsat);
        cache.insert(
            colliding,
            key(&b),
            Verdict::Sat(crate::Witness::Header(rzen_net::headers::Header::new(
                1, 2, 3, 4, 5,
            ))),
        );

        assert_eq!(get(&cache, colliding, &a), Some(&Verdict::Unsat));
        assert!(matches!(get(&cache, colliding, &b), Some(&Verdict::Sat(_))));
        // The old u64-keyed cache returned *something* here; now a query
        // that merely collides must miss.
        assert_eq!(get(&cache, colliding, &c), None);
    }

    /// The key a served probe looks up with is held to the same guard:
    /// two different networks forced into one fingerprint never answer
    /// for each other, nor do other kinds or pairs over one network,
    /// while an equal network under another handle still does.
    #[test]
    fn forced_collision_between_networks_does_not_cross_serve_through_a_handle() {
        let colliding = 0xdead_beef_u64;
        let a = SharedNet::new(rzen_net::gen::spine_leaf(2, 3));
        let b = SharedNet::new(rzen_net::gen::spine_leaf(2, 4));
        let a_again = SharedNet::new(rzen_net::gen::spine_leaf(2, 3));
        let (src, dst) = ((2, 99), (3, 99));
        let sat = Verdict::Sat(crate::Witness::Header(rzen_net::headers::Header::new(
            1, 2, 3, 4, 5,
        )));
        let mut cache = ResultCache::new();
        cache.insert(
            colliding,
            Key::shared(&a, NetOp::Reach, src, dst),
            Verdict::Unsat,
        );
        let get = |cache: &ResultCache, net, op, src, dst| {
            cache
                .get(colliding, KeyRef::shared(net, op, src, dst))
                .cloned()
        };

        assert_eq!(
            get(&cache, &a, NetOp::Reach, src, dst),
            Some(Verdict::Unsat)
        );
        assert_eq!(get(&cache, &b, NetOp::Reach, src, dst), None);
        assert_eq!(get(&cache, &a, NetOp::Drops, src, dst), None);
        assert_eq!(get(&cache, &a, NetOp::Reach, dst, src), None);
        assert_eq!(
            get(&cache, &a_again, NetOp::Reach, src, dst),
            Some(Verdict::Unsat)
        );

        cache.insert(
            colliding,
            Key::shared(&b, NetOp::Reach, src, dst),
            sat.clone(),
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(
            get(&cache, &a, NetOp::Reach, src, dst),
            Some(Verdict::Unsat)
        );
        assert_eq!(get(&cache, &b, NetOp::Reach, src, dst), Some(sat));
    }

    fn reach(net: &Network, src: (usize, u8), dst: (usize, u8)) -> Query {
        Query::Reach {
            net: net.clone(),
            src,
            dst,
        }
    }

    fn key(q: &Query) -> Key {
        KeyRef::of(q).owned()
    }

    fn get<'c>(cache: &'c ResultCache, fp: u64, q: &Query) -> Option<&'c Verdict> {
        cache.get(fp, KeyRef::of(q))
    }

    fn hits(cache: &ResultCache, q: &Query) -> bool {
        get(cache, q.fingerprint(), q).is_some()
    }

    fn insert_q(cache: &mut ResultCache, q: &Query) {
        cache.insert(q.fingerprint(), key(q), Verdict::Unsat);
    }

    /// The whole sweep, as the engine runs it.
    fn sweep(
        cache: &mut ResultCache,
        old: &Network,
        new: &SharedNet,
        steps: &[DeltaStep],
    ) -> DeltaCacheStats {
        let replays = cache.sweep_delta(old, new, steps);
        replays
            .settled()
            .unwrap_or_else(|| cache.readmit(replays.replay()))
    }

    /// The sweep evicts exactly the footprint-affected entries, re-keys
    /// the survivors to the new network, and leaves foreign entries
    /// (other kinds, other models) alone.
    #[test]
    fn sweep_evicts_by_footprint_and_rekeys_survivors() {
        // 2 spines, 3 leaves; edge ports are (leaf, 99).
        let old = rzen_net::gen::spine_leaf(2, 3);
        let (l0, l1, l2) = (2, 3, 4);
        let mut new = old.clone();
        // The delta: an ACL appears on l1's host port.
        new.devices[l1].interfaces.last_mut().unwrap().acl_in = Some(rzen_net::acl::Acl::default());
        let steps = [DeltaStep {
            pre: old.clone(),
            touch: Touch::Intf {
                device: l1,
                intf: 99,
            },
        }];

        let mut cache = ResultCache::new();
        let touched = reach(&old, (l0, 99), (l1, 99));
        let untouched = reach(&old, (l0, 99), (l2, 99));
        let foreign_kind = acl_query(1);
        insert_q(&mut cache, &touched);
        insert_q(&mut cache, &untouched);
        insert_q(&mut cache, &foreign_kind);
        assert_eq!(cache.len(), 3);

        let stats = sweep(&mut cache, &old, &SharedNet::new(new.clone()), &steps);
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 1,
                retained: 1,
                revalidated: 0,
                unaffected: 1,
            }
        );
        assert_eq!(cache.len(), 2);
        // The survivor answers under its *new* key, not its old one.
        let rekeyed = reach(&new, (l0, 99), (l2, 99));
        assert!(hits(&cache, &rekeyed));
        assert!(!hits(&cache, &untouched));
        // The evicted pair misses under both keys.
        let evicted_new = reach(&new, (l0, 99), (l1, 99));
        assert!(!hits(&cache, &evicted_new));
        // The foreign-kind entry still hits.
        assert!(hits(&cache, &foreign_kind));
    }

    /// `link-up` uses pre-op reachability: a link that could splice the
    /// pair's endpoints evicts, one in an unrelated component does not.
    #[test]
    fn sweep_link_up_uses_pre_op_reachability() {
        use rzen_net::device::Interface;
        use rzen_net::topology::Device;

        // a -- b, and isolated c: a->b cached. Linking b:2-c:1 cannot
        // create an a->b path (c is not between them)... but linking
        // c into the middle *could* matter for a->c.
        let mut old = Network::default();
        let mk = |name: &str, ports: &[u8]| Device {
            name: name.into(),
            interfaces: ports
                .iter()
                .map(|&p| Interface::new(p, Default::default()))
                .collect(),
        };
        let a = old.add_device(mk("a", &[1, 9]));
        let b = old.add_device(mk("b", &[1, 2, 9]));
        let c = old.add_device(mk("c", &[1, 9]));
        old.add_duplex(a, 1, b, 1);

        let mut new = old.clone();
        new.add_duplex(b, 2, c, 1);
        let steps = [DeltaStep {
            pre: old.clone(),
            touch: Touch::LinkUp {
                a: (b, 2),
                b: (c, 1),
            },
        }];

        let mut cache = ResultCache::new();
        let ab = reach(&old, (a, 9), (b, 9));
        let ac = reach(&old, (a, 9), (c, 9));
        insert_q(&mut cache, &ab);
        insert_q(&mut cache, &ac);
        let stats = sweep(&mut cache, &old, &SharedNet::new(new.clone()), &steps);
        // a->c: b was reachable from a and c reaches c, so the new link
        // can create a path — evict. a->b: the only splice would need c
        // to already reach b, and it did not — retain.
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.retained, 1);
        let ab_new = reach(&new, (a, 9), (b, 9));
        assert!(hits(&cache, &ab_new));
    }

    /// Removing a device shifts indices: every entry for that model goes.
    #[test]
    fn sweep_device_removal_evicts_the_model() {
        let old = rzen_net::gen::spine_leaf(2, 3);
        let mut new = old.clone();
        new.devices.remove(0);
        let steps = [DeltaStep {
            pre: old.clone(),
            touch: Touch::DeviceRemoved,
        }];
        let mut cache = ResultCache::new();
        insert_q(&mut cache, &reach(&old, (2, 99), (3, 99)));
        insert_q(&mut cache, &reach(&old, (2, 99), (4, 99)));
        let stats = sweep(&mut cache, &old, &SharedNet::new(new.clone()), &steps);
        assert_eq!(stats.evicted, 2);
        assert_eq!(cache.len(), 0);
    }

    /// A `spine_leaf(2, 3)` fabric, its leaves' host ports, and the same
    /// fabric with `deny-dport 23 23` inbound on leaf1's host port, as
    /// the one step of a delta.
    fn telnet_fence() -> (Network, [Port; 3], Network, [DeltaStep; 1]) {
        use rzen_net::acl::{Acl, AclRule};
        let old = rzen_net::gen::spine_leaf(2, 3);
        let hosts = [(2, 99), (3, 99), (4, 99)];
        let mut new = old.clone();
        new.devices[3].interfaces.last_mut().unwrap().acl_in = Some(Acl {
            rules: vec![
                AclRule {
                    dst_ports: (23, 23),
                    ..AclRule::any(false)
                },
                AclRule::any(true),
            ],
        });
        let step = DeltaStep {
            pre: old.clone(),
            touch: Touch::Intf {
                device: 3,
                intf: 99,
            },
        };
        (old, hosts, new, [step])
    }

    /// A packet from leaf1's hosts to leaf0's, to `dst_port`.
    fn l1_to_l0(dst_port: u16) -> Packet {
        let h = rzen_net::headers::Header::new(0x0a00_0001, 0x0a01_0001, dst_port, 1024, 6);
        Packet::plain(h)
    }

    fn sat(p: Packet) -> Verdict {
        Verdict::Sat(Witness::Packet(p))
    }

    /// Cache `verdict` for the `op` query between `src` and `dst` over
    /// `net`, keyed as a batch query's entry.
    fn insert_net(
        cache: &mut ResultCache,
        net: &Network,
        op: NetOp,
        src: Port,
        dst: Port,
        verdict: Verdict,
    ) {
        let q = op.query(net.clone(), src, dst);
        cache.insert(q.fingerprint(), key(&q), verdict);
    }

    fn get_shared(
        cache: &ResultCache,
        net: &SharedNet,
        op: NetOp,
        src: Port,
        dst: Port,
    ) -> Option<Verdict> {
        cache
            .get(
                net.fingerprint(op, src, dst),
                KeyRef::shared(net, op, src, dst),
            )
            .cloned()
    }

    /// An UNSAT verdict has no witness to replay: in the cone, it goes.
    #[test]
    fn an_in_cone_unsat_entry_is_evicted() {
        let (old, [l0, l1, _], new, steps) = telnet_fence();
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, Verdict::Unsat);
        let replays = cache.sweep_delta(&old, &SharedNet::new(new), &steps);
        assert_eq!(
            replays.settled(),
            Some(DeltaCacheStats {
                evicted: 1,
                ..DeltaCacheStats::default()
            }),
            "nothing to replay"
        );
        assert_eq!(cache.len(), 0);
    }

    /// A SAT entry in the cone whose packet the delta does not stop is
    /// kept, under the new handle's key: a probe through it hits.
    #[test]
    fn an_in_cone_sat_entry_whose_witness_survives_is_rekeyed_and_hit() {
        let (old, [l0, l1, _], new, steps) = telnet_fence();
        let new = SharedNet::new(new);
        let web = sat(l1_to_l0(80));
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, web.clone());
        let stats = sweep(&mut cache, &old, &new, &steps);
        assert_eq!(
            stats,
            DeltaCacheStats {
                retained: 1,
                revalidated: 1,
                ..DeltaCacheStats::default()
            }
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(get_shared(&cache, &new, NetOp::Reach, l1, l0), Some(web));
        assert!(!hits(&cache, &reach(&old, l1, l0)), "the old key must miss");
        // The entry shares the new handle's network.
        assert_eq!(Arc::strong_count(new.net()), 2);
    }

    /// A SAT entry whose packet the delta now drops is evicted.
    #[test]
    fn an_entry_with_a_refuted_witness_is_evicted() {
        let (old, [l0, l1, _], new, steps) = telnet_fence();
        let new = SharedNet::new(new);
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, sat(l1_to_l0(23)));
        let stats = sweep(&mut cache, &old, &new, &steps);
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 1,
                ..DeltaCacheStats::default()
            }
        );
        assert_eq!(cache.len(), 0);
        assert_eq!(get_shared(&cache, &new, NetOp::Reach, l1, l0), None);
    }

    /// Removing a device shifts indices, so no entry is replayed — even
    /// one whose witness would still fold true on the new network.
    #[test]
    fn remove_device_evicts_a_sat_entry_even_when_its_witness_holds() {
        let old = rzen_net::gen::spine_leaf(2, 3);
        let (l0, l1, l2) = ((2, 99), (3, 99), 4);
        let mut new = old.clone();
        new.devices.remove(l2);
        new.links
            .retain(|l| l.from_device != l2 && l.to_device != l2);
        let p = l1_to_l0(80);
        let paths = new.feasible_paths(l1.0, l1.1, l0.0, l0.1);
        assert!(witness_holds(&paths, NetOp::Reach, &p));
        let steps = [DeltaStep {
            pre: old.clone(),
            touch: Touch::DeviceRemoved,
        }];
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, sat(p));
        let replays = cache.sweep_delta(&old, &SharedNet::new(new), &steps);
        assert_eq!(
            replays.settled(),
            Some(DeltaCacheStats {
                evicted: 1,
                ..DeltaCacheStats::default()
            })
        );
        assert_eq!(cache.len(), 0);
    }

    /// Replays run off the lock, so a clear can land before they are
    /// re-admitted; it wins, and the witnesses it overtook stay out.
    #[test]
    fn a_clear_between_sweep_and_readmit_leaves_the_cache_empty() {
        let (old, [l0, l1, l2], new, steps) = telnet_fence();
        let new = SharedNet::new(new);
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, sat(l1_to_l0(80)));
        insert_net(&mut cache, &old, NetOp::Reach, l0, l2, Verdict::Unsat);
        let replays = cache.sweep_delta(&old, &new, &steps).replay();
        assert_eq!(cache.len(), 1, "the off-cone entry was re-keyed at once");
        cache.clear();
        let stats = cache.readmit(replays);
        assert_eq!(cache.len(), 0);
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 1,
                retained: 1,
                ..DeltaCacheStats::default()
            },
            "the replayed entry was dropped with the clear"
        );
        assert_eq!(get_shared(&cache, &new, NetOp::Reach, l1, l0), None);
    }

    #[test]
    fn insert_overwrites_same_query() {
        let q = acl_query(1);
        let fp = q.fingerprint();
        let mut cache = ResultCache::new();
        cache.insert(fp, key(&q), Verdict::Unsat);
        cache.insert(fp, key(&q), Verdict::Unsat);
        assert_eq!(get(&cache, fp, &q), Some(&Verdict::Unsat));
        assert_eq!(cache.map[&fp].len(), 1);
    }
}
