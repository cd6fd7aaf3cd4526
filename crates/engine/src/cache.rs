//! The result cache, keyed on the query itself.
//!
//! The fingerprint is a 64-bit FNV-1a hash — fast to compare and stable,
//! but *not* collision-free, so it only selects a bucket. Within a bucket
//! queries are compared structurally; a colliding fingerprint therefore
//! costs one extra comparison instead of silently serving another
//! query's verdict (and witness).
//!
//! A `Reach`/`Drops` query holds its [`Network`] as a handle to one
//! shared value, so the entries of every query asked of one network hold
//! that network once between them, and a lookup through a handle to it
//! matches by pointer. A network built apart is compared in full: a
//! pointer match only ever saves the compare, it never replaces it with
//! something weaker.
//!
//! A model delta keeps an entry's verdict exactly when the delta left
//! the pair's feasible paths as they were ([`ResultCache::sweep_delta`]).
//! The pairs whose paths it changed are the delta's *cone*.

use std::collections::HashMap;
use std::thread;

use rzen_net::headers::Packet;
use rzen_net::topology::{FeasibleWalker, Network, NetworkData};

use crate::query::{witness_holds, NetOp, Port, Query, Verdict, Witness};

/// How a delta sweep disposed of the cache's entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaCacheStats {
    /// Entries whose verdict the delta may have changed: dropped. These
    /// are the entries in the delta's cone (their pair's feasible paths
    /// changed), less those `revalidated`.
    pub evicted: usize,
    /// Entries kept warm: re-keyed to the new network, so a post-delta
    /// identical query hits them without a solve. Counts the entries
    /// off the cone and the `revalidated` ones.
    pub retained: usize,
    /// Of `retained`, the in-cone SAT entries whose witness still holds
    /// on the new network.
    pub revalidated: usize,
    /// Entries the sweep did not reason about (other query kinds, other
    /// models): left in place untouched.
    pub unaffected: usize,
}

/// Verdicts of decisive queries, with the query's structural
/// fingerprint as the hash.
#[derive(Debug, Default)]
pub(crate) struct ResultCache {
    map: HashMap<u64, Vec<(Query, Verdict)>>,
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

    /// The cached verdict for `query`, if this exact question was decided
    /// before. `fingerprint` must be the query's [`Query::fingerprint`];
    /// a bucket match alone is never enough.
    pub(crate) fn get(&self, fingerprint: u64, query: &Query) -> Option<&Verdict> {
        self.map
            .get(&fingerprint)?
            .iter()
            .find(|(q, _)| q == query)
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

    /// Record a verdict for `query`.
    pub(crate) fn insert(&mut self, fingerprint: u64, query: Query, verdict: Verdict) {
        let bucket = self.map.entry(fingerprint).or_default();
        match bucket.iter_mut().find(|(q, _)| *q == query) {
            Some(slot) => slot.1 = verdict,
            None => {
                bucket.push((query, verdict));
                self.count += 1;
            }
        }
    }

    /// Cached entries across all buckets.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The sweep behind [`crate::Engine::apply_delta`]: walk every cached
    /// `Reach`/`Drops` entry over `old_net` and keep its verdict iff the
    /// pair's feasible paths on `new` equal those on `old_net`, hop for
    /// hop. A verdict is the fold over those paths, which reads nothing
    /// of a hop but the interface halves `Hop`'s equality compares, so
    /// equal paths give an equal verdict.
    /// The rule compares the two final networks, so it holds for any
    /// sequence of ops, device renumbering included.
    ///
    /// A kept entry is re-keyed to `new` (sharing its handle) so
    /// identical post-delta queries keep hitting it. Of the entries whose
    /// paths changed, an UNSAT verdict is evicted: nothing short of a
    /// solve re-proves it. A SAT verdict carries its packet, which
    /// [`Replays::replay`] folds through the new network; the caller
    /// re-admits the packets that still witness their query with
    /// [`ResultCache::readmit`], and the refuted ones are evicted. An
    /// entry whose endpoint device `new` no longer has (a
    /// `remove-device`) is evicted outright.
    ///
    /// Entries for other query kinds or other models are left untouched.
    /// Each distinct entry network is compared with `old_net` once, and
    /// not at all when it *is* `old_net`; each pair's paths are compared
    /// once, for its `Reach` and `Drops` alike.
    pub(crate) fn sweep_delta(&mut self, old_net: &Network, new: &Network) -> Replays {
        let mut stats = DeltaCacheStats::default();
        let mut witnesses = Vec::new();
        let devices = new.devices.len();
        let (mut old_paths, mut new_paths) =
            (FeasibleWalker::new(old_net), FeasibleWalker::new(new));
        let mut unchanged: HashMap<(Port, Port), bool> = HashMap::new();
        // Which entry networks are `old_net`, by the address of their
        // shared value. Taken while every entry is alive, so distinct
        // values have distinct addresses.
        let mut of_old: HashMap<*const NetworkData, bool> = HashMap::new();
        for (query, _) in self.map.values().flatten() {
            if let Some((net, ..)) = query.as_net() {
                of_old.entry(&**net).or_insert_with(|| net == old_net);
            }
        }

        let mut kept: HashMap<u64, Vec<(Query, Verdict)>> = HashMap::new();
        let mut count = 0usize;
        for (fp, bucket) in self.map.drain() {
            for (query, v) in bucket {
                let (op, src, dst) = match query.as_net() {
                    Some((net, op, src, dst)) if of_old[&(&**net as *const _)] => (op, src, dst),
                    _ => {
                        stats.unaffected += 1;
                        count += 1;
                        kept.entry(fp).or_default().push((query, v));
                        continue;
                    }
                };
                // `Network::walk` panics on a device index out of range
                // (a poisoned query relies on it), so check first.
                let live = src.0 < devices && dst.0 < devices;
                let same = live
                    && *unchanged.entry((src, dst)).or_insert_with(|| {
                        old_paths.paths(src.0, src.1, dst.0, dst.1)
                            == new_paths.paths(src.0, src.1, dst.0, dst.1)
                    });
                if !same {
                    match v {
                        Verdict::Sat(Witness::Packet(p)) if live => {
                            witnesses.push((op, src, dst, p));
                        }
                        _ => stats.evicted += 1,
                    }
                    continue;
                }
                stats.retained += 1;
                // Re-key: the verdict transfers to the new network, and a
                // post-delta query — which names the new network — can
                // only hit it under the new fingerprint.
                count += 1;
                let rekeyed = op.query(new.clone(), src, dst);
                kept.entry(rekeyed.fingerprint())
                    .or_default()
                    .push((rekeyed, v));
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
            let query = op.query(new.clone(), src, dst);
            self.insert(query.fingerprint(), query, Verdict::Sat(Witness::Packet(p)));
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
    new: Network,
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
    /// it, so the caller's context does not grow; one walker serves all
    /// their paths. If that thread cannot run or panics, nothing is
    /// kept: an eviction only costs a solve.
    pub(crate) fn replay(mut self) -> Replays {
        let _span = rzen_obs::span!("engine.sweep.replay", "witnesses" => self.pending as u64);
        let (net, witnesses) = (&self.new, std::mem::take(&mut self.witnesses));
        self.witnesses = thread::scope(|s| {
            thread::Builder::new()
                .name("rzen-replay".into())
                .spawn_scoped(s, || {
                    let mut walker = FeasibleWalker::new(net);
                    witnesses
                        .into_iter()
                        .filter(|(op, src, dst, p)| {
                            let paths = walker.paths(src.0, src.1, dst.0, dst.1);
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
        cache.insert(colliding, a.clone(), Verdict::Unsat);
        cache.insert(
            colliding,
            b.clone(),
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

    /// Network queries are held to the same guard: two different
    /// networks forced into one fingerprint never answer for each other,
    /// nor do other kinds or pairs over one network, while an equal
    /// network built apart still does.
    #[test]
    fn forced_collision_between_networks_does_not_cross_serve_through_a_handle() {
        let colliding = 0xdead_beef_u64;
        let a = rzen_net::gen::spine_leaf(2, 3);
        let b = rzen_net::gen::spine_leaf(2, 4);
        let a_again = rzen_net::gen::spine_leaf(2, 3);
        assert!(!Network::ptr_eq(&a, &a_again));
        let (src, dst) = ((2, 99), (3, 99));
        let sat = Verdict::Sat(crate::Witness::Header(rzen_net::headers::Header::new(
            1, 2, 3, 4, 5,
        )));
        let mut cache = ResultCache::new();
        cache.insert(
            colliding,
            NetOp::Reach.query(a.clone(), src, dst),
            Verdict::Unsat,
        );
        let get = |cache: &ResultCache, net: &Network, op: NetOp, src, dst| {
            cache
                .get(colliding, &op.query(net.clone(), src, dst))
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
            NetOp::Reach.query(b.clone(), src, dst),
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

    fn get<'c>(cache: &'c ResultCache, fp: u64, q: &Query) -> Option<&'c Verdict> {
        cache.get(fp, q)
    }

    fn hits(cache: &ResultCache, q: &Query) -> bool {
        get(cache, q.fingerprint(), q).is_some()
    }

    fn insert_q(cache: &mut ResultCache, q: &Query) {
        cache.insert(q.fingerprint(), q.clone(), Verdict::Unsat);
    }

    /// The whole sweep, as the engine runs it.
    fn sweep(cache: &mut ResultCache, old: &Network, new: &Network) -> DeltaCacheStats {
        let replays = cache.sweep_delta(old, new);
        replays
            .settled()
            .unwrap_or_else(|| cache.readmit(replays.replay()))
    }

    /// The sweep evicts exactly the entries whose pair's footprint, its
    /// feasible paths, the delta changed, re-keys the survivors to the
    /// new network, and leaves foreign entries (other kinds, other
    /// models) alone.
    #[test]
    fn sweep_evicts_by_footprint_and_rekeys_survivors() {
        // 2 spines, 3 leaves; edge ports are (leaf, 99).
        let old = rzen_net::gen::spine_leaf(2, 3);
        let (l0, l1, l2) = (2, 3, 4);
        let mut new = old.clone();
        // The delta: an outbound ACL appears on l1's host port, the port
        // every path into l1 leaves through.
        new.devices[l1].interfaces.last_mut().unwrap().acl_out =
            Some(rzen_net::acl::Acl::default());

        let mut cache = ResultCache::new();
        let touched = reach(&old, (l0, 99), (l1, 99));
        let untouched = reach(&old, (l0, 99), (l2, 99));
        let foreign_kind = acl_query(1);
        insert_q(&mut cache, &touched);
        insert_q(&mut cache, &untouched);
        insert_q(&mut cache, &foreign_kind);
        assert_eq!(cache.len(), 3);

        let stats = sweep(&mut cache, &old, &new);
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

    /// A `link-up` that gives a pair no new feasible path keeps its
    /// entry. Here no table routes anything, so no pair has a feasible
    /// path before or after linking c to b, and both entries stay.
    #[test]
    fn sweep_keeps_the_pairs_a_link_up_gives_no_feasible_path() {
        use rzen_net::device::Interface;
        use rzen_net::topology::Device;

        // a -- b, and isolated c: a->b and a->c cached, then b:2 -- c:1.
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

        let mut cache = ResultCache::new();
        let ab = reach(&old, (a, 9), (b, 9));
        let ac = reach(&old, (a, 9), (c, 9));
        insert_q(&mut cache, &ab);
        insert_q(&mut cache, &ac);
        let stats = sweep(&mut cache, &old, &new);
        assert_eq!(
            stats,
            DeltaCacheStats {
                retained: 2,
                ..DeltaCacheStats::default()
            }
        );
        assert!(hits(&cache, &reach(&new, (a, 9), (b, 9))));
        assert!(hits(&cache, &reach(&new, (a, 9), (c, 9))));
    }

    /// `spine_leaf(2, 3)` as a spec, and the same spec with `device`
    /// removed by the delta applier: its links go and the devices after
    /// it move down one index.
    fn without(device: &str) -> (Network, Network) {
        let mut spec = rzen_net::spec::Spec::from_network(rzen_net::gen::spine_leaf(2, 3)).unwrap();
        let old = spec.net.clone();
        let op = rzen_delta::DeltaOp::RemoveDevice {
            name: device.into(),
        };
        rzen_delta::apply(&mut spec, &op).unwrap();
        (old, spec.net)
    }

    /// Removing a spine moves every leaf down one index: one cached pair
    /// now names other leaves, whose paths differ, and the other names a
    /// device that is gone. Both UNSAT entries go.
    #[test]
    fn sweep_device_removal_evicts_the_model() {
        let (old, new) = without("spine0");
        assert_eq!(new.devices.len(), 4);
        let mut cache = ResultCache::new();
        insert_q(&mut cache, &reach(&old, (2, 99), (3, 99)));
        insert_q(&mut cache, &reach(&old, (2, 99), (4, 99)));
        let stats = sweep(&mut cache, &old, &new);
        assert_eq!(stats.evicted, 2);
        assert_eq!(cache.len(), 0);
    }

    /// A `spine_leaf(2, 3)` fabric, its leaves' host ports, and the same
    /// fabric with `deny-dport 23 23` inbound on leaf1's host port.
    fn telnet_fence() -> (Network, [Port; 3], Network) {
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
        (old, hosts, new)
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
    /// `net`.
    fn insert_net(
        cache: &mut ResultCache,
        net: &Network,
        op: NetOp,
        src: Port,
        dst: Port,
        verdict: Verdict,
    ) {
        let q = op.query(net.clone(), src, dst);
        cache.insert(q.fingerprint(), q, verdict);
    }

    fn get_net(
        cache: &ResultCache,
        net: &Network,
        op: NetOp,
        src: Port,
        dst: Port,
    ) -> Option<Verdict> {
        let q = op.query(net.clone(), src, dst);
        cache.get(q.fingerprint(), &q).cloned()
    }

    /// An UNSAT verdict has no witness to replay: in the cone, it goes.
    #[test]
    fn an_in_cone_unsat_entry_is_evicted() {
        let (old, [l0, l1, _], new) = telnet_fence();
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, Verdict::Unsat);
        let replays = cache.sweep_delta(&old, &new);
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
    /// kept, under the new network's handle: a lookup through it hits.
    #[test]
    fn an_in_cone_sat_entry_whose_witness_survives_is_rekeyed_and_hit() {
        let (old, [l0, l1, _], new) = telnet_fence();
        let web = sat(l1_to_l0(80));
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, web.clone());
        let stats = sweep(&mut cache, &old, &new);
        assert_eq!(
            stats,
            DeltaCacheStats {
                retained: 1,
                revalidated: 1,
                ..DeltaCacheStats::default()
            }
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(get_net(&cache, &new, NetOp::Reach, l1, l0), Some(web));
        assert!(!hits(&cache, &reach(&old, l1, l0)), "the old key must miss");
        // The entry shares the new network's value.
        let (entry, _) = &cache.map.values().next().unwrap()[0];
        assert!(Network::ptr_eq(entry.as_net().unwrap().0, &new));
    }

    /// A SAT entry whose packet the delta now drops is evicted.
    #[test]
    fn an_entry_with_a_refuted_witness_is_evicted() {
        let (old, [l0, l1, _], new) = telnet_fence();
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, sat(l1_to_l0(23)));
        let stats = sweep(&mut cache, &old, &new);
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 1,
                ..DeltaCacheStats::default()
            }
        );
        assert_eq!(cache.len(), 0);
        assert_eq!(get_net(&cache, &new, NetOp::Reach, l1, l0), None);
    }

    /// After a `remove-device`, a pair whose devices both remain is held
    /// to the rule like any other: leaf0's removal moves leaf1 and leaf2
    /// onto its indices, their paths differ, and the drops entry replays
    /// its packet, which no table routes, and keeps it. A pair naming an
    /// index the new network lacks is evicted without a replay.
    #[test]
    fn remove_device_replays_a_live_pair_and_evicts_a_gone_one() {
        let (old, new) = without("leaf0");
        let (l0, l1, l2) = ((2, 99), (3, 99), (4, 99));
        let unrouted = sat(Packet::plain(rzen_net::headers::Header::new(
            0x0b00_0001,
            0x0a00_0001,
            80,
            1024,
            6,
        )));
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Drops, l0, l1, unrouted.clone());
        insert_net(&mut cache, &old, NetOp::Reach, l1, l2, sat(l1_to_l0(80)));
        let replays = cache.sweep_delta(&old, &new);
        assert_eq!(replays.settled(), None, "the live pair replays");
        assert_eq!(cache.len(), 0);
        let stats = cache.readmit(replays.replay());
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 1,
                retained: 1,
                revalidated: 1,
                unaffected: 0,
            }
        );
        assert_eq!(get_net(&cache, &new, NetOp::Drops, l0, l1), Some(unrouted));
    }

    /// Replays run off the lock, so a clear can land before they are
    /// re-admitted; it wins, and the witnesses it overtook stay out.
    #[test]
    fn a_clear_between_sweep_and_readmit_leaves_the_cache_empty() {
        let (old, [l0, l1, l2], new) = telnet_fence();
        let mut cache = ResultCache::new();
        insert_net(&mut cache, &old, NetOp::Reach, l1, l0, sat(l1_to_l0(80)));
        insert_net(&mut cache, &old, NetOp::Reach, l0, l2, Verdict::Unsat);
        let replays = cache.sweep_delta(&old, &new).replay();
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
        assert_eq!(get_net(&cache, &new, NetOp::Reach, l1, l0), None);
    }

    #[test]
    fn insert_overwrites_same_query() {
        let q = acl_query(1);
        let fp = q.fingerprint();
        let mut cache = ResultCache::new();
        cache.insert(fp, q.clone(), Verdict::Unsat);
        cache.insert(fp, q.clone(), Verdict::Unsat);
        assert_eq!(get(&cache, fp, &q), Some(&Verdict::Unsat));
        assert_eq!(cache.map[&fp].len(), 1);
    }
}
