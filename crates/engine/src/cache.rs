//! The result cache, keyed on the full [`Query`].
//!
//! The fingerprint is a 64-bit FNV-1a hash — fast to compare and stable,
//! but *not* collision-free, so it only selects a bucket. Within a bucket
//! the stored queries are compared structurally (`Query: Eq`); a colliding
//! fingerprint therefore costs one extra comparison instead of silently
//! serving another query's verdict (and witness).

use std::collections::{HashMap, HashSet};

use rzen_net::topology::{DeltaStep, Network, Touch};

use crate::query::{Query, Verdict};

/// How a delta sweep disposed of the cache's entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaCacheStats {
    /// Entries whose cone of influence a delta op touched: dropped.
    pub evicted: usize,
    /// Entries proven unaffected: re-keyed to the new network and kept
    /// warm (a post-delta identical query hits them without a solve).
    pub retained: usize,
    /// Entries the sweep did not reason about (other query kinds, other
    /// models): left in place untouched.
    pub unaffected: usize,
}

/// A `(device, interface)` endpoint, as footprints and touches name them.
type Port = (usize, u8);

/// Verdicts of decisive queries, keyed by full query with the structural
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

    /// The cached verdict for `query`, if this exact query was decided
    /// before. `fingerprint` must be `query.fingerprint()` (passed in so
    /// callers hash once); a bucket match alone is never enough.
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
    pub(crate) fn insert(&mut self, fingerprint: u64, query: &Query, verdict: Verdict) {
        let bucket = self.map.entry(fingerprint).or_default();
        match bucket.iter_mut().find(|(q, _)| q == query) {
            Some(slot) => slot.1 = verdict,
            None => {
                bucket.push((query.clone(), verdict));
                self.count += 1;
            }
        }
    }

    /// Cached entries across all buckets.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The dependency-aware sweep behind [`crate::Engine::apply_delta`]:
    /// walk every cached `Reach`/`Drops` entry keyed by `old_net`, evict
    /// the ones whose cone of influence a delta step touched, and re-key
    /// the survivors to `new_net` (recomputing their fingerprints) so
    /// identical post-delta queries keep hitting them. Entries for other
    /// query kinds or other models are left untouched.
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
    /// evicted the entry.
    pub(crate) fn sweep_delta(
        &mut self,
        old_net: &Network,
        new_net: &Network,
        steps: &[DeltaStep],
    ) -> DeltaCacheStats {
        let mut stats = DeltaCacheStats::default();
        let device_removed = steps
            .iter()
            .any(|s| matches!(s.touch, Touch::DeviceRemoved));
        let mut footprints: HashMap<(Port, Port), HashSet<Port>> = HashMap::new();
        // Per-step memoized link closures for the LinkUp rule.
        let mut reach: Vec<HashMap<usize, HashSet<usize>>> =
            steps.iter().map(|_| HashMap::new()).collect();
        let mut coreach: Vec<HashMap<usize, HashSet<usize>>> =
            steps.iter().map(|_| HashMap::new()).collect();

        let mut kept: HashMap<u64, Vec<(Query, Verdict)>> = HashMap::new();
        let mut count = 0usize;
        for (fp, bucket) in self.map.drain() {
            for (q, v) in bucket {
                let (src, dst) = match &q {
                    Query::Reach { net, src, dst } | Query::Drops { net, src, dst }
                        if net == old_net =>
                    {
                        (*src, *dst)
                    }
                    _ => {
                        stats.unaffected += 1;
                        count += 1;
                        kept.entry(fp).or_default().push((q, v));
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
                    stats.evicted += 1;
                    continue;
                }
                stats.retained += 1;
                // Re-key: the surviving verdict transfers to the new
                // network (nothing on any of its paths changed), and a
                // post-delta query — which embeds the new network — can
                // only hit it under the new fingerprint.
                let q2 = match q {
                    Query::Reach { src, dst, .. } => Query::Reach {
                        net: new_net.clone(),
                        src,
                        dst,
                    },
                    Query::Drops { src, dst, .. } => Query::Drops {
                        net: new_net.clone(),
                        src,
                        dst,
                    },
                    _ => unreachable!("only Reach/Drops reach the re-key arm"),
                };
                let fp2 = q2.fingerprint();
                count += 1;
                kept.entry(fp2).or_default().push((q2, v));
            }
        }
        self.map = kept;
        self.count = count;
        self.sweeps += 1;
        stats
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
        cache.insert(colliding, &a, Verdict::Unsat);
        cache.insert(
            colliding,
            &b,
            Verdict::Sat(crate::Witness::Header(rzen_net::headers::Header::new(
                1, 2, 3, 4, 5,
            ))),
        );

        assert_eq!(cache.get(colliding, &a), Some(&Verdict::Unsat));
        assert!(matches!(cache.get(colliding, &b), Some(&Verdict::Sat(_))));
        // The old u64-keyed cache returned *something* here; now a query
        // that merely collides must miss.
        assert_eq!(cache.get(colliding, &c), None);
    }

    fn reach(net: &Network, src: (usize, u8), dst: (usize, u8)) -> Query {
        Query::Reach {
            net: net.clone(),
            src,
            dst,
        }
    }

    fn insert_q(cache: &mut ResultCache, q: &Query) {
        cache.insert(q.fingerprint(), q, Verdict::Unsat);
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

        let stats = cache.sweep_delta(&old, &new, &steps);
        assert_eq!(
            stats,
            DeltaCacheStats {
                evicted: 1,
                retained: 1,
                unaffected: 1,
            }
        );
        assert_eq!(cache.len(), 2);
        // The survivor answers under its *new* key, not its old one.
        let rekeyed = reach(&new, (l0, 99), (l2, 99));
        assert!(cache.get(rekeyed.fingerprint(), &rekeyed).is_some());
        assert!(cache.get(untouched.fingerprint(), &untouched).is_none());
        // The evicted pair misses under both keys.
        let evicted_new = reach(&new, (l0, 99), (l1, 99));
        assert!(cache.get(evicted_new.fingerprint(), &evicted_new).is_none());
        // The foreign-kind entry still hits.
        assert!(cache
            .get(foreign_kind.fingerprint(), &foreign_kind)
            .is_some());
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
        let stats = cache.sweep_delta(&old, &new, &steps);
        // a->c: b was reachable from a and c reaches c, so the new link
        // can create a path — evict. a->b: the only splice would need c
        // to already reach b, and it did not — retain.
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.retained, 1);
        let ab_new = reach(&new, (a, 9), (b, 9));
        assert!(cache.get(ab_new.fingerprint(), &ab_new).is_some());
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
        let stats = cache.sweep_delta(&old, &new, &steps);
        assert_eq!(stats.evicted, 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn insert_overwrites_same_query() {
        let q = acl_query(1);
        let fp = q.fingerprint();
        let mut cache = ResultCache::new();
        cache.insert(fp, &q, Verdict::Unsat);
        cache.insert(fp, &q, Verdict::Unsat);
        assert_eq!(cache.get(fp, &q), Some(&Verdict::Unsat));
        assert_eq!(cache.map[&fp].len(), 1);
    }
}
