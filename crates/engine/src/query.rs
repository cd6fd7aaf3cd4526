//! Queries as plain data.
//!
//! A [`Query`] carries only `Send + Clone + Hash` model data — ACLs, route
//! maps, topologies — never `Zen<T>` handles, which are indices into a
//! thread-local arena and cannot cross threads. A topology is a
//! [`Network`] handle: the queries asked of one network share it, and
//! hashing one costs O(1) once the network's digest is known. Each worker
//! rebuilds the symbolic model from the data in its own context, which is
//! what makes the batch engine embarrassingly parallel; a worker's session
//! builds each ACL and route map once ([`rzen::SolverSession::find_model`]).

use std::hash::{Hash, Hasher};

use rzen::{Budget, FindOptions, FindOutcome, FindReport, SolverSession, Zen, ZenFunction};
use rzen_net::acl::Acl;
use rzen_net::device::{fold_paths, Hop};
use rzen_net::headers::{Header, Packet};
use rzen_net::routing::{Announcement, RouteMap};
use rzen_net::topology::Network;
use rzen_obs::Fnv1a;

/// Which solver pipeline(s) the engine runs for each query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryBackend {
    /// BDD backend only.
    Bdd,
    /// SAT/SMT backend only.
    Smt,
    /// Race both; first decisive verdict wins and cancels the other.
    Portfolio,
}

/// A verification query, as data. Variants mirror the paper's headline
/// analyses: ACL line reachability and route-map clause reachability
/// (Fig. 10), and packet reachability / drop search over a topology
/// (Figs. 6–7).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub enum Query {
    /// Find a header that is decided by ACL rule `target_line` (1-based;
    /// 0 = no rule matches). Unsat means the line is shadowed.
    AclFind {
        /// The access control list.
        acl: Acl,
        /// The rule line to hit.
        target_line: u16,
    },
    /// Find an announcement decided by route-map clause `target_clause`
    /// (1-based; 0 = falls off the end).
    RouteMapFind {
        /// The route map.
        map: RouteMap,
        /// The clause to hit.
        target_clause: u16,
        /// Symbolic list bound for communities / AS paths.
        list_bound: u16,
    },
    /// Find a packet delivered from `src` to `dst` along **some** simple
    /// path of the network ((device index, interface id) pairs). The
    /// solve folds over the pair's [`Network::feasible_paths`] only,
    /// which gives the same verdict.
    Reach {
        /// The network: a handle, so a query costs no copy of it.
        net: Network,
        /// Entry (device, interface).
        src: (usize, u8),
        /// Exit (device, interface).
        dst: (usize, u8),
    },
    /// Find a packet dropped on **every** simple path from `src` to `dst`.
    /// Unsat means the pair has full any-path delivery.
    Drops {
        /// The network.
        net: Network,
        /// Entry (device, interface).
        src: (usize, u8),
        /// Exit (device, interface).
        dst: (usize, u8),
    },
}

/// A `(device, interface)` endpoint of a [`Query::Reach`] or
/// [`Query::Drops`].
pub(crate) type Port = (usize, u8);

/// The two query kinds over a topology, [`Query::Reach`] and
/// [`Query::Drops`], without their data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetOp {
    /// [`Query::Reach`].
    Reach,
    /// [`Query::Drops`].
    Drops,
}

impl NetOp {
    /// The query of this kind over `net` from `src` to `dst`.
    pub fn query(self, net: Network, src: (usize, u8), dst: (usize, u8)) -> Query {
        match self {
            NetOp::Reach => Query::Reach { net, src, dst },
            NetOp::Drops => Query::Drops { net, src, dst },
        }
    }

    /// [`Query::kind`] of this kind's queries.
    pub fn kind(self) -> &'static str {
        match self {
            NetOp::Reach => "reach",
            NetOp::Drops => "drops",
        }
    }
}

/// A satisfying witness, concrete and checkable against the reference
/// semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum Witness {
    /// Header hitting the target ACL line.
    Header(Header),
    /// Announcement hitting the target route-map clause.
    Announcement(Box<Announcement>),
    /// Packet delivered (Reach) or universally dropped (Drops).
    Packet(Packet),
}

/// The engine's final answer for one query.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Satisfiable, with a witness.
    Sat(Witness),
    /// Proven unsatisfiable.
    Unsat,
    /// The wall-clock budget expired before a verdict.
    Timeout,
    /// Cancelled (portfolio loser, or an explicit cancel) before a
    /// verdict; the deadline had not passed.
    Cancelled,
    /// The query panicked inside a worker (an invariant violation in the
    /// model or a backend bug). Never cached; carries the panic message.
    Error(String),
}

impl Verdict {
    /// Is this a decisive (`Sat`/`Unsat`) verdict? Only decisive verdicts
    /// enter the result cache.
    pub fn is_decisive(&self) -> bool {
        matches!(self, Verdict::Sat(_) | Verdict::Unsat)
    }

    /// Classify for the flight recorder (drops the witness / message).
    pub fn class(&self) -> rzen_obs::VerdictClass {
        match self {
            Verdict::Sat(_) => rzen_obs::VerdictClass::Sat,
            Verdict::Unsat => rzen_obs::VerdictClass::Unsat,
            Verdict::Timeout => rzen_obs::VerdictClass::Timeout,
            Verdict::Cancelled => rzen_obs::VerdictClass::Cancelled,
            Verdict::Error(_) => rzen_obs::VerdictClass::Error,
        }
    }
}

impl Query {
    /// Structural fingerprint used as the result-cache hash: FNV-1a over
    /// the query's derived hash stream, so identical queries — however
    /// they were constructed — share a cache slot.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.hash(&mut h);
        h.finish()
    }

    /// Fingerprint of the *model* part only (ACL / route map / network),
    /// ignoring the target line/clause or src/dst pair. Queries sharing a
    /// model fingerprint share most of their circuit, so the engine's
    /// affinity dispatch routes them to the same worker session.
    pub fn model_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        match self {
            Query::AclFind { acl, .. } => {
                0u8.hash(&mut h);
                acl.hash(&mut h);
            }
            Query::RouteMapFind {
                map, list_bound, ..
            } => {
                1u8.hash(&mut h);
                map.hash(&mut h);
                list_bound.hash(&mut h);
            }
            // Reach and Drops over the same topology share the forwarding
            // encoding; hash only the network.
            Query::Reach { net, .. } | Query::Drops { net, .. } => {
                2u8.hash(&mut h);
                net.hash(&mut h);
            }
        }
        h.finish()
    }

    /// The network, kind and endpoints of a `Reach`/`Drops`; `None` for
    /// the other kinds.
    pub(crate) fn as_net(&self) -> Option<(&Network, NetOp, Port, Port)> {
        match self {
            Query::Reach { net, src, dst } => Some((net, NetOp::Reach, *src, *dst)),
            Query::Drops { net, src, dst } => Some((net, NetOp::Drops, *src, *dst)),
            _ => None,
        }
    }

    /// Solve the query through `session` on the calling thread, rebuilding
    /// the model in the thread-local context the session's caches key on:
    /// an ACL or route map through the session's model memo
    /// ([`SolverSession::find_model`]), a topology through
    /// [`ZenFunction::find_in_session`]. The session's backend decides.
    ///
    /// `Reach` and `Drops` fold over the pair's
    /// [`Network::feasible_paths`], not all its simple paths: a path no
    /// packet survives is `false` in the reach fold and `true` in the
    /// drops fold, so leaving it out changes no verdict, only the size of
    /// the formula. A pair with no feasible path is answered without a
    /// solve.
    pub(crate) fn run(&self, session: &mut SolverSession, budget: &Budget) -> FindReport<Witness> {
        match self {
            Query::AclFind { acl, target_line } => {
                let target = *target_line;
                let pred = |_, line: Zen<u16>| line.eq(Zen::val(target));
                let opts = FindOptions::default();
                let report = session.find_model(acl, Acl::matched_line, pred, &opts, budget);
                output(report, Witness::Header)
            }
            Query::RouteMapFind {
                map,
                target_clause,
                list_bound,
            } => {
                let target = *target_clause;
                let pred = |_, clause: Zen<u16>| clause.eq(Zen::val(target));
                let opts = FindOptions::default().with_list_bound(*list_bound);
                let report = session.find_model(map, RouteMap::matched_clause, pred, &opts, budget);
                output(report, |a| Witness::Announcement(Box::new(a)))
            }
            Query::Reach { net, src, dst } | Query::Drops { net, src, dst } => {
                let reach = matches!(self, Query::Reach { .. });
                let paths = net.feasible_paths(src.0, src.1, dst.0, dst.1);
                if paths.is_empty() {
                    // No path any packet survives: nothing is delivered,
                    // and every packet is dropped.
                    let h = Header::new(0, 0, 0, 0, 0);
                    return FindReport {
                        outcome: if reach {
                            FindOutcome::Unsat
                        } else {
                            FindOutcome::Found(Witness::Packet(Packet::plain(h)))
                        },
                        sat_stats: None,
                        bdd_stats: None,
                    };
                }
                // The model is the identity on the packet; the formula is
                // built in the predicate, which may borrow `paths`.
                let f = ZenFunction::new(|p: Zen<Packet>| p);
                let cond = |p, _| {
                    if reach {
                        delivered_on_some(&paths, p)
                    } else {
                        dropped_on_all(&paths, p)
                    }
                };
                let report = f.find_in_session(cond, &FindOptions::default(), budget, session);
                output(report, Witness::Packet)
            }
        }
    }

    /// Check a witness against the concrete reference semantics (exact
    /// simulation — no solver involved). Used by the differential tests to
    /// validate engine output independently of the backend that found it.
    /// A `Reach` or `Drops` witness is folded over **all** the pair's
    /// simple paths ([`Network::paths`]), not the feasible ones the solve
    /// used, so this also checks the pruning.
    pub fn check_witness(&self, w: &Witness) -> bool {
        match (self, w) {
            (Query::AclFind { acl, target_line }, Witness::Header(h)) => {
                acl.matched_line_concrete(h) == *target_line
            }
            (
                Query::RouteMapFind {
                    map, target_clause, ..
                },
                Witness::Announcement(a),
            ) => {
                let decided = map
                    .clauses
                    .iter()
                    .position(|c| c.matches_concrete(a))
                    .map(|i| i as u16 + 1)
                    .unwrap_or(0);
                decided == *target_clause
            }
            (Query::Reach { net, src, dst }, Witness::Packet(p)) => {
                witness_holds(&net.paths(src.0, src.1, dst.0, dst.1), NetOp::Reach, p)
            }
            (Query::Drops { net, src, dst }, Witness::Packet(p)) => {
                witness_holds(&net.paths(src.0, src.1, dst.0, dst.1), NetOp::Drops, p)
            }
            _ => false,
        }
    }

    /// Short label for progress and stats output.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::AclFind { .. } => "acl-find",
            Query::RouteMapFind { .. } => "route-map-find",
            Query::Reach { .. } => "reach",
            Query::Drops { .. } => "drops",
        }
    }
}

/// Does `p` witness an `op` query whose pair has `paths`? The solver's
/// own condition — delivered on some path, or dropped on every one —
/// folded with `p` as a constant, so it builds expressions in the calling
/// thread's context. [`Query::check_witness`] passes the pair's simple
/// paths; a delta sweep passes its feasible paths on the new network, the
/// cheaper fold with the same value: where it still holds, the cached
/// SAT verdict is still a correct answer.
pub(crate) fn witness_holds(paths: &[Vec<Hop<'_>>], op: NetOp, p: &Packet) -> bool {
    let p = Zen::constant(p);
    holds(match op {
        NetOp::Reach => delivered_on_some(paths, p),
        NetOp::Drops => dropped_on_all(paths, p),
    })
}

/// Some path delivers `p`.
fn delivered_on_some(paths: &[Vec<Hop<'_>>], p: Zen<Packet>) -> Zen<bool> {
    fold_paths(paths, p, Zen::bool(false), |any, out| any.or(out.is_some()))
}

/// Every path drops `p`.
fn dropped_on_all(paths: &[Vec<Hop<'_>>], p: Zen<Packet>) -> Zen<bool> {
    fold_paths(paths, p, Zen::bool(true), |all, out| all.and(out.is_none()))
}

/// The value of a condition built from constants only.
fn holds(c: Zen<bool>) -> bool {
    rzen::with_ctx(|ctx| ctx.eval_const(c.expr_id()).as_bool())
}

/// A find report with its input read as a witness.
fn output<A>(report: FindReport<A>, witness: impl FnOnce(A) -> Witness) -> FindReport<Witness> {
    FindReport {
        outcome: match report.outcome {
            FindOutcome::Found(a) => FindOutcome::Found(witness(a)),
            FindOutcome::Unsat => FindOutcome::Unsat,
            FindOutcome::Cancelled => FindOutcome::Cancelled,
        },
        sat_stats: report.sat_stats,
        bdd_stats: report.bdd_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rzen_net::acl::AclRule;
    use rzen_net::ip::{ip, Prefix};

    fn acl() -> Acl {
        Acl {
            rules: vec![
                AclRule {
                    permit: false,
                    dst: Prefix::new(ip(10, 0, 0, 0), 8),
                    dst_ports: (22, 22),
                    ..AclRule::any(false)
                },
                AclRule::any(true),
            ],
        }
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = Query::AclFind {
            acl: acl(),
            target_line: 2,
        };
        let b = Query::AclFind {
            acl: acl(),
            target_line: 2,
        };
        let c = Query::AclFind {
            acl: acl(),
            target_line: 1,
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn acl_find_witness_checks_out() {
        let q = Query::AclFind {
            acl: acl(),
            target_line: 1,
        };
        rzen::reset_ctx();
        let mut session = SolverSession::new(rzen::Backend::Bdd);
        let out = q.run(&mut session, &Budget::unlimited());
        let FindOutcome::Found(w) = out.outcome else {
            panic!("line 1 is reachable");
        };
        assert!(q.check_witness(&w));
        assert!(out.bdd_stats.is_some());
        assert!(out.sat_stats.is_none());
    }
}
