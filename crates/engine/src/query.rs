//! Queries as plain data.
//!
//! A [`Query`] carries only `Send + Clone + Hash` model data — ACLs, route
//! maps, topologies — never `Zen<T>` handles, which are indices into a
//! thread-local arena and cannot cross threads. Each worker rebuilds the
//! symbolic model from the data in its own context, which is cheap next to
//! solving and is what makes the batch engine embarrassingly parallel.

use std::hash::{Hash, Hasher};

use rzen::{Budget, FindOptions, FindOutcome, Zen, ZenFunction};
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
    /// path of the network ((device index, interface id) pairs).
    Reach {
        /// The network.
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

/// Raw result of running one backend on one query.
#[derive(Clone, Debug)]
pub(crate) struct RunOutput {
    pub outcome: FindOutcome<Witness>,
    pub sat_stats: Option<rzen_sat::Stats>,
    pub bdd_stats: Option<rzen_bdd::BddStats>,
}

/// How a query executes: a throwaway context per query, or through a
/// long-lived per-worker [`rzen::SolverSession`].
pub(crate) enum RunMode<'s> {
    /// Reset the thread-local context and solve with a fresh backend.
    Fresh(rzen::Backend),
    /// Solve through the session, keeping the context (and therefore the
    /// hash-consed `ExprId`s the session's caches key on) intact.
    Session(&'s mut rzen::SolverSession),
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

    /// Run one backend on the calling thread, rebuilding the model in the
    /// thread-local context. The context is reset first, so call this only
    /// from a thread with no live `Zen` handles (the engine's runners).
    pub(crate) fn run_backend(&self, backend: rzen::Backend, budget: &Budget) -> RunOutput {
        rzen::reset_ctx();
        self.run_with(RunMode::Fresh(backend), budget)
    }

    /// Run through a long-lived session. The context is **not** reset —
    /// the session's bitblast cache and symbolic inputs are keyed by the
    /// current arena's `ExprId`s.
    pub(crate) fn run_in_session(
        &self,
        session: &mut rzen::SolverSession,
        budget: &Budget,
    ) -> RunOutput {
        self.run_with(RunMode::Session(session), budget)
    }

    fn run_with(&self, mode: RunMode<'_>, budget: &Budget) -> RunOutput {
        match self {
            Query::AclFind { acl, target_line } => {
                let acl = acl.clone();
                let target = *target_line;
                let f = ZenFunction::new(move |h| acl.matched_line(h));
                let opts = FindOptions::default();
                let report = dispatch(&f, |_, line| line.eq(Zen::val(target)), opts, budget, mode);
                RunOutput {
                    outcome: map_outcome(report.outcome, Witness::Header),
                    sat_stats: report.sat_stats,
                    bdd_stats: report.bdd_stats,
                }
            }
            Query::RouteMapFind {
                map,
                target_clause,
                list_bound,
            } => {
                let map = map.clone();
                let target = *target_clause;
                let f = ZenFunction::new(move |a| map.matched_clause(a));
                let opts = FindOptions {
                    list_bound: *list_bound,
                    ..Default::default()
                };
                let report = dispatch(&f, |_, line| line.eq(Zen::val(target)), opts, budget, mode);
                RunOutput {
                    outcome: map_outcome(report.outcome, |a| Witness::Announcement(Box::new(a))),
                    sat_stats: report.sat_stats,
                    bdd_stats: report.bdd_stats,
                }
            }
            Query::Reach { net, src, dst } | Query::Drops { net, src, dst } => {
                let reach = matches!(self, Query::Reach { .. });
                let paths = net.paths(src.0, src.1, dst.0, dst.1);
                if paths.is_empty() {
                    // No path at all: nothing is delivered, and every
                    // packet is trivially dropped.
                    let h = Header::new(0, 0, 0, 0, 0);
                    return RunOutput {
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
                let opts = FindOptions::default();
                let cond = |p, _| {
                    if reach {
                        delivered_on_some(&paths, p)
                    } else {
                        dropped_on_all(&paths, p)
                    }
                };
                let report = dispatch(&f, cond, opts, budget, mode);
                RunOutput {
                    outcome: map_outcome(report.outcome, Witness::Packet),
                    sat_stats: report.sat_stats,
                    bdd_stats: report.bdd_stats,
                }
            }
        }
    }

    /// Check a witness against the concrete reference semantics (exact
    /// simulation — no solver involved). Used by the differential tests to
    /// validate engine output independently of the backend that found it.
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
                let paths = net.paths(src.0, src.1, dst.0, dst.1);
                holds(delivered_on_some(&paths, Zen::constant(p)))
            }
            (Query::Drops { net, src, dst }, Witness::Packet(p)) => {
                let paths = net.paths(src.0, src.1, dst.0, dst.1);
                holds(dropped_on_all(&paths, Zen::constant(p)))
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

/// Run one find either fresh (overriding the backend in `opts`) or
/// through the worker's session (which ignores `opts.backend`).
fn dispatch<A: rzen::ZenType, R: rzen::ZenType>(
    f: &ZenFunction<A, R>,
    pred: impl FnOnce(Zen<A>, Zen<R>) -> Zen<bool>,
    mut opts: FindOptions,
    budget: &Budget,
    mode: RunMode<'_>,
) -> rzen::FindReport<A> {
    match mode {
        RunMode::Fresh(backend) => {
            opts.backend = backend;
            f.find_budgeted(pred, &opts, budget)
        }
        RunMode::Session(session) => f.find_in_session(pred, &opts, budget, session),
    }
}

fn map_outcome<A>(o: FindOutcome<A>, f: impl FnOnce(A) -> Witness) -> FindOutcome<Witness> {
    match o {
        FindOutcome::Found(a) => FindOutcome::Found(f(a)),
        FindOutcome::Unsat => FindOutcome::Unsat,
        FindOutcome::Cancelled => FindOutcome::Cancelled,
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
        let out = q.run_backend(rzen::Backend::Bdd, &Budget::unlimited());
        let FindOutcome::Found(w) = out.outcome else {
            panic!("line 1 is reachable");
        };
        assert!(q.check_witness(&w));
        assert!(out.bdd_stats.is_some());
        assert!(out.sat_stats.is_none());
    }
}
