//! The SAT session's contract for its gate table, over a long session:
//! same verdicts as fresh mode, a table and a solver that plateau, and a
//! structural hash that never hands out a gate over an eliminated
//! variable. Mirrors `crates/sat/tests/arena_mem.rs` one layer up.

use rzen::{
    zen_struct, zif, Backend, Budget, FindOptions, FindOutcome, SolverSession, Zen, ZenFunction,
};

zen_struct! {
    pub struct Hdr : HdrFields {
        dst, with_dst: u32;
        src, with_src: u32;
        dport, with_dport: u16;
    }
}

/// Deterministic pseudo-random stream (the models only need variety).
fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ x >> 32
}

/// One ACL rule: destination prefix, port range, both must match.
#[derive(Clone, Copy)]
struct Rule {
    addr: u32,
    len: u32,
    lo: u16,
    hi: u16,
}

impl Rule {
    fn matches(&self, h: Zen<Hdr>) -> Zen<bool> {
        let mask = if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - self.len)
        };
        let dst = (h.dst() & mask).eq(Zen::val(self.addr & mask));
        dst.and(h.dport().ge(Zen::val(self.lo)))
            .and(h.dport().le(Zen::val(self.hi)))
    }
}

fn acl(seed: u64, n: u64) -> Vec<Rule> {
    (0..n)
        .map(|i| {
            let r = mix(seed, i);
            let lo = (r >> 40) as u16 & 0x3ff;
            Rule {
                addr: r as u32,
                len: 4 + (r >> 32) as u32 % 20,
                lo,
                hi: lo + ((r >> 52) as u16 & 0xff),
            }
        })
        .collect()
}

/// First matching line, 1-based; 0 when none matches (the shape of
/// `Acl::matched_line`).
fn matched_line(rules: &[Rule], h: Zen<Hdr>) -> Zen<u16> {
    rules
        .iter()
        .enumerate()
        .rev()
        .fold(Zen::val(0u16), |rest, (i, r)| {
            zif(r.matches(h), Zen::val(i as u16 + 1), rest)
        })
}

/// One device of a toy fabric: `None` stays `None`; a packet is dropped
/// unless the ACL allows it and its destination lies in `prefix`, and
/// leaves with its source rewritten. This keeps, on purpose, the
/// `Option`-threaded shape `forward_along` had before it threaded a
/// guard and a packet: each hop reads the payload of the previous hop's
/// `zif(c, some(p), none)`, so the session sees pending struct muxes.
fn hop(acl: &[Rule], prefix: u32, h: Zen<Option<Hdr>>) -> Zen<Option<Hdr>> {
    let p = h.value();
    let allowed = matched_line(acl, p).ne(Zen::val(1u16));
    let routed = (p.dst() & 0xffff_0000u32).eq(Zen::val(prefix));
    let out = zif(
        allowed,
        Zen::some(p.with_src(p.src() | 1u32)),
        Zen::<Option<Hdr>>::none(0),
    );
    let out = zif(routed, out, Zen::<Option<Hdr>>::none(0));
    zif(h.is_some(), out, Zen::<Option<Hdr>>::none(0))
}

/// Leaf `s` → spine → leaf `d`: three hops, the middle one shared by
/// every pair.
fn forward(s: u64, d: u64, h: Zen<Hdr>) -> Zen<Option<Hdr>> {
    let prefix = 0x0a00_0000 | (d as u32) << 16;
    [100 + s, 7, 200 + d]
        .iter()
        .fold(Zen::some(h), |x, &dev| hop(&acl(dev, 6), prefix, x))
}

/// The 300-query script: ACL line probes on three ACLs interleaved with
/// reach/drops questions over the 30 leaf pairs of a 6-leaf fabric.
#[derive(Clone, Copy, Debug)]
enum Q {
    Line {
        acl: u64,
        line: u16,
    },
    /// Can a packet for leaf `to`'s prefix get from `s` to `d`? Only if
    /// `to == d`: the other two thirds are standing UNSATs.
    Reach {
        s: u64,
        d: u64,
        to: u64,
    },
    Drops {
        s: u64,
        d: u64,
    },
}

fn script() -> Vec<Q> {
    (0..300u64)
        .map(|i| {
            let r = mix(42, i);
            let (s, d) = (r % 6, (r % 6 + 1 + (r >> 8) % 5) % 6);
            match i % 3 {
                0 => Q::Line {
                    acl: (r >> 16) % 3,
                    // Lines past the end are never matched: UNSAT.
                    line: ((r >> 24) % 50) as u16,
                },
                1 => Q::Reach {
                    s,
                    d,
                    to: if r >> 40 & 1 == 0 { d } else { (r >> 44) % 6 },
                },
                _ => Q::Drops { s, d },
            }
        })
        .collect()
}

/// Ask `q` fresh or through `session`; the witness, when there is one, is
/// checked by simulation before it is reduced to a verdict.
fn ask(q: Q, session: Option<&mut SolverSession>) -> (bool, u64) {
    let (f, want): (ZenFunction<Hdr, bool>, _) = match q {
        Q::Line { acl: a, line } => (
            ZenFunction::new(move |h| matched_line(&acl(a, 40), h).eq(Zen::val(line))),
            true,
        ),
        Q::Reach { s, d, to } => (
            ZenFunction::new(move |h: Zen<Hdr>| {
                let prefix = 0x0a00_0000 | (to as u32) << 16;
                forward(s, d, h)
                    .is_some()
                    .and((h.dst() & 0xffff_0000u32).eq(Zen::val(prefix)))
            }),
            true,
        ),
        Q::Drops { s, d } => (
            ZenFunction::new(move |h: Zen<Hdr>| {
                forward(s, d, h)
                    .is_some()
                    .or((h.dst() >> 24u32).ne(Zen::val(0x0au32)))
            }),
            false,
        ),
    };
    let pred = move |_: Zen<Hdr>, out: Zen<bool>| if want { out } else { !out };
    let opts = FindOptions::smt();
    let report = match session {
        Some(s) => f.find_in_session(pred, &opts, &Budget::unlimited(), s),
        None => f.find_budgeted(pred, &opts, &Budget::unlimited()),
    };
    let vars = report.sat_stats.expect("smt stats").vars_created;
    match report.outcome {
        FindOutcome::Found(h) => {
            assert_eq!(f.evaluate(&h), want, "{q:?}: witness does not replay");
            (true, vars)
        }
        FindOutcome::Unsat => (false, vars),
        FindOutcome::Cancelled => unreachable!("unlimited budget"),
    }
}

#[test]
fn long_session_matches_fresh_mode_and_plateaus() {
    rzen::reset_ctx();
    let mut session = SolverSession::new(Backend::Smt);
    let mut footprints = Vec::new();
    let (mut sat, mut fresh_vars) = (0, 0);
    for (i, q) in script().into_iter().enumerate() {
        let (fresh, vars) = ask(q, None);
        let (warm, _) = ask(q, Some(&mut session));
        assert_eq!(
            warm, fresh,
            "query {i} {q:?}: session and fresh mode disagree"
        );
        sat += fresh as usize;
        fresh_vars += vars as usize;
        footprints.push(session.smt_footprint().expect("an SMT query ran"));
    }
    assert!((50..250).contains(&sat), "script is one-sided: {sat} SAT");

    // The footprint saws between passes; a leak would lift its level.
    // Compare the first hundred queries' mean with the last hundred's.
    let mean = |range: std::ops::Range<usize>, f: fn(&(usize, usize)) -> usize| {
        footprints[range.clone()].iter().map(f).sum::<usize>() / range.len()
    };
    for (what, f) in [
        ("live gates", (|p| p.0) as fn(&(usize, usize)) -> usize),
        ("live solver variables", |p| p.1),
    ] {
        let (early, late) = (mean(0..100, f), mean(200..300, f));
        assert!(
            late * 2 <= early * 3,
            "{what} still growing: mean {early} over the first 100 queries, {late} over the last"
        );
    }
    // Not a plateau for want of work: fresh mode emitted many times what
    // the session holds at its peak.
    let peak_vars = footprints.iter().map(|p| p.1).max().unwrap();
    assert!(
        peak_vars * 8 <= fresh_vars,
        "session peaked at {peak_vars} variables, fresh mode created {fresh_vars} in all"
    );
}

/// Step (c) of the quiesce contract. `x < y` stays cached (every query
/// mentions it) while the comparator's interior gates — held by no cache
/// entry, so never frozen — are eliminated under it. Two inprocessing
/// passes later a query needs the comparator's *other* polarity, finds
/// those interior gates by structural hash, and must emit them afresh
/// instead of writing clauses over their eliminated (by then recycled)
/// variables.
#[test]
fn gate_eliminated_two_passes_earlier_is_emitted_afresh() {
    rzen::reset_ctx();
    let mut session = SolverSession::new(Backend::Smt);
    let f = ZenFunction::new(|p: Zen<(u16, u16)>| p);
    let opts = FindOptions::smt();
    let mut find = |pred: &dyn Fn(Zen<u16>, Zen<u16>) -> Zen<bool>| {
        let report = f.find_in_session(
            |p, _| pred(p.item1(), p.item2()),
            &opts,
            &Budget::unlimited(),
            &mut session,
        );
        let footprint = session.smt_footprint().unwrap();
        (report.outcome, footprint)
    };

    // Positive uses only, each beside a fresh multiplier cone big enough
    // to trip the growth trigger; a pass shows as the variable count
    // falling.
    let (mut passes, mut last_vars) = (0, 0);
    let mut k = 0u16;
    while passes < 3 {
        k += 1;
        assert!(k < 200, "inprocessing never ran");
        let (outcome, (_, vars)) = find(&|x, y| {
            let product = (x + Zen::val(k)) * (y ^ Zen::val(k));
            x.lt(y).and(product.eq(Zen::val(k.wrapping_mul(31))))
        });
        if let FindOutcome::Found((x, y)) = outcome {
            let product = x.wrapping_add(k).wrapping_mul(y ^ k);
            assert!(x < y && product == k.wrapping_mul(31));
        }
        passes += (vars < last_vars) as u32;
        last_vars = vars;
    }

    // The other polarity, pinned both ways.
    let (outcome, _) = find(&|x, y| (!x.lt(y)).and(x.eq(Zen::val(9))).and(y.eq(Zen::val(4))));
    assert!(matches!(outcome, FindOutcome::Found((9, 4))), "{outcome:?}");
    let (outcome, _) = find(&|x, y| (!x.lt(y)).and(x.eq(Zen::val(4))).and(y.eq(Zen::val(9))));
    assert!(matches!(outcome, FindOutcome::Unsat), "{outcome:?}");
    let (outcome, _) = find(&|x, y| x.lt(y).and(x.eq(Zen::val(4))).and(y.eq(Zen::val(9))));
    assert!(matches!(outcome, FindOutcome::Found((4, 9))), "{outcome:?}");
}
