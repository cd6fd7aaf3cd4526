//! Anteater-style reachability (Mai et al., SIGCOMM '11): encode
//! per-path forwarding as a Boolean formula and ask a SAT solver for a
//! witness packet — here, `find` with the SMT backend over the shared
//! Fig. 7 path model.

use rzen::{FindOptions, Zen, ZenFunction};

use crate::device::{forward_along, Hop};
use crate::headers::Packet;
use crate::topology::Network;

/// A reachability witness: the path taken and a packet delivered along it.
pub struct Witness<'n> {
    /// The hops of the delivering path.
    pub path: Vec<Hop<'n>>,
    /// A concrete packet delivered along that path.
    pub packet: Packet,
}

/// Can any packet travel from `(src, entry_intf)` to `(dst, exit_intf)`?
/// Iterates over simple paths (the paper's §4: "to find if a packet can
/// reach node A to B, along any path, we can iterate over all possible
/// paths"), asking the SMT backend for a delivered packet on each.
pub fn reachable(
    net: &Network,
    src: usize,
    entry_intf: u8,
    dst: usize,
    exit_intf: u8,
) -> Option<Witness<'_>> {
    reachable_such_that(net, src, entry_intf, dst, exit_intf, |_, out| out.is_some())
}

/// Like [`reachable`], with an extra predicate over the (symbolic) input
/// packet and delivery result — e.g. restrict to ssh traffic, or ask for
/// a packet that is delivered *modified*.
pub fn reachable_such_that(
    net: &Network,
    src: usize,
    entry_intf: u8,
    dst: usize,
    exit_intf: u8,
    pred: impl Fn(Zen<Packet>, Zen<Option<Packet>>) -> Zen<bool>,
) -> Option<Witness<'_>> {
    net.paths(src, entry_intf, dst, exit_intf)
        .into_iter()
        .find_map(|path| witness(path, &pred))
}

/// Exhaustive variant: all (path, witness) pairs.
pub fn all_witnesses(
    net: &Network,
    src: usize,
    entry_intf: u8,
    dst: usize,
    exit_intf: u8,
) -> Vec<Witness<'_>> {
    net.paths(src, entry_intf, dst, exit_intf)
        .into_iter()
        .filter_map(|path| witness(path, |_, out| out.is_some()))
        .collect()
}

/// A packet for which `pred(p, forward_along(path, p))` holds. The model
/// is the identity and the path is built inside the predicate, which,
/// unlike a `ZenFunction` body, may borrow the network.
fn witness(
    path: Vec<Hop<'_>>,
    pred: impl FnOnce(Zen<Packet>, Zen<Option<Packet>>) -> Zen<bool>,
) -> Option<Witness<'_>> {
    let packet = ZenFunction::new(|p: Zen<Packet>| p)
        .find(|p, _| pred(p, forward_along(&path, p)), &FindOptions::smt())?;
    Some(Witness { path, packet })
}
