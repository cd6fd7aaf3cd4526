//! Header Space Analysis (Kazemian et al., NSDI '12), implemented with
//! rzen state-set transformers — a direct port of the paper's Fig. 8.
//!
//! The algorithm pushes sets of packets through the network, applying
//! each interface's inbound and outbound transformation, and yields one
//! [`PathSet`] per maximal path: the packets that travel that path.

use rzen::{StateSet, StateSetTransformer, TransformerSpace, Zen, ZenFunction};

use crate::device::{in_guard, in_rewrite, out_guard, out_rewrite, Interface};
use crate::headers::Packet;
use crate::topology::Network;

/// A maximal exploration result: the interfaces traversed (device index,
/// interface id) and the set of packets that traverse them.
pub struct PathSet {
    /// Traversed (device, ingress-interface) pairs, in order.
    pub path: Vec<(usize, u8)>,
    /// The packets that make it to the end of the path.
    pub set: StateSet<Packet>,
}

/// Per-interface transformers, built once and reused across the
/// exploration (the paper's `InboundTransformer`/`OutboundTransformer`).
struct IntfMachinery {
    /// Packets that survive inbound processing.
    in_filter: StateSet<Packet>,
    /// Inbound rewrite (valid on `in_filter`).
    in_t: StateSetTransformer<Packet, Packet>,
    /// Packets that survive outbound processing.
    out_filter: StateSet<Packet>,
    /// Outbound rewrite (valid on `out_filter`).
    out_t: StateSetTransformer<Packet, Packet>,
}

fn machinery(space: &TransformerSpace, intf: &Interface) -> IntfMachinery {
    let i1 = intf.clone();
    let i2 = intf.clone();
    let i3 = intf.clone();
    let i4 = intf.clone();
    IntfMachinery {
        in_filter: space.set_of::<Packet>(move |p| in_guard(&i1, p)),
        in_t: ZenFunction::new(move |p: Zen<Packet>| in_rewrite(&i2, p)).transformer(space),
        out_filter: space.set_of::<Packet>(move |p| out_guard(&i3, p)),
        out_t: ZenFunction::new(move |p: Zen<Packet>| out_rewrite(&i4, p)).transformer(space),
    }
}

/// Run header space analysis from `(start_device, start_intf)` with the
/// initial packet set, exploring all loop-free paths. Returns one
/// [`PathSet`] per maximal path with a non-empty surviving set.
pub fn hsa(
    net: &Network,
    space: &TransformerSpace,
    start_device: usize,
    start_intf: u8,
    initial: StateSet<Packet>,
) -> Vec<PathSet> {
    struct Item {
        device: usize,
        intf: u8,
        set: StateSet<Packet>,
        path: Vec<(usize, u8)>,
        visited: Vec<bool>,
    }

    let mut results = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut visited0 = vec![false; net.devices.len()];
    visited0[start_device] = true;
    queue.push_back(Item {
        device: start_device,
        intf: start_intf,
        set: initial,
        path: vec![(start_device, start_intf)],
        visited: visited0,
    });

    while let Some(item) = queue.pop_front() {
        let Some(intf_in) = net.devices[item.device].interface(item.intf) else {
            continue;
        };
        let m_in = machinery(space, intf_in);
        let in_set = m_in
            .in_t
            .transform_forward(&item.set.intersect(&m_in.in_filter));
        let mut forwarded = false;
        for intf_out in &net.devices[item.device].interfaces {
            let Some(link) = net.link_from(item.device, intf_out.id) else {
                continue;
            };
            if item.visited[link.to_device] {
                continue;
            }
            let m_out = machinery(space, intf_out);
            let out_set = m_out
                .out_t
                .transform_forward(&in_set.intersect(&m_out.out_filter));
            if out_set.is_empty() {
                continue;
            }
            forwarded = true;
            let mut path = item.path.clone();
            path.push((link.to_device, link.to_intf));
            let mut visited = item.visited.clone();
            visited[link.to_device] = true;
            queue.push_back(Item {
                device: link.to_device,
                intf: link.to_intf,
                set: out_set,
                path,
                visited,
            });
        }
        if !forwarded && !in_set.is_empty() {
            results.push(PathSet {
                path: item.path,
                set: in_set,
            });
        }
    }
    results
}

/// Which packets can travel from an ingress interface to (arrive at) a
/// given device, along any loop-free path? The set is taken at arrival
/// time — what happens to the packet afterwards does not matter.
pub fn reachable_set(
    net: &Network,
    space: &TransformerSpace,
    start_device: usize,
    start_intf: u8,
    target_device: usize,
) -> StateSet<Packet> {
    struct Item {
        device: usize,
        intf: u8,
        set: StateSet<Packet>,
        visited: Vec<bool>,
    }
    let mut acc = space.empty::<Packet>();
    let mut queue = std::collections::VecDeque::new();
    let mut visited0 = vec![false; net.devices.len()];
    visited0[start_device] = true;
    let initial = space.full::<Packet>();
    if start_device == target_device {
        acc = acc.union(&initial);
    }
    queue.push_back(Item {
        device: start_device,
        intf: start_intf,
        set: initial,
        visited: visited0,
    });
    while let Some(item) = queue.pop_front() {
        let Some(intf_in) = net.devices[item.device].interface(item.intf) else {
            continue;
        };
        let m_in = machinery(space, intf_in);
        let in_set = m_in
            .in_t
            .transform_forward(&item.set.intersect(&m_in.in_filter));
        if in_set.is_empty() {
            continue;
        }
        for intf_out in &net.devices[item.device].interfaces {
            let Some(link) = net.link_from(item.device, intf_out.id) else {
                continue;
            };
            if item.visited[link.to_device] {
                continue;
            }
            let m_out = machinery(space, intf_out);
            let out_set = m_out
                .out_t
                .transform_forward(&in_set.intersect(&m_out.out_filter));
            if out_set.is_empty() {
                continue;
            }
            if link.to_device == target_device {
                acc = acc.union(&out_set);
                continue; // arrival recorded; no need to explore past it
            }
            let mut visited = item.visited.clone();
            visited[link.to_device] = true;
            queue.push_back(Item {
                device: link.to_device,
                intf: link.to_intf,
                set: out_set,
                visited,
            });
        }
    }
    acc
}
