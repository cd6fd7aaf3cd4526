//! Incremental model deltas: the typed delta protocol, the spec applier,
//! and per-device Merkle-style model fingerprints.
//!
//! Real networks change one ACL line or one route at a time; re-parsing
//! the whole spec and discarding every cached verdict and warm solver
//! session for that is the incremental-recompute gap this crate closes.
//! A delta is a sequence of [`DeltaOp`]s, one JSON object per line
//! (NDJSON — the same framing as the serve layer's query plane):
//!
//! ```text
//! {"op":"set-acl","device":"u2","intf":1,"dir":"in","acl":"deny-dport 5000 6000"}
//! {"op":"remove-acl","device":"u2","intf":1,"dir":"in"}
//! {"op":"set-route","device":"u1","prefix":"10.0.0.0/8","port":2}
//! {"op":"remove-route","device":"u1","prefix":"10.0.0.0/8"}
//! {"op":"link-up","a":"u1:2","b":"u2:1"}
//! {"op":"link-down","a":"u1:2","b":"u2:1"}
//! {"op":"add-device","name":"u4","intfs":[1,2]}
//! {"op":"remove-device","name":"u4"}
//! ```
//!
//! [`apply`] patches a parsed [`Spec`] in place. The engine's cache
//! sweep needs nothing from it but the networks before and after a
//! delta: it keeps a cached verdict exactly when its pair's feasible
//! paths are unchanged, or when its witness still holds.
//! ACL shorthands are exactly the spec format's
//! ([`rzen_net::spec::parse_acl_shorthand`]), so a wire delta and a spec
//! line can never disagree about what an ACL means.
//!
//! [`composite_fingerprint`] replaces the serve layer's whole-text FNV
//! hash: each device gets its own structural fingerprint (its interfaces,
//! policies, table, and incident links), and the model identity is the
//! hash of the ordered per-device hashes — so two spec texts that differ
//! only in comments or formatting have the *same* identity, and a
//! one-device change moves exactly one leaf hash.

#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use rzen_net::acl::Acl;
use rzen_net::device::Interface;
use rzen_net::fwd::FwdRule;
use rzen_net::ip::Prefix;
use rzen_net::spec::{self, Spec};
use rzen_net::topology::{DeltaStep, Device, Network};
use rzen_obs::json::{parse, Value, Writer};
use rzen_obs::Fnv1a;

/// Which ACL slot of an interface a delta targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AclDir {
    /// `acl-in`: evaluated on ingress.
    In,
    /// `acl-out`: evaluated on egress.
    Out,
}

impl AclDir {
    fn name(self) -> &'static str {
        match self {
            AclDir::In => "in",
            AclDir::Out => "out",
        }
    }
}

/// One typed delta operation. Device and link endpoints are carried as
/// names (`"u2"`, `"u1:2"`) and resolved against the spec at apply time,
/// so a delta is meaningful independent of device indices.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    /// Append a new, unlinked device with the given interface ids.
    AddDevice {
        /// Device name; must not exist yet.
        name: String,
        /// Interface ids, each with an empty forwarding table.
        intfs: Vec<u8>,
    },
    /// Remove a device and every link touching it.
    RemoveDevice {
        /// Device name; must exist.
        name: String,
    },
    /// Install (or replace) an ACL on one interface.
    SetAcl {
        /// Device name.
        device: String,
        /// Interface id.
        intf: u8,
        /// Which slot (`acl-in` / `acl-out`).
        dir: AclDir,
        /// The ACL, in spec shorthand (`permit`, `deny`,
        /// `deny-dport LO HI`, `permit-dst PREFIX`).
        acl: String,
    },
    /// Clear an ACL slot that currently holds one.
    RemoveAcl {
        /// Device name.
        device: String,
        /// Interface id.
        intf: u8,
        /// Which slot.
        dir: AclDir,
    },
    /// Upsert a forwarding rule on a device (all interfaces of a device
    /// share its table, exactly like the spec's `route` directive).
    SetRoute {
        /// Device name.
        device: String,
        /// Destination prefix; an existing rule for the same prefix is
        /// replaced.
        prefix: Prefix,
        /// Egress port.
        port: u8,
    },
    /// Remove the forwarding rule for a prefix from a device's table.
    RemoveRoute {
        /// Device name.
        device: String,
        /// The rule's prefix; must be present.
        prefix: Prefix,
    },
    /// Add a duplex link between two currently-unlinked endpoints.
    LinkUp {
        /// One endpoint, `device:port`.
        a: String,
        /// The other endpoint, `device:port`.
        b: String,
    },
    /// Remove the duplex link between two endpoints.
    LinkDown {
        /// One endpoint, `device:port`.
        a: String,
        /// The other endpoint, `device:port`.
        b: String,
    },
}

impl DeltaOp {
    /// The wire name of this op.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaOp::AddDevice { .. } => "add-device",
            DeltaOp::RemoveDevice { .. } => "remove-device",
            DeltaOp::SetAcl { .. } => "set-acl",
            DeltaOp::RemoveAcl { .. } => "remove-acl",
            DeltaOp::SetRoute { .. } => "set-route",
            DeltaOp::RemoveRoute { .. } => "remove-route",
            DeltaOp::LinkUp { .. } => "link-up",
            DeltaOp::LinkDown { .. } => "link-down",
        }
    }

    /// Render as one NDJSON line (newline-terminated), parseable by
    /// [`parse_op`].
    pub fn to_line(&self) -> String {
        let mut w = Writer::new();
        w.obj(|w| {
            w.field("op", self.name());
            match self {
                DeltaOp::AddDevice { name, intfs } => w.field("name", name).key("intfs").arr(|w| {
                    for i in intfs {
                        w.value(i);
                    }
                }),
                DeltaOp::RemoveDevice { name } => w.field("name", name),
                DeltaOp::SetAcl {
                    device,
                    intf,
                    dir,
                    acl,
                } => w
                    .field("device", device)
                    .field("intf", intf)
                    .field("dir", dir.name())
                    .field("acl", acl),
                DeltaOp::RemoveAcl { device, intf, dir } => w
                    .field("device", device)
                    .field("intf", intf)
                    .field("dir", dir.name()),
                DeltaOp::SetRoute {
                    device,
                    prefix,
                    port,
                } => w
                    .field("device", device)
                    .field("prefix", prefix.to_string())
                    .field("port", port),
                DeltaOp::RemoveRoute { device, prefix } => w
                    .field("device", device)
                    .field("prefix", prefix.to_string()),
                DeltaOp::LinkUp { a, b } | DeltaOp::LinkDown { a, b } => {
                    w.field("a", a).field("b", b)
                }
            };
        });
        w.line()
    }
}

/// Parse one NDJSON delta line into a [`DeltaOp`].
pub fn parse_op(line: &str) -> Result<DeltaOp, String> {
    let v = parse(line.trim()).map_err(|e| format!("bad json: {e}"))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"op\"".to_string())?;
    let str_field = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op {op:?} needs string \"{key}\""))
    };
    let port_field = |key: &str| -> Result<u8, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .and_then(|n| u8::try_from(n).ok())
            .ok_or_else(|| format!("op {op:?} needs port \"{key}\" (0-255)"))
    };
    let dir_field = || -> Result<AclDir, String> {
        match str_field("dir")?.as_str() {
            "in" => Ok(AclDir::In),
            "out" => Ok(AclDir::Out),
            other => Err(format!("bad \"dir\" {other:?} (expected \"in\"/\"out\")")),
        }
    };
    let prefix_field = || -> Result<Prefix, String> {
        str_field("prefix")?
            .parse()
            .map_err(|e| format!("bad \"prefix\": {e}"))
    };
    match op {
        "add-device" => {
            let Some(Value::Arr(items)) = v.get("intfs") else {
                return Err("op \"add-device\" needs array \"intfs\"".to_string());
            };
            let intfs: Vec<u8> = items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .and_then(|n| u8::try_from(n).ok())
                        .ok_or_else(|| "bad interface id in \"intfs\"".to_string())
                })
                .collect::<Result<_, _>>()?;
            Ok(DeltaOp::AddDevice {
                name: str_field("name")?,
                intfs,
            })
        }
        "remove-device" => Ok(DeltaOp::RemoveDevice {
            name: str_field("name")?,
        }),
        "set-acl" => Ok(DeltaOp::SetAcl {
            device: str_field("device")?,
            intf: port_field("intf")?,
            dir: dir_field()?,
            acl: str_field("acl")?,
        }),
        "remove-acl" => Ok(DeltaOp::RemoveAcl {
            device: str_field("device")?,
            intf: port_field("intf")?,
            dir: dir_field()?,
        }),
        "set-route" => Ok(DeltaOp::SetRoute {
            device: str_field("device")?,
            prefix: prefix_field()?,
            port: port_field("port")?,
        }),
        "remove-route" => Ok(DeltaOp::RemoveRoute {
            device: str_field("device")?,
            prefix: prefix_field()?,
        }),
        "link-up" => Ok(DeltaOp::LinkUp {
            a: str_field("a")?,
            b: str_field("b")?,
        }),
        "link-down" => Ok(DeltaOp::LinkDown {
            a: str_field("a")?,
            b: str_field("b")?,
        }),
        other => Err(format!("unknown delta op {other:?}")),
    }
}

/// Parse a whole NDJSON delta document (one op per line; blank lines and
/// `#` comment lines are skipped). Errors carry the 1-based line number.
pub fn parse_ops(text: &str) -> Result<Vec<DeltaOp>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ops.push(parse_op(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(ops)
}

/// The result of applying a delta.
pub struct Applied {
    /// One field-less step per op, in application order (see
    /// [`DeltaStep`] for why it stays).
    pub steps: Vec<DeltaStep>,
    /// Names of every device an op touched (sorted, deduplicated).
    pub touched: Vec<String>,
}

/// Apply a sequence of ops to `spec` in place. On error the spec may be
/// partially patched — apply to a clone and discard it on failure (the
/// serve layer does exactly that, which also keeps the swap atomic).
pub fn apply_all(spec: &mut Spec, ops: &[DeltaOp]) -> Result<Applied, String> {
    let mut steps = Vec::with_capacity(ops.len());
    let mut touched = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        apply(spec, op).map_err(|e| format!("op {} ({}): {e}", i + 1, op.name()))?;
        touched.extend(touched_names(op));
        steps.push(DeltaStep);
    }
    Ok(Applied {
        steps,
        touched: touched.into_iter().collect(),
    })
}

fn touched_names(op: &DeltaOp) -> Vec<String> {
    let endpoint_dev = |s: &str| s.split(':').next().unwrap_or(s).to_string();
    match op {
        DeltaOp::AddDevice { name, .. } | DeltaOp::RemoveDevice { name } => vec![name.clone()],
        DeltaOp::SetAcl { device, .. }
        | DeltaOp::RemoveAcl { device, .. }
        | DeltaOp::SetRoute { device, .. }
        | DeltaOp::RemoveRoute { device, .. } => vec![device.clone()],
        DeltaOp::LinkUp { a, b } | DeltaOp::LinkDown { a, b } => {
            vec![endpoint_dev(a), endpoint_dev(b)]
        }
    }
}

/// Apply one op to `spec` in place.
pub fn apply(spec: &mut Spec, op: &DeltaOp) -> Result<(), String> {
    match op {
        DeltaOp::AddDevice { name, intfs } => {
            if spec.device_index.contains_key(name) {
                return Err(format!("device {name:?} already exists"));
            }
            let mut seen = Vec::new();
            for &id in intfs {
                if seen.contains(&id) {
                    return Err(format!("interface {id} listed twice"));
                }
                seen.push(id);
            }
            let device = spec.net.add_device(Device {
                name: name.clone(),
                interfaces: intfs
                    .iter()
                    .map(|&id| Interface::new(id, Default::default()))
                    .collect(),
            });
            spec.device_index.insert(name.clone(), device);
        }
        DeltaOp::RemoveDevice { name } => {
            let idx = *spec
                .device_index
                .get(name)
                .ok_or_else(|| format!("unknown device {name:?}"))?;
            spec.net.devices.remove(idx);
            spec.net
                .links
                .retain(|l| l.from_device != idx && l.to_device != idx);
            for l in &mut spec.net.links {
                if l.from_device > idx {
                    l.from_device -= 1;
                }
                if l.to_device > idx {
                    l.to_device -= 1;
                }
            }
            spec.device_index.remove(name);
            for v in spec.device_index.values_mut() {
                if *v > idx {
                    *v -= 1;
                }
            }
        }
        DeltaOp::SetAcl {
            device,
            intf,
            dir,
            acl,
        } => {
            let parsed = spec::parse_acl_shorthand(acl)?;
            let slot = acl_slot(spec, device, *intf, *dir)?;
            *slot = Some(parsed);
        }
        DeltaOp::RemoveAcl { device, intf, dir } => {
            let slot = acl_slot(spec, device, *intf, *dir)?;
            if slot.is_none() {
                return Err(format!(
                    "{device}:{intf} has no acl-{} to remove",
                    dir.name()
                ));
            }
            *slot = None;
        }
        DeltaOp::SetRoute {
            device,
            prefix,
            port,
        } => {
            let idx = device_with_interfaces(spec, device)?;
            // Interfaces of one device share the table semantically but
            // hold value clones; patch every copy identically.
            for i in &mut spec.net.devices[idx].interfaces {
                match i.table.rules.iter_mut().find(|r| r.prefix == *prefix) {
                    Some(rule) => rule.port = *port,
                    None => i.table.rules.push(FwdRule {
                        prefix: *prefix,
                        port: *port,
                    }),
                }
            }
        }
        DeltaOp::RemoveRoute { device, prefix } => {
            let idx = device_with_interfaces(spec, device)?;
            let before = spec.net.devices[idx].interfaces[0].table.rules.len();
            for i in &mut spec.net.devices[idx].interfaces {
                i.table.rules.retain(|r| r.prefix != *prefix);
            }
            if spec.net.devices[idx].interfaces[0].table.rules.len() == before {
                return Err(format!("device {device:?} has no route for {prefix}"));
            }
        }
        DeltaOp::LinkUp { a, b } => {
            let (ad, ap) = spec.endpoint(a)?;
            let (bd, bp) = spec.endpoint(b)?;
            for (d, p, name) in [(ad, ap, a), (bd, bp, b)] {
                if spec.net.link_from(d, p).is_some() {
                    return Err(format!("endpoint {name} is already linked"));
                }
            }
            spec.net.add_duplex(ad, ap, bd, bp);
        }
        DeltaOp::LinkDown { a, b } => {
            let (ad, ap) = spec.endpoint(a)?;
            let (bd, bp) = spec.endpoint(b)?;
            let before = spec.net.links.len();
            spec.net.links.retain(|l| {
                !((l.from_device == ad
                    && l.from_intf == ap
                    && l.to_device == bd
                    && l.to_intf == bp)
                    || (l.from_device == bd
                        && l.from_intf == bp
                        && l.to_device == ad
                        && l.to_intf == ap))
            });
            if spec.net.links.len() + 2 != before {
                return Err(format!("no duplex link between {a} and {b}"));
            }
        }
    }
    Ok(())
}

fn acl_slot<'s>(
    spec: &'s mut Spec,
    device: &str,
    intf: u8,
    dir: AclDir,
) -> Result<&'s mut Option<Acl>, String> {
    let idx = *spec
        .device_index
        .get(device)
        .ok_or_else(|| format!("unknown device {device:?}"))?;
    let i = spec.net.devices[idx]
        .interfaces
        .iter_mut()
        .find(|i| i.id == intf)
        .ok_or_else(|| format!("device {device:?} has no interface {intf}"))?;
    Ok(match dir {
        AclDir::In => &mut i.acl_in,
        AclDir::Out => &mut i.acl_out,
    })
}

fn device_with_interfaces(spec: &Spec, device: &str) -> Result<usize, String> {
    let idx = *spec
        .device_index
        .get(device)
        .ok_or_else(|| format!("unknown device {device:?}"))?;
    if spec.net.devices[idx].interfaces.is_empty() {
        // Routes live on interface tables; a device without interfaces
        // has nowhere to hold them (the spec parser drops them the same
        // way).
        return Err(format!("device {device:?} has no interfaces"));
    }
    Ok(idx)
}

// ---------------------------------------------------------------------
// Fingerprints

/// The sub-model fingerprint of one device: its full structure (name,
/// interfaces, policies, forwarding table) plus its incident links,
/// hashed with the same FNV-1a the engine's cache keys use. A delta
/// that touches only device `d` moves only `d`'s fingerprint — plus its
/// link peers' when the topology itself changed.
pub fn device_fingerprint(net: &Network, device: usize) -> u64 {
    let mut h = Fnv1a::default();
    net.devices[device].hash(&mut h);
    for l in &net.links {
        if l.from_device == device || l.to_device == device {
            l.hash(&mut h);
        }
    }
    h.finish()
}

/// Every device's sub-model fingerprint, in index order.
pub fn device_fingerprints(net: &Network) -> Vec<u64> {
    (0..net.devices.len())
        .map(|d| device_fingerprint(net, d))
        .collect()
}

/// The Merkle-style composite model fingerprint: FNV-1a over the ordered
/// per-device fingerprints. Structural, not textual — reformatting a
/// spec or reordering its comments does not change the model identity,
/// and a one-device delta recombines `n` leaf hashes instead of
/// rehashing the whole text.
pub fn composite_fingerprint(net: &Network) -> u64 {
    let mut h = Fnv1a::default();
    (net.devices.len() as u64).hash(&mut h);
    for fp in device_fingerprints(net) {
        fp.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = "\
device u1
  intf 1
  intf 2 gre-start 192.168.0.1 192.168.0.3
device u2
  intf 1 acl-in deny-dport 5000 6000
  intf 2
device u3
  intf 1 gre-end 192.168.0.1 192.168.0.3
  intf 2
route u1 0.0.0.0/0 2
route u2 0.0.0.0/0 2
route u3 10.0.0.0/8 2
link u1:2 u2:1
link u2:2 u3:1
";

    fn fig3() -> Spec {
        spec::parse(FIG3).unwrap()
    }

    #[test]
    fn every_op_round_trips_through_the_wire() {
        let ops = vec![
            DeltaOp::AddDevice {
                name: "u4".into(),
                intfs: vec![1, 2],
            },
            DeltaOp::RemoveDevice { name: "u4".into() },
            DeltaOp::SetAcl {
                device: "u2".into(),
                intf: 1,
                dir: AclDir::In,
                acl: "deny-dport 5000 6000".into(),
            },
            DeltaOp::RemoveAcl {
                device: "u2".into(),
                intf: 1,
                dir: AclDir::Out,
            },
            DeltaOp::SetRoute {
                device: "u1".into(),
                prefix: "10.0.0.0/8".parse().unwrap(),
                port: 2,
            },
            DeltaOp::RemoveRoute {
                device: "u1".into(),
                prefix: "10.0.0.0/8".parse().unwrap(),
            },
            DeltaOp::LinkUp {
                a: "u1:1".into(),
                b: "u3:2".into(),
            },
            DeltaOp::LinkDown {
                a: "u1:2".into(),
                b: "u2:1".into(),
            },
        ];
        for op in &ops {
            let line = op.to_line();
            rzen_obs::json::validate(line.trim()).unwrap();
            assert_eq!(&parse_op(&line).unwrap(), op, "wire: {line}");
        }
        // And as one document.
        let doc: String = ops.iter().map(DeltaOp::to_line).collect();
        assert_eq!(parse_ops(&doc).unwrap(), ops);
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"set-acl\",\"device\":\"u2\"}",
            "{\"op\":\"set-acl\",\"device\":\"u2\",\"intf\":1,\"dir\":\"sideways\",\"acl\":\"deny\"}",
            "{\"op\":\"set-route\",\"device\":\"u1\",\"prefix\":\"nope\",\"port\":2}",
            "{\"op\":\"add-device\",\"name\":\"x\",\"intfs\":[999]}",
        ] {
            assert!(parse_op(line).is_err(), "{line:?} accepted");
        }
    }

    #[test]
    fn set_acl_patches_the_interface() {
        let mut s = fig3();
        let before = s.net.clone();
        apply(
            &mut s,
            &DeltaOp::SetAcl {
                device: "u2".into(),
                intf: 1,
                dir: AclDir::In,
                acl: "deny".into(),
            },
        )
        .unwrap();
        let u2 = s.device_index["u2"];
        // "deny" is the empty rule list, and nothing else moved.
        let acl = s.net.devices[u2].interface(1).unwrap().acl_in.as_ref();
        assert_eq!(acl.unwrap().rules.len(), 0);
        for (i, (a, b)) in before.devices.iter().zip(&s.net.devices).enumerate() {
            assert_eq!(i == u2, a != b, "device {i}");
        }
        assert_eq!(before.links, s.net.links);
    }

    #[test]
    fn route_upsert_hits_every_interface_copy() {
        let mut s = fig3();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        apply(
            &mut s,
            &DeltaOp::SetRoute {
                device: "u1".into(),
                prefix: p,
                port: 1,
            },
        )
        .unwrap();
        let u1 = &s.net.devices[s.device_index["u1"]];
        for i in &u1.interfaces {
            assert!(i.table.rules.iter().any(|r| r.prefix == p && r.port == 1));
        }
        // The device's interfaces still agree (the serializer requires it).
        assert_eq!(u1.interfaces[0].table, u1.interfaces[1].table);
        // Upsert replaces, never duplicates.
        apply(
            &mut s,
            &DeltaOp::SetRoute {
                device: "u1".into(),
                prefix: p,
                port: 2,
            },
        )
        .unwrap();
        let u1 = &s.net.devices[s.device_index["u1"]];
        assert_eq!(
            u1.interfaces[0]
                .table
                .rules
                .iter()
                .filter(|r| r.prefix == p)
                .count(),
            1
        );
    }

    #[test]
    fn link_cycle_restores_the_network() {
        let mut s = fig3();
        let original = s.net.clone();
        apply(
            &mut s,
            &DeltaOp::LinkDown {
                a: "u2:2".into(),
                b: "u3:1".into(),
            },
        )
        .unwrap();
        assert_eq!(s.net.links.len(), 2);
        apply(
            &mut s,
            &DeltaOp::LinkUp {
                a: "u2:2".into(),
                b: "u3:1".into(),
            },
        )
        .unwrap();
        assert_eq!(s.net, original);
    }

    #[test]
    fn remove_device_fixes_indices_and_links() {
        let mut s = fig3();
        apply(&mut s, &DeltaOp::RemoveDevice { name: "u1".into() }).unwrap();
        assert_eq!(s.net.devices.len(), 2);
        assert_eq!(s.device_index["u2"], 0);
        assert_eq!(s.device_index["u3"], 1);
        // Only the u2-u3 duplex pair survives, re-indexed.
        assert_eq!(s.net.links.len(), 2);
        for l in &s.net.links {
            assert!(l.from_device < 2 && l.to_device < 2);
        }
        // The index is consistent with the device list.
        for (name, &i) in &s.device_index {
            assert_eq!(&s.net.devices[i].name, name);
        }
    }

    #[test]
    fn apply_errors_are_descriptive_and_typed() {
        let mut s = fig3();
        for (op, needle) in [
            (
                DeltaOp::RemoveDevice {
                    name: "nope".into(),
                },
                "unknown device",
            ),
            (
                DeltaOp::AddDevice {
                    name: "u1".into(),
                    intfs: vec![1],
                },
                "already exists",
            ),
            (
                DeltaOp::RemoveAcl {
                    device: "u1".into(),
                    intf: 1,
                    dir: AclDir::In,
                },
                "no acl-in",
            ),
            (
                DeltaOp::RemoveRoute {
                    device: "u1".into(),
                    prefix: "1.2.3.0/24".parse().unwrap(),
                },
                "no route",
            ),
            (
                DeltaOp::LinkUp {
                    a: "u1:2".into(),
                    b: "u3:2".into(),
                },
                "already linked",
            ),
            (
                DeltaOp::LinkDown {
                    a: "u1:1".into(),
                    b: "u3:2".into(),
                },
                "no duplex link",
            ),
        ] {
            let e = apply(&mut s, &op).unwrap_err();
            assert!(e.contains(needle), "{op:?}: {e}");
        }
    }

    #[test]
    fn apply_all_reports_touched_devices_in_order() {
        let mut s = fig3();
        let applied = apply_all(
            &mut s,
            &[
                DeltaOp::SetAcl {
                    device: "u2".into(),
                    intf: 1,
                    dir: AclDir::In,
                    acl: "permit".into(),
                },
                DeltaOp::LinkDown {
                    a: "u2:2".into(),
                    b: "u3:1".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(applied.steps.len(), 2);
        assert_eq!(applied.touched, vec!["u2".to_string(), "u3".to_string()]);
        // Step 1's ACL change is in place ("permit" = one rule).
        let u2 = s.device_index["u2"];
        assert_eq!(
            s.net.devices[u2]
                .interface(1)
                .unwrap()
                .acl_in
                .as_ref()
                .unwrap()
                .rules
                .len(),
            1
        );
    }

    #[test]
    fn fingerprints_localize_change() {
        let s = fig3();
        let before = device_fingerprints(&s.net);
        let composite_before = composite_fingerprint(&s.net);

        let mut patched = s.clone();
        apply(
            &mut patched,
            &DeltaOp::SetAcl {
                device: "u2".into(),
                intf: 1,
                dir: AclDir::In,
                acl: "deny".into(),
            },
        )
        .unwrap();
        let after = device_fingerprints(&patched.net);
        let u2 = s.device_index["u2"];
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == u2 {
                assert_ne!(b, a, "u2's leaf hash must move");
            } else {
                assert_eq!(b, a, "device {i} untouched by the delta");
            }
        }
        assert_ne!(composite_before, composite_fingerprint(&patched.net));

        // A topology change moves both endpoints' leaves.
        let mut unlinked = s.clone();
        apply(
            &mut unlinked,
            &DeltaOp::LinkDown {
                a: "u2:2".into(),
                b: "u3:1".into(),
            },
        )
        .unwrap();
        let after = device_fingerprints(&unlinked.net);
        assert_eq!(before[0], after[0]);
        assert_ne!(before[1], after[1]);
        assert_ne!(before[2], after[2]);
    }

    #[test]
    fn composite_fingerprint_is_structural_not_textual() {
        let a = spec::parse(FIG3).unwrap();
        let reformatted = format!("# a comment\n\n{}", FIG3.replace("  intf", "   intf"));
        let b = spec::parse(&reformatted).unwrap();
        assert_eq!(composite_fingerprint(&a.net), composite_fingerprint(&b.net));
    }

    #[test]
    fn patched_specs_serialize_and_round_trip() {
        let mut s = fig3();
        apply_all(
            &mut s,
            &[
                DeltaOp::SetAcl {
                    device: "u3".into(),
                    intf: 2,
                    dir: AclDir::Out,
                    acl: "permit-dst 10.0.0.0/8".into(),
                },
                DeltaOp::AddDevice {
                    name: "u4".into(),
                    intfs: vec![1, 2],
                },
                DeltaOp::LinkUp {
                    a: "u3:2".into(),
                    b: "u4:1".into(),
                },
                DeltaOp::SetRoute {
                    device: "u4".into(),
                    prefix: "0.0.0.0/0".parse().unwrap(),
                    port: 2,
                },
            ],
        )
        .unwrap();
        let text = spec::serialize(&s).unwrap();
        let reparsed = spec::parse(&text).unwrap();
        assert_eq!(s.net, reparsed.net);
        assert_eq!(s.device_index, reparsed.device_index);
        assert_eq!(
            composite_fingerprint(&s.net),
            composite_fingerprint(&reparsed.net)
        );
    }
}
