//! # rzen-net — network models and analyses on the rzen IVL
//!
//! This crate is the "domain" half of the paper's compositional story: all
//! network functionality — packet headers, ACLs, longest-prefix-match
//! forwarding, IP-GRE tunnels, devices and interfaces, BGP-style route
//! maps — is modeled once as ordinary Rust functions over `Zen` values,
//! and every analysis backend of the `rzen` crate applies to every model.
//!
//! The `analyses` module expresses the six analyses of the paper's
//! Table 1 (HSA, Atomic Predicates, Anteater, Minesweeper, Bonsai,
//! Shapeshifter) on top of those shared models.
//!
//! Modules whose line counts reproduce the paper's Table 2 mark their
//! semantic core with `ZEN-LOC-BEGIN`/`ZEN-LOC-END` comments;
//! `rzen-repro table2` counts them.

#![warn(missing_docs)]

pub mod acl;
pub mod analyses;
pub mod device;
mod dstset;
pub mod firewall;
pub mod fwd;
pub mod gen;
pub mod gre;
pub mod headers;
pub mod ip;
pub mod nat;
pub mod routing;
pub mod spec;
pub mod topology;

pub use headers::{Header, HeaderFields, Packet, PacketFields};
pub use ip::{ip, Prefix};
