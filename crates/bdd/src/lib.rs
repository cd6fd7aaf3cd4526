//! # rzen-bdd — reduced ordered binary decision diagrams
//!
//! A freestanding ROBDD package written for the rzen network-verification
//! framework. It is the substrate behind rzen's BDD solver backend and its
//! state-set transformer abstraction, and is also used directly by the
//! hand-optimized baseline verifier (`rzen-baselines`).
//!
//! Design goals follow the paper's requirements (Beckett & Mahajan,
//! HotNets '20, §6):
//!
//! * **Hash-consed nodes** in a flat arena with a unique table, so structural
//!   equality is pointer equality and `Bdd` handles are `Copy` 32-bit ids.
//! * **One computed cache** shared by every operation: lossy, direct-mapped
//!   and sized by the arena, so each operation is polynomial in the sizes
//!   of its operands while the cache stays bounded by the node count.
//!   Nodes are never collected; an interrupted operation leaves earlier
//!   handles and cache entries valid.
//! * **Quantification and relational products** (`exists`, `forall`,
//!   `and_exists`) for pre/post image computation used by state-set
//!   transformers.
//! * **Order-preserving variable replacement** (`replace`) implementing the
//!   paper's "convert between the sets of variables dynamically at runtime
//!   using a BDD substitution operation".
//!
//! Variable order is fixed at allocation time: the integer index of a
//! variable *is* its level in the order. Callers that need a good order (such
//! as rzen's interaction analysis, which interleaves variables compared for
//! equality) choose it by allocating variables in the desired sequence.
//!
//! ## Example
//!
//! ```
//! use rzen_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let x = m.var(0);
//! let y = m.var(1);
//! let xy = m.and(x, y);
//! let or = m.or(x, y);
//! assert!(m.implies_check(xy, or));
//! assert_eq!(m.sat_count(xy, 2), 1.0);
//! ```

mod cube;
mod export;
mod hash;
mod manager;
mod quant;
mod replace;
mod sat;

pub use cube::Cube;
pub use hash::{FastHashMap, FastHashSet, FastHasherBuilder};
pub use manager::{Bdd, BddManager, BddStats, BDD_FALSE, BDD_TRUE};
pub use replace::VarMap;
/// The workspace's stable hasher, for crates above this one that hash
/// model data into fingerprints (`rzen_net::topology::Network::digest`).
pub use rzen_obs::Fnv1a;
