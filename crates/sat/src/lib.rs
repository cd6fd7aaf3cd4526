//! # rzen-sat — a CDCL SAT solver
//!
//! The satisfiability substrate behind rzen's SMT-style backend. The paper's
//! SMT backend "encodes all primitive operations using the theory of
//! bitvectors before bitblasting the formulas to SAT" (§6); rzen performs
//! the same eager pipeline, and this crate is the SAT engine at the bottom
//! of it.
//!
//! The solver is a conflict-driven clause-learning (CDCL) design of
//! MiniSat lineage:
//!
//! * clauses stored inline in a flat `u32` arena with a relocating
//!   garbage collector (no per-clause allocation, no tombstone leak),
//! * two watched literals per clause for unit propagation, with
//!   **dedicated binary-clause watch lists** propagated first, every list
//!   in one flat watch pool,
//! * first-UIP conflict analysis with local clause minimization and
//!   non-chronological backjumping,
//! * exponential VSIDS variable activities with an indexed max-heap,
//! * phase saving,
//! * Luby-sequence restarts,
//! * LBD-aware learnt-clause database reduction on MiniSat's geometric
//!   schedule,
//! * level-0 simplification and inprocessing (subsumption, self-subsuming
//!   resolution, bounded variable elimination) for long-lived incremental
//!   sessions,
//! * solving under assumptions (incremental queries reuse learnt clauses).
//!
//! ## Example
//!
//! ```
//! use rzen_sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);   // a ∨ b
//! s.add_clause(&[Lit::neg(a)]);                // ¬a
//! assert!(s.solve());
//! assert!(!s.value(a));
//! assert!(s.value(b));
//! ```

mod arena;
pub mod dimacs;
mod heap;
mod simplify;
mod solver;
mod types;
mod watch;

pub use solver::{flush_obs_stats, SolveStatus, Solver, Stats};
pub use types::{Lit, Var};
