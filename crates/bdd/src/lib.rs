//! Reduced ordered binary decision diagrams (ROBDDs) with complement edges.
//!
//! This crate is the symbolic substrate of the Getafix reproduction: every
//! relation manipulated by the fixed-point solver (`getafix-mucalc`), the
//! pushdown-system baselines and the summary engines is represented as a BDD
//! managed by a [`Manager`].
//!
//! The design follows the production hash-consed architecture
//! (Brace–Rudell–Bryant, as deployed in CUDD-class packages):
//!
//! * nodes live in an arena owned by a [`Manager`]; a [`Bdd`] is a cheap
//!   `Copy` handle — an arena index plus a **complement bit** — so
//!   negation is a single xor and a function shares its entire DAG with
//!   its complement (roughly halving the arena),
//! * the **canonical form**: of the two encodings of every node, only the
//!   one whose *low edge is regular* (uncomplemented) is stored, and there
//!   is a single terminal node ([`Bdd::FALSE`] is its regular handle,
//!   [`Bdd::TRUE`] its complement) — structurally equal functions are
//!   handle-equal, so equivalence checks are `O(1)`,
//! * an **open-addressed unique table** hash-conses nodes: arena indices in
//!   a power-of-two probe array, rebuilt from the arena at twice the
//!   capacity when it reaches load 3/4,
//! * **lossy computed tables** memoize `ite`, conjunction, quantification
//!   and relational products: fixed-size direct-mapped arrays
//!   (overwrite-on-collision, of fixed sizes) in which an all-zero slot is
//!   empty, since no lookup key starts with a constant handle. Lossiness
//!   is sound because canonicity makes keys exact — an evicted entry costs
//!   a recomputation, never a wrong answer (see the `cache` module docs),
//! * variables are identified by their *level* (`u32`); the variable order
//!   is the numeric order of levels and is fixed at variable-creation time.
//!
//! # Example
//!
//! ```
//! use getafix_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let fx = m.var(x);
//! let fy = m.var(y);
//! let conj = m.and(fx, fy);
//! let quantified = m.exists_one(conj, y); // ∃y. x ∧ y  ==  x
//! assert_eq!(quantified, fx);
//! assert_eq!(m.sat_count(conj, 2), 1.0);
//! ```
//!
//! # Garbage collection
//!
//! The arena only grows during normal operation. Long-running fixed-point
//! computations call [`Manager::gc`] with the handles they need to keep; the
//! manager rebuilds the arena, remaps the roots (complement bits preserved),
//! rebuilds the unique table over the survivors and drops the computed
//! tables. A collection is the only point where the footprint falls, so
//! the peaks in [`ManagerStats`] are read there and in [`Manager::stats`],
//! never tracked per node.

mod cache;
mod explore;
mod gc;
mod hasher;
mod manager;
mod quant;
mod rename;
mod table;

pub use cache::{CacheTable, TableCounts};
pub use explore::CubeIter;
pub use gc::GcResult;
pub use manager::{Bdd, Manager, ManagerStats, Var};
pub use rename::VarMap;
