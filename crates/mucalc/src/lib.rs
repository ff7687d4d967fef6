//! A first-order fixed-point calculus over finite Boolean domains, with a
//! symbolic (BDD-backed) solver — the reproduction's stand-in for MUCKE.
//!
//! The paper's thesis (§1, §3) is that symbolic model-checking algorithms
//! are best *written as formulae* in a calculus like this one and evaluated
//! by a generic solver. This crate supplies:
//!
//! * a typed AST ([`Formula`], [`Term`], [`Type`]) for first-order logic
//!   with relation application over finite domains;
//! * [`System`]: mutually recursive least-fixed-point equation systems with
//!   *input* relations (the compiled program templates) and Boolean queries;
//! * [`Solver`]: two evaluation [`Strategy`]s over the same equations —
//!   the default demand-driven **worklist engine** (SCC stratification,
//!   change-driven iteration that recompiles only the disjuncts whose
//!   reads changed; see `worklist.rs`/`deps.rs`) and the paper's
//!   `Evaluate(R, Eq)` operational semantics (§3) as the **round-robin**
//!   reference, which also gives meaning to **non-monotone** systems such
//!   as the optimized entry-forward algorithm (§4.3);
//! * a MUCKE-flavoured concrete syntax: [`parse_system`] and a
//!   pretty-printer that round-trips with it.
//!
//! # Example: symbolic reachability in five lines of calculus
//!
//! The §3 example — `Reach(u) = Init(u) ∨ ∃x.(Reach(x) ∧ Trans(x, u))` —
//! runs like this:
//!
//! ```
//! use getafix_mucalc::{parse_system, Solver};
//!
//! let system = parse_system(r#"
//!     type State = bits 2;
//!     input Init(s: State);
//!     input Trans(s: State, t: State);
//!     mu Reach(u: State) :=
//!         Init(u) | (exists x: State. Reach(x) & Trans(x, u));
//!     query hit := exists u: State. Reach(u) & u = 3;
//! "#).unwrap();
//!
//! let mut solver = Solver::new(system).unwrap();
//! // Init = {0}; Trans = successor: a chain 0 -> 1 -> 2 -> 3.
//! let init = {
//!     let vars = solver.alloc().formal("Init", 0).all_vars();
//!     let m = solver.manager();
//!     getafix_mucalc::eq_const(m, &vars, 0)
//! };
//! solver.set_input("Init", init).unwrap();
//! let trans = {
//!     let s = solver.alloc().formal("Trans", 0).all_vars();
//!     let t = solver.alloc().formal("Trans", 1).all_vars();
//!     let m = solver.manager();
//!     let mut acc = m.constant(false);
//!     for v in 0u64..3 {
//!         let a = getafix_mucalc::eq_const(m, &s, v);
//!         let b = getafix_mucalc::eq_const(m, &t, v + 1);
//!         let edge = m.and(a, b);
//!         acc = m.or(acc, edge);
//!     }
//!     acc
//! };
//! solver.set_input("Trans", trans).unwrap();
//! assert!(solver.eval_query("hit").unwrap());
//! ```

mod alloc;
mod ast;
mod compile;
mod deps;
mod limits;
mod parse;
mod pretty;
mod provenance;
mod solve;
mod system;
mod topology;
mod types;
mod worklist;

pub use alloc::{eq_const, eq_consts, eq_vars, lt_const, lt_vars, Allocation, Instance, LeafAlloc};
pub use ast::{CmpOp, Formula, Term};
pub use deps::{DepGraph, OrderedPlan, Scc};
pub use limits::{install_sigint_cancel, CancelToken, LimitKind, LimitReport, ResourceLimits};
pub use parse::{parse_system, ParseError};
pub use provenance::Provenance;
pub use solve::{
    DisjunctStats, RelationStats, SccStats, SolveError, SolveOptions, SolveStats, Solver, Strategy,
};
pub use system::{Query, RelationDef, RelationKind, System, SystemBuilder, SystemError};
pub use topology::{check_depgraph_dot, depgraph_dot, depgraph_json};
pub use types::{range_width, Leaf, Type, TypeError, TypeTable, MAX_TYPE_BITS};

// Re-export the substrate types users need to build input relations.
pub use getafix_bdd::{Bdd, Manager, Var, VarMap};
