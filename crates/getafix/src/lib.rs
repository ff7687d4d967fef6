//! **Getafix** — "get a fix using fixed points": a reproduction of
//! *Analyzing Recursive Programs using a Fixed-point Calculus*
//! (La Torre, Madhusudan, Parlato — PLDI 2009) as a Rust workspace.
//!
//! The paper's thesis: symbolic model-checking algorithms for (sequential
//! and concurrent) recursive Boolean programs are best *written as
//! formulae* in a first-order fixed-point calculus and executed by a
//! generic BDD-backed solver. This umbrella crate re-exports the whole
//! pipeline:
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | substrate | [`bdd`] | hash-consed ROBDDs |
//! | solver | [`mucalc`] | the fixed-point calculus + `Evaluate` semantics (§3) |
//! | language | [`boolprog`] | Boolean programs, CFGs, explicit oracle (§2) |
//! | algorithms | [`core`] | templates + the three algorithms as formulae (§4) |
//! | concurrency | [`conc`] | bounded context-switch `Reach` fixpoint (§5) |
//! | baselines | [`pds`], [`bebop`] | hand-coded MOPED / BEBOP stand-ins |
//! | witnesses | [`witness`] | error-trace extraction + replay validation |
//! | workloads | [`workloads`] | Figure 2 / Figure 3 benchmark generators |
//!
//! # Quick start
//!
//! ```
//! use getafix::prelude::*;
//!
//! let program = parse_program(r#"
//!     decl g;
//!     main() begin
//!       decl x;
//!       x := *;
//!       g := f(x);
//!       if (g) then HIT: skip; fi;
//!     end
//!     f(a) returns 1 begin
//!       return !a;
//!     end
//! "#)?;
//! let cfg = Cfg::build(&program)?;
//! let result = check_label(&cfg, "HIT", Algorithm::EntryForwardOpt)?;
//! assert!(result.reachable);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cli;
pub mod lint;

pub use getafix_bdd as bdd;
pub use getafix_bebop as bebop;
pub use getafix_boolprog as boolprog;
pub use getafix_conc as conc;
pub use getafix_core as core;
pub use getafix_mucalc as mucalc;
pub use getafix_pds as pds;
pub use getafix_telemetry as telemetry;
pub use getafix_witness as witness;
pub use getafix_workloads as workloads;

/// The most common imports, for examples and quick scripts.
pub mod prelude {
    pub use getafix_bebop::bebop_reachable;
    pub use getafix_boolprog::{
        explicit_reachable, explicit_reachable_label, parse_concurrent, parse_program, Cfg,
        ConcProgram, Program,
    };
    pub use getafix_conc::{
        build_conc_solver_with, check_conc_reachability, check_conc_reachability_with,
        check_conc_solver, check_merged_with, merge, ConcParams,
    };
    pub use getafix_core::{
        build_solver_with, build_trace_solver_with, check_label, check_reachability,
        check_reachability_with, emit_system, emit_trace_system, Algorithm,
    };
    pub use getafix_mucalc::{SolveOptions, Strategy};
    pub use getafix_pds::{poststar, prestar};
    pub use getafix_witness::{
        concurrent_trace_from_schedule, concurrent_witness, concurrent_witness_from,
        sequential_witness, sequential_witness_from, WitnessLimits,
    };
}
