//! The core of the Getafix reproduction: symbolic reachability for
//! recursive Boolean programs, with the model-checking algorithms *written
//! as fixed-point formulae* (PLDI 2009, La Torre–Madhusudan–Parlato).
//!
//! The pipeline mirrors Figure 1 of the paper:
//!
//! 1. a Boolean program is lowered to a CFG (`getafix-boolprog`);
//! 2. [`encode`] compiles the program into the seven *template relations*
//!    of §4 (`Init`, `ProgramInt`, `ProgramCall`, `SkipCall`, `SetReturn1`,
//!    `SetReturn2`, `Entry`/`Exit`/`Target` point sets) as BDDs;
//! 3. [`systems`] states a reachability algorithm as a one-page equation
//!    system in the fixed-point calculus (`getafix-mucalc`);
//! 4. the generic solver evaluates the system — no algorithm-specific BDD
//!    code anywhere.
//!
//! # Example
//!
//! ```
//! use getafix_boolprog::{parse_program, Cfg};
//! use getafix_core::{check_label, Algorithm};
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

pub mod encode;
pub mod systems;

mod analysis;

pub use analysis::{
    build_solver, build_solver_with, build_trace_solver_with, check_label, check_reachability,
    check_reachability_with, emit_system, emit_trace_system, Algorithm, AnalysisError,
    AnalysisResult,
};
pub use encode::{assign_bit, can_value, eq_except, install_templates, EncodeError};
/// The constant, comparison and equality builders [`encode`] uses,
/// re-exported next to its own so that `conc` and the baselines import
/// every relation builder from one place.
pub use getafix_mucalc::{eq_const, eq_consts, eq_vars, lt_const};
pub use systems::{system_ef, system_ef_trace, system_efopt, system_simple};
