//! Bounded context-switching reachability for concurrent recursive Boolean
//! programs — §5 of the paper.
//!
//! The contribution reproduced here is the *lazy* fixed-point formulation
//! `Reach(u, v, ecs, cs, ḡ, t̄)` that explores only reachable states and
//! keeps just `k + 1` copies of the shared globals (`ḡ` plus the current
//! valuation), against the `3k` copies of the eager Lal–Reps reduction.
//!
//! * [`merge`] folds the threads of a [`ConcProgram`](getafix_boolprog::ConcProgram)
//!   into one combined CFG
//!   (thread-private globals are promoted to shared with mangled names);
//! * [`system_conc`] *generates* the §5.1 formula for a given bound `k` and
//!   thread count `n` — `First`, `Consecutive` and the indexed accesses
//!   `g_cs`/`t_cs` expand into finite disjunctions;
//! * [`check_conc_reachability`] runs the pipeline end to end;
//! * [`conc_explicit_reachable`] is the explicit-state oracle for
//!   differential testing;
//! * [`conc_refine_schedule`] refines a bounded-round witness schedule
//!   into a statement-granular step script with the oracle's own search,
//!   confined to the schedule (a schedule is executable exactly when it
//!   refines), and [`conc_replay_guided`] follows such a script
//!   deterministically (one successor per step, no search), checking
//!   every step with the sequential replayer's step checker
//!   ([`getafix_boolprog::replay_step`]).
//!
//! # Example
//!
//! ```
//! use getafix_boolprog::parse_concurrent;
//! use getafix_conc::check_conc_reachability;
//!
//! let conc = parse_concurrent(r#"
//!     shared flag;
//!     thread
//!       main() begin
//!         if (flag) then HIT: skip; fi;
//!       end
//!     endthread
//!     thread
//!       main() begin
//!         flag := T;
//!       end
//!     endthread
//! "#)?;
//! // One context switch suffices: run the setter, switch, observe.
//! let result = check_conc_reachability(&conc, "t0__HIT", 1)?;
//! assert!(result.reachable);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod explicit;
mod merge;
mod system;

pub use analysis::{
    build_conc_solver, build_conc_solver_with, check_conc_reachability,
    check_conc_reachability_with, check_conc_solver, check_merged, check_merged_with, ConcError,
    ConcResult,
};
pub use explicit::{
    conc_explicit_reachable, conc_refine_schedule, conc_replay_guided, ConcExplicitError,
    ConcLimits, GuidedStep, RefinedTrace, ScheduleRound,
};
pub use merge::{merge, slice_merged, Merged};
pub use system::{system_conc, ConcParams};
