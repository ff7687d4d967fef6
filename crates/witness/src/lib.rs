//! Witness extraction and trace replay: from fixed-point summaries to
//! concrete, replayable error traces.
//!
//! The checkers in this workspace answer *reachable / unreachable*; this
//! crate answers **why**. The paper's summary relations contain exactly
//! the entry→configuration provenance needed to reconstruct an
//! interprocedural error path, and the solver's rank provenance
//! ([`getafix_mucalc::SolveOptions::record_provenance`]) makes the
//! reconstruction well-founded (onion-peeling by first-appearance rank).
//!
//! * [`sequential_witness_from`] — a concrete [`Trace`] through a
//!   recursive Boolean program, peeled **directly from the verdict
//!   solver's provenance** (one solve answers *reachable?* and *why*);
//!   [`sequential_witness`] is the demoted two-solve oracle variant.
//!   Traces carry internal steps, calls and summary-justified returns,
//!   and every one is re-executed in the concrete interpreter
//!   ([`getafix_boolprog::replay`]) before being returned, making
//!   witnesses a second differential oracle against the symbolic engines.
//! * [`concurrent_witness`] — a bounded-round [`Schedule`] for the §5
//!   engine: who runs in each context and the shared-global valuation at
//!   every switch. A schedule is executable exactly when the explicit
//!   engine refines it ([`getafix_conc::conc_refine_schedule`]).
//! * [`concurrent_trace_from_schedule`] — the schedule refined into a
//!   **statement-granular** interleaved [`ConcTrace`]: an explicit
//!   `(round, thread, pc, valuation)` step sequence with every
//!   nondeterministic choice pinned, validated by the *deterministic*
//!   guided replayer ([`getafix_conc::conc_replay_guided`] — one
//!   successor per step, no frontier search, each step checked by
//!   [`getafix_boolprog::replay_step`], the sequential replayer's step
//!   checker) before being returned.
//!
//! # Example
//!
//! ```
//! use getafix_boolprog::{parse_program, Cfg};
//! use getafix_mucalc::SolveOptions;
//! use getafix_witness::sequential_witness;
//!
//! let program = parse_program(r#"
//!     decl g;
//!     main() begin
//!       decl x;
//!       x := f(T);
//!       if (x) then HIT: skip; fi;
//!     end
//!     f(a) returns 1 begin
//!       return a;
//!     end
//! "#)?;
//! let cfg = Cfg::build(&program)?;
//! let target = cfg.label("HIT").expect("label exists");
//! let trace = sequential_witness(&cfg, &[target], SolveOptions::default())?
//!     .expect("HIT is reachable");
//! assert_eq!(trace.target, target);
//! // The trace ends at HIT and replays in the concrete interpreter —
//! // sequential_witness already validated that before returning.
//! println!("{}", trace.render(&cfg));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod conc;
mod seq;
mod trace;

pub use conc::{concurrent_trace_from_schedule, concurrent_witness, concurrent_witness_from};
pub use seq::{sequential_witness, sequential_witness_from, WitnessError, WitnessLimits};
pub use trace::{ConcStep, ConcTrace, Round, Schedule, Step, StepKind, Trace};
