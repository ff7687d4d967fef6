//! Concurrent witness extraction: a bounded-round *schedule* out of the
//! solved §5.1 `Reach` relation — like the sequential path, evidence from
//! the **verdict solver itself**, never a second solve.
//!
//! A `Reach` tuple already carries the whole interleaving skeleton: the
//! per-context active threads `t̄ = t0 … tk` and the shared-global
//! valuations `ḡ = g1 … gk` recorded at each context switch — provenance
//! baked into the relation, so no rank snapshots are required here.
//! Extraction is a single constrained cube pick ([`Manager::sat_one`]) on
//! `Reach ∧ Target(s.pc)` against the solver's memoized interpretation
//! ([`concurrent_witness_from`]), followed by decoding. The result is the
//! concurrency analogue of a trace: it resolves every *scheduler* choice,
//! and the explicit engine searches the intra-round steps
//! ([`getafix_conc::conc_refine_schedule`]); a schedule is executable
//! exactly when it refines.

use crate::seq::{read_bits, WitnessError};
use crate::trace::{ConcTrace, Round, Schedule};
use getafix_bdd::{Bdd, Var};
use getafix_boolprog::Pc;
use getafix_conc::{
    build_conc_solver_with, conc_refine_schedule, conc_replay_guided, ConcExplicitError, Merged,
};
use getafix_mucalc::{eq_const, ResourceLimits, SolveOptions, Solver};

/// Extracts a schedule reaching `targets` within `switches` context
/// switches, or `None` when unreachable.
///
/// The schedule is structurally validated ([`Schedule::is_well_formed`])
/// before being returned; full semantic validation — replaying it in the
/// explicit engine — is the caller's choice, because it materializes
/// stacks and so only terminates for finite-recursion programs (the
/// symbolic engine has no such limit).
///
/// # Errors
///
/// See [`WitnessError`].
pub fn concurrent_witness(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
    options: SolveOptions,
) -> Result<Option<Schedule>, WitnessError> {
    guard_width(merged)?;
    let mut solver = build_conc_solver_with(merged, targets, switches, options)
        .map_err(|e| WitnessError::Solve(e.to_string()))?;
    concurrent_witness_from(&mut solver, merged, targets, switches)
}

/// As [`concurrent_witness`], but extracting from an **already-built**
/// solver (see [`getafix_conc::build_conc_solver_with`]) — when the
/// verdict was just computed, `Reach` is memoized and extraction costs a
/// single cube pick instead of a second fixpoint solve.
///
/// # Errors
///
/// See [`WitnessError`].
pub fn concurrent_witness_from(
    solver: &mut Solver,
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
) -> Result<Option<Schedule>, WitnessError> {
    let mut span = getafix_telemetry::span(getafix_telemetry::Phase::Witness, "concurrent_witness");
    if span.is_recording() {
        span.attr("targets", targets.len());
        span.attr("switches", switches);
    }
    guard_width(merged)?;
    let reach = solver.evaluate("Reach")?;

    // Constrain s.pc to the target set.
    let pc_vars: Vec<Var> = {
        let s = solver.alloc().formal("Reach", 0).clone();
        s.leaves_under(&["pc".to_string()])
            .first()
            .ok_or_else(|| WitnessError::Internal("Conf field `pc` missing".into()))?
            .vars
            .clone()
    };
    let hit = {
        let m = solver.manager();
        let mut t = Bdd::FALSE;
        for &pc in targets {
            let p = eq_const(m, &pc_vars, pc as u64);
            t = m.or(t, p);
        }
        m.and(reach, t)
    };
    if hit.is_false() {
        return Ok(None);
    }
    let cube = solver
        .manager()
        .sat_one(hit)
        .ok_or_else(|| WitnessError::Internal("non-empty set yielded no cube".into()))?;

    let leaf_value = |solver: &Solver, formal: usize, path: &[&str]| -> Result<u64, WitnessError> {
        let inst = solver.alloc().formal("Reach", formal).clone();
        let path: Vec<String> = path.iter().map(ToString::to_string).collect();
        let leaf = inst
            .leaves_under(&path)
            .first()
            .map(|l| l.vars.clone())
            .ok_or_else(|| WitnessError::Internal(format!("leaf {path:?} missing")))?;
        Ok(read_bits(&cube, &leaf))
    };

    // Formals: s: Conf, ecs: CS, cs: CS, gs: GVec, ts: TVec.
    let target_pc = leaf_value(solver, 0, &["pc"])? as Pc;
    let ecs = leaf_value(solver, 1, &[])? as usize;
    let cs = leaf_value(solver, 2, &[])? as usize;
    if cs > switches || ecs > cs {
        return Err(WitnessError::Internal(format!(
            "decoded tuple violates the bound: ecs={ecs}, cs={cs}, k={switches}"
        )));
    }
    let mut rounds = Vec::with_capacity(cs + 1);
    for j in 0..=cs {
        let thread = leaf_value(solver, 4, &[&format!("t{j}")])? as usize;
        let globals_at_entry = if j == 0 { 0 } else { leaf_value(solver, 3, &[&format!("g{j}")])? };
        rounds.push(Round { thread, globals_at_entry });
    }
    let schedule = Schedule { rounds, bound: switches, target: target_pc };
    if !schedule.is_well_formed(merged.n_threads) {
        return Err(WitnessError::Internal(format!(
            "extracted schedule is malformed: {schedule:?}"
        )));
    }
    Ok(Some(schedule))
}

/// Refines an already-extracted [`Schedule`] into a **statement-granular**
/// [`ConcTrace`]: the explicit engine searches *within* the schedule's
/// script ([`getafix_conc::conc_refine_schedule`]) for the interleaving,
/// with every nondeterministic choice pinned, and the result must survive
/// deterministic guided replay ([`getafix_conc::conc_replay_guided`]) — an
/// extracted trace is evidence, not a claim. Both run under `limits`.
///
/// The refinement materializes call stacks, so programs whose witnesses
/// need unbounded recursion exceed the explicit engine's caps —
/// [`WitnessError::Limit`] — and callers should degrade to the
/// round-level [`Schedule`] (the CLI does).
///
/// # Errors
///
/// [`WitnessError::Limit`] when the explicit refinement exceeds its state
/// or stack cap (unbounded recursion), [`WitnessError::TooManyVariables`]
/// when a frame does not fit the explicit engine's 64 bits
/// ([`getafix_boolprog::Cfg::check_frame_width`]),
/// [`WitnessError::ResourceLimit`] when `limits` trip, and
/// [`WitnessError::Internal`] when the schedule does not refine or the
/// refined script fails guided replay (both extractor bugs, kept dead by
/// the differential suites).
pub fn concurrent_trace_from_schedule(
    merged: &Merged,
    targets: &[Pc],
    schedule: &Schedule,
    limits: ResourceLimits,
) -> Result<ConcTrace, WitnessError> {
    let _span = getafix_telemetry::span(getafix_telemetry::Phase::Witness, "refine_schedule");
    let rounds = schedule.to_replay();
    let refined = conc_refine_schedule(merged, targets, &rounds, limits.clone())
        .map_err(map_explicit)?
        .ok_or_else(|| {
            WitnessError::Internal(format!(
                "extracted schedule does not refine into statement steps \
                 (infeasible under the explicit semantics): {schedule:?}"
            ))
        })?;
    conc_replay_guided(merged, targets, &rounds, &refined.steps, limits).map_err(|e| match e {
        ConcExplicitError::ResourceLimit { kind, .. } => WitnessError::ResourceLimit(kind),
        e => WitnessError::Internal(format!("refined trace failed guided replay: {e}")),
    })?;
    Ok(ConcTrace::from_guided(schedule.clone(), &refined.steps))
}

/// Explicit-engine failures as witness errors: resource exhaustion keeps
/// its budget (callers degrade on it), everything else is internal.
fn map_explicit(e: ConcExplicitError) -> WitnessError {
    match e {
        ConcExplicitError::StateLimit(n) | ConcExplicitError::StackLimit(n) => {
            WitnessError::Limit(n)
        }
        ConcExplicitError::ResourceLimit { kind, .. } => WitnessError::ResourceLimit(kind),
        ConcExplicitError::TooManyVariables(m) => WitnessError::TooManyVariables(m),
        other => WitnessError::Internal(other.to_string()),
    }
}

/// Schedule decoding packs the shared globals into a `u64`
/// ([`getafix_boolprog::Bits`]); wider programs solve symbolically but
/// cannot be decoded (or replayed explicitly).
fn guard_width(merged: &Merged) -> Result<(), WitnessError> {
    if merged.cfg.globals.len() > 64 {
        return Err(WitnessError::TooManyVariables(format!(
            "{} merged globals exceed the 64-bit schedule frame",
            merged.cfg.globals.len()
        )));
    }
    Ok(())
}
