//! Explicit-state bounded-context-switch exploration: the concurrent
//! ground-truth oracle, schedule refinement, and the guided step replayer.
//!
//! A full configuration — shared globals plus one call stack per thread —
//! is explored by BFS with a context-switch budget. Unlike the symbolic
//! engine this cannot handle unbounded recursion (stacks are materialized),
//! so a stack-depth limit turns runaway recursion into an error; the tests
//! use it on finite-stack programs only.
//!
//! One search, with `step_active` as its only successor function, serves
//! two entry points that differ only in the context switches it may take:
//!
//! 1. [`conc_explicit_reachable`] — a switch to any other thread, up to
//!    `k` switches: the differential oracle;
//! 2. [`conc_refine_schedule`] — a switch only into a fixed schedule's
//!    next round (who runs each round, the shared globals at each
//!    hand-over), when the globals equal the valuation that round records.
//!    It records the statement-granular steps that reach a target in the
//!    last round — the refinement from a round-level witness to a concrete
//!    interleaved trace. A schedule is executable exactly when it refines.
//!
//! [`conc_replay_guided`] searches nothing: it follows a step script, takes
//! the schedule's hand-overs itself, and checks each step on the active
//! thread's stack with the sequential replayer's step checker
//! ([`getafix_boolprog::replay_step`]), which shares no code with the
//! search whose output it validates.

use crate::merge::Merged;
use getafix_boolprog::{
    admits, enumerate_choices, next_states, read_var, replay_step, write_var, Bits, Edge, Frame,
    Pc, ReplayStep, VarRef,
};
use getafix_mucalc::{LimitKind, ResourceLimits};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Errors from the explicit concurrent engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcExplicitError {
    /// The state budget was exhausted.
    StateLimit(usize),
    /// A shared resource bound tripped ([`ConcLimits::resources`]):
    /// deadline, step budget, or an external cancellation. Carries the
    /// number of distinct configurations searched up to the trip, so the
    /// budget overrun is reported against the work actually done.
    ResourceLimit {
        /// Which bound tripped.
        kind: LimitKind,
        /// Distinct configurations visited when the limit fired.
        search_states: usize,
    },
    /// A stack exceeded the depth limit (recursion too deep to explore
    /// explicitly).
    StackLimit(usize),
    /// Frame too wide for the explicit engine.
    TooManyVariables(String),
    /// A replay schedule that is not even shaped like a schedule (empty,
    /// or naming a thread the program does not have).
    MalformedSchedule(String),
    /// A configuration that violates the engine's structural invariants —
    /// a frame whose pc lies outside its procedure, a return frame with no
    /// caller below it, an active thread out of range. These indicate a
    /// corrupted input, never a user program error.
    MalformedConfiguration(String),
    /// Guided replay rejected a scripted step: its thread, pc, or
    /// valuation disagrees with the engine's concrete semantics.
    ScriptRejected {
        /// Index of the offending step (`steps.len()` for end-of-script
        /// failures such as "final pc is not a target").
        step: usize,
        /// Human-readable reason.
        message: String,
    },
}

impl fmt::Display for ConcExplicitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcExplicitError::StateLimit(n) => write!(f, "state limit {n} exceeded"),
            ConcExplicitError::ResourceLimit { kind, search_states } => {
                write!(
                    f,
                    "resource limit exceeded ({kind}) after searching {search_states} \
                     configurations"
                )
            }
            ConcExplicitError::StackLimit(n) => write!(f, "stack depth limit {n} exceeded"),
            ConcExplicitError::TooManyVariables(m) => write!(f, "{m}"),
            ConcExplicitError::MalformedSchedule(m) => write!(f, "{m}"),
            ConcExplicitError::MalformedConfiguration(m) => {
                write!(f, "malformed configuration: {m}")
            }
            ConcExplicitError::ScriptRejected { step, message } => {
                write!(f, "guided replay rejected step {step}: {message}")
            }
        }
    }
}

impl std::error::Error for ConcExplicitError {}

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct ConcLimits {
    /// Maximum distinct configurations.
    pub max_states: usize,
    /// Maximum call-stack depth per thread.
    pub max_stack: usize,
    /// Shared resource governance (deadline, step budget, cancel token):
    /// every BFS expansion accounts one step, so the same budget that
    /// bounds the symbolic solve also bounds the explicit search. Off by
    /// default.
    pub resources: ResourceLimits,
}

impl Default for ConcLimits {
    fn default() -> Self {
        ConcLimits { max_states: 2_000_000, max_stack: 12, resources: ResourceLimits::default() }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Config {
    /// Context switches taken so far; under a schedule, the round index.
    switches_used: usize,
    active: usize,
    globals: Bits,
    stacks: Vec<Vec<Frame>>,
}

impl Config {
    /// The initial configuration: every variable `false`, `first` active,
    /// no other thread started.
    fn start(merged: &Merged, first: usize) -> Config {
        let stacks = vec![Vec::new(); merged.n_threads];
        let mut c = Config { switches_used: 0, active: first, globals: 0, stacks };
        c.activate(merged, first);
        c
    }

    /// Gives the processor to `thread`, which starts at its entry on its
    /// first activation.
    fn activate(&mut self, merged: &Merged, thread: usize) {
        self.active = thread;
        if self.stacks[thread].is_empty() {
            let entry = merged.thread_entries[thread];
            let proc = merged.cfg.proc_of(entry).id;
            self.stacks[thread].push(Frame { proc, pc: entry, locals: 0, on_return: None });
        }
    }
}

/// The context switches a [`search`] may take.
#[derive(Clone, Copy)]
enum Switches<'a> {
    /// To any other thread, up to this many switches; a target counts in
    /// every round.
    Any(usize),
    /// Only into the schedule's next round, and only when the globals
    /// equal the valuation that round records; a target counts in the
    /// last round only.
    Scheduled(&'a [ScheduleRound]),
}

/// Explicit bounded-context-switch reachability of any pc in `targets`.
///
/// # Errors
///
/// See [`ConcExplicitError`].
pub fn conc_explicit_reachable(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
    limits: ConcLimits,
) -> Result<bool, ConcExplicitError> {
    check_input(merged, None)?;
    // §5 fixes the whole schedule vector t̄, t0 included: any thread may
    // run first.
    let found = search(merged, targets, 0..merged.n_threads, Switches::Any(switches), &limits)?;
    Ok(found.is_some())
}

/// One round of a context-switch schedule: the active thread and the
/// shared-global valuation the round is entered with (round 0 always starts
/// from the all-`false` valuation).
pub type ScheduleRound = (usize, Bits);

/// One scripted step of a statement-granular concurrent trace: which
/// thread moved, in which schedule round, and the transition's post-state
/// (the same [`ReplayStep`] shape sequential replay uses — destination pc,
/// shared globals, and the active frame's locals after the step).
///
/// Context switches are not steps: the `round` field places every step in
/// a schedule round, and [`conc_replay_guided`] performs the hand-overs
/// between rounds itself, checking the recorded valuations. This makes
/// zero-step rounds (a thread that switches in and immediately out, or a
/// target already at the handed-over pc) representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuidedStep {
    /// Index of the schedule round the step executes in.
    pub round: usize,
    /// The thread taking the step — must equal the round's scheduled
    /// thread.
    pub thread: usize,
    /// The transition, recording the post-state.
    pub step: ReplayStep,
}

/// A statement-granular refinement of a context-switch schedule: the step
/// script plus how much searching it took to find.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinedTrace {
    /// The steps, in execution order across all rounds.
    pub steps: Vec<GuidedStep>,
    /// Distinct configurations the schedule-constrained search visited —
    /// the work [`conc_replay_guided`] does *not* repeat (it visits
    /// exactly `steps.len() + 1` configurations).
    pub search_states: usize,
}

/// Refines a fixed schedule — the witness the symbolic engine extracts —
/// into a **statement-granular step sequence**. The search runs exactly
/// the schedule's per-round threads, and switches from round `j` to round
/// `j + 1` only when the shared globals equal the valuation the schedule
/// records for that hand-over. On reaching a target pc in the final round
/// it reconstructs the concrete interleaved path as a [`GuidedStep`]
/// script. Returns `Ok(None)` when the schedule is well-formed but
/// infeasible: a schedule is executable exactly when it refines.
///
/// The returned script resolves *every* choice left open by the schedule —
/// which statement runs next, and the value taken at each
/// nondeterministic assign, call-argument, and return site
/// ([`enumerate_choices`] pinning) — so [`conc_replay_guided`] can follow
/// it with no search at all.
///
/// # Errors
///
/// See [`ConcExplicitError`]. A malformed schedule (empty, naming a thread
/// out of range, or a round 0 that does not start from the all-`false`
/// valuation) is an error.
pub fn conc_refine_schedule(
    merged: &Merged,
    targets: &[Pc],
    schedule: &[ScheduleRound],
    limits: ConcLimits,
) -> Result<Option<RefinedTrace>, ConcExplicitError> {
    check_input(merged, Some(schedule))?;
    search(merged, targets, [schedule[0].0], Switches::Scheduled(schedule), &limits)
}

/// Breadth-first search from the initial configuration of each thread in
/// `first`, stepping the active thread with `step_active` and switching as
/// `switches` allows, for a configuration whose active thread sits at a
/// target pc. Returns the steps into the first one found and the number
/// of configurations discovered, or `None` when none is reachable.
fn search(
    merged: &Merged,
    targets: &[Pc],
    first: impl IntoIterator<Item = usize>,
    switches: Switches<'_>,
    limits: &ConcLimits,
) -> Result<Option<RefinedTrace>, ConcExplicitError> {
    // States are interned: `index` deduplicates, and `links` holds the
    // predecessor id and the step taken into each state by discovery id,
    // so path reconstruction follows `usize` links instead of cloning
    // configuration chains. A switch carries no step (the guided replayer
    // re-derives hand-overs from the schedule itself); an initial state
    // has no predecessor.
    let mut index: BTreeMap<Config, usize> = BTreeMap::new();
    let mut links: Vec<(Option<usize>, Option<GuidedStep>)> = Vec::new();
    let mut queue: VecDeque<(usize, Config)> = VecDeque::new();
    let mut found: Vec<(Config, Option<usize>, Option<GuidedStep>)> =
        first.into_iter().map(|t| (Config::start(merged, t), None, None)).collect();
    loop {
        for (c, parent, step) in found.drain(..) {
            if let Entry::Vacant(v) = index.entry(c.clone()) {
                v.insert(links.len());
                queue.push_back((links.len(), c));
                links.push((parent, step));
            }
        }
        let Some((id, c)) = queue.pop_front() else { return Ok(None) };
        if links.len() > limits.max_states {
            return Err(ConcExplicitError::StateLimit(limits.max_states));
        }
        // One governed step per expansion: deadline poll + step budget.
        limits.resources.note_steps(1).map_err(|kind| ConcExplicitError::ResourceLimit {
            kind,
            search_states: links.len(),
        })?;
        let target_counts = match switches {
            Switches::Any(_) => true,
            Switches::Scheduled(schedule) => c.switches_used + 1 == schedule.len(),
        };
        if target_counts && c.stacks[c.active].last().is_some_and(|top| targets.contains(&top.pc)) {
            let mut steps: Vec<GuidedStep> = Vec::new();
            let mut at = Some(id);
            while let Some(i) = at {
                let (parent, step) = links[i];
                steps.extend(step);
                at = parent;
            }
            steps.reverse();
            return Ok(Some(RefinedTrace { steps, search_states: links.len() }));
        }
        let mut stepped: Vec<(Config, ReplayStep)> = Vec::new();
        step_active(merged, &c, limits.max_stack, &mut stepped)?;
        let (round, thread) = (c.switches_used, c.active);
        found.extend(
            stepped
                .into_iter()
                .map(|(c2, step)| (c2, Some(id), Some(GuidedStep { round, thread, step }))),
        );
        let into: Vec<usize> = match switches {
            Switches::Any(k) if c.switches_used < k => {
                (0..merged.n_threads).filter(|&t| t != c.active).collect()
            }
            Switches::Scheduled(schedule) => match schedule.get(c.switches_used + 1) {
                Some(&(t, entry_globals)) if entry_globals == c.globals => vec![t],
                _ => Vec::new(),
            },
            Switches::Any(_) => Vec::new(),
        };
        for t in into {
            let mut c2 = c.clone();
            c2.switches_used += 1;
            c2.activate(merged, t);
            found.push((c2, Some(id), None));
        }
    }
}

/// **Follows** a step script deterministically — the validation mode the
/// statement-granular witness pipeline rests on. Unlike
/// [`conc_refine_schedule`], which searches the intra-round steps, this
/// keeps exactly one configuration and advances it one scripted step at a
/// time: hand-overs between rounds are taken from `schedule` (rejecting a
/// switch whose shared globals disagree with the recorded valuation), and
/// each [`GuidedStep`] must name its round's thread and pass
/// [`replay_step`] on that thread's stack — legal edge, admissible guard
/// and chosen values, untouched frame bits. Zero search states beyond the
/// scripted path are visited.
///
/// # Errors
///
/// [`ConcExplicitError::ScriptRejected`] names the first step whose round,
/// thread, pc, valuation or stack depth disagrees with the engine (or an
/// end-of-script failure: trailing hand-over mismatch, final pc not a
/// target). Schedule shape errors and frame-width errors surface as in
/// [`conc_refine_schedule`].
pub fn conc_replay_guided(
    merged: &Merged,
    targets: &[Pc],
    schedule: &[ScheduleRound],
    steps: &[GuidedStep],
    limits: ConcLimits,
) -> Result<(), ConcExplicitError> {
    check_input(merged, Some(schedule))?;
    let reject = |step: usize, message: String| ConcExplicitError::ScriptRejected { step, message };
    let mut c = Config::start(merged, schedule[0].0);
    // Takes the scheduled hand-over into the next round, checking the
    // recorded valuation.
    let hand_over = |c: &mut Config, at_step: usize| {
        let round = c.switches_used + 1;
        let (next_thread, entry_globals) = schedule[round];
        if c.globals != entry_globals {
            return Err(reject(
                at_step,
                format!(
                    "hand-over into round {round} recorded globals {entry_globals:#b}, \
                     the engine has {:#b}",
                    c.globals
                ),
            ));
        }
        c.switches_used = round;
        c.activate(merged, next_thread);
        Ok(())
    };

    for (i, gs) in steps.iter().enumerate() {
        if gs.round < c.switches_used {
            return Err(reject(
                i,
                format!(
                    "step belongs to round {}, but round {} is already active",
                    gs.round, c.switches_used
                ),
            ));
        }
        if gs.round >= schedule.len() {
            return Err(reject(
                i,
                format!(
                    "step belongs to round {}, beyond the schedule's {} rounds",
                    gs.round,
                    schedule.len()
                ),
            ));
        }
        while c.switches_used < gs.round {
            hand_over(&mut c, i)?;
        }
        if gs.thread != c.active {
            return Err(reject(
                i,
                format!(
                    "step names thread {}, round {} schedules thread {}",
                    gs.thread, c.switches_used, c.active
                ),
            ));
        }
        let stack = &mut c.stacks[c.active];
        if matches!(gs.step, ReplayStep::Call { .. }) && stack.len() >= limits.max_stack {
            return Err(reject(i, format!("stack depth limit {} exceeded", limits.max_stack)));
        }
        replay_step(&merged.cfg, &mut c.globals, stack, &gs.step).map_err(|m| reject(i, m))?;
    }
    // Trailing zero-step rounds still hand over (and check valuations).
    while c.switches_used + 1 < schedule.len() {
        hand_over(&mut c, steps.len())?;
    }
    match c.stacks[c.active].last() {
        Some(top) if targets.contains(&top.pc) => Ok(()),
        Some(top) => Err(reject(steps.len(), format!("final pc {} is not a target", top.pc))),
        None => Err(reject(steps.len(), "final round's thread never started".into())),
    }
}

/// The checks every entry point makes before it packs a valuation or
/// reads a round: the frame width ([`getafix_boolprog::Cfg::check_frame_width`])
/// and, given a schedule, its shape.
fn check_input(
    merged: &Merged,
    schedule: Option<&[ScheduleRound]>,
) -> Result<(), ConcExplicitError> {
    merged.cfg.check_frame_width().map_err(ConcExplicitError::TooManyVariables)?;
    match schedule {
        Some(s) if s.is_empty() || s.iter().any(|&(t, _)| t >= merged.n_threads) || s[0].1 != 0 => {
            Err(ConcExplicitError::MalformedSchedule(format!(
                "malformed schedule {s:?} for {} threads \
                 (round 0 must start from the all-false valuation)",
                merged.n_threads
            )))
        }
        _ => Ok(()),
    }
}

/// Computes the successor configurations of the active thread, each paired
/// with the [`ReplayStep`] (post-state pc/globals/locals) that produced it.
///
/// Configurations built by this module always satisfy the engine's
/// structural invariants; callers feeding externally constructed state get
/// [`ConcExplicitError::MalformedConfiguration`] instead of a panic —
/// the CLI's exit-code-2 contract must hold even on corrupted input.
fn step_active(
    merged: &Merged,
    c: &Config,
    max_stack: usize,
    out: &mut Vec<(Config, ReplayStep)>,
) -> Result<(), ConcExplicitError> {
    let cfg = &merged.cfg;
    let malformed = |m: String| Err(ConcExplicitError::MalformedConfiguration(m));
    let Some(stack) = c.stacks.get(c.active) else {
        return malformed(format!(
            "active thread {} out of range ({} threads)",
            c.active,
            c.stacks.len()
        ));
    };
    let Some(top) = stack.last() else { return Ok(()) };
    let Some(proc) = cfg.procs.get(top.proc) else {
        return malformed(format!("frame names procedure id {} of {}", top.proc, cfg.procs.len()));
    };
    if !proc.contains(top.pc) {
        return malformed(format!(
            "frame pc {} lies outside its procedure `{}`",
            top.pc, proc.name
        ));
    }
    let depth = stack.len();
    let read = |v: VarRef| read_var(c.globals, top.locals, v);

    // Return from an exit pc.
    if proc.is_exit(top.pc) {
        let Some(exit) = proc.exits.iter().find(|e| e.pc == top.pc) else {
            return malformed(format!(
                "pc {} is flagged as an exit of `{}` but has no exit point",
                top.pc, proc.name
            ));
        };
        // A thread's initial frame halts at its exit: no more steps from
        // this thread, but others may still switch in.
        let Some((rets, ret_to)) = &top.on_return else { return Ok(()) };
        if depth < 2 {
            return malformed(
                "a return frame records a caller, but no frame lies below it on the stack".into(),
            );
        }
        let sets: Vec<(bool, bool)> = exit.ret_exprs.iter().map(|e| e.value_set(&read)).collect();
        for vals in enumerate_choices(&sets) {
            let mut c2 = c.clone();
            let s2 = &mut c2.stacks[c.active];
            s2.pop();
            let caller = &mut s2[depth - 2];
            caller.pc = *ret_to;
            for (t, val) in rets.iter().zip(vals) {
                write_var(&mut c2.globals, &mut caller.locals, *t, val);
            }
            let step =
                ReplayStep::Return { ret_to: *ret_to, globals: c2.globals, locals: caller.locals };
            out.push((c2, step));
        }
        return Ok(());
    }

    let Some(edges) = proc.edges.get(&top.pc) else { return Ok(()) };
    for e in edges {
        match e {
            Edge::Internal { to, guard, assigns } => {
                if !admits(guard, c.globals, top.locals, true) {
                    continue;
                }
                for (globals, locals) in next_states(c.globals, top.locals, assigns) {
                    let mut c2 = c.clone();
                    c2.globals = globals;
                    let f = &mut c2.stacks[c.active][depth - 1];
                    f.pc = *to;
                    f.locals = locals;
                    out.push((c2, ReplayStep::Internal { to: *to, globals, locals }));
                }
            }
            Edge::Call { callee, args, rets, ret_to } => {
                if depth >= max_stack {
                    return Err(ConcExplicitError::StackLimit(max_stack));
                }
                let entry = cfg.procs[*callee].entry;
                let sets: Vec<(bool, bool)> = args.iter().map(|a| a.value_set(&read)).collect();
                for vals in enumerate_choices(&sets) {
                    let locals = vals.iter().rev().fold(0, |acc, &b| acc << 1 | Bits::from(b));
                    let mut c2 = c.clone();
                    c2.stacks[c.active].push(Frame {
                        proc: *callee,
                        pc: entry,
                        locals,
                        on_return: Some((rets.clone(), *ret_to)),
                    });
                    out.push((c2, ReplayStep::Call { entry, globals: c.globals, locals }));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge;
    use getafix_boolprog::parse_concurrent;
    use std::collections::BTreeSet;

    fn reach(src: &str, label: &str, k: usize) -> bool {
        let conc = parse_concurrent(src).unwrap();
        let merged = merge(&conc).unwrap();
        let pc = merged.cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
        conc_explicit_reachable(&merged, &[pc], k, ConcLimits::default()).unwrap()
    }

    const HANDSHAKE: &str = r#"
        shared flag;
        thread
          main() begin
            if (flag) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            flag := T;
          end
        endthread
    "#;

    #[test]
    fn needs_context_switches() {
        // Thread 0 sees flag only if thread 1 ran first: 1 switch when
        // thread 1 starts, or 2 when thread 0 starts.
        assert!(reach(HANDSHAKE, "t0__HIT", 1));
    }

    #[test]
    fn schedule_replay_follows_the_script() {
        let conc = parse_concurrent(HANDSHAKE).unwrap();
        let merged = merge(&conc).unwrap();
        let pc = merged.cfg.label("t0__HIT").unwrap();
        let refine = |schedule: &[ScheduleRound]| {
            conc_refine_schedule(&merged, &[pc], schedule, ConcLimits::default())
        };
        // Thread 1 runs first (sets flag = bit 0), hands over with flag=T.
        assert!(refine(&[(1, 0), (0, 1)]).unwrap().is_some());
        // Wrong hand-over valuation: switch point never matches.
        assert_eq!(refine(&[(1, 0), (0, 0)]).unwrap(), None);
        // Wrong thread order: thread 0 alone never sees the flag.
        assert_eq!(refine(&[(0, 0), (1, 1)]).unwrap(), None);
        // Malformed schedules are errors: empty, unknown thread, or a
        // round-0 valuation that contradicts the all-false start.
        for bad in [&[][..], &[(7, 0)], &[(1, 7), (0, 1)]] {
            let r = refine(bad);
            assert!(matches!(r, Err(ConcExplicitError::MalformedSchedule(_))), "{bad:?}: {r:?}");
        }
    }

    #[test]
    fn zero_switches_insufficient() {
        assert!(!reach(HANDSHAKE, "t0__HIT", 0));
    }

    /// `a` must be set by T1, then `b` by T0, then `c` by T1 again.
    const PING_PONG: &str = r#"
        shared a, b, c;
        thread
          main() begin
            if (a) then
              b := T;
            fi;
            if (c) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            a := T;
            if (b) then
              c := T;
            fi;
          end
        endthread
    "#;

    #[test]
    fn ping_pong_depth() {
        // T1: a:=T; switch. T0: b:=T; switch. T1: c:=T; switch. T0: HIT.
        assert!(reach(PING_PONG, "t0__HIT", 3));
        assert!(!reach(PING_PONG, "t0__HIT", 2));
    }

    #[test]
    fn switch_preserves_locals() {
        let src = r#"
            shared s;
            thread
              main() begin
                decl x;
                x := T;
                if (s & x) then HIT: skip; fi;
              end
            endthread
            thread
              main() begin
                s := T;
              end
            endthread
        "#;
        // x:=T in T0, switch to T1 (s:=T), switch back: x still T.
        assert!(reach(src, "t0__HIT", 2));
    }

    /// The engine's structural invariants, violated deliberately: each
    /// malformed configuration must surface as a structured error (the
    /// CLI's exit-code-2 contract), never a panic. These drive the paths
    /// that previously aborted via `expect`.
    #[test]
    fn malformed_configurations_error_instead_of_panicking() {
        let conc = parse_concurrent(HANDSHAKE).unwrap();
        let merged = merge(&conc).unwrap();
        let cfg = &merged.cfg;
        let step = |c: &Config| {
            let mut out = Vec::new();
            step_active(&merged, c, 12, &mut out).map(|()| out.len())
        };
        let malformed = |r: Result<usize, ConcExplicitError>| {
            assert!(
                matches!(r, Err(ConcExplicitError::MalformedConfiguration(_))),
                "expected MalformedConfiguration, got {r:?}"
            );
        };

        // Active thread out of range.
        let c = Config { switches_used: 0, active: 9, globals: 0, stacks: vec![Vec::new(); 2] };
        malformed(step(&c));

        // A frame naming a procedure id the program does not have.
        let mut stacks = vec![Vec::new(); 2];
        stacks[0].push(Frame { proc: 99, pc: 0, locals: 0, on_return: None });
        let c = Config { switches_used: 0, active: 0, globals: 0, stacks };
        malformed(step(&c));

        // A frame whose pc lies outside its procedure — the class the old
        // `expect("exit")` lookup would have aborted on.
        let other = cfg.proc_by_name("t1__main").unwrap();
        let mut stacks = vec![Vec::new(); 2];
        stacks[0].push(Frame { proc: cfg.main, pc: other.entry, locals: 0, on_return: None });
        let c = Config { switches_used: 0, active: 0, globals: 0, stacks };
        malformed(step(&c));

        // A return frame with no caller below it — the class the old
        // `expect("caller frame below callee")` aborted on.
        let t0 = cfg.proc_by_name("t0__main").unwrap();
        let exit = t0.exits[0].pc;
        let mut stacks = vec![Vec::new(); 2];
        stacks[0].push(Frame {
            proc: t0.id,
            pc: exit,
            locals: 0,
            on_return: Some((Vec::new(), t0.entry)),
        });
        let c = Config { switches_used: 0, active: 0, globals: 0, stacks };
        malformed(step(&c));

        // Well-formed configurations still step fine.
        let c = Config::start(&merged, 0);
        assert!(step(&c).is_ok());
    }

    #[test]
    fn guided_replay_follows_a_refined_script() {
        let conc = parse_concurrent(HANDSHAKE).unwrap();
        let merged = merge(&conc).unwrap();
        let pc = merged.cfg.label("t0__HIT").unwrap();
        let schedule = [(1, 0), (0, 1)];
        let refined = conc_refine_schedule(&merged, &[pc], &schedule, ConcLimits::default())
            .unwrap()
            .expect("feasible schedule refines");
        assert!(!refined.steps.is_empty());
        // Every step sits in a schedule round and names that round's thread.
        for s in &refined.steps {
            assert_eq!(s.thread, schedule[s.round].0);
        }
        conc_replay_guided(&merged, &[pc], &schedule, &refined.steps, ConcLimits::default())
            .expect("the refined script replays deterministically");
        // An infeasible schedule refines to nothing.
        assert_eq!(
            conc_refine_schedule(&merged, &[pc], &[(0, 0), (1, 0)], ConcLimits::default()).unwrap(),
            None
        );
    }

    #[test]
    fn guided_replay_rejects_mutated_scripts() {
        let conc = parse_concurrent(HANDSHAKE).unwrap();
        let merged = merge(&conc).unwrap();
        let pc = merged.cfg.label("t0__HIT").unwrap();
        let schedule = [(1, 0), (0, 1)];
        let limits = ConcLimits::default();
        let steps =
            conc_refine_schedule(&merged, &[pc], &schedule, limits.clone()).unwrap().unwrap().steps;
        let rejected = |r: Result<(), ConcExplicitError>| {
            assert!(
                matches!(r, Err(ConcExplicitError::ScriptRejected { .. })),
                "expected ScriptRejected, got {r:?}"
            );
        };

        // Wrong thread on a step.
        let mut bad = steps.clone();
        bad[0].thread = 0;
        rejected(conc_replay_guided(&merged, &[pc], &schedule, &bad, limits.clone()));

        // Wrong round (skipping ahead disagrees with the hand-over check
        // or the per-round thread).
        let mut bad = steps.clone();
        bad[0].round = 1;
        rejected(conc_replay_guided(&merged, &[pc], &schedule, &bad, limits.clone()));

        // Perturbed globals on a step.
        let mut bad = steps.clone();
        let i = bad
            .iter()
            .position(|s| matches!(s.step, ReplayStep::Internal { .. }))
            .expect("an internal step");
        if let ReplayStep::Internal { globals, .. } = &mut bad[i].step {
            *globals ^= 1;
        }
        rejected(conc_replay_guided(&merged, &[pc], &schedule, &bad, limits.clone()));

        // Reordered steps.
        if steps.len() >= 2 {
            let mut bad = steps.clone();
            bad.swap(0, 1);
            rejected(conc_replay_guided(&merged, &[pc], &schedule, &bad, limits.clone()));
        }

        // Truncated script: the final pc is no longer a target.
        let mut bad = steps.clone();
        bad.pop();
        rejected(conc_replay_guided(&merged, &[pc], &schedule, &bad, limits.clone()));

        // The pristine script still replays.
        conc_replay_guided(&merged, &[pc], &schedule, &steps, limits).unwrap();
    }

    /// Threads that call procedures, one with a return value.
    const CALLS: &str = r#"
        shared s;
        thread
          main() begin
            decl r;
            r := get();
            if (r) then HIT: skip; fi;
          end
          get() returns 1 begin
            return s;
          end
        endthread
        thread
          main() begin
            call set();
          end
          set() begin
            s := T;
          end
        endthread
    "#;

    #[test]
    fn calls_inside_threads() {
        assert!(reach(CALLS, "t0__HIT", 2));
        assert!(!reach(CALLS, "t0__HIT", 0));
    }

    /// A call with two arguments, so the callee frame's parameter bits
    /// are told apart.
    const TWO_ARGUMENTS: &str = r#"
        shared s;
        thread
          main() begin
            decl a, r;
            a := *;
            r := pick(a, s);
            if (r) then HIT: skip; fi;
          end
          pick(x, y) returns 1 begin
            return x & !y;
          end
        endthread
        thread
          main() begin
            s := T;
          end
        endthread
    "#;

    /// `step` with `globals` and `locals` or-ed into its post-state.
    fn with_bits(step: ReplayStep, globals: Bits, locals: Bits) -> ReplayStep {
        match step {
            ReplayStep::Internal { to, globals: g, locals: l } => {
                ReplayStep::Internal { to, globals: g | globals, locals: l | locals }
            }
            ReplayStep::Call { entry, globals: g, locals: l } => {
                ReplayStep::Call { entry, globals: g | globals, locals: l | locals }
            }
            ReplayStep::Return { ret_to, globals: g, locals: l } => {
                ReplayStep::Return { ret_to, globals: g | globals, locals: l | locals }
            }
        }
    }

    /// The search and the step checker agree on every step kind, not only
    /// on the steps of witness paths: on every configuration `step_active`
    /// reaches (with up to three switches) in the module's programs,
    /// `replay_step` accepts each successor it emits on the active stack
    /// and lands on the same configuration, and rejects the same step with
    /// a bit outside the frame set in its globals or its locals, leaving
    /// the state alone.
    #[test]
    fn replay_step_checks_every_successor_of_step_active() {
        let mut kinds = std::collections::HashSet::new();
        for src in [HANDSHAKE, PING_PONG, CALLS, TWO_ARGUMENTS] {
            let merged = merge(&parse_concurrent(src).unwrap()).unwrap();
            let cfg = &merged.cfg;
            let mut seen: BTreeSet<Config> =
                (0..merged.n_threads).map(|t| Config::start(&merged, t)).collect();
            let mut work: Vec<Config> = seen.iter().cloned().collect();
            while let Some(c) = work.pop() {
                let mut out = Vec::new();
                step_active(&merged, &c, 12, &mut out).unwrap();
                let before = (c.globals, c.stacks[c.active].clone());
                for (c2, step) in &out {
                    let (mut g, mut stack) = before.clone();
                    replay_step(cfg, &mut g, &mut stack, step)
                        .unwrap_or_else(|m| panic!("{step:?} on {c:?} rejected: {m}"));
                    assert_eq!((g, &stack), (c2.globals, &c2.stacks[c.active]), "{step:?}");
                    kinds.insert(std::mem::discriminant(step));
                    for bad in [with_bits(*step, 1 << 63, 0), with_bits(*step, 0, 1 << 63)] {
                        let (mut g, mut stack) = before.clone();
                        let r = replay_step(cfg, &mut g, &mut stack, &bad);
                        assert!(r.is_err(), "{bad:?} on {c:?} accepted");
                        assert_eq!((g, stack), before, "a rejected step moved the state");
                    }
                }
                let switches = (0..merged.n_threads)
                    .filter(|&t| t != c.active && c.switches_used < 3)
                    .map(|t| {
                        let mut c2 = c.clone();
                        c2.switches_used += 1;
                        c2.activate(&merged, t);
                        c2
                    });
                for c2 in out.into_iter().map(|(c2, _)| c2).chain(switches) {
                    if seen.insert(c2.clone()) {
                        work.push(c2);
                    }
                }
            }
        }
        assert_eq!(kinds.len(), 3, "internal steps, calls and returns all occur");
    }

    /// A thread with more than 64 locals does not fit the packed frame:
    /// every entry point refuses it before packing a valuation, which would
    /// alias `l69` onto `l5`'s bit.
    #[test]
    fn wide_frames_are_refused() {
        let decls: Vec<String> = (0..70).map(|i| format!("l{i}")).collect();
        let src = format!(
            "shared s;
             thread main() begin decl {}; l69 := T; if (!l5) then HIT: skip; fi; end endthread
             thread main() begin s := T; end endthread",
            decls.join(", ")
        );
        let merged = merge(&parse_concurrent(&src).unwrap()).unwrap();
        let pc = merged.cfg.label("t0__HIT").unwrap();
        let limits = ConcLimits::default;
        let schedule = [(0, 0)];
        for e in [
            conc_explicit_reachable(&merged, &[pc], 2, limits()).err(),
            conc_refine_schedule(&merged, &[pc], &schedule, limits()).err(),
            conc_replay_guided(&merged, &[pc], &schedule, &[], limits()).err(),
        ] {
            assert!(
                matches!(&e, Some(ConcExplicitError::TooManyVariables(m)) if m.contains("t0__main")),
                "{e:?}"
            );
        }
    }
}
