//! Concrete trace and schedule types, plus the human-readable renderers
//! the CLI's `--trace` flag prints.

use getafix_boolprog::{Bits, Cfg, Pc, ReplayStep};
use getafix_conc::{GuidedStep, ScheduleRound};
use std::fmt::Write as _;

/// What kind of transition a [`Step`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// An intra-procedural edge.
    Internal,
    /// Descent into a callee (the step's `pc` is the callee's entry).
    Call,
    /// Return to the caller (the step's `pc` is the resume point).
    Return,
}

/// One step of a sequential witness trace, recording the *post*-state:
/// the pc control reaches, the shared globals, and the locals of the frame
/// that is current after the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Transition kind.
    pub kind: StepKind,
    /// Post-state pc.
    pub pc: Pc,
    /// Post-state global valuation (bit `i` = global `i`).
    pub globals: Bits,
    /// Post-state locals of the then-current frame.
    pub locals: Bits,
}

/// A sequential witness: a concrete interprocedural path from the initial
/// configuration to a target pc. Validated by
/// [`getafix_boolprog::replay`] — see [`Trace::to_replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The steps, in execution order (the implicit start is main's entry
    /// with all variables `false`).
    pub steps: Vec<Step>,
    /// The target pc the trace ends at.
    pub target: Pc,
}

impl Trace {
    /// The trace as the replay oracle's step sequence.
    pub fn to_replay(&self) -> Vec<ReplayStep> {
        self.steps
            .iter()
            .map(|s| match s.kind {
                StepKind::Internal => {
                    ReplayStep::Internal { to: s.pc, globals: s.globals, locals: s.locals }
                }
                StepKind::Call => {
                    ReplayStep::Call { entry: s.pc, globals: s.globals, locals: s.locals }
                }
                StepKind::Return => {
                    ReplayStep::Return { ret_to: s.pc, globals: s.globals, locals: s.locals }
                }
            })
            .collect()
    }

    /// Pretty-prints the trace with procedure names, variable valuations
    /// and — when the program was parsed from text — source line
    /// references.
    pub fn render(&self, cfg: &Cfg) -> String {
        let mut out = String::new();
        let main = &cfg.procs[cfg.main];
        let _ = writeln!(out, "  start  in {:<12} {}", main.name, describe_pc(cfg, main.entry));
        let mut depth = 0usize;
        for (i, s) in self.steps.iter().enumerate() {
            let proc = cfg.proc_of(s.pc);
            let verb = match s.kind {
                StepKind::Internal => "step",
                StepKind::Call => {
                    depth += 1;
                    "call"
                }
                StepKind::Return => {
                    depth = depth.saturating_sub(1);
                    "return"
                }
            };
            let indent = "  ".repeat(depth);
            let state = render_state(cfg, proc, s.globals, s.locals);
            let _ = writeln!(
                out,
                "  #{i:<4} {indent}{verb:<6} in {:<12} {} {state}",
                proc.name,
                describe_pc(cfg, s.pc),
            );
        }
        let _ = writeln!(out, "  target reached: {}", describe_pc(cfg, self.target));
        out
    }
}

/// `pc 12 (line 7, `HIT`)` — as much source context as the CFG carries.
fn describe_pc(cfg: &Cfg, pc: Pc) -> String {
    let mut extras = Vec::new();
    if let Some(line) = cfg.line_of(pc) {
        extras.push(format!("line {line}"));
    }
    if let Some((label, _)) = cfg.labels.iter().find(|(_, &p)| p == pc) {
        extras.push(format!("`{label}`"));
    }
    if cfg.proc_of(pc).is_exit(pc) {
        extras.push("exit".into());
    }
    if extras.is_empty() {
        format!("pc {pc}")
    } else {
        format!("pc {pc} ({})", extras.join(", "))
    }
}

/// `g=1 x=1 y=0` — named valuations, globals first.
fn render_state(
    cfg: &Cfg,
    proc: &getafix_boolprog::ProcCfg,
    globals: Bits,
    locals: Bits,
) -> String {
    let mut parts = Vec::new();
    for (i, g) in cfg.globals.iter().enumerate() {
        parts.push(format!("{g}={}", (globals >> i) & 1));
    }
    for (i, l) in proc.locals.iter().enumerate() {
        parts.push(format!("{l}={}", (locals >> i) & 1));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("[{}]", parts.join(" "))
    }
}

/// One context of a concurrent witness schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// The thread active in this context.
    pub thread: usize,
    /// The shared-global valuation the context is entered with (round 0 is
    /// always entered with all globals `false`).
    pub globals_at_entry: Bits,
}

/// A concurrent witness: a bounded-round schedule under which the target
/// is reachable — who runs in each context, and the shared-global
/// valuation recorded at every context switch (the `ḡ` vector of §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The contexts in order; `rounds.len() - 1` context switches happen.
    pub rounds: Vec<Round>,
    /// The context-switch bound the analysis ran with.
    pub bound: usize,
    /// The target pc, reached in the final round.
    pub target: Pc,
}

impl Schedule {
    /// Number of context switches the schedule uses (≤ [`Schedule::bound`]).
    pub fn switches(&self) -> usize {
        self.rounds.len().saturating_sub(1)
    }

    /// The schedule in the explicit replayer's format.
    pub fn to_replay(&self) -> Vec<(usize, Bits)> {
        self.rounds.iter().map(|r| (r.thread, r.globals_at_entry)).collect()
    }

    /// Structural sanity: within bound, round 0 starts all-`false`, and
    /// every thread id is below `n_threads`.
    pub fn is_well_formed(&self, n_threads: usize) -> bool {
        !self.rounds.is_empty()
            && self.switches() <= self.bound
            && self.rounds[0].globals_at_entry == 0
            && self.rounds.iter().all(|r| r.thread < n_threads)
    }

    /// Pretty-prints the schedule with the merged CFG's global names.
    pub fn render(&self, cfg: &Cfg) -> String {
        let mut out = String::new();
        for (j, r) in self.rounds.iter().enumerate() {
            out.push_str(&round_line(cfg, j, r));
        }
        let _ = writeln!(
            out,
            "  target reached in round {}: {}",
            self.rounds.len() - 1,
            describe_pc(cfg, self.target)
        );
        out
    }
}

/// `  round 2: thread 1 takes over with [flag=1]\n` — one schedule round.
fn round_line(cfg: &Cfg, j: usize, r: &Round) -> String {
    let vals: Vec<String> = cfg
        .globals
        .iter()
        .enumerate()
        .map(|(i, g)| format!("{g}={}", (r.globals_at_entry >> i) & 1))
        .collect();
    let how = if j == 0 { "starts" } else { "takes over" };
    format!("  round {j}: thread {} {how} with [{}]\n", r.thread, vals.join(" "))
}

/// One statement-granular step of a concurrent witness trace, recording —
/// like the sequential [`Step`] — the *post*-state: the pc the active
/// thread's control reaches, the shared globals, and the locals of that
/// thread's then-current frame. `round` places the step in its schedule
/// round (whose scheduled thread is `thread`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcStep {
    /// Index into the schedule's rounds.
    pub round: usize,
    /// The thread taking the step.
    pub thread: usize,
    /// Transition kind.
    pub kind: StepKind,
    /// Post-state pc.
    pub pc: Pc,
    /// Post-state shared-global valuation.
    pub globals: Bits,
    /// Post-state locals of the stepping thread's current frame.
    pub locals: Bits,
}

/// A statement-granular concurrent witness: the round-level [`Schedule`]
/// refined into an explicit interleaved sequence of statement steps —
/// every scheduler choice *and* every intra-round step and
/// nondeterministic value pinned. Validated by the deterministic guided
/// replayer ([`getafix_conc::conc_replay_guided`]) via
/// [`ConcTrace::to_guided`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcTrace {
    /// The round-level skeleton: who runs each round and the shared
    /// globals at every hand-over.
    pub schedule: Schedule,
    /// The steps, in execution order across all rounds.
    pub steps: Vec<ConcStep>,
}

impl ConcTrace {
    /// Builds a trace from the explicit engine's refined step script.
    pub fn from_guided(schedule: Schedule, steps: &[GuidedStep]) -> ConcTrace {
        let steps = steps
            .iter()
            .map(|g| {
                let (kind, pc, globals, locals) = match g.step {
                    ReplayStep::Internal { to, globals, locals } => {
                        (StepKind::Internal, to, globals, locals)
                    }
                    ReplayStep::Call { entry, globals, locals } => {
                        (StepKind::Call, entry, globals, locals)
                    }
                    ReplayStep::Return { ret_to, globals, locals } => {
                        (StepKind::Return, ret_to, globals, locals)
                    }
                };
                ConcStep { round: g.round, thread: g.thread, kind, pc, globals, locals }
            })
            .collect();
        ConcTrace { schedule, steps }
    }

    /// The trace as the guided replayer's step script.
    pub fn to_guided(&self) -> Vec<GuidedStep> {
        self.steps
            .iter()
            .map(|s| {
                let step = match s.kind {
                    StepKind::Internal => {
                        ReplayStep::Internal { to: s.pc, globals: s.globals, locals: s.locals }
                    }
                    StepKind::Call => {
                        ReplayStep::Call { entry: s.pc, globals: s.globals, locals: s.locals }
                    }
                    StepKind::Return => {
                        ReplayStep::Return { ret_to: s.pc, globals: s.globals, locals: s.locals }
                    }
                };
                GuidedStep { round: s.round, thread: s.thread, step }
            })
            .collect()
    }

    /// The round skeleton in the explicit engine's format — the schedule
    /// [`getafix_conc::conc_refine_schedule`] refined and
    /// [`getafix_conc::conc_replay_guided`] hands over by.
    pub fn round_skeleton(&self) -> Vec<ScheduleRound> {
        self.schedule.to_replay()
    }

    /// Pretty-prints the interleaved trace: one header per round, then
    /// that round's statement steps in the sequential trace's format
    /// (procedure names, labels, source lines, valuations), indented by
    /// the stepping thread's call depth.
    pub fn render(&self, cfg: &Cfg) -> String {
        let mut out = String::new();
        // Call depth per thread, grown on demand.
        let mut depth: Vec<usize> = Vec::new();
        let mut i = 0usize;
        for (j, r) in self.schedule.rounds.iter().enumerate() {
            out.push_str(&round_line(cfg, j, r));
            if depth.len() <= r.thread {
                depth.resize(r.thread + 1, 0);
            }
            while i < self.steps.len() && self.steps[i].round == j {
                let s = &self.steps[i];
                let proc = cfg.proc_of(s.pc);
                let verb = match s.kind {
                    StepKind::Internal => "step",
                    StepKind::Call => {
                        depth[s.thread] += 1;
                        "call"
                    }
                    StepKind::Return => {
                        depth[s.thread] = depth[s.thread].saturating_sub(1);
                        "return"
                    }
                };
                let indent = "  ".repeat(depth[s.thread]);
                let state = render_state(cfg, proc, s.globals, s.locals);
                let _ = writeln!(
                    out,
                    "  #{i:<4} {indent}{verb:<6} in {:<12} {} {state}",
                    proc.name,
                    describe_pc(cfg, s.pc),
                );
                i += 1;
            }
        }
        let _ = writeln!(
            out,
            "  target reached in round {}: {}",
            self.schedule.rounds.len() - 1,
            describe_pc(cfg, self.schedule.target)
        );
        out
    }
}
