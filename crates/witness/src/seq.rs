//! Sequential witness extraction: onion-peeling a solved entry-forward
//! summary relation into a concrete interprocedural error path.
//!
//! # One solve, not two
//!
//! [`sequential_witness_from`] peels the **verdict solver's own
//! provenance** ([`getafix_mucalc::Provenance`]): the solver that just
//! answered *reachable* already holds ⊆-increasing rank snapshots
//! `F₀ ⊆ F₁ ⊆ … ⊆ F_n` of its summary relation, and the **rank** of a
//! tuple — the first snapshot containing it — is well-founded provenance:
//! a tuple of rank `r` is derivable by one clause application from tuples
//! of rank `< r` (see [`Solver::provenance`]). Both trace-capable summary
//! shapes are understood:
//!
//! * `ef-opt`'s `SummaryEFopt(fr, s)` — the extractor restricts the
//!   frontier bit to `fr = 1`, leaving the precise entry-annotated
//!   reachable set (the §4.3 construction has no early-exit clause, and
//!   its call/return clauses draw from the previous round's frozen value,
//!   so the rank bound argument below goes through unchanged);
//! * the entry-forward `Reachable` *without* the early-termination
//!   disjunct ([`getafix_core::system_ef_trace`]).
//!
//! The legacy [`sequential_witness`] entry point still performs a
//! dedicated solve of the split-return [`getafix_core::system_ef_trace`],
//! as a differential oracle against the single-solve path. `getafix check
//! --trace` on the `simple` algorithm, whose all-entries summaries carry
//! no entry-reachability provenance, and on the baselines peels its
//! witness from a second, `ef-opt` trace solver with
//! [`sequential_witness_from`].
//!
//! # How the peeling works
//!
//! Extraction works per *invocation* (a procedure entered with
//! concrete entry valuations `(ecl, ecg)`):
//!
//! 1. **Target.** Constrain the solved relation to the target pcs and
//!    pick a shortest cube of it ([`getafix_bdd::Manager::sat_one`]) — a
//!    concrete configuration `(pc, cl, cg, ecl, ecg)`.
//! 2. **Caller chain.** The invocation's canonical entry configuration
//!    `(entry pc, ecl, ecg, ecl, ecg)` first appears via the call clause
//!    (or `Init`), so a *caller* configuration admitting it exists one
//!    frontier earlier; picking one and recursing walks the chain back to
//!    `Init` with strictly decreasing ranks.
//! 3. **Intra-invocation path.** Forward BFS from the entry configuration
//!    over the *concrete* semantics: internal edges step directly;
//!    call-skip edges consult the summary relation for an exit tuple of
//!    rank `< R` (the goal's rank) — the rank bound both guarantees the
//!    nested sub-trace extraction terminates and is complete, because the
//!    goal's own derivation only uses summaries below its rank.
//! 4. **Sub-traces.** Every summary edge taken expands recursively into
//!    `Call · (callee path) · Return`, yielding a flat replayable trace.
//!
//! The result is validated in the concrete interpreter
//! ([`getafix_boolprog::replay`]) before being returned — an extracted
//! trace is *evidence*, not a claim.

use crate::trace::{Step, StepKind, Trace};
use getafix_bdd::{Bdd, Var};
use getafix_boolprog::{
    admits, enumerate_choices, frame_mask, next_states, read_var, replay, write_var, Bits, Cfg,
    Edge, LExpr, Pc, VarRef,
};
use getafix_core::{install_templates, system_ef_trace};
use getafix_mucalc::{eq_const, LimitKind, ResourceLimits, SolveError, SolveOptions, Solver};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Errors from witness extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// System generation / template encoding / solving failed.
    Solve(String),
    /// The program exceeds the extractor's concrete-state limits
    /// (more than 64 globals or locals per frame).
    TooManyVariables(String),
    /// Exploration exceeded the extractor's state cap.
    Limit(usize),
    /// A bound of the [`ResourceLimits`] extraction was handed tripped:
    /// the deadline, or a cancellation of its token.
    ResourceLimit(LimitKind),
    /// Extraction contradicted itself — a bug in the solver, the encoding
    /// or the extractor (the differential suites exist to keep this arm
    /// dead).
    Internal(String),
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::Solve(m) => write!(f, "solve: {m}"),
            WitnessError::TooManyVariables(m) => write!(f, "{m}"),
            WitnessError::Limit(n) => write!(f, "witness extraction exceeded {n} states"),
            WitnessError::ResourceLimit(kind) => {
                write!(f, "witness extraction hit a resource limit ({kind})")
            }
            WitnessError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for WitnessError {}

impl From<SolveError> for WitnessError {
    /// A resource limit that trips inside a solve stays a resource limit,
    /// so a caller stops as it would for one tripped during extraction.
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::LimitExceeded(report) => WitnessError::ResourceLimit(report.kind),
            e => WitnessError::Solve(e.to_string()),
        }
    }
}

/// The limits witness extraction takes: the run's [`ResourceLimits`],
/// which every onion-peel step and path-BFS expansion polls. The name
/// stays for callers that spell `WitnessLimits::default()`, the
/// benchmark's pipeline among them.
pub type WitnessLimits = ResourceLimits;

/// Cap on BFS states per invocation and on enumerated candidate tuples;
/// exceeding it is [`WitnessError::Limit`].
const MAX_STATES: usize = 1_000_000;

/// A concrete summary tuple: one point of the `Reachable` relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Conf {
    pc: Pc,
    cl: Bits,
    cg: Bits,
    ecl: Bits,
    ecg: Bits,
}

/// Extracts a concrete error trace for `targets`, or `None` when no target
/// is reachable, by solving a **dedicated witness system**, the
/// split-return [`getafix_core::system_ef_trace`]. The trace is
/// replay-validated before being returned.
///
/// This is the demoted oracle path: it pays a full second solve, so
/// production callers that already hold a provenance-recording verdict
/// solver should use [`sequential_witness_from`] instead. The `options`'
/// strategy, iteration bound and limits are honoured (provenance
/// recording is forced on); extraction runs under the same limits.
///
/// # Errors
///
/// See [`WitnessError`].
pub fn sequential_witness(
    cfg: &Cfg,
    targets: &[Pc],
    options: SolveOptions,
) -> Result<Option<Trace>, WitnessError> {
    let system = system_ef_trace(cfg, true).map_err(|e| WitnessError::Solve(e.to_string()))?;
    let limits = options.limits.clone();
    let options = SolveOptions { record_provenance: true, ..options };
    let mut solver =
        Solver::with_options(system, options).map_err(|e| WitnessError::Solve(e.to_string()))?;
    install_templates(&mut solver, cfg, targets).map_err(|e| WitnessError::Solve(e.to_string()))?;
    sequential_witness_from(&mut solver, cfg, targets, limits)
}

/// Extracts a concrete error trace for `targets` **directly from a solved
/// verdict solver** — no second system, no re-solve. The solver must have
/// been built with [`SolveOptions::record_provenance`] on (see
/// [`getafix_core::build_trace_solver_with`]) and its system must contain
/// a trace-capable summary relation: `ef-opt`'s `SummaryEFopt` (the
/// frontier bit is restricted to 1) or an early-exit-free entry-forward
/// `Reachable`. Returns `None` when no target is reachable; any returned
/// trace has been re-executed in the concrete interpreter.
///
/// # Errors
///
/// See [`WitnessError`]; in particular [`WitnessError::Solve`] when the
/// solver records no provenance or contains no trace-capable relation.
pub fn sequential_witness_from(
    solver: &mut Solver,
    cfg: &Cfg,
    targets: &[Pc],
    limits: ResourceLimits,
) -> Result<Option<Trace>, WitnessError> {
    let mut span = getafix_telemetry::span(getafix_telemetry::Phase::Witness, "sequential_witness");
    span.attr("targets", targets.len());
    cfg.check_frame_width().map_err(WitnessError::TooManyVariables)?;
    if !solver.options().record_provenance {
        return Err(WitnessError::Solve(
            "witness extraction peels rank provenance, but the solver was built \
             without `SolveOptions::record_provenance`"
                .into(),
        ));
    }
    let (rel, conf_formal, has_fr) = if solver.system().relation("SummaryEFopt").is_some() {
        ("SummaryEFopt", 1, true)
    } else if solver.system().relation("Reachable").is_some() {
        ("Reachable", 0, false)
    } else {
        return Err(WitnessError::Solve(
            "no trace-capable summary relation (`SummaryEFopt` or `Reachable`) \
             in the solved system"
                .into(),
        ));
    };
    check_formal(solver, rel, conf_formal)?;

    let raw = solver.evaluate(rel)?;
    // For ef-opt, project onto the fr = 1 slice: the entry-annotated
    // reachable set. The snapshots restrict the same way; consecutive
    // restricted snapshots may coincide (a round that only aged fresh
    // tuples), which the plateau-tolerant rank search handles.
    let fr_vars: Vec<Var> =
        if has_fr { solver.alloc().formal(rel, 0).all_vars() } else { Vec::new() };
    let fr_cube = {
        let literals: Vec<(Var, bool)> = fr_vars.iter().map(|&v| (v, true)).collect();
        solver.manager().literal_cube(&literals)
    };
    let restrict_fresh = |solver: &mut Solver, f: Bdd| -> Bdd {
        // One fused traversal per snapshot instead of a restrict per bit.
        solver.manager().restrict_cube(f, fr_cube)
    };
    let reachable = restrict_fresh(solver, raw);
    let snaps: Vec<Bdd> =
        solver.provenance().snapshots(rel).map(<[Bdd]>::to_vec).unwrap_or_default();
    let frontiers: Vec<Bdd> = snaps.into_iter().map(|s| restrict_fresh(solver, s)).collect();

    let mut ex = Extractor::new(cfg, solver, rel, conf_formal, frontiers, limits)?;

    // Constrain to the target pcs and find the earliest frontier hitting one.
    let target_bdd = {
        let pc_vars = ex.vars.pc.clone();
        let m = ex.solver.manager();
        let mut b = Bdd::FALSE;
        for &pc in targets {
            let p = eq_const(m, &pc_vars, pc as u64);
            b = m.or(b, p);
        }
        b
    };
    let hit = {
        let m = ex.solver.manager();
        m.and(reachable, target_bdd)
    };
    if hit.is_false() {
        return Ok(None);
    }
    let target_conf = ex.pick_conf(hit)?;
    let trace = ex.extract(target_conf)?;

    // Validation by replay: the concrete interpreter must accept the trace
    // and hit the target. A rejection is an extractor bug, never a user
    // error.
    replay(cfg, &trace.to_replay(), targets)
        .map_err(|e| WitnessError::Internal(format!("extracted trace failed replay: {e}")))?;
    Ok(Some(trace))
}

/// Validates that `rel` has a formal parameter `i` before touching the
/// allocation — [`getafix_mucalc::Allocation::formal`] panics on a
/// mismatch, and a system/solver mismatch must surface as a structured
/// error on the witness path.
fn check_formal(solver: &Solver, rel: &str, i: usize) -> Result<(), WitnessError> {
    let n = solver.system().relation(rel).map(|d| d.params.len()).unwrap_or(0);
    if i >= n {
        return Err(WitnessError::Solve(format!(
            "relation `{rel}` has {n} formal parameters, the extractor expects at least {}; \
             the solver's system does not match this extractor",
            i + 1
        )));
    }
    Ok(())
}

/// Variable blocks of `Reachable`'s single `Conf`-typed formal.
struct ConfVars {
    pc: Vec<Var>,
    cl: Vec<Var>,
    cg: Vec<Var>,
    ecl: Vec<Var>,
    ecg: Vec<Var>,
}

struct Extractor<'a> {
    cfg: &'a Cfg,
    solver: &'a mut Solver,
    frontiers: Vec<Bdd>,
    vars: ConfVars,
    limits: ResourceLimits,
}

/// How the BFS reached a state.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Nothing — the entry state.
    Start,
    /// An internal edge from the predecessor state.
    Internal,
    /// A call/summary edge: descend into `callee_entry`, use summary exit
    /// `exit`, resume at the state this move produced.
    Summary { callee_entry: Conf, exit: Conf },
}

impl<'a> Extractor<'a> {
    fn new(
        cfg: &'a Cfg,
        solver: &'a mut Solver,
        rel: &str,
        conf_formal: usize,
        frontiers: Vec<Bdd>,
        limits: ResourceLimits,
    ) -> Result<Self, WitnessError> {
        let inst = solver.alloc().formal(rel, conf_formal).clone();
        // A missing field is a system/solver mismatch (a hand-built system
        // whose `Conf` does not match the templates) — a structured error,
        // never a panic: the witness path honours the CLI's exit-code-2
        // contract.
        let leaf = |name: &str| -> Result<Vec<Var>, WitnessError> {
            inst.leaves_under(&[name.to_string()]).first().map(|l| l.vars.clone()).ok_or_else(
                || {
                    WitnessError::Solve(format!(
                        "relation `{rel}`'s configuration type has no `{name}` field; \
                         the solver's system does not match this extractor"
                    ))
                },
            )
        };
        let vars = ConfVars {
            pc: leaf("pc")?,
            cl: leaf("cl")?,
            cg: leaf("cg")?,
            ecl: leaf("ecl")?,
            ecg: leaf("ecg")?,
        };
        Ok(Extractor { cfg, solver, frontiers, vars, limits })
    }

    /// Membership of a concrete tuple in a BDD over the formal blocks.
    fn member(&self, f: Bdd, c: Conf) -> bool {
        let n = self.solver_manager_var_count();
        let mut env = vec![false; n];
        set_bits(&mut env, &self.vars.pc, c.pc as u64);
        set_bits(&mut env, &self.vars.cl, c.cl);
        set_bits(&mut env, &self.vars.cg, c.cg);
        set_bits(&mut env, &self.vars.ecl, c.ecl);
        set_bits(&mut env, &self.vars.ecg, c.ecg);
        self.solver.manager_ref().eval(f, &env)
    }

    fn solver_manager_var_count(&self) -> usize {
        self.solver.manager_ref().var_count()
    }

    /// First frontier index containing `c` (frontiers are ⊆-increasing).
    fn rank(&self, c: Conf) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.frontiers.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.member(self.frontiers[mid], c) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo < self.frontiers.len()).then_some(lo)
    }

    /// A concrete tuple out of a non-empty set over the formal blocks.
    fn pick_conf(&mut self, f: Bdd) -> Result<Conf, WitnessError> {
        let cube = self
            .solver
            .manager()
            .sat_one(f)
            .ok_or_else(|| WitnessError::Internal("pick_conf on empty set".into()))?;
        let get = |vars: &[Var]| -> u64 { read_bits(&cube, vars) };
        Ok(Conf {
            pc: get(&self.vars.pc) as Pc,
            cl: get(&self.vars.cl),
            cg: get(&self.vars.cg),
            ecl: get(&self.vars.ecl),
            ecg: get(&self.vars.ecg),
        })
    }

    /// The canonical entry configuration of the invocation `c` belongs to.
    fn entry_of(&self, c: Conf) -> Conf {
        let entry = self.cfg.proc_of(c.pc).entry;
        Conf { pc: entry, cl: c.ecl, cg: c.ecg, ecl: c.ecl, ecg: c.ecg }
    }

    fn init_conf(&self) -> Conf {
        Conf { pc: self.cfg.procs[self.cfg.main].entry, cl: 0, cg: 0, ecl: 0, ecg: 0 }
    }

    /// Top-level extraction: caller chain, then per-invocation paths.
    fn extract(&mut self, target: Conf) -> Result<Trace, WitnessError> {
        // Walk the caller chain outward: frames[0] is the target's
        // invocation, the last frame is main's.
        let mut frames: Vec<(Conf, Conf)> = Vec::new(); // (entry, goal)
        let mut goal = target;
        loop {
            self.limits.poll().map_err(WitnessError::ResourceLimit)?;
            let entry = self.entry_of(goal);
            frames.push((entry, goal));
            if entry == self.init_conf() {
                break;
            }
            goal = self.find_caller(entry)?;
            if frames.len() > self.cfg.pc_count as usize * 64 + 64 {
                return Err(WitnessError::Internal("caller chain does not terminate".into()));
            }
        }

        // Assemble main-first: path to the call site, call into the next
        // frame, …, path to the target.
        let mut steps: Vec<Step> = Vec::new();
        for i in (0..frames.len()).rev() {
            let (entry, goal) = frames[i];
            steps.extend(self.find_path(entry, goal)?);
            if i > 0 {
                let callee_entry = frames[i - 1].0;
                steps.push(Step {
                    kind: StepKind::Call,
                    pc: callee_entry.pc,
                    globals: callee_entry.cg,
                    locals: callee_entry.cl,
                });
            }
        }
        Ok(Trace { steps, target: target.pc })
    }

    /// A caller configuration that admits `entry` via the call clause, one
    /// frontier before `entry`'s first appearance.
    fn find_caller(&mut self, entry: Conf) -> Result<Conf, WitnessError> {
        let r = self
            .rank(entry)
            .ok_or_else(|| WitnessError::Internal("entry conf not in any frontier".into()))?;
        if r == 0 {
            return Err(WitnessError::Internal("rank-0 entry is Init and has no caller".into()));
        }
        let prev = self.frontiers[r - 1];
        let cfg = self.cfg;
        let callee = cfg.proc_of(entry.pc).id;
        for proc in &cfg.procs {
            for (&pc_c, edges) in &proc.edges {
                for e in edges {
                    let Edge::Call { callee: target_callee, args, .. } = e else { continue };
                    if *target_callee != callee {
                        continue;
                    }
                    // Arguments beyond the parameter prefix must be zero in
                    // the callee's entry locals.
                    if entry.cl & !frame_mask(args.len()) != 0 {
                        continue;
                    }
                    // Candidates: prev-frontier tuples at this call site
                    // whose globals match the callee's entry globals.
                    let fixed = {
                        let pcb = self.restrict_bits(prev, BlockSel::Pc, pc_c as u64);
                        self.restrict_bits(pcb, BlockSel::Cg, entry.cg)
                    };
                    let over: Vec<Var> = self
                        .vars
                        .cl
                        .iter()
                        .chain(&self.vars.ecl)
                        .chain(&self.vars.ecg)
                        .copied()
                        .collect();
                    // Only the caller-local bits the arguments *read* can
                    // affect admissibility; every other free bit may take
                    // any value (the whole cube is in the frontier), so it
                    // is pinned to `false` instead of enumerated — this
                    // keeps candidate expansion linear in the cube count.
                    let mut expand = vec![false; over.len()];
                    for a in args {
                        for v in a.vars() {
                            if let VarRef::Local(i) = v {
                                expand[i] = true;
                            }
                        }
                    }
                    for model in self.models(fixed, &over, &expand)? {
                        let cl = read_model(&model, 0, self.vars.cl.len());
                        let ecl = read_model(&model, self.vars.cl.len(), self.vars.ecl.len());
                        let ecg = read_model(
                            &model,
                            self.vars.cl.len() + self.vars.ecl.len(),
                            self.vars.ecg.len(),
                        );
                        let admits_args = args
                            .iter()
                            .enumerate()
                            .all(|(i, a)| admits(a, entry.cg, cl, (entry.cl >> i) & 1 == 1));
                        if admits_args {
                            return Ok(Conf { pc: pc_c, cl, cg: entry.cg, ecl, ecg });
                        }
                    }
                }
            }
        }
        Err(WitnessError::Internal(format!(
            "no caller admits entry configuration at pc {}",
            entry.pc
        )))
    }

    /// Concrete forward BFS from `entry` to `goal` within one invocation;
    /// summary edges are bounded by `goal`'s rank (see the module docs).
    fn find_path(&mut self, entry: Conf, goal: Conf) -> Result<Vec<Step>, WitnessError> {
        if entry == goal {
            return Ok(Vec::new());
        }
        let goal_rank = self
            .rank(goal)
            .ok_or_else(|| WitnessError::Internal("goal conf not in any frontier".into()))?;
        // Summary exits must come from a strictly earlier frontier.
        let summary_pool = if goal_rank == 0 { None } else { Some(self.frontiers[goal_rank - 1]) };

        let key = |c: Conf| (c.pc, c.cl, c.cg);
        let mut prev: BTreeMap<(Pc, Bits, Bits), (Conf, Move)> = BTreeMap::new();
        prev.insert(key(entry), (entry, Move::Start));
        let mut queue: VecDeque<Conf> = VecDeque::from([entry]);

        let cfg = self.cfg;
        'bfs: while let Some(cur) = queue.pop_front() {
            if prev.len() > MAX_STATES {
                return Err(WitnessError::Limit(MAX_STATES));
            }
            self.limits.poll().map_err(WitnessError::ResourceLimit)?;
            let proc = cfg.proc_of(cur.pc);
            let edges = match proc.edges.get(&cur.pc) {
                Some(es) => es,
                None => continue,
            };
            let push = |next: Conf,
                        mv: Move,
                        prev: &mut BTreeMap<(Pc, Bits, Bits), (Conf, Move)>,
                        queue: &mut VecDeque<Conf>| {
                if let std::collections::btree_map::Entry::Vacant(v) = prev.entry(key(next)) {
                    v.insert((cur, mv));
                    queue.push_back(next);
                    next == goal
                } else {
                    false
                }
            };
            for e in edges {
                match e {
                    Edge::Internal { to, guard, assigns } => {
                        if !admits(guard, cur.cg, cur.cl, true) {
                            continue;
                        }
                        for (cg2, cl2) in next_states(cur.cg, cur.cl, assigns) {
                            let next = Conf { pc: *to, cl: cl2, cg: cg2, ..cur };
                            if push(next, Move::Internal, &mut prev, &mut queue) {
                                break 'bfs;
                            }
                        }
                    }
                    Edge::Call { callee, args, rets, ret_to } => {
                        let Some(pool) = summary_pool else { continue };
                        let q = &cfg.procs[*callee];
                        let sets: Vec<(bool, bool)> = args
                            .iter()
                            .map(|a| a.value_set(&|v| read_var(cur.cg, cur.cl, v)))
                            .collect();
                        for arg_vals in enumerate_choices(&sets) {
                            let mut el2: Bits = 0;
                            for (i, &b) in arg_vals.iter().enumerate() {
                                if b {
                                    el2 |= 1 << i;
                                }
                            }
                            let callee_entry =
                                Conf { pc: q.entry, cl: el2, cg: cur.cg, ecl: el2, ecg: cur.cg };
                            for exit in self.summary_exits(pool, q.id, el2, cur.cg)? {
                                let xp = q
                                    .exits
                                    .iter()
                                    .find(|x| x.pc == exit.pc)
                                    .expect("summary exit at an exit pc");
                                let rsets: Vec<(bool, bool)> = xp
                                    .ret_exprs
                                    .iter()
                                    .map(|e| e.value_set(&|v| read_var(exit.cg, exit.cl, v)))
                                    .collect();
                                for rvals in enumerate_choices(&rsets) {
                                    let mut cg2 = exit.cg;
                                    let mut cl2 = cur.cl;
                                    for (t, val) in rets.iter().zip(&rvals) {
                                        write_var(&mut cg2, &mut cl2, *t, *val);
                                    }
                                    let next = Conf { pc: *ret_to, cl: cl2, cg: cg2, ..cur };
                                    let mv = Move::Summary { callee_entry, exit };
                                    if push(next, mv, &mut prev, &mut queue) {
                                        break 'bfs;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        let Some(_) = prev.get(&key(goal)) else {
            return Err(WitnessError::Internal(format!(
                "no path from entry pc {} to goal pc {} within the invocation",
                entry.pc, goal.pc
            )));
        };

        // Reconstruct, expanding summary moves recursively.
        let mut rev: Vec<(Conf, Move)> = Vec::new();
        let mut at = goal;
        while at != entry {
            let (from, mv) = prev[&key(at)];
            rev.push((at, mv));
            at = from;
        }
        let mut steps = Vec::new();
        for (post, mv) in rev.into_iter().rev() {
            match mv {
                Move::Start => unreachable!("Start only marks the entry"),
                Move::Internal => steps.push(Step {
                    kind: StepKind::Internal,
                    pc: post.pc,
                    globals: post.cg,
                    locals: post.cl,
                }),
                Move::Summary { callee_entry, exit } => {
                    steps.push(Step {
                        kind: StepKind::Call,
                        pc: callee_entry.pc,
                        globals: callee_entry.cg,
                        locals: callee_entry.cl,
                    });
                    steps.extend(self.find_path(callee_entry, exit)?);
                    steps.push(Step {
                        kind: StepKind::Return,
                        pc: post.pc,
                        globals: post.cg,
                        locals: post.cl,
                    });
                }
            }
        }
        Ok(steps)
    }

    /// Summary exit tuples of procedure `callee` for the given entry
    /// valuations within `pool` (a frontier, hence already rank-bounded).
    ///
    /// Exit-local bits not read by the exit's return expressions cannot
    /// influence the caller's resumed state, so free (don't-care) bits
    /// among them are pinned to `false` rather than enumerated — every
    /// completion of a cube is in the pool, and for each resumed state some
    /// pinned representative produces it. Free *global* bits are expanded:
    /// they flow into the resumed state directly.
    fn summary_exits(
        &mut self,
        pool: Bdd,
        callee: usize,
        ecl: Bits,
        ecg: Bits,
    ) -> Result<Vec<Conf>, WitnessError> {
        let proc = &self.cfg.procs[callee];
        let exits: Vec<(Pc, Vec<VarRef>)> = proc
            .exits
            .iter()
            .map(|x| (x.pc, x.ret_exprs.iter().flat_map(LExpr::vars).collect()))
            .collect();
        let n_cl = self.vars.cl.len();
        let mut out = Vec::new();
        for (pc, ret_reads) in exits {
            let fixed = {
                let a = self.restrict_bits(pool, BlockSel::Pc, pc as u64);
                let b = self.restrict_bits(a, BlockSel::Ecl, ecl);
                self.restrict_bits(b, BlockSel::Ecg, ecg)
            };
            let over: Vec<Var> = self.vars.cl.iter().chain(&self.vars.cg).copied().collect();
            let mut expand = vec![false; over.len()];
            for e in expand.iter_mut().skip(n_cl) {
                *e = true;
            }
            for v in &ret_reads {
                if let VarRef::Local(i) = v {
                    expand[*i] = true;
                }
            }
            for model in self.models(fixed, &over, &expand)? {
                let cl = read_model(&model, 0, n_cl);
                let cg = read_model(&model, n_cl, self.vars.cg.len());
                out.push(Conf { pc, cl, cg, ecl, ecg });
            }
        }
        Ok(out)
    }

    /// Restricts one formal block of `f` to a concrete value: a single
    /// fused cube-cofactor traversal (the extractor pins a block per
    /// onion-peeling step, so this is a hot path).
    fn restrict_bits(&mut self, f: Bdd, block: BlockSel, value: u64) -> Bdd {
        let vars: Vec<Var> = match block {
            BlockSel::Pc => self.vars.pc.clone(),
            BlockSel::Cg => self.vars.cg.clone(),
            BlockSel::Ecl => self.vars.ecl.clone(),
            BlockSel::Ecg => self.vars.ecg.clone(),
        };
        let literals: Vec<(Var, bool)> =
            vars.iter().enumerate().map(|(i, &v)| (v, (value >> i) & 1 == 1)).collect();
        let m = self.solver.manager();
        m.restrict_many(f, &literals)
    }

    /// Bounded model enumeration of `f` over `over` (all other support
    /// must already be restricted away). Free (don't-care) bits are only
    /// enumerated where `expand` is `true`; the rest are pinned to `false`
    /// — sound whenever the pinned bits cannot influence the caller's use
    /// of the model, since every completion of a cube satisfies `f`.
    fn models(
        &self,
        f: Bdd,
        over: &[Var],
        expand: &[bool],
    ) -> Result<Vec<Vec<bool>>, WitnessError> {
        let m = self.solver.manager_ref();
        let mut out = Vec::new();
        for cube in m.cubes(f) {
            let fixed: BTreeMap<u32, bool> = cube.iter().map(|&(v, b)| (v.0, b)).collect();
            let free: Vec<usize> = over
                .iter()
                .enumerate()
                .filter(|(i, v)| expand[*i] && !fixed.contains_key(&v.0))
                .map(|(i, _)| i)
                .collect();
            if free.len() >= usize::BITS as usize {
                return Err(WitnessError::Limit(MAX_STATES));
            }
            let mut base: Vec<bool> =
                over.iter().map(|v| fixed.get(&v.0).copied().unwrap_or(false)).collect();
            for bits in 0..(1usize << free.len()) {
                for (j, &idx) in free.iter().enumerate() {
                    base[idx] = (bits >> j) & 1 == 1;
                }
                out.push(base.clone());
                if out.len() > MAX_STATES {
                    return Err(WitnessError::Limit(MAX_STATES));
                }
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

#[derive(Debug, Clone, Copy)]
enum BlockSel {
    Pc,
    Cg,
    Ecl,
    Ecg,
}

fn set_bits(env: &mut [bool], vars: &[Var], value: u64) {
    for (i, v) in vars.iter().enumerate() {
        env[v.level() as usize] = (value >> i) & 1 == 1;
    }
}

/// Decodes a variable block from a satisfying cube: bits absent from the
/// cube are don't-cares and read as `false` (the convention every decoder
/// in this crate uses, so all of them pick the *same* completion).
pub(crate) fn read_bits(cube: &[(Var, bool)], vars: &[Var]) -> u64 {
    let mut out = 0u64;
    for (i, v) in vars.iter().enumerate() {
        if cube.iter().any(|&(cv, b)| cv == *v && b) {
            out |= 1 << i;
        }
    }
    out
}

fn read_model(model: &[bool], offset: usize, width: usize) -> Bits {
    let mut out = 0u64;
    for i in 0..width {
        if model[offset + i] {
            out |= 1 << i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use getafix_boolprog::parse_program;
    use getafix_mucalc::parse_system;

    fn toy_cfg() -> Cfg {
        let program = parse_program(
            r#"
            decl g;
            main() begin
              g := T;
              if (g) then HIT: skip; fi;
            end
            "#,
        )
        .unwrap();
        Cfg::build(&program).unwrap()
    }

    /// A solver whose system mimics the summary relations in *name* but
    /// not in shape must produce a [`WitnessError`], never a panic —
    /// the regression for the old `Conf field `{name}` missing` abort.
    #[test]
    fn system_solver_mismatch_is_an_error_not_a_panic() {
        let cfg = toy_cfg();
        let target = cfg.label("HIT").unwrap();
        let limits = WitnessLimits::default();
        let options = SolveOptions { record_provenance: true, ..SolveOptions::default() };

        // `Reachable` exists but its configuration type has no Conf fields.
        let src = r#"
            type Conf = struct { b: bool };
            mu Reachable(s: Conf) := Reachable(s);
            query reach := exists s: Conf. Reachable(s);
        "#;
        let system = parse_system(src).unwrap();
        let mut solver = Solver::with_options(system, options.clone()).unwrap();
        let err =
            sequential_witness_from(&mut solver, &cfg, &[target], limits.clone()).unwrap_err();
        assert!(
            matches!(&err, WitnessError::Solve(m) if m.contains("no `pc` field")),
            "wrong error: {err}"
        );

        // `SummaryEFopt` exists but with too few formals for the
        // extractor's `(fr, s)` shape.
        let src = r#"
            type Conf = struct { b: bool };
            mu SummaryEFopt(s: Conf) := SummaryEFopt(s);
            query reach := exists s: Conf. SummaryEFopt(s);
        "#;
        let system = parse_system(src).unwrap();
        let mut solver = Solver::with_options(system, options).unwrap();
        let err = sequential_witness_from(&mut solver, &cfg, &[target], limits).unwrap_err();
        assert!(
            matches!(&err, WitnessError::Solve(m) if m.contains("formal parameters")),
            "wrong error: {err}"
        );
    }
}
