//! The demand-driven worklist strategy: dependency-ordered, change-driven
//! fixed-point evaluation.
//!
//! Where the round-robin reference (`solve.rs`) re-derives every relation a
//! body mentions on every round — nesting full fixpoint computations inside
//! fixpoint computations — this engine schedules work from the static
//! dependency graph (`deps.rs`). Evaluating `R` only touches the cone of
//! relations `R` transitively applies; the cone's SCCs are solved
//! dependencies-first, and an already-solved stratum is read from the memo
//! table, never re-derived.
//!
//! # One relation numbering
//!
//! Every table here is indexed by relation id, the [`crate::System`]
//! declaration index ([`crate::System::relation_id`]) that the dependency
//! graph, the allocation and the compiler use too; a name is read only
//! for errors, statistics keys and telemetry. Each fixpoint relation gets
//! its [`Plan`] once per solver, on first use: its top-level disjuncts by
//! position in the body, with their binder offsets, the relations they
//! read, their labels and their statistics keys.
//!
//! # One evaluation step
//!
//! A component solve keeps one working state ([`Component`]): one value
//! vector by relation id holding the inputs, the solved outer strata and
//! every member's current value; a clock that ticks with every change of
//! a member's value, and per relation the tick of its last change; per
//! disjunct, the tick it was last compiled at. The one evaluation step,
//! [`Solver::eval_member`], recompiles exactly the disjuncts that were
//! never compiled or that read a relation changed since — that is the
//! dirty bit — and combines them in one of two ways, chosen by the
//! component's monotonicity:
//!
//! * **Monotone: accumulate.** The step ORs the recompiled disjuncts into
//!   the member's current value. This equals the OR of *all* disjuncts
//!   under the current environment: interpretations only grow during the
//!   iteration, so a skipped disjunct — one whose reads did not change
//!   since it was compiled — contributes a value that is already below the
//!   accumulated one.
//! * **Non-monotone: recombine.** The step ORs every disjunct's current
//!   value in body order, reusing the cached value of each disjunct whose
//!   reads did not change. The cache is *exact*, with no monotonicity
//!   assumption: a disjunct's value is a pure function of the
//!   interpretations it reads, so unchanged reads imply an unchanged value.
//!
//! # Three drivers
//!
//! * **Chaotic** ([`Solver::solve_scc_chaotic`]) runs every monotone
//!   component, recursive or not: a worklist re-queues the members that
//!   read a member whose value changed. A non-recursive member reads no
//!   member, so it is evaluated in exactly one pass (the schedule
//!   [`crate::SccStats::schedule`] calls `once`). At quiescence every
//!   member's value is a pre-fixpoint, and by induction the accumulation
//!   never exceeds the least fixed point over the product lattice — the
//!   set the nested §3 semantics computes (Bekić), so the two strategies
//!   produce *identical* canonical BDDs.
//! * **Ordered** ([`Solver::solve_scc_ordered`]) runs a non-monotone
//!   component that fits the **frontier pattern**
//!   ([`crate::deps::DepGraph::ordered_plan`]). Such a component — the
//!   §4.3 `Relevant` pattern reads the complement of the summary's
//!   frontier — has no Tarski guarantee; its meaning is *defined by* the
//!   nested evaluation order of §3, so the engine never reorders it.
//!   Anchored at the evaluation root, the remaining members form a DAG
//!   modulo self-loops, so one §3 round of the root derives every other
//!   member as a pure function of the frozen root value. The driver walks
//!   the members in dependency-rank order once per round; with the exact
//!   disjunct cache it reproduces the nested semantics round for round
//!   while skipping the nested evaluator's rediscovery of unchanged inner
//!   fixpoints.
//! * **Nested**: a non-monotone component that does *not* fit the pattern
//!   (mutual recursion among two non-anchor members) runs the nested §3
//!   semantics verbatim ([`Solver::evaluate_nested`]), demand-driven per
//!   requested root. Its frozen environment is the value table minus the
//!   component's members: the inputs and the solved outer strata. Those
//!   strata are fixed before the component starts, so reading them is
//!   exact, and it spares the reference's re-derivation of every outer
//!   fixpoint in every round.
//!
//! Every pass and round boundary of a driver is a safe point: everything
//! the next step reads is a root of the component state, so an arena over
//! pressure is collected there and the state remapped in place.

use crate::alloc::Body;
use crate::ast::Formula;
use crate::compile::CompileCtx;
use crate::deps::OrderedPlan;
use crate::solve::{entry_mut, DisjunctStats, SolveError, Solver};
use crate::system::RelationKind;
use getafix_bdd::Bdd;
use getafix_telemetry::{self as telemetry, Phase};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// The compilation plan of one fixpoint relation. It depends on the
/// system alone, so [`Solver::plan`] builds it once per solver.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Every relation the body applies, by id, in first-occurrence order:
    /// the order the nested reference derives them in.
    pub(crate) reads: Vec<usize>,
    /// The body's top-level disjuncts.
    parts: Vec<Part>,
}

/// One top-level disjunct of a relation body, with the metadata needed to
/// recompile it in isolation.
#[derive(Debug)]
struct Part {
    /// Position among the body's top-level disjuncts ([`disjuncts`]).
    index: usize,
    /// Every relation the disjunct applies, by id.
    reads: Vec<usize>,
    /// Binder-numbering offset of the disjunct within the whole body.
    binder_offset: usize,
    /// Pretty-printed prefix of the formula, for the offenders table.
    label: String,
    /// The [`crate::SolveStats::disjuncts`] key, `"Relation#index"`.
    key: String,
}

/// The top-level disjuncts of a body: the operands of an `Or`, or the
/// body itself.
fn disjuncts(body: &Formula) -> &[Formula] {
    match body {
        Formula::Or(parts) => parts,
        other => std::slice::from_ref(other),
    }
}

/// Truncates a disjunct's pretty-printed formula to a table-friendly
/// prefix, on a char boundary.
fn part_label(formula: &Formula) -> String {
    const MAX: usize = 48;
    // Formula's Display may span lines; the label must stay a single table
    // cell, so whitespace runs collapse to one space before truncation.
    let text: String = formula.to_string().split_whitespace().collect::<Vec<_>>().join(" ");
    if text.chars().count() <= MAX {
        return text;
    }
    let mut out: String = text.chars().take(MAX - 1).collect();
    out.push('…');
    out
}

/// One disjunct's last compilation: its value and the clock it was
/// compiled at.
#[derive(Clone, Copy)]
struct PartCache {
    value: Bdd,
    at: u64,
}

/// The working state of one component solve. The per-member `Vec`s are
/// indexed by member position, the order the driver lists the members
/// in; `env` and `changed` by relation id.
struct Component {
    /// The schedule running this solve, for telemetry.
    schedule: &'static str,
    /// Does [`Solver::eval_member`] accumulate (monotone) or recombine?
    monotone: bool,
    /// Member relation ids.
    members: Vec<usize>,
    plans: Vec<Rc<Plan>>,
    /// Per member: the conjunction of its formals' domains.
    domains: Vec<Bdd>,
    /// The interpretation compilation reads: inputs and solved outer
    /// strata, plus every member's current value.
    env: Vec<Option<Bdd>>,
    /// The clock at each relation's last change (0: never changed).
    changed: Vec<u64>,
    /// Ticks once per change of a member's value.
    clock: u64,
    /// Per member, per disjunct: the last compilation, if any.
    cache: Vec<Vec<Option<PartCache>>>,
}

impl Component {
    /// Member `i`'s current value.
    fn value(&self, i: usize) -> Bdd {
        self.env[self.members[i]].expect("member values are always set")
    }

    /// Sets member `i`'s value. A change ticks the clock, which marks
    /// every disjunct that read the old value stale.
    fn set(&mut self, i: usize, value: Bdd) {
        let rel = self.members[i];
        if self.env[rel] != Some(value) {
            self.env[rel] = Some(value);
            self.clock += 1;
            self.changed[rel] = self.clock;
        }
    }

    /// The cached value of member `i`'s disjunct `p`, unless it was never
    /// compiled or something it reads changed since.
    fn cached(&self, i: usize, p: usize) -> Option<Bdd> {
        let reads = &self.plans[i].parts[p].reads;
        let fresh = |pc: &PartCache| reads.iter().all(|&r| self.changed[r] <= pc.at);
        self.cache[i][p].filter(fresh).map(|pc| pc.value)
    }

    /// Every handle the rest of the solve reads, for a collection to keep
    /// alive and remap in place. The clock is untouched, so the cache
    /// stays exact: a remap renames handles without changing which
    /// function they denote.
    fn roots(&mut self) -> Vec<&mut Bdd> {
        let mut roots: Vec<&mut Bdd> = self.env.iter_mut().flatten().collect();
        roots.extend(self.domains.iter_mut());
        roots.extend(self.cache.iter_mut().flatten().flatten().map(|pc| &mut pc.value));
        roots
    }
}

impl Solver {
    /// The plan of fixpoint relation `rel`, built on first use.
    pub(crate) fn plan(&mut self, rel: usize) -> Rc<Plan> {
        if let Some(plan) = &self.plans[rel] {
            return Rc::clone(plan);
        }
        let system = &self.system;
        let def = &system.relations()[rel];
        let body = def.body.as_ref().expect("fixpoint relation has a body");
        let ids = |f: &Formula| -> Vec<usize> {
            f.relations().iter().filter_map(|r| system.relation_id(r)).collect()
        };
        let mut binder_offset = 0;
        let mut parts = Vec::new();
        for (index, f) in disjuncts(body).iter().enumerate() {
            let (label, key) = (part_label(f), format!("{}#{index}", def.name));
            parts.push(Part { index, reads: ids(f), binder_offset, label, key });
            binder_offset += f.binder_count();
        }
        let plan = Rc::new(Plan { reads: ids(body), parts });
        self.plans[rel] = Some(Rc::clone(&plan));
        plan
    }

    /// Worklist-strategy evaluation of fixpoint relation `root` (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub(crate) fn evaluate_worklist(&mut self, root: usize) -> Result<Bdd, SolveError> {
        // Demand: the cone of relations `root` transitively applies, grouped
        // into components. Component indices ascend in dependency order, so
        // iterating the set ascending solves dependencies first.
        let needed = self.deps.transitive_deps(root);
        let mut demanded: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        demanded.entry(self.deps.scc_of(root)).or_default().insert(root);
        for &i in &needed {
            for &j in self.deps.deps(i) {
                if self.deps.scc_of(j) != self.deps.scc_of(i) {
                    demanded.entry(self.deps.scc_of(j)).or_default().insert(j);
                }
            }
        }
        let scc_order: BTreeSet<usize> = needed.iter().map(|&i| self.deps.scc_of(i)).collect();
        self.strata = Some((0, scc_order.len()));
        for idx in scc_order {
            let roots = demanded.remove(&idx).unwrap_or_default();
            self.solve_stratum(idx, &roots)?;
            self.note_stratum_done();
        }
        self.values[root].ok_or_else(|| {
            SolveError::Internal(format!("`{}` not solved by its component", self.name(root)))
        })
    }

    /// One stratum of the worklist schedule: solve component `idx` (with a
    /// telemetry span and per-SCC wall attribution), then poll the limits
    /// and pass the safe point at the stratum boundary — nothing
    /// intermediate is live there, so the arena can be compacted around
    /// the inputs, the memoized interpretations and the provenance
    /// snapshots.
    fn solve_stratum(&mut self, idx: usize, roots: &BTreeSet<usize>) -> Result<(), SolveError> {
        let stratum_start = Instant::now();
        {
            let mut span = telemetry::span(Phase::Solve, "stratum");
            if span.is_recording() {
                let scc = &self.deps.sccs()[idx];
                span.attr("scc", idx);
                span.attr("members", scc.members.len());
                span.attr("recursive", scc.recursive);
                span.attr("monotone", scc.monotone);
            }
            self.solve_scc(idx, roots)?;
        }
        self.stats.sccs[idx].wall_ms += stratum_start.elapsed().as_secs_f64() * 1e3;
        self.check_limits()?;
        if self.arena_over_pressure() {
            self.collect(&mut [])?;
        }
        Ok(())
    }

    /// Counts a finished stratum for the heartbeat, and samples the
    /// kernel counters as time series for a trace export (one point per
    /// stratum turns the terminal cache ratio into a trajectory).
    fn note_stratum_done(&mut self) {
        if let Some((done, _)) = &mut self.strata {
            *done += 1;
        }
        if telemetry::enabled() {
            let ms = self.manager.stats();
            telemetry::sample("bdd.cache_hits", ms.cache_hits as f64);
            telemetry::sample("bdd.cache_misses", ms.cache_misses as f64);
            telemetry::sample("bdd.arena_nodes", ms.nodes as f64);
            telemetry::sample("bdd.arena_bytes", ms.arena_bytes as f64);
        }
    }

    /// Solves one component; `demanded` are the members read from outside
    /// the component (or the evaluation root).
    pub(crate) fn solve_scc(
        &mut self,
        idx: usize,
        demanded: &BTreeSet<usize>,
    ) -> Result<(), SolveError> {
        // A non-recursive component has no intra-component application,
        // so it is monotone too.
        let scc = &self.deps.sccs()[idx];
        if scc.monotone {
            if scc.members.iter().all(|&m| self.values[m].is_some()) {
                return Ok(());
            }
            return self.solve_scc_chaotic(idx);
        }

        // Non-monotone: per demanded root, run the ordered schedule when
        // the component fits the §4.3 frontier pattern with that root as
        // the anchor; otherwise defer to the nested §3 semantics, frozen
        // over the value table minus the members. Only the root's value is
        // memoized: other members' §3 meanings are anchored at *their own*
        // top-level evaluation, so caching intermediates would change later
        // answers.
        for &r in demanded {
            if self.values[r].is_some() {
                continue;
            }
            let value = match self.deps.ordered_plan(idx, r) {
                Some(plan) => self.solve_scc_ordered(idx, &plan)?,
                None => {
                    let mut frozen = self.values.clone();
                    for &m in &self.deps.sccs()[idx].members {
                        frozen[m] = None;
                    }
                    self.evaluate_nested(r, &frozen, true)?
                }
            };
            self.values[r] = Some(value);
        }
        Ok(())
    }

    /// The chaotic driver for a monotone component: a worklist of member
    /// positions, starting with every member once; a member whose value
    /// changes re-queues every member that reads it.
    fn solve_scc_chaotic(&mut self, idx: usize) -> Result<(), SolveError> {
        let mut st = self.component(idx, self.deps.sccs()[idx].members.clone())?;
        let n = st.members.len();
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        let mut passes = vec![0usize; n];
        let mut peak = vec![0usize; n];
        while let Some(i) = queue.pop_front() {
            queued[i] = false;
            passes[i] += 1;
            if passes[i] > self.options.max_iterations {
                return Err(SolveError::Diverged {
                    relation: self.name(st.members[i]).to_string(),
                    bound: self.options.max_iterations,
                });
            }
            self.note_step()?;
            let next = self.eval_member(&mut st, i)?;
            peak[i] = peak[i].max(self.manager.node_count(next));
            if next != st.value(i) {
                st.set(i, next);
                let rel = st.members[i];
                self.note_provenance(rel, next);
                for (j, q) in queued.iter_mut().enumerate() {
                    if !*q && st.plans[j].parts.iter().any(|p| p.reads.contains(&rel)) {
                        *q = true;
                        queue.push_back(j);
                    }
                }
            }
            if self.arena_over_pressure() {
                self.collect(&mut st.roots())?;
            }
        }
        for (i, &rel) in st.members.iter().enumerate() {
            self.record_relation(rel, passes[i], st.value(i), peak[i]);
            self.values[rel] = Some(st.value(i));
        }
        Ok(())
    }

    /// The ordered driver for a frontier-pattern component (see the module
    /// docs and [`crate::deps::DepGraph::ordered_plan`]).
    ///
    /// Each outer round freezes the anchor's value, re-derives the
    /// non-anchor members in dependency-rank order — one step for DAG
    /// members, an inner fixpoint from `⊥` for self-recursive ones — and
    /// then steps the anchor once. The computed round sequence is
    /// *identical* to the nested §3 reference, so the returned value (and
    /// the recorded provenance ranks) are too; only the amount of
    /// recompilation differs.
    fn solve_scc_ordered(&mut self, idx: usize, plan: &OrderedPlan) -> Result<Bdd, SolveError> {
        let mut members = plan.ranks.clone();
        members.push(plan.anchor);
        let mut st = self.component(idx, members)?;
        let a = plan.ranks.len();
        let bound = self.options.max_iterations;
        let mut rounds = 0usize;
        let mut peak_nodes = 0usize;
        loop {
            rounds += 1;
            if rounds > bound {
                return Err(SolveError::Diverged {
                    relation: self.name(plan.anchor).to_string(),
                    bound,
                });
            }
            self.note_step()?;
            let reevals_before = self.stats.ordered_reevaluations;
            let mut round_span = telemetry::span(Phase::Solve, "round");
            if round_span.is_recording() {
                round_span.attr("anchor", self.name(plan.anchor));
                round_span.attr("round", rounds);
                round_span.attr("schedule", "ordered");
            }
            // The non-anchor members, dependencies first. Each is a
            // function of the frozen anchor (and earlier ranks), exactly
            // as one §3 round derives them.
            for (i, &self_recursive) in plan.self_recursive.iter().enumerate() {
                if !self_recursive {
                    let next = self.eval_member(&mut st, i)?;
                    st.set(i, next);
                    continue;
                }
                // Inner fixpoint from ⊥, as the nested semantics
                // prescribes (restarting is required for exactness: the
                // member's other inputs may have *shrunk*). It can run for
                // the whole solve, so its passes are safe points too.
                st.set(i, Bdd::FALSE);
                let mut passes = 0usize;
                loop {
                    passes += 1;
                    if passes > bound {
                        return Err(SolveError::Diverged {
                            relation: self.name(st.members[i]).to_string(),
                            bound,
                        });
                    }
                    self.note_step()?;
                    let next = self.eval_member(&mut st, i)?;
                    if next == st.value(i) {
                        break;
                    }
                    st.set(i, next);
                    if self.arena_over_pressure() {
                        self.collect(&mut st.roots())?;
                    }
                }
            }
            let next = self.eval_member(&mut st, a)?;
            peak_nodes = peak_nodes.max(self.manager.node_count(next));
            if round_span.is_recording() {
                round_span.attr("reevals", self.stats.ordered_reevaluations - reevals_before);
                round_span.attr("changed", next != st.value(a));
            }
            drop(round_span);
            if next == st.value(a) {
                break;
            }
            st.set(a, next);
            self.note_provenance(plan.anchor, next);
            if self.arena_over_pressure() {
                self.collect(&mut st.roots())?;
            }
        }

        self.stats.sccs[idx].ordered = true;
        self.record_relation(plan.anchor, rounds, st.value(a), peak_nodes);
        Ok(st.value(a))
    }

    /// The one evaluation step: recompiles exactly the disjuncts of member
    /// `i` that were never compiled or whose reads changed since, and
    /// returns the member's next value — accumulated in a monotone
    /// component, recombined otherwise (see the module docs). Counts a
    /// re-evaluation when it recompiled anything.
    fn eval_member(&mut self, st: &mut Component, i: usize) -> Result<Bdd, SolveError> {
        let rel = st.members[i];
        let mut span = telemetry::span(Phase::Solve, "reeval");
        if span.is_recording() {
            span.attr("relation", self.name(rel));
            span.attr("schedule", st.schedule);
        }
        let mut acc = Bdd::FALSE;
        let mut recompiled = false;
        for (p, part) in st.plans[i].parts.iter().enumerate() {
            let value = match st.cached(i, p) {
                Some(_) if st.monotone => continue,
                Some(value) => value,
                None => {
                    recompiled = true;
                    let raw = self.compile_part(rel, part, &st.env)?;
                    let value = self.manager.and(raw, st.domains[i]);
                    // An accumulating step never reads a cached value
                    // back, so its cache keeps the clock only and pins no
                    // nodes.
                    let value_kept = if st.monotone { Bdd::FALSE } else { value };
                    st.cache[i][p] = Some(PartCache { value: value_kept, at: st.clock });
                    value
                }
            };
            acc = self.manager.or(acc, value);
        }
        if recompiled {
            self.note_reevaluation(rel);
            if !st.monotone {
                self.stats.ordered_reevaluations += 1;
            }
        }
        let current = st.value(i);
        let next = if st.monotone { self.manager.or(current, acc) } else { acc };
        span.attr("recompiled", recompiled);
        span.attr("changed", next != current);
        Ok(next)
    }

    /// The working state of a solve of component `idx` over `members`
    /// (relation ids, in the order the driver lists them).
    fn component(&mut self, idx: usize, members: Vec<usize>) -> Result<Component, SolveError> {
        let plans: Vec<Rc<Plan>> = members.iter().map(|&m| self.plan(m)).collect();
        let domains =
            members.iter().map(|&m| self.alloc.formals_domain(&mut self.manager, m)).collect();
        let env = self.component_env(&members, &plans)?;
        let monotone = self.deps.sccs()[idx].monotone;
        let cache = plans.iter().map(|p| vec![None; p.parts.len()]).collect();
        Ok(Component {
            schedule: if monotone { self.stats.sccs[idx].schedule() } else { "ordered" },
            monotone,
            members,
            plans,
            domains,
            changed: vec![0; env.len()],
            env,
            clock: 0,
            cache,
        })
    }

    /// The evaluation environment of a component: the value table (inputs
    /// and solved outer strata) with `⊥` for every member. Everything the
    /// members apply is checked up front, so a missing input is reported
    /// before any compilation — the ⊥ stop in `compile.rs` relies on it —
    /// and an unsolved outer stratum is caught as the stratification bug
    /// it would be. The first missing name in name order is reported.
    fn component_env(
        &self,
        members: &[usize],
        plans: &[Rc<Plan>],
    ) -> Result<Vec<Option<Bdd>>, SolveError> {
        let mut env = self.values.clone();
        for &m in members {
            env[m] = Some(Bdd::FALSE);
        }
        let missing = (plans.iter().flat_map(|p| &p.reads))
            .filter(|&&r| env[r].is_none())
            .min_by_key(|&&r| self.name(r));
        if let Some(&r) = missing {
            let name = self.name(r).to_string();
            return Err(match self.system.relations()[r].kind {
                RelationKind::Input => SolveError::MissingInterpretation(name),
                RelationKind::Fixpoint => SolveError::Internal(format!(
                    "stratification violated: `{name}` read before being solved"
                )),
            });
        }
        Ok(env)
    }

    /// Writes a solved member's statistics: the passes (or rounds) it
    /// took, and the final and peak sizes of its interpretation.
    fn record_relation(&mut self, rel: usize, iterations: usize, value: Bdd, peak_nodes: usize) {
        let final_nodes = self.manager.node_count(value);
        let entry = self.relation_stats(rel);
        entry.iterations = iterations;
        entry.final_nodes = final_nodes;
        entry.peak_nodes = entry.peak_nodes.max(peak_nodes);
    }

    /// Compiles one disjunct of relation `rel` under `env`, with the
    /// binder numbering resumed at the disjunct's offset, and attributes
    /// the work to the disjunct. Every disjunct compilation in every
    /// schedule funnels through here, so this one call site is the whole
    /// attribution story; it costs a map lookup next to a BDD
    /// compilation, so it is always on and `--profile` needs no re-run.
    fn compile_part(
        &mut self,
        rel: usize,
        part: &Part,
        env: &[Option<Bdd>],
    ) -> Result<Bdd, SolveError> {
        let compile_start = Instant::now();
        let body = self.system.relations()[rel].body.as_ref().expect("fixpoint body");
        let raw = CompileCtx::new(
            &mut self.manager,
            &self.system,
            &self.alloc,
            env,
            Body::Relation(rel),
            part.binder_offset,
        )
        .compile(&disjuncts(body)[part.index])?;
        let nodes = self.manager.node_count(raw);
        let stats = entry_mut(&mut self.stats.disjuncts, &part.key, || DisjunctStats {
            label: part.label.clone(),
            ..DisjunctStats::default()
        });
        stats.recompilations += 1;
        stats.nodes_built += nodes as u64;
        stats.peak_nodes = stats.peak_nodes.max(nodes);
        stats.wall_us += compile_start.elapsed().as_micros() as u64;
        Ok(raw)
    }
}
