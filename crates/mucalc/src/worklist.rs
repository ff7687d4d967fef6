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
//! # One evaluation step
//!
//! A component solve keeps one working state ([`Component`]): every
//! member's plan (its body split into top-level disjuncts), its current
//! value, and a version that grows with every change of that value; per
//! disjunct, the versions of the members it read when it was last
//! compiled. The one evaluation step, [`Solver::eval_member`], recompiles
//! exactly the disjuncts that were never compiled or whose read versions
//! changed — a changed version is the dirty bit — and combines them in one
//! of two ways, chosen by the component's monotonicity:
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
//!   interpretations it reads, so equal read versions imply an equal value.
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
//!   requested root.
//!
//! Every pass and round boundary of a driver is a safe point: everything
//! the next step reads is a root of the component state, so an arena over
//! pressure is collected there and the state remapped in place.

use crate::alloc::owner_rel;
use crate::ast::Formula;
use crate::compile::CompileCtx;
use crate::deps::OrderedPlan;
use crate::solve::{SolveError, Solver};
use crate::system::RelationKind;
use getafix_bdd::Bdd;
use getafix_telemetry::{self as telemetry, Phase};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// One top-level disjunct of a member's body, with the metadata needed to
/// recompile it in isolation.
struct Part {
    formula: Formula,
    /// Positions of the component members this disjunct applies.
    reads: Vec<usize>,
    /// Binder-numbering offset of the disjunct within the whole body.
    binder_offset: usize,
    /// Position among the body's top-level disjuncts — the `#index` half
    /// of the [`crate::DisjunctStats`] attribution key.
    index: usize,
    /// Pretty-printed prefix of the formula, for the offenders table.
    label: String,
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

/// The compilation plan of one component member.
struct MemberPlan {
    name: String,
    param_names: Vec<String>,
    parts: Vec<Part>,
    formals_domain: Bdd,
}

/// One disjunct's last compilation: its value plus the version of every
/// member it read, in [`Part::reads`] order.
struct PartCache {
    value: Bdd,
    read: Vec<u64>,
}

/// The working state of one component solve. Every `Vec` is indexed by
/// member position: the order the driver lists the members in.
struct Component {
    /// The schedule running this solve, for telemetry.
    schedule: &'static str,
    /// Does [`Solver::eval_member`] accumulate (monotone) or recombine?
    monotone: bool,
    plans: Vec<MemberPlan>,
    /// The interpretation compilation reads: inputs and solved outer
    /// strata, plus the current value of every member some body applies.
    env: BTreeMap<String, Bdd>,
    value: Vec<Bdd>,
    version: Vec<u64>,
    /// Per member, per disjunct: the last compilation, if any.
    cache: Vec<Vec<Option<PartCache>>>,
}

impl Component {
    /// Sets member `i`'s value. A change bumps its version, which marks
    /// every disjunct that read the old value stale.
    fn set(&mut self, i: usize, value: Bdd) {
        if self.value[i] != value {
            self.value[i] = value;
            self.version[i] += 1;
            if let Some(slot) = self.env.get_mut(&self.plans[i].name) {
                *slot = value;
            }
        }
    }

    /// Every handle the rest of the solve reads, for a collection to keep
    /// alive and remap in place. Versions are untouched, so the cache
    /// stays exact: a remap renames handles without changing which
    /// function they denote.
    fn roots(&mut self) -> Vec<&mut Bdd> {
        let mut roots: Vec<&mut Bdd> = self.env.values_mut().collect();
        roots.extend(self.value.iter_mut());
        roots.extend(self.plans.iter_mut().map(|p| &mut p.formals_domain));
        roots.extend(self.cache.iter_mut().flatten().flatten().map(|pc| &mut pc.value));
        roots
    }
}

impl Solver {
    /// Worklist-strategy evaluation of `name` (see the module docs).
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub(crate) fn evaluate_worklist(&mut self, name: &str) -> Result<Bdd, SolveError> {
        {
            let rel =
                self.system.relation(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
            if rel.kind == RelationKind::Input {
                return self
                    .inputs
                    .get(name)
                    .copied()
                    .ok_or_else(|| SolveError::MissingInterpretation(name.to_string()));
            }
        }
        let root = self
            .deps
            .relation_index(name)
            .ok_or_else(|| SolveError::Internal(format!("`{name}` missing from dep graph")))?;

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
        if telemetry::enabled() {
            // Position gauges for the live-progress heartbeat.
            telemetry::gauge_set("solve.strata_total", scc_order.len() as f64);
            telemetry::gauge_set("solve.stratum", 0.0);
        }
        let mut strata_done = 0usize;
        for idx in scc_order {
            let roots = demanded.get(&idx).cloned().unwrap_or_default();
            self.solve_stratum(idx, &roots)?;
            strata_done += 1;
            self.note_stratum_done(strata_done);
        }
        self.evaluated
            .get(name)
            .copied()
            .ok_or_else(|| SolveError::Internal(format!("`{name}` not solved by its component")))
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

    /// Telemetry bookkeeping after `strata_done` strata have finished:
    /// kernel-counter time series (one point per stratum turns the
    /// terminal cache ratio into a trajectory over the run) and the
    /// heartbeat position gauge.
    fn note_stratum_done(&mut self, strata_done: usize) {
        if telemetry::enabled() {
            let ms = self.manager.stats();
            telemetry::sample("bdd.cache_hits", ms.cache_hits as f64);
            telemetry::sample("bdd.cache_misses", ms.cache_misses as f64);
            telemetry::sample("bdd.arena_nodes", ms.nodes as f64);
            telemetry::sample("bdd.arena_bytes", ms.arena_bytes as f64);
            telemetry::gauge_set("bdd.arena_bytes", ms.arena_bytes as f64);
            telemetry::gauge_set("solve.stratum", strata_done as f64);
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
            if scc.members.iter().all(|&m| self.evaluated.contains_key(self.deps.name(m))) {
                return Ok(());
            }
            return self.solve_scc_chaotic(idx);
        }

        // Non-monotone: per demanded root, run the ordered schedule when
        // the component fits the §4.3 frontier pattern with that root as
        // the anchor; otherwise defer to the nested §3 semantics (outer
        // strata resolve through the memo table either way). Only the
        // root's value is memoized: other members' §3 meanings are
        // anchored at *their own* top-level evaluation, so caching
        // intermediates would change later answers.
        for &r in demanded {
            let rname = self.deps.name(r).to_string();
            if self.evaluated.contains_key(&rname) {
                continue;
            }
            let value = match self.deps.ordered_plan(idx, r) {
                Some(plan) => self.solve_scc_ordered(idx, &plan)?,
                None => {
                    let members: BTreeSet<String> = self.deps.sccs()[idx]
                        .members
                        .iter()
                        .map(|&m| self.deps.name(m).to_string())
                        .collect();
                    self.evaluate_nested(&rname, &BTreeMap::new(), true, Some(&members))?
                }
            };
            self.evaluated.insert(rname, value);
        }
        Ok(())
    }

    /// The chaotic driver for a monotone component: a worklist of member
    /// positions, starting with every member once; a member whose value
    /// changes re-queues every member that reads it.
    fn solve_scc_chaotic(&mut self, idx: usize) -> Result<(), SolveError> {
        let members = self.deps.sccs()[idx].members.clone();
        let mut st = self.component(idx, &members)?;
        let n = members.len();
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        let mut passes = vec![0usize; n];
        let mut peak = vec![0usize; n];
        while let Some(i) = queue.pop_front() {
            queued[i] = false;
            passes[i] += 1;
            if passes[i] > self.options.max_iterations {
                return Err(SolveError::Diverged {
                    relation: st.plans[i].name.clone(),
                    bound: self.options.max_iterations,
                });
            }
            self.note_step()?;
            let next = self.eval_member(&mut st, i)?;
            peak[i] = peak[i].max(self.manager.node_count(next));
            if next != st.value[i] {
                st.set(i, next);
                self.note_provenance(&st.plans[i].name, next);
                for (j, q) in queued.iter_mut().enumerate() {
                    if !*q && st.plans[j].parts.iter().any(|p| p.reads.contains(&i)) {
                        *q = true;
                        queue.push_back(j);
                    }
                }
            }
            if self.arena_over_pressure() {
                self.collect(&mut st.roots())?;
            }
        }
        for (i, plan) in st.plans.iter().enumerate() {
            self.record_relation(&plan.name, passes[i], st.value[i], peak[i]);
            self.evaluated.insert(plan.name.clone(), st.value[i]);
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
        let mut st = self.component(idx, &members)?;
        let a = plan.ranks.len();
        let bound = self.options.max_iterations;
        let mut rounds = 0usize;
        let mut peak_nodes = 0usize;
        loop {
            rounds += 1;
            if rounds > bound {
                return Err(SolveError::Diverged { relation: st.plans[a].name.clone(), bound });
            }
            self.note_step()?;
            let reevals_before = self.stats.ordered_reevaluations;
            let mut round_span = telemetry::span(Phase::Solve, "round");
            if round_span.is_recording() {
                round_span.attr("anchor", st.plans[a].name.as_str());
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
                            relation: st.plans[i].name.clone(),
                            bound,
                        });
                    }
                    self.note_step()?;
                    let next = self.eval_member(&mut st, i)?;
                    if next == st.value[i] {
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
                round_span.attr("changed", next != st.value[a]);
            }
            drop(round_span);
            if next == st.value[a] {
                break;
            }
            st.set(a, next);
            self.note_provenance(&st.plans[a].name, next);
            if self.arena_over_pressure() {
                self.collect(&mut st.roots())?;
            }
        }

        self.stats.sccs[idx].ordered = true;
        self.record_relation(&st.plans[a].name, rounds, st.value[a], peak_nodes);
        Ok(st.value[a])
    }

    /// The one evaluation step: recompiles exactly the disjuncts of member
    /// `i` that were never compiled or whose read versions changed, and
    /// returns the member's next value — accumulated in a monotone
    /// component, recombined otherwise (see the module docs). Counts a
    /// re-evaluation when it recompiled anything.
    fn eval_member(&mut self, st: &mut Component, i: usize) -> Result<Bdd, SolveError> {
        let mut span = telemetry::span(Phase::Solve, "reeval");
        if span.is_recording() {
            span.attr("relation", st.plans[i].name.as_str());
            span.attr("schedule", st.schedule);
        }
        let plan = &st.plans[i];
        let mut acc = Bdd::FALSE;
        let mut recompiled = false;
        for (p, part) in plan.parts.iter().enumerate() {
            let cached = st.cache[i][p]
                .as_ref()
                .filter(|pc| pc.read.iter().eq(part.reads.iter().map(|&j| &st.version[j])))
                .map(|pc| pc.value);
            let value = match cached {
                Some(_) if st.monotone => continue,
                Some(value) => value,
                None => {
                    recompiled = true;
                    let raw = self.compile_part(plan, part, &st.env)?;
                    let value = self.manager.and(raw, plan.formals_domain);
                    // An accumulating step never reads a cached value
                    // back, so its cache keeps the versions only and pins
                    // no nodes.
                    st.cache[i][p] = Some(PartCache {
                        value: if st.monotone { Bdd::FALSE } else { value },
                        read: part.reads.iter().map(|&j| st.version[j]).collect(),
                    });
                    value
                }
            };
            acc = self.manager.or(acc, value);
        }
        if recompiled {
            self.note_reevaluation(&plan.name);
            if !st.monotone {
                self.stats.ordered_reevaluations += 1;
            }
        }
        let next = if st.monotone { self.manager.or(st.value[i], acc) } else { acc };
        span.attr("recompiled", recompiled);
        span.attr("changed", next != st.value[i]);
        Ok(next)
    }

    /// The working state of a solve of component `idx` over `members`
    /// (dependency-graph indices, in the order the driver lists them).
    fn component(&mut self, idx: usize, members: &[usize]) -> Result<Component, SolveError> {
        let names: Vec<String> = members.iter().map(|&m| self.deps.name(m).to_string()).collect();
        let plans: Vec<MemberPlan> =
            names.iter().map(|m| self.member_plan(m, &names)).collect::<Result<_, _>>()?;
        let env = self.component_env(&names)?;
        let monotone = self.deps.sccs()[idx].monotone;
        let cache = plans.iter().map(|p| p.parts.iter().map(|_| None).collect()).collect();
        Ok(Component {
            schedule: if monotone { self.stats.sccs[idx].schedule() } else { "ordered" },
            monotone,
            plans,
            env,
            value: vec![Bdd::FALSE; names.len()],
            version: vec![0; names.len()],
            cache,
        })
    }

    /// Builds the compilation plan of one member: top-level disjuncts with
    /// their binder offsets and the positions of the `members` they read.
    fn member_plan(&mut self, name: &str, members: &[String]) -> Result<MemberPlan, SolveError> {
        let (body, param_names) = {
            let rel =
                self.system.relation(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
            let body = rel
                .body
                .clone()
                .ok_or_else(|| SolveError::Internal(format!("`{name}` has no body to plan")))?;
            let params: Vec<String> = rel.params.iter().map(|(n, _)| n.clone()).collect();
            (body, params)
        };
        let raw_parts: Vec<Formula> = match body {
            Formula::Or(parts) => parts,
            other => vec![other],
        };
        let mut parts = Vec::with_capacity(raw_parts.len());
        let mut offset = 0usize;
        for (index, f) in raw_parts.into_iter().enumerate() {
            let reads =
                f.relations().iter().filter_map(|r| members.iter().position(|m| m == r)).collect();
            let binders = f.binder_count();
            let label = part_label(&f);
            parts.push(Part { formula: f, reads, binder_offset: offset, index, label });
            offset += binders;
        }
        let mut formals_domain = Bdd::TRUE;
        for i in 0..param_names.len() {
            let inst = self.alloc.formal(name, i).clone();
            let d = self.alloc.domain(&inst);
            formals_domain = self.manager.and(formals_domain, d);
        }
        Ok(MemberPlan { name: name.to_string(), param_names, parts, formals_domain })
    }

    /// The evaluation environment of a component: inputs and already-solved
    /// outer strata for everything the members' bodies apply, plus `⊥` for
    /// the members themselves.
    fn component_env(&mut self, members: &[String]) -> Result<BTreeMap<String, Bdd>, SolveError> {
        let mut applied: BTreeSet<String> = BTreeSet::new();
        for m in members {
            let rel = self.system.relation(m).ok_or_else(|| SolveError::Unknown(m.clone()))?;
            if let Some(body) = &rel.body {
                applied.extend(body.relations());
            }
        }
        let mut env = BTreeMap::new();
        for r in applied {
            if members.contains(&r) {
                env.insert(r, Bdd::FALSE);
                continue;
            }
            let rel = self.system.relation(&r).ok_or_else(|| SolveError::Unknown(r.clone()))?;
            let value = match rel.kind {
                RelationKind::Input => self
                    .inputs
                    .get(&r)
                    .copied()
                    .ok_or_else(|| SolveError::MissingInterpretation(r.clone()))?,
                RelationKind::Fixpoint => self.evaluated.get(&r).copied().ok_or_else(|| {
                    SolveError::Internal(format!(
                        "stratification violated: `{r}` read before being solved"
                    ))
                })?,
            };
            env.insert(r, value);
        }
        Ok(env)
    }

    /// Writes a solved member's statistics: the passes (or rounds) it
    /// took, and the final and peak sizes of its interpretation.
    fn record_relation(&mut self, name: &str, iterations: usize, value: Bdd, peak_nodes: usize) {
        let final_nodes = self.manager.node_count(value);
        let entry = self.stats.relations.entry(name.to_string()).or_default();
        entry.iterations = iterations;
        entry.final_nodes = final_nodes;
        entry.peak_nodes = entry.peak_nodes.max(peak_nodes);
    }

    /// Compiles one disjunct of `plan` under `interp`, with the binder
    /// numbering resumed at the disjunct's offset.
    fn compile_part(
        &mut self,
        plan: &MemberPlan,
        part: &Part,
        interp: &BTreeMap<String, Bdd>,
    ) -> Result<Bdd, SolveError> {
        let compile_start = Instant::now();
        let raw = {
            let mut ctx = CompileCtx::with_binder_offset(
                &mut self.manager,
                &self.system,
                &self.alloc,
                interp,
                owner_rel(&plan.name),
                part.binder_offset,
            );
            for i in 0..plan.param_names.len() {
                let inst = ctx.alloc.formal(&plan.name, i).clone();
                ctx.bind(&plan.param_names[i], inst);
            }
            ctx.compile(&part.formula)?
        };
        // Every disjunct compilation in every schedule funnels through
        // here, so this one call site is the whole attribution story.
        let nodes = self.manager.node_count(raw);
        self.note_disjunct(
            &plan.name,
            part.index,
            &part.label,
            nodes,
            compile_start.elapsed().as_micros() as u64,
        );
        Ok(raw)
    }
}
