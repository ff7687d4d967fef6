//! The demand-driven worklist strategy: dependency-ordered, change-driven
//! fixed-point evaluation.
//!
//! Where the round-robin reference (`solve.rs`) re-derives every relation a
//! body mentions on every round — nesting full fixpoint computations inside
//! fixpoint computations — this engine schedules work from the static
//! dependency graph (`deps.rs`):
//!
//! 1. **Demand.** Evaluating `R` only touches the cone of relations `R`
//!    transitively applies; unrelated equations are never compiled.
//! 2. **Stratification.** The cone's SCCs are solved dependencies-first.
//!    A relation in a non-recursive component is compiled *exactly once*;
//!    already-solved strata are read from the memo table, never re-derived.
//! 3. **Chaotic iteration.** Inside a recursive *monotone* component, a
//!    worklist keyed on "whose interpretation changed" drives re-evaluation:
//!    a member is re-compiled only when one of its intra-component
//!    dependencies actually changed since its last compilation.
//! 4. **Semi-naive propagation.** Where the formula structure permits —
//!    a body that is a top-level disjunction — only the disjuncts that
//!    mention a changed relation are recompiled, and their result is
//!    OR-accumulated into the previous interpretation. This is sound
//!    exactly because the component is monotone: interpretations only grow
//!    during the iteration, so a skipped disjunct's old contribution is
//!    still below the accumulated value.
//!
//! # Correctness and the non-monotone rule
//!
//! For a **monotone** component (every intra-component application under an
//! even number of negations) the accumulated chaotic iteration converges to
//! the component's least fixed point over the product lattice: at
//! quiescence every member's value is a pre-fixpoint, and by induction the
//! accumulation never exceeds the least fixed point. That is the same set
//! the nested §3 semantics computes (Bekić), so the two strategies produce
//! *identical* canonical BDDs.
//!
//! A **non-monotone** component — the §4.3 `Relevant` pattern reads the
//! complement of the summary's frontier — has no Tarski guarantee, and its
//! meaning is *defined by* the nested evaluation order of §3. The scheduler
//! therefore never *reorders* such a component; what it can do is run the
//! reference rounds **without the reference's redundancy**. Most
//! non-monotone systems that arise in practice (the `ef-opt` algorithm
//! chief among them) fit the **frontier pattern**
//! ([`crate::deps::DepGraph::ordered_plan`]): anchored at the evaluation
//! root, the remaining members form a DAG modulo self-loops. One §3 round
//! of the root then derives every other member as a *pure function of the
//! frozen root value* — so [`Solver::solve_scc_ordered`] walks the members
//! in dependency-rank order, once per round, with per-disjunct
//! change-tracking: a disjunct is recompiled only when a relation it reads
//! changed version since it was last compiled. Because a disjunct's value
//! is a function of the interpretations it reads, this caching is *exact*
//! — no monotonicity assumption — and the ordered schedule reproduces the
//! nested semantics round for round while skipping the nested evaluator's
//! rediscovery of unchanged inner fixpoints. Non-monotone components that
//! do **not** fit the pattern (mutual recursion among two non-anchor
//! members) still run the nested §3 semantics verbatim, demand-driven per
//! requested root.

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
    /// Intra-component relations this disjunct applies.
    scc_rels: BTreeSet<String>,
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
    /// All intra-component relations the body applies (union over parts).
    intra_deps: BTreeSet<String>,
    formals_domain: Bdd,
}

/// One disjunct's cached compilation in the ordered schedule: its value
/// plus the version of every intra-component relation it read. Exact by
/// construction — a disjunct's value is a pure function of the
/// interpretations it reads, so equal read versions imply an equal value.
struct PartCache {
    value: Bdd,
    read_versions: BTreeMap<String, u64>,
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
    /// telemetry span and per-SCC wall attribution), then collect at the
    /// stratum boundary — nothing intermediate is live there, so the arena
    /// can be compacted around the inputs, the memoized interpretations
    /// and the provenance snapshots.
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
        // Stratum boundary: threshold-gated collection plus the resource
        // governance round (cancellation poll, node-budget enforcement).
        self.govern_with(&mut [])?;
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
        let (members, recursive, monotone) = {
            let scc = &self.deps.sccs()[idx];
            let names: Vec<String> =
                scc.members.iter().map(|&i| self.deps.name(i).to_string()).collect();
            (names, scc.recursive, scc.monotone)
        };

        if !recursive {
            let name = members[0].clone();
            if self.evaluated.contains_key(&name) {
                return Ok(());
            }
            let value = self.evaluate_once(&name)?;
            self.note_provenance(&name, value);
            let entry = self.stats.relations.entry(name.clone()).or_default();
            entry.iterations = 1;
            entry.final_nodes = self.manager.node_count(value);
            entry.peak_nodes = entry.peak_nodes.max(self.manager.node_count(value));
            self.evaluated.insert(name, value);
            return Ok(());
        }

        if monotone {
            if members.iter().all(|m| self.evaluated.contains_key(m)) {
                return Ok(());
            }
            return self.solve_scc_chaotic(&members);
        }

        // Non-monotone: per demanded root, run the ordered change-driven
        // schedule when the component fits the §4.3 frontier pattern with
        // that root as the anchor; otherwise defer to the nested §3
        // semantics (outer strata resolve through the memo table either
        // way). Only the root's value is memoized: other members' §3
        // meanings are anchored at *their own* top-level evaluation, so
        // caching intermediates would change later answers.
        let member_set: BTreeSet<String> = members.iter().cloned().collect();
        for &r in demanded {
            let rname = self.deps.name(r).to_string();
            if self.evaluated.contains_key(&rname) {
                continue;
            }
            let value = match self.deps.ordered_plan(idx, r) {
                Some(plan) => self.solve_scc_ordered(idx, &plan)?,
                None => {
                    let frozen = BTreeMap::new();
                    self.evaluate_nested(&rname, &frozen, true, Some(&member_set))?
                }
            };
            self.evaluated.insert(rname, value);
        }
        Ok(())
    }

    /// The ordered change-driven schedule for a frontier-pattern component
    /// (see the module docs and [`crate::deps::DepGraph::ordered_plan`]).
    ///
    /// Each outer round freezes the anchor's value, re-derives the
    /// non-anchor members in dependency-rank order — a single compilation
    /// for DAG members, an inner fixpoint from `⊥` for self-recursive ones
    /// — and then recomputes the anchor's body once. Per-disjunct
    /// version-keyed caching makes every step incremental: a disjunct
    /// whose reads did not change is reused, not recompiled. The computed
    /// round sequence is *identical* to the nested §3 reference, so the
    /// returned value (and the recorded provenance ranks) are too; only
    /// the amount of recompilation differs.
    fn solve_scc_ordered(&mut self, idx: usize, plan: &OrderedPlan) -> Result<Bdd, SolveError> {
        let anchor = self.deps.name(plan.anchor).to_string();
        let rank_names: Vec<String> =
            plan.ranks.iter().map(|&i| self.deps.name(i).to_string()).collect();
        let mut all_members = rank_names.clone();
        all_members.push(anchor.clone());
        let member_set: BTreeSet<String> = all_members.iter().cloned().collect();
        let plans: BTreeMap<String, MemberPlan> = all_members
            .iter()
            .map(|m| Ok((m.clone(), self.member_plan(m, &member_set)?)))
            .collect::<Result<_, SolveError>>()?;

        let mut plans = plans;
        let mut env = self.component_env(&all_members)?;
        let mut version: BTreeMap<String, u64> =
            all_members.iter().map(|m| (m.clone(), 0u64)).collect();
        let mut cache: BTreeMap<String, Vec<Option<PartCache>>> = all_members
            .iter()
            .map(|m| (m.clone(), (0..plans[m].parts.len()).map(|_| None).collect()))
            .collect();

        let bound = self.options.max_iterations;
        let mut anchor_val = Bdd::FALSE;
        let mut rounds = 0usize;
        let mut peak_nodes = 0usize;
        loop {
            rounds += 1;
            if rounds > bound {
                return Err(SolveError::Diverged { relation: anchor, bound });
            }
            self.note_step()?;
            let reevals_before = self.stats.ordered_reevaluations;
            let mut round_span = telemetry::span(Phase::Solve, "round");
            if round_span.is_recording() {
                round_span.attr("anchor", anchor.as_str());
                round_span.attr("round", rounds);
                round_span.attr("schedule", "ordered");
            }
            // Phase 1: the non-anchor members, dependencies first. Each is
            // a function of the frozen anchor (and earlier ranks), exactly
            // as one §3 round derives them.
            for (i, m) in rank_names.iter().enumerate() {
                if plan.self_recursive[i] {
                    // Inner fixpoint from ⊥, as the nested semantics
                    // prescribes (restarting is required for exactness:
                    // the member's other inputs may have *shrunk*).
                    Self::ordered_assign(&mut env, &mut version, m, Bdd::FALSE);
                    let mut passes = 0usize;
                    loop {
                        passes += 1;
                        if passes > bound {
                            return Err(SolveError::Diverged { relation: m.clone(), bound });
                        }
                        self.note_step()?;
                        let val = self.ordered_eval(&plans[m], &env, &version, &mut cache, i)?;
                        if val == env[m] {
                            break;
                        }
                        Self::ordered_assign(&mut env, &mut version, m, val);
                        // An inner fixpoint can run for the whole solve
                        // (a counter-like member iterates its state space
                        // here), so arena pressure must be relieved at the
                        // pass boundary too, not just per outer round. The
                        // pass boundary is a safe point: `val` is dead once
                        // assigned, and everything the next pass reads is
                        // registered as a root and remapped in place.
                        if self.arena_over_pressure() {
                            let mut extras: Vec<&mut Bdd> = Vec::new();
                            extras.extend(env.values_mut());
                            extras.extend(plans.values_mut().map(|p| &mut p.formals_domain));
                            extras.extend(
                                cache.values_mut().flatten().flatten().map(|pc| &mut pc.value),
                            );
                            extras.push(&mut anchor_val);
                            self.govern_with(&mut extras)?;
                        }
                    }
                } else {
                    let val = self.ordered_eval(&plans[m], &env, &version, &mut cache, i)?;
                    if val != env[m] {
                        Self::ordered_assign(&mut env, &mut version, m, val);
                    }
                }
            }
            // Phase 2: one recomputation of the anchor's body.
            let next =
                self.ordered_eval(&plans[&anchor], &env, &version, &mut cache, rank_names.len())?;
            peak_nodes = peak_nodes.max(self.manager.node_count(next));
            if round_span.is_recording() {
                round_span.attr("reevals", self.stats.ordered_reevaluations - reevals_before);
                round_span.attr("changed", next != anchor_val);
            }
            drop(round_span);
            if next == anchor_val {
                break;
            }
            anchor_val = next;
            Self::ordered_assign(&mut env, &mut version, &anchor, next);
            self.note_provenance(&anchor, next);
            // Mid-stratum collection: the round boundary is a safe point —
            // everything the next round reads is registered as a root (the
            // member environment, the per-disjunct cache values, the
            // formals-domain constraints and the accumulated anchor), and
            // all of it is remapped in place. Version keys are untouched,
            // so the exactness of the per-disjunct cache survives: a remap
            // renames handles without changing which function they denote.
            let mut extras: Vec<&mut Bdd> = Vec::new();
            extras.extend(env.values_mut());
            extras.extend(plans.values_mut().map(|p| &mut p.formals_domain));
            extras.extend(cache.values_mut().flatten().flatten().map(|pc| &mut pc.value));
            extras.push(&mut anchor_val);
            self.govern_with(&mut extras)?;
        }

        self.stats.sccs[idx].ordered = true;
        let entry = self.stats.relations.entry(anchor).or_default();
        entry.iterations = rounds;
        entry.final_nodes = self.manager.node_count(anchor_val);
        entry.peak_nodes = entry.peak_nodes.max(peak_nodes);
        Ok(anchor_val)
    }

    /// Writes `value` into the ordered schedule's environment, bumping the
    /// relation's version so dependent disjuncts see the change.
    fn ordered_assign(
        env: &mut BTreeMap<String, Bdd>,
        version: &mut BTreeMap<String, u64>,
        name: &str,
        value: Bdd,
    ) {
        if env[name] != value {
            env.insert(name.to_string(), value);
            *version.get_mut(name).expect("member version") += 1;
        }
    }

    /// One body evaluation under the ordered schedule: OR of the member's
    /// disjuncts, recompiling only those whose intra-component reads
    /// changed version since their cached compilation.
    fn ordered_eval(
        &mut self,
        plan: &MemberPlan,
        env: &BTreeMap<String, Bdd>,
        version: &BTreeMap<String, u64>,
        cache: &mut BTreeMap<String, Vec<Option<PartCache>>>,
        rank: usize,
    ) -> Result<Bdd, SolveError> {
        let mut span = telemetry::span(Phase::Solve, "reeval");
        if span.is_recording() {
            span.attr("relation", plan.name.as_str());
            span.attr("schedule", "ordered");
            span.attr("rank", rank);
        }
        let slots = cache.get_mut(&plan.name).expect("member cache");
        let mut acc = Bdd::FALSE;
        let mut recompiled = false;
        for (pi, part) in plan.parts.iter().enumerate() {
            let cached = slots[pi].as_ref().and_then(|pc| {
                part.scc_rels
                    .iter()
                    .all(|d| pc.read_versions.get(d) == version.get(d))
                    .then_some(pc.value)
            });
            let value = match cached {
                Some(v) => v,
                None => {
                    recompiled = true;
                    let raw = self.compile_part(plan, part, env)?;
                    let v = self.manager.and(raw, plan.formals_domain);
                    slots[pi] = Some(PartCache {
                        value: v,
                        read_versions: part
                            .scc_rels
                            .iter()
                            .map(|d| (d.clone(), version[d]))
                            .collect(),
                    });
                    v
                }
            };
            acc = self.manager.or(acc, value);
        }
        if recompiled {
            self.note_reevaluation(&plan.name);
            self.stats.ordered_reevaluations += 1;
        }
        span.attr("recompiled", recompiled);
        Ok(acc)
    }

    /// Compiles the body of a non-recursive relation exactly once under the
    /// memoized environment.
    fn evaluate_once(&mut self, name: &str) -> Result<Bdd, SolveError> {
        let mut span = telemetry::span(Phase::Solve, "reeval");
        if span.is_recording() {
            span.attr("relation", name);
            span.attr("schedule", "once");
        }
        let plan = self.member_plan(name, &BTreeSet::new())?;
        let env = self.component_env(std::slice::from_ref(&plan.name))?;
        self.note_step()?;
        self.note_reevaluation(name);
        let mut acc = Bdd::FALSE;
        for part in &plan.parts {
            let raw = self.compile_part(&plan, part, &env)?;
            let constrained = self.manager.and(raw, plan.formals_domain);
            acc = self.manager.or(acc, constrained);
        }
        Ok(acc)
    }

    /// Chaotic iteration over a monotone recursive component.
    fn solve_scc_chaotic(&mut self, members: &[String]) -> Result<(), SolveError> {
        let member_set: BTreeSet<String> = members.iter().cloned().collect();
        let mut plans: BTreeMap<String, MemberPlan> = members
            .iter()
            .map(|m| Ok((m.clone(), self.member_plan(m, &member_set)?)))
            .collect::<Result<_, SolveError>>()?;

        // Reverse intra-component edges: who must be rescheduled when `r`
        // changes. Owned names, so the plans stay mutably borrowable for
        // the mid-stratum GC remap.
        let mut dependents: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for plan in plans.values() {
            for dep in &plan.intra_deps {
                dependents.entry(dep.clone()).or_default().push(plan.name.clone());
            }
        }

        let mut env = self.component_env(members)?;
        let mut value: BTreeMap<&str, Bdd> =
            members.iter().map(|m| (m.as_str(), Bdd::FALSE)).collect();
        let mut first_pass: BTreeSet<&str> = members.iter().map(String::as_str).collect();
        let mut dirty: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        let mut queue: VecDeque<&str> = members.iter().map(String::as_str).collect();
        let mut queued: BTreeSet<&str> = queue.iter().copied().collect();
        let mut passes: BTreeMap<&str, usize> = BTreeMap::new();
        let mut peak: BTreeMap<&str, usize> = BTreeMap::new();

        while let Some(r) = queue.pop_front() {
            queued.remove(r);
            let first = first_pass.remove(r);
            let dirty_now = dirty.remove(r).unwrap_or_default();
            if !first && dirty_now.is_empty() {
                continue;
            }
            let pass = passes.entry(r).or_insert(0);
            *pass += 1;
            let pass_no = *pass;
            if pass_no > self.options.max_iterations {
                return Err(SolveError::Diverged {
                    relation: r.to_string(),
                    bound: self.options.max_iterations,
                });
            }
            // One governed step per re-evaluation: deadline/cancellation
            // poll plus step-budget accounting.
            self.note_step()?;

            let mut pass_span = telemetry::span(Phase::Solve, "reeval");
            if pass_span.is_recording() {
                pass_span.attr("relation", r);
                pass_span.attr("schedule", "chaotic");
                pass_span.attr("pass", pass_no);
                pass_span.attr("dirty", dirty_now.len());
            }
            let plan = &plans[r];
            self.note_reevaluation(r);
            // Semi-naive: recompile only disjuncts that read something that
            // changed (all of them on the first pass).
            let mut delta = Bdd::FALSE;
            for part in &plan.parts {
                if first || part.scc_rels.iter().any(|d| dirty_now.contains(d)) {
                    let raw = self.compile_part(plan, part, &env)?;
                    let constrained = self.manager.and(raw, plan.formals_domain);
                    delta = self.manager.or(delta, constrained);
                }
            }
            let old = value[r];
            let new = self.manager.or(old, delta);
            pass_span.attr("changed", new != old);
            drop(pass_span);
            peak.entry(r)
                .and_modify(|p| *p = (*p).max(self.manager.node_count(new)))
                .or_insert_with(|| self.manager.node_count(new));
            if new != old {
                value.insert(r, new);
                env.insert(r.to_string(), new);
                self.note_provenance(r, new);
                if let Some(ds) = dependents.get(r) {
                    for d in ds {
                        dirty.entry(d.as_str()).or_default().insert(r.to_string());
                        if queued.insert(d.as_str()) {
                            queue.push_back(d.as_str());
                        }
                    }
                }
            }
            // Mid-stratum collection: between worklist passes nothing is
            // live beyond the member environment, the accumulated values
            // and the formals-domain constraints, all of which register as
            // roots and are remapped in place. Monotone accumulation is
            // indifferent to the renaming — canonicity is rebuilt by the
            // collector, so `new != old` comparisons stay exact.
            let mut extras: Vec<&mut Bdd> = Vec::new();
            extras.extend(env.values_mut());
            extras.extend(plans.values_mut().map(|p| &mut p.formals_domain));
            extras.extend(value.values_mut());
            self.govern_with(&mut extras)?;
        }

        for m in members {
            let v = value[m.as_str()];
            let entry = self.stats.relations.entry(m.clone()).or_default();
            entry.iterations = passes.get(m.as_str()).copied().unwrap_or(0);
            entry.final_nodes = self.manager.node_count(v);
            entry.peak_nodes = entry.peak_nodes.max(peak.get(m.as_str()).copied().unwrap_or(0));
            self.evaluated.insert(m.clone(), v);
        }
        Ok(())
    }

    /// Builds the compilation plan of one member: top-level disjuncts with
    /// their binder offsets and intra-component reads.
    fn member_plan(
        &mut self,
        name: &str,
        member_set: &BTreeSet<String>,
    ) -> Result<MemberPlan, SolveError> {
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
            let scc_rels = f.relations().into_iter().filter(|r| member_set.contains(r)).collect();
            let binders = f.binder_count();
            let label = part_label(&f);
            parts.push(Part { formula: f, scc_rels, binder_offset: offset, index, label });
            offset += binders;
        }
        let intra_deps = parts.iter().flat_map(|p| p.scc_rels.iter().cloned()).collect();
        let mut formals_domain = Bdd::TRUE;
        for i in 0..param_names.len() {
            let inst = self.alloc.formal(name, i).clone();
            let d = self.alloc.domain(&inst);
            formals_domain = self.manager.and(formals_domain, d);
        }
        Ok(MemberPlan { name: name.to_string(), param_names, parts, intra_deps, formals_domain })
    }

    /// The evaluation environment of a component: inputs and already-solved
    /// outer strata for everything the members' bodies apply, plus `⊥` for
    /// the members themselves.
    fn component_env(&mut self, members: &[String]) -> Result<BTreeMap<String, Bdd>, SolveError> {
        let member_set: BTreeSet<&str> = members.iter().map(String::as_str).collect();
        let mut applied: BTreeSet<String> = BTreeSet::new();
        for m in members {
            let rel = self.system.relation(m).ok_or_else(|| SolveError::Unknown(m.clone()))?;
            if let Some(body) = &rel.body {
                applied.extend(body.relations());
            }
        }
        let mut env = BTreeMap::new();
        for r in applied {
            if member_set.contains(r.as_str()) {
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
        // Every disjunct recompilation in every schedule funnels through
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
