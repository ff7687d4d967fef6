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
//! # Deltas
//!
//! An accumulating step need not recompile a disjunct against the whole
//! current value X of what it reads: only the tuples added since its last
//! compile can contribute new ones. Let S be the member values the
//! disjunct last compiled against and Δ = X ∧ ¬S. Whether a disjunct `f`
//! may be compiled against Δ is decided syntactically, once per plan
//! ([`Shape`]), against the relation's component M:
//!
//! * A member occurrence is *distributive* when every constructor on its
//!   path from `f`'s root is ∧, ∨ or ∃; a ¬, →, ↔ or ∀ on the path makes
//!   it non-distributive. If every member occurrence is distributive, `f`
//!   has a *degree*: ∨ takes the max of its operands' degrees, ∧ their
//!   sum, `∃x̄. g` the degree of `g`; a member application has degree 1
//!   and a member-free formula degree 0.
//! * **Precondition: degree 1.** Then f(S ∪ Δ) = f(S) ∪ f(Δ), with Δ
//!   substituted for every member at once — two members read through a
//!   ∨ included — so the step compiles `f` against Δ ([`Shape::Linear`]).
//! * **Factored.** A top-level `g₁ ∧ … ∧ gₙ` whose conjuncts each have
//!   degree ≤ 1 keeps each factor's value; a factor whose reads changed
//!   becomes gᵢ(S) ∪ gᵢ(Δ), the others are reused, and the step conjoins
//!   the factors ([`Shape::Product`]). A factor after one that left the
//!   conjunction ⊥ is not compiled, as in the compiler's ⊥ stop; values
//!   only grow, so it was never compiled before either, and its first
//!   compile, once the conjunction before it is not ⊥, is in full.
//! * Anything else — a monomial with two member occurrences, a member
//!   under ∀ — and every first compile are compiled against X.
//!
//! **Why the accumulation stays exact.** In a monotone component values
//! only grow. f(S), the contribution of the disjunct's last compile, was
//! ORed into the member's value then, so it is inside the current value,
//! and current ∪ f(Δ) = current ∪ f(S) ∪ f(Δ) = current ∪ f(X). Every
//! pass therefore accumulates exactly the set a full compile would, and
//! every value, pass and recompilation count is unchanged; only the size
//! of what is compiled falls. A factor's cached value is gᵢ(S), so
//! gᵢ(S) ∪ gᵢ(Δ) = gᵢ(X) is exact too. A step conjoins the member's domain
//! D once, with the OR of the raw disjunct values: D ∧ ⋁ fᵢ = ⋁ (D ∧ fᵢ),
//! and current ⊇ D ∧ f(S), so current ∪ (D ∧ f(Δ)) = current ∪ (D ∧ f(X)).
//!
//! **One S per member.** A step recompiles every stale disjunct of the
//! member, and a fresh one read values that have not changed since, so
//! after each step every disjunct of the member has compiled against the
//! current values. S is therefore kept once per member (the values of the
//! members its Δ-compiled disjuncts read, as of its last step), each Δ is
//! computed once per step, and the step's Δ environment is the component
//! environment with each of those members' values replaced by its Δ.
//! Recombining steps (the ordered schedule) and the nested fallback
//! always compile against X: their values may shrink.
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
use getafix_bdd::{Bdd, Manager};
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
    /// The component members the Δ-compiled disjuncts read, by id: the
    /// values an accumulating step replaces by their Δ.
    delta_reads: Vec<usize>,
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
    /// How an accumulating step recompiles it.
    shape: Shape,
    /// Pretty-printed prefix of the formula, for the offenders table.
    label: String,
    /// The [`crate::SolveStats::disjuncts`] key, `"Relation#index"`.
    key: String,
}

/// How an accumulating step recompiles a disjunct whose reads changed
/// (see the module docs' Deltas section).
#[derive(Debug, PartialEq, Eq)]
enum Shape {
    /// Against the full current values: the disjunct reads no member, or
    /// it has no degree, or a degree above 1 and is no product.
    Full,
    /// Degree 1 in the component's members: against Δ.
    Linear,
    /// A top-level conjunction of factors of degree ≤ 1, two or more
    /// member occurrences in all: factor by factor.
    Product(Vec<Factor>),
}

/// One conjunct of a [`Shape::Product`] disjunct.
#[derive(Debug, PartialEq, Eq)]
struct Factor {
    /// Every relation the factor applies, by id.
    reads: Vec<usize>,
    /// Binder-numbering offset of the factor within the whole body: the
    /// disjunct's offset plus the binders of the conjuncts before it.
    binder_offset: usize,
}

/// The top-level disjuncts of a body: the operands of an `Or`, or the
/// body itself.
fn disjuncts(body: &Formula) -> &[Formula] {
    match body {
        Formula::Or(parts) => parts,
        other => std::slice::from_ref(other),
    }
}

/// The top-level conjuncts of a disjunct: the operands of an `And`, or
/// the disjunct itself.
fn conjuncts(f: &Formula) -> &[Formula] {
    match f {
        Formula::And(gs) => gs,
        other => std::slice::from_ref(other),
    }
}

/// The degree of `f` in the relations `member` accepts, or `None` when a
/// member occurs under a ¬, →, ↔ or ∀ (see the module docs).
fn degree(f: &Formula, member: &dyn Fn(&str) -> bool) -> Option<usize> {
    let free = |g: &Formula| !g.relations().iter().any(|r| member(r));
    match f {
        Formula::Const(_) | Formula::Atom(_) | Formula::Cmp(..) => Some(0),
        Formula::App(name, _) => Some(usize::from(member(name))),
        Formula::And(gs) => gs.iter().map(|g| degree(g, member)).sum(),
        Formula::Or(gs) => gs.iter().try_fold(0, |d, g| Some(d.max(degree(g, member)?))),
        Formula::Exists(_, g) => degree(g, member),
        Formula::Not(g) | Formula::Forall(_, g) => free(g).then_some(0),
        Formula::Implies(a, b) | Formula::Iff(a, b) => (free(a) && free(b)).then_some(0),
    }
}

/// The [`Shape`] of a disjunct `f` whose binders start `binder_offset`
/// into the body; `ids` maps a formula to the ids of the relations it
/// applies.
fn shape(
    f: &Formula,
    binder_offset: usize,
    member: &dyn Fn(&str) -> bool,
    ids: &dyn Fn(&Formula) -> Vec<usize>,
) -> Shape {
    match degree(f, member) {
        Some(1) => Shape::Linear,
        Some(2..) if conjuncts(f).iter().all(|g| degree(g, member).is_some_and(|d| d <= 1)) => {
            let mut offset = binder_offset;
            let factors = conjuncts(f).iter().map(|g| {
                let factor = Factor { reads: ids(g), binder_offset: offset };
                offset += g.binder_count();
                factor
            });
            Shape::Product(factors.collect())
        }
        _ => Shape::Full,
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

/// One disjunct's last compilation: its value before the member's domain
/// conjunction, the clock it was compiled at and, for a [`Shape::Product`]
/// in an accumulating step, each factor's value then (`None` for a factor
/// past the ⊥ stop, never compiled).
#[derive(Clone)]
struct PartCache {
    value: Bdd,
    at: u64,
    factors: Vec<Option<Bdd>>,
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
    /// Per member, by its plan's `delta_reads`: the values as of the
    /// member's last accumulating step (S, see the module docs).
    seen: Vec<Vec<Bdd>>,
    /// The running accumulating step's Δ environment: `env` with each of
    /// the member's `delta_reads` replaced by its Δ.
    delta_env: Vec<Option<Bdd>>,
}

impl Component {
    /// Member `i`'s current value.
    fn value(&self, i: usize) -> Bdd {
        self.env[self.members[i]].expect("member values are always set")
    }

    /// Builds member `i`'s Δ environment: Δ = X ∧ ¬S for every relation
    /// its Δ-compiled disjuncts read, once per step; a value unchanged
    /// since the last step has Δ = ⊥.
    fn load_deltas(&mut self, manager: &mut Manager, i: usize) {
        self.delta_env.clone_from(&self.env);
        for (&r, &s) in self.plans[i].delta_reads.iter().zip(&self.seen[i]) {
            let x = self.env[r].expect("member values are always set");
            self.delta_env[r] = Some(if x == s { Bdd::FALSE } else { manager.diff(x, s) });
        }
    }

    /// Ends member `i`'s accumulating step: the current values are what
    /// every disjunct of the member has now compiled against.
    fn end_step(&mut self, i: usize) {
        for (s, &r) in self.seen[i].iter_mut().zip(&self.plans[i].delta_reads) {
            *s = self.env[r].expect("member values are always set");
        }
    }

    /// Has everything factor `factor` reads kept its value since clock
    /// `at`?
    fn unchanged_since(&self, factor: &Factor, at: u64) -> bool {
        factor.reads.iter().all(|&r| self.changed[r] <= at)
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
        let fresh = |pc: &&PartCache| reads.iter().all(|&r| self.changed[r] <= pc.at);
        self.cache[i][p].as_ref().filter(fresh).map(|pc| pc.value)
    }

    /// Every handle the rest of the solve reads, for a collection to keep
    /// alive and remap in place. The clock is untouched, so the cache
    /// stays exact: a remap renames handles without changing which
    /// function they denote.
    fn roots(&mut self) -> Vec<&mut Bdd> {
        let mut roots: Vec<&mut Bdd> = self.env.iter_mut().flatten().collect();
        roots.extend(self.domains.iter_mut());
        for pc in self.cache.iter_mut().flatten().flatten() {
            roots.push(&mut pc.value);
            roots.extend(pc.factors.iter_mut().flatten());
        }
        roots.extend(self.seen.iter_mut().flatten());
        roots
    }
}

impl Solver {
    /// The plan of fixpoint relation `rel`, built on first use.
    pub(crate) fn plan(&mut self, rel: usize) -> Rc<Plan> {
        if let Some(plan) = &self.plans[rel] {
            return Rc::clone(plan);
        }
        let (system, deps) = (&self.system, &self.deps);
        let def = &system.relations()[rel];
        let body = def.body.as_ref().expect("fixpoint relation has a body");
        let ids = |f: &Formula| -> Vec<usize> {
            f.relations().iter().filter_map(|r| system.relation_id(r)).collect()
        };
        // Input relations belong to no component: ask for the kind first.
        let is_member = |r: usize| {
            system.relations()[r].kind == RelationKind::Fixpoint
                && deps.scc_of(r) == deps.scc_of(rel)
        };
        let member = |name: &str| system.relation_id(name).is_some_and(is_member);
        let mut binder_offset = 0;
        let mut parts = Vec::new();
        let mut delta_reads: Vec<usize> = Vec::new();
        for (index, f) in disjuncts(body).iter().enumerate() {
            let (label, key) = (part_label(f), format!("{}#{index}", def.name));
            let (reads, shape) = (ids(f), shape(f, binder_offset, &member, &ids));
            if shape != Shape::Full {
                delta_reads.extend(reads.iter().filter(|&&r| is_member(r)));
            }
            parts.push(Part { index, reads, binder_offset, shape, label, key });
            binder_offset += f.binder_count();
        }
        delta_reads.sort_unstable();
        delta_reads.dedup();
        let plan = Rc::new(Plan { reads: ids(body), parts, delta_reads });
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
            self.record_relation(rel, passes[i], st.value(i));
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
        self.record_relation(plan.anchor, rounds, st.value(a));
        Ok(st.value(a))
    }

    /// The one evaluation step: recompiles exactly the disjuncts of member
    /// `i` that were never compiled or whose reads changed since, ORs
    /// their raw values, conjoins the member's domain once, and returns
    /// the member's next value — accumulated in a monotone component,
    /// recombined otherwise (see the module docs). An accumulating step
    /// compiles against Δ where the disjunct's shape allows. Counts a
    /// re-evaluation when it recompiled anything.
    fn eval_member(&mut self, st: &mut Component, i: usize) -> Result<Bdd, SolveError> {
        let rel = st.members[i];
        let mut span = telemetry::span(Phase::Solve, "reeval");
        if span.is_recording() {
            span.attr("relation", self.name(rel));
            span.attr("schedule", st.schedule);
        }
        if st.monotone {
            st.load_deltas(&mut self.manager, i);
        }
        let plan = Rc::clone(&st.plans[i]);
        let mut acc = Bdd::FALSE;
        let mut recompiled = false;
        for (p, part) in plan.parts.iter().enumerate() {
            let value = match st.cached(i, p) {
                Some(_) if st.monotone => continue,
                Some(value) => value,
                None => {
                    recompiled = true;
                    let (value, factors) = self.compile_part(st, i, part)?;
                    // An accumulating step never reads a cached value
                    // back, so its cache keeps the clock (and the factors)
                    // only and pins no more nodes.
                    let value_kept = if st.monotone { Bdd::FALSE } else { value };
                    st.cache[i][p] = Some(PartCache { value: value_kept, at: st.clock, factors });
                    value
                }
            };
            acc = self.manager.or(acc, value);
        }
        if st.monotone {
            st.end_step(i);
        }
        if recompiled {
            self.note_reevaluation(rel);
            if !st.monotone {
                self.stats.ordered_reevaluations += 1;
            }
        }
        let acc = self.manager.and(acc, st.domains[i]);
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
        let seen = plans.iter().map(|p| vec![Bdd::FALSE; p.delta_reads.len()]).collect();
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
            seen,
            delta_env: Vec::new(),
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

    /// Recompiles member `i`'s disjunct `part` and returns its value before
    /// the domain conjunction, with the factor values to cache. An
    /// accumulating step compiles a disjunct it compiled before against Δ,
    /// or factor by factor, where the disjunct's shape allows (see the
    /// module docs); everything else compiles against the full values.
    ///
    /// The work is attributed to the disjunct: one recompilation however
    /// many pieces it compiled, the nodes the kernel created meanwhile
    /// (two reads of [`getafix_bdd::ManagerStats::nodes_created`]), and
    /// one Δ compile when any piece compiled against Δ. Every disjunct
    /// compilation in every schedule funnels through here, so this one
    /// call site is the whole attribution story; it costs a map lookup
    /// next to a BDD compilation, so it is always on and `--profile` needs
    /// no re-run.
    fn compile_part(
        &mut self,
        st: &mut Component,
        i: usize,
        part: &Part,
    ) -> Result<(Bdd, Vec<Option<Bdd>>), SolveError> {
        let compile_start = Instant::now();
        let created = self.manager.stats().nodes_created;
        let rel = st.members[i];
        let previous = if st.monotone { st.cache[i][part.index].take() } else { None };
        let mut delta = false;
        let (raw, factor_values) = match (&part.shape, previous) {
            (Shape::Linear, Some(_)) => {
                delta = true;
                (self.compile_piece(rel, part, None, &st.delta_env)?, Vec::new())
            }
            (Shape::Product(factors), previous) if st.monotone => {
                let (old, at) = previous
                    .map_or_else(|| (vec![None; factors.len()], 0), |pc| (pc.factors, pc.at));
                let mut acc = Bdd::TRUE;
                let mut values = Vec::with_capacity(factors.len());
                for (k, (factor, old)) in factors.iter().zip(old).enumerate() {
                    // Past the ⊥ stop a factor is not compiled. Values only
                    // grow, so the conjunction before it was ⊥ at every
                    // earlier step too, and the factor has no value yet.
                    if acc.is_false() {
                        debug_assert!(old.is_none(), "a factor past the ⊥ stop has a value");
                        values.push(None);
                        continue;
                    }
                    let piece = Some((k, factor));
                    let value = match old {
                        Some(old) if st.unchanged_since(factor, at) => old,
                        Some(old) => {
                            delta = true;
                            let image = self.compile_piece(rel, part, piece, &st.delta_env)?;
                            self.manager.or(old, image)
                        }
                        None => self.compile_piece(rel, part, piece, &st.env)?,
                    };
                    acc = self.manager.and(acc, value);
                    values.push(Some(value));
                }
                (acc, values)
            }
            _ => (self.compile_piece(rel, part, None, &st.env)?, Vec::new()),
        };
        self.stats.delta_compiles += u64::from(delta);
        let built = self.manager.stats().nodes_created - created;
        let stats = entry_mut(&mut self.stats.disjuncts, &part.key, || DisjunctStats {
            label: part.label.clone(),
            ..DisjunctStats::default()
        });
        stats.recompilations += 1;
        stats.nodes_built += built;
        stats.peak_nodes = stats.peak_nodes.max(built as usize);
        stats.wall_us += compile_start.elapsed().as_micros() as u64;
        Ok((raw, factor_values))
    }

    /// Compiles disjunct `part` of relation `rel` — or, given
    /// `(k, factor)`, its conjunct `k` — under `env`, with the binder
    /// numbering resumed at its offset.
    fn compile_piece(
        &mut self,
        rel: usize,
        part: &Part,
        factor: Option<(usize, &Factor)>,
        env: &[Option<Bdd>],
    ) -> Result<Bdd, SolveError> {
        let body = self.system.relations()[rel].body.as_ref().expect("fixpoint body");
        let f = &disjuncts(body)[part.index];
        let (f, binder_offset) = match factor {
            Some((k, factor)) => (&conjuncts(f)[k], factor.binder_offset),
            None => (f, part.binder_offset),
        };
        CompileCtx::new(
            &mut self.manager,
            &self.system,
            &self.alloc,
            env,
            Body::Relation(rel),
            binder_offset,
        )
        .compile(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::tests::set_tuples;
    use crate::parse::parse_system;
    use crate::{SolveOptions, Strategy};

    /// Two mutually recursive members `A` and `B`, a relation `C` one
    /// component above them, and the inputs `Init` and `Edge`.
    const SYSTEM: &str = "
        type S = range 4;
        type Bit = range 2;
        input Init(s: S);
        input Edge(s: S, t: S);
        mu A(s: S) :=
            Init(s)
          | (exists t: S. (A(t) | B(t)) & Edge(t, s))
          | ((exists x: S. A(x) & Edge(x, s))
              & (exists b: Bit. b = 1 & !Init(s))
              & (exists y: S. B(y) & Edge(s, y)))
          | (exists x: S, y: S. A(x) & B(y) & Edge(x, y) & Edge(y, s))
          | (forall x: S. !Edge(s, x) | A(x))
          | !(Init(s) -> !A(s));
        mu B(s: S) := A(s);
        mu C(s: S) := A(s) | (exists t: S. C(t) & A(t) & Edge(t, s));
    ";

    fn solver(strategy: Strategy) -> Solver {
        let system = parse_system(SYSTEM).expect("the system parses");
        Solver::with_options(system, SolveOptions::with_strategy(strategy)).expect("a solver")
    }

    fn id(solver: &Solver, name: &str) -> usize {
        solver.system().relation_id(name).expect("a declared relation")
    }

    fn shapes(plan: &Plan) -> Vec<&Shape> {
        plan.parts.iter().map(|p| &p.shape).collect()
    }

    #[test]
    fn degree_adds_over_and_maxes_over_or_and_needs_distributive_paths() {
        let system = parse_system(SYSTEM).expect("the system parses");
        let member = |name: &str| name == "A" || name == "B";
        let body = system.relation("A").and_then(|r| r.body.as_ref()).expect("A's body");
        let degrees: Vec<Option<usize>> =
            disjuncts(body).iter().map(|f| degree(f, &member)).collect();
        assert_eq!(degrees, [Some(0), Some(1), Some(2), Some(2), None, None]);
        let factors: Vec<Option<usize>> =
            conjuncts(&disjuncts(body)[2]).iter().map(|g| degree(g, &member)).collect();
        assert_eq!(factors, [Some(1), Some(0), Some(1)]);
    }

    /// Each disjunct is classified against its own relation's component;
    /// the applied inputs belong to none, and a relation of a lower
    /// component reads like an input.
    #[test]
    fn plan_classifies_each_disjunct_against_its_own_component() {
        let mut solver = solver(Strategy::Worklist);
        let [init, edge, a, b, c] = ["Init", "Edge", "A", "B", "C"].map(|n| id(&solver, n));
        let plan = solver.plan(a);
        let product = Shape::Product(vec![
            Factor { reads: vec![a, edge], binder_offset: 1 },
            Factor { reads: vec![init], binder_offset: 2 },
            Factor { reads: vec![b, edge], binder_offset: 3 },
        ]);
        let want = [Shape::Full, Shape::Linear, product, Shape::Full, Shape::Full, Shape::Full];
        assert_eq!(shapes(&plan), want.iter().collect::<Vec<_>>());
        assert_eq!(plan.delta_reads, [a, b]);
        assert_eq!(shapes(&solver.plan(b)), [&Shape::Linear]);
        let plan = solver.plan(c);
        assert_eq!(shapes(&plan), [&Shape::Full, &Shape::Linear]);
        assert_eq!(plan.delta_reads, [c]);
    }

    /// A product whose factors hold at passes far apart: `R(1)` is
    /// derived at the second pass, `R(4)` at the fifth, and `R(6)` needs
    /// both. The first factor's value must be kept across the passes in
    /// between, during which only the second one's reads bring new tuples.
    #[test]
    fn a_product_keeps_each_factor_across_passes() {
        let system = parse_system(
            "type S = range 8;
             input Init(s: S);
             input Next(s: S, t: S);
             mu R(s: S) :=
                 Init(s)
               | (exists t: S. R(t) & Next(t, s))
               | ((exists x: S. R(x) & x = 1 & s = 6) & (exists y: S. R(y) & y = 4 & s = 6));
             query six := R(6);",
        )
        .expect("the system parses");
        let mut solver = Solver::new(system).expect("a solver");
        set_tuples(&mut solver, "Init", &[&[0]]);
        set_tuples(&mut solver, "Next", &[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]);
        // 0 to 4 along `Next`, and 6.
        assert_eq!(solver.tuple_count("R"), Ok(6.0));
        assert_eq!(solver.eval_query("six"), Ok(true));
        assert!(solver.stats().delta_compiles > 0);
    }

    /// The worklist engine compiles against Δ and still computes the
    /// reference's values; round-robin never compiles against Δ.
    #[test]
    fn delta_compiles_keep_the_reference_values() {
        let mut counts = Vec::new();
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            let mut solver = solver(strategy);
            set_tuples(&mut solver, "Init", &[&[0]]);
            set_tuples(&mut solver, "Edge", &[&[0, 1], &[1, 2], &[2, 1], &[3, 3]]);
            let tuples: Vec<f64> =
                ["A", "B", "C"].map(|r| solver.tuple_count(r).expect("solves")).to_vec();
            // 0 by Init, 1 and 2 along the edges; 3 only reaches itself.
            assert_eq!(tuples, [3.0, 3.0, 3.0], "{strategy}");
            counts.push(solver.stats().delta_compiles);
        }
        assert!(counts[0] > 0, "the worklist engine compiled nothing against Δ");
        assert_eq!(counts[1], 0);
    }

    /// `nodes_built` counts the nodes a recompilation creates, not the
    /// size of what it returns. Supplying the same input again drops every
    /// fixpoint value, so the next solve recompiles every disjunct along
    /// the same operations, and every node it needs is already in the
    /// arena: it recompiles as much as the first and builds nothing.
    #[test]
    fn a_recompilation_whose_result_exists_builds_no_node() {
        let mut solver = solver(Strategy::Worklist);
        set_tuples(&mut solver, "Init", &[&[0]]);
        set_tuples(&mut solver, "Edge", &[&[0, 1], &[1, 2], &[2, 1], &[3, 3]]);
        let work = |solver: &mut Solver| {
            solver.evaluate("C").expect("solves");
            let disjuncts = solver.stats().disjuncts.values();
            disjuncts.fold((0, 0), |(r, n), d| (r + d.recompilations, n + d.nodes_built))
        };
        let (recompiled, built) = work(&mut solver);
        assert!(recompiled > 0 && built > 0);
        set_tuples(&mut solver, "Init", &[&[0]]);
        assert_eq!(work(&mut solver), (2 * recompiled, built));
    }
}
