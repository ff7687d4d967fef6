//! Compilation of formulae to BDDs.
//!
//! Given the current interpretation of every relation, a formula compiles to
//! a BDD over the variables of the instances in scope.
//!
//! # One relational product per quantified conjunction
//!
//! The image step of every fixpoint body has the shape
//! `∃x̄. g₁ ∧ … ∧ gₙ`, typically `∃x. Reach(x) ∧ T(x, s)`. The compiler
//! evaluates it as one relational product (Burch, Clarke, McMillan et al.)
//! rather than renaming the whole relation onto `x̄`, conjoining that copy
//! with each constraint and only then quantifying:
//!
//! * **Fuse.** The first conjunct that applies a *fixpoint* relation is
//!   held back. The binders' domain, the held application's scratch
//!   equalities and every conjunct that applies no fixpoint relation form
//!   the ∃'s *staged part*; the step conjoins it with the other conjuncts
//!   in body order, and the held-back application then ends in one
//!   [`Manager::rename_and_exists`] call,
//!   `∃(x̄ ∪ scratch). rename(stored) ∧ scratch_eqs ∧ rest`. A fixpoint
//!   relation is the one to hold back because its interpretation changes
//!   on every pass, so a renamed copy of it is never reused from the
//!   rename cache, whereas an input's renamed copy is. A body with a
//!   single conjunct is the `n = 1` case. An `∃` with no fixpoint
//!   application among its top-level conjuncts — `ef`'s split return rule
//!   `∃tpc, tcg, uecl. (∃t. …) ∧ (∃u. …)` — fuses its last conjunct that
//!   applies a fixpoint relation into [`Manager::and_exists`] instead, so
//!   the product of its conjuncts is never built either. Every
//!   application, fused or plain, ends in the same kernel call; a plain
//!   one passes its scratch equalities and scratch cube.
//!   The allocation plan orders every channel so that each fixpoint
//!   application's substitution preserves the variable order (`alloc.rs`),
//!   which is what lets the kernel fuse; every shipped system's image
//!   steps do. Where no order can — a cycle such as `R(b, a)` in
//!   `R(a, b)`'s body — the kernel renames first and then runs one
//!   `and_exists`, so the conjunction with the renamed copy is still never
//!   built, and counts the call in
//!   [`ManagerStats::rename_fallbacks`](getafix_bdd::ManagerStats::rename_fallbacks).
//!   The plan and [`CompileCtx::route`] route arguments by the same rule,
//!   [`Routing`].
//! * **Stop at ⊥.** Once a conjunction's accumulator is ⊥, the remaining
//!   conjuncts are not compiled, and an `∃` whose staged part or
//!   accumulator is ⊥ returns ⊥ without touching the held-back relation.
//!   Skipping never hides an error: every caller resolves each applied
//!   relation before it compiles (a missing input is reported up front).
//!
//! # Staged once per solver
//!
//! A symbolic model checker builds its transition relation once; the
//! parts of an image step that no pass changes are built once here too.
//! Every application and every `∃` is a compile *site*, numbered by the
//! allocation plan ([`Position`]). What a site stages:
//!
//! * an application of a fixpoint relation: its rename map, its scratch
//!   equalities and its scratch cube;
//! * an `∃` that applies a fixpoint relation: its binders' cube (with the
//!   held application's scratch columns), its staged part (above), the
//!   held application's relation and map, and which conjuncts remain;
//! * a site that applies no fixpoint relation — an input's application,
//!   an `∃` such as `∃epc. ProgramCall(…)` — its whole value.
//!
//! **The rule.** A formula is stageable exactly when it applies no relation
//! of kind [`RelationKind::Fixpoint`]: inputs do not change during a solve,
//! and a worklist step's Δ environment replaces member values only, so
//! Δ, factor and full compiles read the same staged parts. Solved lower
//! strata are fixpoint relations and are never staged: they are constant
//! within one component only.
//!
//! **Lifetime.** The [`Stage`] lives in the solver beside the value table
//! and fills on first use. [`crate::Solver::set_input`] clears it, and so
//! does every collection, which may move or reclaim what it holds: its
//! entries are not collection roots. Only the worklist engine's disjunct
//! compiles read it. The round-robin reference and queries compile with
//! no stage: the same functions build each part and use it on the spot,
//! so the reference stays the unstaged §3 definition, and the
//! worklist-against-round-robin differential suites check the reuse and
//! its invalidation.
//!
//! # Binder and site numbering
//!
//! Every quantifier binder owns an instance that the allocation plan
//! numbers consecutively per body, in preorder (`alloc.rs`), and numbers
//! the sites the same way; the compiler takes both in the same order,
//! starting at the body's first binder and site. A conjunct compiled out
//! of body order — the staged ones first, the held application last —
//! starts at its own [`Position`], an `∃` resumes the numbering just past
//! itself, and a skipped conjunct advances it by its binders and sites
//! ([`Position::past`]), so every later binder still gets the instance
//! the plan gave it.
//!
//! # Borrowed, id-keyed lookups
//!
//! A context borrows everything it reads: the interpretation table is
//! indexed by relation id ([`System::relation_id`]), and the scope maps
//! each variable to an [`Instance`] borrowed from the [`Allocation`].
//! Compiling a formula clones no instance and formats no name; only an
//! error builds a string.

use crate::alloc::{
    eq_const, eq_vars, lt_const, lt_vars, Allocation, Body, Instance, LeafAlloc, Position, Route,
    Routing,
};
use crate::ast::{CmpOp, Formula, Term};
use crate::solve::SolveError;
use crate::system::{RelationKind, System};
use crate::types::Type;
use getafix_bdd::{Bdd, Manager, Var, VarMap};

/// A solver's staged parts, by site (see the module docs): each built on
/// first use and read by every later compile of the site.
#[derive(Debug)]
pub(crate) struct Stage(Vec<Option<Staged>>);

impl Stage {
    /// An empty stage for `sites` compile sites.
    pub(crate) fn new(sites: usize) -> Stage {
        Stage(std::iter::repeat_with(|| None).take(sites).collect())
    }

    /// Drops every staged part: an input changed, or a collection may have
    /// moved the nodes they name.
    pub(crate) fn clear(&mut self) {
        self.0.fill_with(|| None);
    }
}

/// The staged parts of one site.
#[derive(Debug)]
enum Staged {
    /// A site that applies no fixpoint relation: its value, and the
    /// position just past it.
    Whole { value: Bdd, end: Position },
    /// An application of a fixpoint relation.
    App(Application),
    /// An `∃` that applies a fixpoint relation.
    Exists(Product),
}

/// How an application reaches its relation: `∃cube. rename(stored, map) ∧
/// eqs`, where `eqs` ties the scratch columns that constant and duplicate
/// arguments route through to those arguments, and `cube` holds the
/// scratch columns.
#[derive(Debug)]
struct Application {
    rel: usize,
    map: VarMap,
    eqs: Bdd,
    cube: Bdd,
}

/// The staged parts of an `∃x̄. g₁ ∧ … ∧ gₙ` that applies a fixpoint
/// relation (see the module docs).
#[derive(Debug)]
struct Product {
    /// The binders' cube, and the held application's scratch columns.
    cube: Bdd,
    /// The binders' domain ∧ the held application's scratch equalities ∧
    /// every conjunct that applies no fixpoint relation.
    part: Bdd,
    /// The held-back application's relation and rename map.
    held: Option<(usize, VarMap)>,
    /// The other conjuncts that apply a fixpoint relation, in body order,
    /// each with the position it starts at.
    rest: Vec<(usize, Position)>,
    /// The position just past the `∃`.
    end: Position,
}

/// Compilation context: one formula body, one scope.
pub(crate) struct CompileCtx<'a> {
    pub manager: &'a mut Manager,
    system: &'a System,
    alloc: &'a Allocation,
    /// Interpretation of every relation, by relation id; `None` where the
    /// caller has none to give.
    interp: &'a [Option<Bdd>],
    /// The solver's stage, or `None` to build every part on the spot.
    stage: Option<&'a mut Stage>,
    /// The absolute position of the next binder and site.
    next: Position,
    /// In-scope variables, innermost last (a later entry shadows).
    scope: Vec<(&'a str, &'a Instance)>,
}

impl<'a> CompileCtx<'a> {
    /// A context compiling (part of) `body` against `interp`, reading and
    /// filling `stage` if given. A relation body has its formals in scope;
    /// the numbering starts `offset` into the body, which is how the
    /// worklist engine compiles one top-level disjunct on its own.
    pub(crate) fn new(
        manager: &'a mut Manager,
        system: &'a System,
        alloc: &'a Allocation,
        interp: &'a [Option<Bdd>],
        stage: Option<&'a mut Stage>,
        body: Body,
        offset: Position,
    ) -> Self {
        let mut scope = Vec::new();
        if let Body::Relation(rel) = body {
            for (i, (name, _)) in system.relations()[rel].params.iter().enumerate() {
                scope.push((name.as_str(), alloc.formal_of(rel, i)));
            }
        }
        let start = alloc.start(body);
        let next =
            Position { binder: start.binder + offset.binder, site: start.site + offset.site };
        CompileCtx { manager, system, alloc, interp, stage, next, scope }
    }

    fn lookup(&self, name: &str) -> Result<&'a Instance, SolveError> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, inst)| inst)
            .ok_or_else(|| SolveError::Internal(format!("unbound variable `{name}`")))
    }

    /// The allocated leaves a term denotes, in flattening order.
    fn term_leaves(&self, term: &Term) -> Result<Vec<&'a LeafAlloc>, SolveError> {
        match term {
            Term::Int(_) => Err(SolveError::Internal("term_leaves on an integer".into())),
            Term::Var { name, path } => {
                let leaves = self.lookup(name)?.leaves_under(path);
                if leaves.is_empty() {
                    return Err(SolveError::Internal(format!(
                        "term `{term}` resolves to no leaves"
                    )));
                }
                Ok(leaves)
            }
        }
    }

    /// Compiles `f` to a BDD.
    pub(crate) fn compile(&mut self, f: &'a Formula) -> Result<Bdd, SolveError> {
        match f {
            Formula::Const(b) => Ok(self.manager.constant(*b)),
            Formula::Atom(t) => {
                let leaves = self.term_leaves(t)?;
                Ok(self.manager.var(leaves[0].vars[0]))
            }
            Formula::Cmp(a, op, b) => self.compile_cmp(a, *op, b),
            Formula::App(..) | Formula::Exists(..) => self.compile_site(f),
            Formula::Not(g) => {
                let x = self.compile(g)?;
                Ok(self.manager.not(x))
            }
            Formula::And(gs) => {
                let mut acc = Bdd::TRUE;
                for g in gs {
                    if acc.is_false() {
                        self.next = self.next.past(g);
                        continue;
                    }
                    let x = self.compile(g)?;
                    acc = self.manager.and(acc, x);
                }
                Ok(acc)
            }
            Formula::Or(gs) => {
                let mut acc = Bdd::FALSE;
                for g in gs {
                    let x = self.compile(g)?;
                    acc = self.manager.or(acc, x);
                }
                Ok(acc)
            }
            Formula::Implies(a, b) => {
                let x = self.compile(a)?;
                let y = self.compile(b)?;
                Ok(self.manager.implies(x, y))
            }
            Formula::Iff(a, b) => {
                let x = self.compile(a)?;
                let y = self.compile(b)?;
                Ok(self.manager.iff(x, y))
            }
            Formula::Forall(binders, g) => {
                // ∀x. φ  ≡  ¬∃x. domain(x) ∧ ¬φ
                let (cube, domain) = self.enter_binders(binders);
                let body = self.compile(g);
                self.leave_binders(binders.len());
                let nbody = self.manager.not(body?);
                let e = self.manager.and_exists(domain, nbody, cube);
                Ok(self.manager.not(e))
            }
        }
    }

    /// An application or an `∃`: its staged parts, read from the stage or
    /// built on the spot, applied to the current interpretation.
    fn compile_site(&mut self, f: &'a Formula) -> Result<Bdd, SolveError> {
        let start = self.next;
        let staged = match self.stage.as_deref_mut().and_then(|s| s.0[start.site].take()) {
            Some(staged) => staged,
            None => self.stage_site(f)?,
        };
        let value = self.apply(f, start, &staged);
        if let Some(stage) = self.stage.as_deref_mut() {
            stage.0[start.site] = Some(staged);
        }
        value
    }

    /// Builds the staged parts of site `f`, which starts at the current
    /// position.
    fn stage_site(&mut self, f: &'a Formula) -> Result<Staged, SolveError> {
        let start = self.next;
        match f {
            Formula::App(name, args) => {
                let app = self.route(name, args)?;
                if self.is_fixpoint(app.rel) {
                    return Ok(Staged::App(app));
                }
                let stored = self.stored(app.rel)?;
                let value = self.manager.rename_and_exists(stored, &app.map, app.eqs, app.cube);
                Ok(Staged::Whole { value, end: Position { site: start.site + 1, ..start } })
            }
            Formula::Exists(binders, g) => {
                self.next.site += 1;
                let staged = self.stage_exists(binders, g.conjuncts());
                self.leave_binders(binders.len());
                staged
            }
            _ => unreachable!("compile sites are applications and ∃s"),
        }
    }

    /// Builds the staged parts of `∃binders. conjuncts`, numbered from the
    /// current position, and leaves the binders in scope.
    fn stage_exists(
        &mut self,
        binders: &'a [(String, Type)],
        conjuncts: &'a [Formula],
    ) -> Result<Staged, SolveError> {
        let (mut cube, mut part) = self.enter_binders(binders);
        let mut end = self.next;
        let starts: Vec<Position> = conjuncts.iter().map(|c| end.step_over(c)).collect();
        let fixpoint: Vec<bool> = conjuncts.iter().map(|c| self.applies_fixpoint(c)).collect();
        let held_at = conjuncts
            .iter()
            .zip(&fixpoint)
            .position(|(c, &fp)| fp && matches!(c, Formula::App(..)));
        let mut held = None;
        if let Some(Formula::App(name, args)) = held_at.map(|k| &conjuncts[k]) {
            let app = self.route(name, args)?;
            part = self.manager.and(part, app.eqs);
            cube = self.manager.and(cube, app.cube);
            held = Some((app.rel, app.map));
        }
        // An ∃ that applies no fixpoint relation is staged whole, its last
        // conjunct fused into the quantification.
        let whole = !fixpoint.contains(&true);
        let mut free: Vec<usize> = (0..conjuncts.len()).filter(|&k| !fixpoint[k]).collect();
        let last = if whole { free.pop() } else { None };
        for k in free {
            if part.is_false() {
                break;
            }
            self.next = starts[k];
            let x = self.compile(&conjuncts[k])?;
            part = self.manager.and(part, x);
        }
        if whole {
            let body = match last {
                Some(k) if !part.is_false() => {
                    self.next = starts[k];
                    self.compile(&conjuncts[k])?
                }
                _ => Bdd::TRUE,
            };
            let value = self.manager.and_exists(part, body, cube);
            return Ok(Staged::Whole { value, end });
        }
        let rest = (0..conjuncts.len())
            .filter(|&k| fixpoint[k] && Some(k) != held_at)
            .map(|k| (k, starts[k]))
            .collect();
        Ok(Staged::Exists(Product { cube, part, held, rest, end }))
    }

    /// Applies site `f`'s staged parts at the current interpretation; `f`
    /// starts at `start`, and the numbering resumes just past it.
    fn apply(
        &mut self,
        f: &'a Formula,
        start: Position,
        staged: &Staged,
    ) -> Result<Bdd, SolveError> {
        match (staged, f) {
            (Staged::Whole { value, end }, _) => {
                self.next = *end;
                Ok(*value)
            }
            (Staged::App(app), _) => {
                self.next = Position { site: start.site + 1, ..start };
                let stored = self.stored(app.rel)?;
                Ok(self.manager.rename_and_exists(stored, &app.map, app.eqs, app.cube))
            }
            (Staged::Exists(product), Formula::Exists(binders, g)) => {
                self.bind(binders, start.binder);
                let value = self.apply_product(product, g.conjuncts());
                self.leave_binders(binders.len());
                self.next = product.end;
                value
            }
            (Staged::Exists(_), _) => unreachable!("an ∃ site's parts belong to an ∃"),
        }
    }

    /// One relational product: the staged part ∧ the remaining conjuncts
    /// in body order, quantified together with the held-back application
    /// (or, without one, with the last remaining conjunct), stopping at ⊥.
    fn apply_product(
        &mut self,
        product: &Product,
        conjuncts: &'a [Formula],
    ) -> Result<Bdd, SolveError> {
        let fused = if product.held.is_some() { None } else { product.rest.last() };
        let conjoined = &product.rest[..product.rest.len() - usize::from(fused.is_some())];
        let mut acc = product.part;
        for &(k, at) in conjoined {
            if acc.is_false() {
                break;
            }
            self.next = at;
            let x = self.compile(&conjuncts[k])?;
            acc = self.manager.and(acc, x);
        }
        if acc.is_false() {
            return Ok(Bdd::FALSE);
        }
        match (&product.held, fused) {
            (Some((rel, map)), _) => {
                let stored = self.stored(*rel)?;
                Ok(self.manager.rename_and_exists(stored, map, acc, product.cube))
            }
            (None, Some(&(k, at))) => {
                self.next = at;
                let last = self.compile(&conjuncts[k])?;
                Ok(self.manager.and_exists(acc, last, product.cube))
            }
            (None, None) => Ok(self.manager.and_exists(acc, Bdd::TRUE, product.cube)),
        }
    }

    /// Is relation `rel` a fixpoint relation?
    fn is_fixpoint(&self, rel: usize) -> bool {
        self.system.relations()[rel].kind == RelationKind::Fixpoint
    }

    /// Does `f` apply a fixpoint relation anywhere?
    fn applies_fixpoint(&self, f: &Formula) -> bool {
        let mut found = false;
        f.walk(&mut |g| {
            if let Formula::App(name, _) = g {
                found |= self.system.relation_id(name).is_some_and(|r| self.is_fixpoint(r));
            }
        });
        found
    }

    /// The interpretation of relation `rel`.
    fn stored(&self, rel: usize) -> Result<Bdd, SolveError> {
        self.interp[rel].ok_or_else(|| {
            SolveError::MissingInterpretation(self.system.relations()[rel].name.clone())
        })
    }

    /// Puts `binders`, whose instances start at id `first`, in scope.
    fn bind(&mut self, binders: &'a [(String, Type)], first: usize) {
        for (i, (name, _)) in binders.iter().enumerate() {
            self.scope.push((name.as_str(), self.alloc.instance(first + i)));
        }
    }

    /// Binds the quantifier variables at the current position and returns
    /// (cube of their vars, conjunction of their domain constraints).
    fn enter_binders(&mut self, binders: &'a [(String, Type)]) -> (Bdd, Bdd) {
        let first = self.next.binder;
        self.next.binder += binders.len();
        self.bind(binders, first);
        let mut vars = Vec::new();
        let mut domain = Bdd::TRUE;
        for id in first..first + binders.len() {
            let inst = self.alloc.instance(id);
            vars.extend(inst.leaves.iter().flat_map(|l| l.vars.iter().copied()));
            domain = self.manager.and(domain, self.alloc.domain(inst));
        }
        (self.manager.cube(&vars), domain)
    }

    fn leave_binders(&mut self, nbinders: usize) {
        self.scope.truncate(self.scope.len() - nbinders);
    }

    fn compile_cmp(&mut self, a: &Term, op: CmpOp, b: &Term) -> Result<Bdd, SolveError> {
        let base = match (a, b) {
            (Term::Int(_), Term::Int(_)) => {
                return Err(SolveError::Internal("comparison of two literals".into()))
            }
            (Term::Int(v), t) | (t, Term::Int(v)) => {
                // Scalar vs constant. For Lt/Le the orientation matters.
                let vars = &self.term_leaves(t)?[0].vars;
                match op {
                    CmpOp::Eq | CmpOp::Ne => eq_const(self.manager, vars, *v),
                    CmpOp::Lt | CmpOp::Le => {
                        let int_on_left = matches!(a, Term::Int(_));
                        self.cmp_const(vars, *v, op, int_on_left)
                    }
                }
            }
            (ta, tb) => {
                let la = self.term_leaves(ta)?;
                let lb = self.term_leaves(tb)?;
                if la.len() != lb.len() {
                    return Err(SolveError::Internal(format!(
                        "shape mismatch comparing `{ta}` and `{tb}`"
                    )));
                }
                match op {
                    CmpOp::Eq | CmpOp::Ne => {
                        let mut acc = Bdd::TRUE;
                        for (a, b) in la.iter().zip(&lb) {
                            let eq = eq_vars(self.manager, &a.vars, &b.vars);
                            acc = self.manager.and(acc, eq);
                        }
                        acc
                    }
                    CmpOp::Lt => lt_vars(self.manager, &la[0].vars, &lb[0].vars),
                    CmpOp::Le => {
                        let lt = lt_vars(self.manager, &la[0].vars, &lb[0].vars);
                        let eq = eq_vars(self.manager, &la[0].vars, &lb[0].vars);
                        self.manager.or(lt, eq)
                    }
                }
            }
        };
        Ok(match op {
            CmpOp::Ne => self.manager.not(base),
            _ => base,
        })
    }

    /// `vars OP const` (or `const OP vars` when `int_on_left`).
    fn cmp_const(&mut self, vars: &[Var], v: u64, op: CmpOp, int_on_left: bool) -> Bdd {
        match (op, int_on_left) {
            (CmpOp::Lt, false) => lt_const(self.manager, vars, v),
            (CmpOp::Le, false) => lt_const(self.manager, vars, v.saturating_add(1)),
            (CmpOp::Lt, true) => {
                // v < vars  ≡  ¬(vars <= v)  ≡  ¬(vars < v+1)
                let le = lt_const(self.manager, vars, v.saturating_add(1));
                self.manager.not(le)
            }
            (CmpOp::Le, true) => {
                // v <= vars  ≡  ¬(vars < v)
                let lt = lt_const(self.manager, vars, v);
                self.manager.not(lt)
            }
            _ => unreachable!("cmp_const called with equality"),
        }
    }

    /// How the application `name(args)` reaches its relation: the rename
    /// map from the formals onto the argument variables, and the
    /// equalities and cube of the scratch columns that constant and
    /// duplicate arguments are routed through.
    fn route(&mut self, name: &str, args: &[Term]) -> Result<Application, SolveError> {
        let rel =
            self.system.relation_id(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;

        let mut pairs: Vec<(Var, Var)> = Vec::new();
        // Scratch columns and what each must equal.
        let mut scratch_eqs: Vec<(&'a [Var], ScratchTarget<'a>)> = Vec::new();
        let mut scratch_used: Vec<&'a str> = Vec::new();
        let mut routing = Routing::default();
        for (i, arg) in args.iter().enumerate() {
            let formal = self.alloc.formal_of(rel, i);
            let operand = match arg {
                Term::Int(v) => Operand::Const(*v),
                Term::Var { .. } => {
                    let leaves = self.term_leaves(arg)?;
                    if leaves.len() != formal.leaves.len() {
                        return Err(SolveError::Internal(format!(
                            "arity shape mismatch applying `{name}`"
                        )));
                    }
                    Operand::Leaves(leaves)
                }
            };
            let columns = match &operand {
                Operand::Const(_) => None,
                Operand::Leaves(leaves) => Some(leaves.iter().map(|l| l.column)),
            };
            match (routing.route(columns), &operand) {
                (Route::Direct, Operand::Leaves(arg_leaves)) => {
                    for (leaf, target) in formal.leaves.iter().zip(arg_leaves) {
                        if leaf.vars.len() != target.vars.len() {
                            return Err(SolveError::Internal(format!(
                                "width mismatch applying `{name}`"
                            )));
                        }
                        pairs.extend(leaf.vars.iter().copied().zip(target.vars.iter().copied()));
                    }
                }
                // Through scratch: each formal leaf is renamed onto a
                // scratch column of its channel, which must equal the
                // constant (whose formal has one leaf) or the argument's
                // matching leaf.
                (_, operand) => {
                    for (k, leaf) in formal.leaves.iter().enumerate() {
                        let col = self.take_scratch(&leaf.leaf.channel, &mut scratch_used)?;
                        pairs.extend(leaf.vars.iter().copied().zip(col.iter().copied()));
                        let target = match operand {
                            Operand::Const(v) => ScratchTarget::Const(*v),
                            Operand::Leaves(arg_leaves) => ScratchTarget::Vars(&arg_leaves[k].vars),
                        };
                        scratch_eqs.push((col, target));
                    }
                }
            }
        }

        let mut scratch_vars = Vec::new();
        let mut eqs = Bdd::TRUE;
        for (svars, target) in &scratch_eqs {
            scratch_vars.extend(svars.iter().copied());
            let eq = match target {
                ScratchTarget::Vars(t) => eq_vars(self.manager, svars, t),
                ScratchTarget::Const(v) => eq_const(self.manager, svars, *v),
            };
            eqs = self.manager.and(eqs, eq);
        }
        let cube = self.manager.cube(&scratch_vars);
        Ok(Application { rel, map: VarMap::new(pairs), eqs, cube })
    }

    /// The next unused scratch column of `channel`; `used` lists the
    /// channel of every column this application has taken so far.
    fn take_scratch(
        &self,
        channel: &'a str,
        used: &mut Vec<&'a str>,
    ) -> Result<&'a [Var], SolveError> {
        let idx = used.iter().filter(|&&c| c == channel).count();
        used.push(channel);
        let cols = self.alloc.scratch_columns(channel);
        cols.get(idx).map(Vec::as_slice).ok_or_else(|| {
            SolveError::Internal(format!(
                "out of scratch columns for channel `{channel}` \
                 (more than {} duplicate arguments in one application)",
                cols.len()
            ))
        })
    }
}

/// One argument of an application, resolved.
enum Operand<'a> {
    /// An integer constant; its formal is a scalar, one leaf.
    Const(u64),
    /// The argument's leaves, one per formal leaf.
    Leaves(Vec<&'a LeafAlloc>),
}

/// What a scratch column must equal.
enum ScratchTarget<'a> {
    Vars(&'a [Var]),
    Const(u64),
}

#[cfg(test)]
mod tests {
    use crate::alloc::tests::set_tuples;
    use crate::parse::parse_system;
    use crate::{SolveOptions, Solver, Strategy};

    /// The tuples of the unary relation `rel` over `range 8`.
    fn members(solver: &mut Solver, rel: &str) -> Vec<u64> {
        let value = solver.evaluate(rel).expect("the relation solves");
        let vars = solver.alloc().formal(rel, 0).all_vars();
        let models = solver.manager_ref().all_models(value, &vars);
        let mut out: Vec<u64> = (models.iter())
            .map(|bits| bits.iter().rev().fold(0, |acc, &b| acc << 1 | u64::from(b)))
            .collect();
        out.sort_unstable();
        out
    }

    /// The least fixed point of `R(s) := body(R, s)` over `0..8`, by Kleene
    /// iteration on explicit sets: an oracle that shares no code with the
    /// compiler.
    fn kleene(body: impl Fn(&[bool], u64) -> bool) -> Vec<u64> {
        let mut r = vec![false; 8];
        loop {
            let next: Vec<bool> = (0..8).map(|s| body(&r, s)).collect();
            if next == r {
                return (0..8).filter(|&s| r[s as usize]).collect();
            }
            r = next;
        }
    }

    /// A solver of `src` under `strategy`, collecting at every safe point
    /// when `collect` is set, with `inputs` installed.
    fn solver(
        src: &str,
        strategy: Strategy,
        collect: bool,
        inputs: &[(&str, &[&[u64]])],
    ) -> Solver {
        let system = parse_system(src).expect("the system parses");
        let gc_threshold = if collect { Some(1) } else { None };
        let options = SolveOptions { gc_threshold, ..SolveOptions::with_strategy(strategy) };
        let mut solver = Solver::with_options(system, options).expect("a solver");
        for (name, tuples) in inputs {
            set_tuples(&mut solver, name, tuples);
        }
        solver
    }

    /// How many sites hold staged parts.
    fn staged(solver: &Solver) -> usize {
        solver.stage.0.iter().filter(|s| s.is_some()).count()
    }

    const CHAIN: &[&[u64]] = &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[6, 7]];

    /// `Ok(s)` is a staged conjunct of the image step. Changing `Ok`
    /// between two evaluations must drop what was staged from its old
    /// value: the second solve equals a fresh solver's, round-robin's and
    /// the explicit closure under the new `Ok`.
    #[test]
    fn set_input_drops_what_a_changed_input_staged() {
        let src = "type S = range 8;
             input Init(s: S);
             input Edge(s: S, t: S);
             input Ok(s: S);
             mu R(s: S) := Init(s) | (exists t: S. R(t) & Edge(t, s) & Ok(s));";
        let all: Vec<[u64; 1]> = (0..8).map(|s| [s]).collect();
        let all: Vec<&[u64]> = all.iter().map(|t| t.as_slice()).collect();
        let inputs = [("Init", &[&[0][..]][..]), ("Edge", CHAIN), ("Ok", &all)];
        let mut worklist = solver(src, Strategy::Worklist, false, &inputs);
        assert_eq!(members(&mut worklist, "R"), (0..8).collect::<Vec<_>>());
        assert!(staged(&worklist) > 0, "the image step staged nothing");

        let ok: &[&[u64]] = &[&[1], &[2], &[4]];
        set_tuples(&mut worklist, "Ok", ok);
        assert_eq!(staged(&worklist), 0, "set_input keeps staged parts");
        let want = kleene(|r, s| s == 0 || (s > 0 && r[s as usize - 1] && [1, 2, 4].contains(&s)));
        assert_eq!(want, [0, 1, 2]);
        assert_eq!(members(&mut worklist, "R"), want);
        let inputs = [("Init", &[&[0][..]][..]), ("Edge", CHAIN), ("Ok", ok)];
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            assert_eq!(members(&mut solver(src, strategy, false, &inputs), "R"), want);
        }
    }

    /// A collection at every pass boundary of the chaotic component, each
    /// after the first pass staged its parts, must drop them (they are no
    /// collection roots) and the next pass restage them: the values equal
    /// an uncollected solve's, round-robin's and the explicit closure.
    #[test]
    fn a_collection_inside_a_component_drops_the_stage() {
        let src = "type S = range 8;
             input Init(s: S);
             input Edge(s: S, t: S);
             mu R(s: S) := Init(s)
               | (exists t: S. R(t) & Edge(t, s) & s != 3)
               | ((exists x: S. R(x) & x = 2) & (exists y: S. R(y) & Edge(y, s) & y = 2));";
        let inputs = [("Init", &[&[0][..]][..]), ("Edge", CHAIN)];
        let want = kleene(|r, s| s == 0 || (s > 0 && r[s as usize - 1] && (s != 3 || r[2])));
        assert_eq!(want, (0..8).collect::<Vec<_>>());
        let mut collected = solver(src, Strategy::Worklist, true, &inputs);
        assert_eq!(members(&mut collected, "R"), want);
        assert!(collected.stats().gcs >= 3, "{} collections", collected.stats().gcs);
        for (strategy, collect) in [(Strategy::Worklist, false), (Strategy::RoundRobin, false)] {
            assert_eq!(members(&mut solver(src, strategy, collect, &inputs), "R"), want);
        }
    }

    /// `∃c. Gate(c) ∧ c = 1` applies no fixpoint relation, so it is staged
    /// and compiled before the conjuncts around it, which do apply `R` and
    /// bind `b` (before it) and `y` (after it). Every binder must still get
    /// its own instance; `b` and `c` range over another type than `y`, so
    /// a wrong one fails to route or changes the value.
    #[test]
    fn a_staged_exists_between_fixpoint_conjuncts_keeps_the_binder_numbering() {
        let src = "type S = range 8;
             type B = range 2;
             input Init(s: S);
             input Edge(s: S, t: S);
             input Flag(b: B);
             input Gate(b: B);
             mu R(s: S) := Init(s)
               | (exists x: S. R(x)
                   & (exists b: B. Flag(b) & R(x))
                   & (exists c: B. Gate(c) & c = 1)
                   & (exists y: S. R(y) & Edge(y, s) & Edge(x, y)));";
        let edges: &[&[u64]] = &[&[0, 0], &[0, 1], &[1, 2], &[2, 3], &[3, 5], &[5, 6]];
        let inputs =
            [("Init", &[&[0][..]][..]), ("Edge", edges), ("Flag", &[&[0]]), ("Gate", &[&[1]])];
        let edge = |a: usize, b: u64| edges.iter().any(|e| e[0] == a as u64 && e[1] == b);
        let want = kleene(|r, s| {
            s == 0
                || (0..8).any(|x| r[x] && (0..8).any(|y| r[y] && edge(y, s) && edge(x, y as u64)))
        });
        assert_eq!(want, [0, 1, 2, 3, 5, 6]);
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            let mut solver = solver(src, strategy, false, &inputs);
            assert_eq!(members(&mut solver, "R"), want, "{strategy}");
        }
    }

    /// `Never(x)` is empty, so the staged part of `∃x` is ⊥: the ∃ stops
    /// there without compiling `∃b. Flag(b) ∧ R(x)`, and the numbering
    /// skips `b`, so `∃w` after it still gets its own binder (a `w` on
    /// `b`'s instance, of another type, would fail to route).
    #[test]
    fn a_bottom_staged_part_skips_conjuncts_that_bind() {
        let src = "type S = range 8;
             type B = range 2;
             input Init(s: S);
             input Edge(s: S, t: S);
             input Never(s: S);
             input Flag(b: B);
             input Any(s: S);
             mu R(s: S) := Init(s)
               | (Any(s)
                   & ((exists x: S. R(x) & Never(x) & (exists b: B. Flag(b) & R(x)))
                     | (exists w: S. R(w) & Edge(w, s))));";
        let all: Vec<[u64; 1]> = (0..8).map(|s| [s]).collect();
        let all: Vec<&[u64]> = all.iter().map(|t| t.as_slice()).collect();
        let inputs = [
            ("Init", &[&[0][..]][..]),
            ("Edge", CHAIN),
            ("Never", &[]),
            ("Flag", &[&[1]]),
            ("Any", &all),
        ];
        let want = kleene(|r, s| s == 0 || (s > 0 && r[s as usize - 1]));
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            let mut solver = solver(src, strategy, false, &inputs);
            assert_eq!(members(&mut solver, "R"), want, "{strategy}");
        }
    }
}
