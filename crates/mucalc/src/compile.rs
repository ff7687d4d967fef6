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
//!   held back. Every other conjunct is conjoined, in order, with the
//!   binders' domain into `rest`; the held-back application then ends in
//!   one [`Manager::rename_and_exists`] call,
//!   `∃(x̄ ∪ scratch). rename(stored) ∧ scratch_eqs ∧ rest`. A fixpoint
//!   relation is the one to hold back because its interpretation changes
//!   on every pass, so a renamed copy of it is never reused from the
//!   rename cache, whereas an input's renamed copy is. A body with a
//!   single conjunct is the `n = 1` case; an `∃` that applies no fixpoint
//!   relation compiles its body and quantifies it with
//!   [`Manager::and_exists`]. Every application, fused or plain, ends in
//!   the same kernel call; a plain one passes `g = ⊤` and an empty cube.
//!   The allocation plan orders every channel so that each fixpoint
//!   application's substitution preserves the variable order (`alloc.rs`),
//!   which is what lets the kernel fuse; every shipped system's image
//!   steps do. Where no order can — a cycle such as `R(b, a)` in
//!   `R(a, b)`'s body — the kernel renames first and then runs one
//!   `and_exists`, so the conjunction with the renamed copy is still never
//!   built, and counts the call in
//!   [`ManagerStats::rename_fallbacks`](getafix_bdd::ManagerStats::rename_fallbacks).
//!   The plan and [`CompileCtx::compile_app`] route arguments by the same
//!   rule, [`Routing`].
//! * **Stop at ⊥.** Once a conjunction's accumulator is ⊥, the remaining
//!   conjuncts are not compiled, and an `∃` whose `rest` is ⊥ returns ⊥
//!   without touching the held-back relation. Skipping never hides an
//!   error: every caller resolves each applied relation before it
//!   compiles (a missing input is reported up front).
//!
//! # Binder numbering
//!
//! Every quantifier binder owns an instance that the allocation plan
//! numbers consecutively per body, in preorder (`alloc.rs`), and the
//! compiler takes instances in the same order, starting at the body's
//! first binder. Holding an application back never reorders binders — an
//! application binds none — and a skipped conjunct advances the numbering
//! by its [`Formula::binder_count`], so every later binder still gets the
//! instance the plan gave it.
//!
//! # Borrowed, id-keyed lookups
//!
//! A context borrows everything it reads: the interpretation table is
//! indexed by relation id ([`System::relation_id`]), and the scope maps
//! each variable to an [`Instance`] borrowed from the [`Allocation`].
//! Compiling a formula clones no instance and formats no name; only an
//! error builds a string.

use crate::alloc::{
    eq_const, eq_vars, lt_const, lt_vars, Allocation, Body, Instance, LeafAlloc, Route, Routing,
};
use crate::ast::{CmpOp, Formula, Term};
use crate::solve::SolveError;
use crate::system::{RelationKind, System};
use getafix_bdd::{Bdd, Manager, Var, VarMap};

/// Compilation context: one formula body, one scope.
pub(crate) struct CompileCtx<'a> {
    pub manager: &'a mut Manager,
    system: &'a System,
    alloc: &'a Allocation,
    /// Interpretation of every relation, by relation id; `None` where the
    /// caller has none to give.
    interp: &'a [Option<Bdd>],
    /// Instance id of the next quantifier binder.
    next_binder: usize,
    /// In-scope variables, innermost last (a later entry shadows).
    scope: Vec<(&'a str, &'a Instance)>,
}

impl<'a> CompileCtx<'a> {
    /// A context compiling (part of) `body` against `interp`. A relation
    /// body has its formals in scope; binder numbering starts
    /// `binder_offset` binders into the body, which is how the worklist
    /// engine compiles one top-level disjunct on its own.
    pub(crate) fn new(
        manager: &'a mut Manager,
        system: &'a System,
        alloc: &'a Allocation,
        interp: &'a [Option<Bdd>],
        body: Body,
        binder_offset: usize,
    ) -> Self {
        let mut scope = Vec::new();
        if let Body::Relation(rel) = body {
            for (i, (name, _)) in system.relations()[rel].params.iter().enumerate() {
                scope.push((name.as_str(), alloc.formal_of(rel, i)));
            }
        }
        let next_binder = alloc.first_binder(body) + binder_offset;
        CompileCtx { manager, system, alloc, interp, next_binder, scope }
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
            Formula::App(name, args) => self.compile_app(name, args, Bdd::TRUE, Bdd::TRUE),
            Formula::Not(g) => {
                let x = self.compile(g)?;
                Ok(self.manager.not(x))
            }
            Formula::And(gs) => self.conjoin(Bdd::TRUE, gs, None),
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
            Formula::Exists(binders, g) => {
                let (cube, domain) = self.enter_binders(binders)?;
                let r = self.compile_exists(g, domain, cube);
                self.leave_binders(binders.len());
                r
            }
            Formula::Forall(binders, g) => {
                // ∀x. φ  ≡  ¬∃x. domain(x) ∧ ¬φ
                let (cube, domain) = self.enter_binders(binders)?;
                let body = self.compile(g);
                self.leave_binders(binders.len());
                let nbody = self.manager.not(body?);
                let e = self.manager.and_exists(domain, nbody, cube);
                Ok(self.manager.not(e))
            }
        }
    }

    /// Binds the quantifier variables and returns (cube of their vars,
    /// conjunction of their domain constraints).
    fn enter_binders(
        &mut self,
        binders: &'a [(String, crate::types::Type)],
    ) -> Result<(Bdd, Bdd), SolveError> {
        let mut vars = Vec::new();
        let mut domain = Bdd::TRUE;
        for (name, _) in binders {
            let inst = self.alloc.instance(self.next_binder);
            self.next_binder += 1;
            vars.extend(inst.leaves.iter().flat_map(|l| l.vars.iter().copied()));
            domain = self.manager.and(domain, self.alloc.domain(inst));
            self.scope.push((name.as_str(), inst));
        }
        let cube = self.manager.cube(&vars);
        Ok((cube, domain))
    }

    fn leave_binders(&mut self, nbinders: usize) {
        self.scope.truncate(self.scope.len() - nbinders);
    }

    /// `acc ∧ gs[0] ∧ gs[1] ∧ …`, leaving out `gs[held]` and stopping at ⊥:
    /// a conjunct after the accumulator turned ⊥ is not compiled, only
    /// counted past in the binder numbering.
    fn conjoin(
        &mut self,
        mut acc: Bdd,
        gs: &'a [Formula],
        held: Option<usize>,
    ) -> Result<Bdd, SolveError> {
        for (i, g) in gs.iter().enumerate() {
            if Some(i) == held {
                continue;
            }
            if acc.is_false() {
                self.next_binder += g.binder_count();
                continue;
            }
            let x = self.compile(g)?;
            acc = self.manager.and(acc, x);
        }
        Ok(acc)
    }

    /// The body of `∃x̄. g` with the binders in scope: one relational
    /// product that applies the first fixpoint relation among `g`'s
    /// conjuncts last (see the module docs).
    fn compile_exists(
        &mut self,
        g: &'a Formula,
        domain: Bdd,
        cube: Bdd,
    ) -> Result<Bdd, SolveError> {
        let conjuncts = match g {
            Formula::And(gs) => gs.as_slice(),
            other => std::slice::from_ref(other),
        };
        let held = conjuncts.iter().position(|c| match c {
            Formula::App(name, _) => {
                self.system.relation(name).is_some_and(|r| r.kind == RelationKind::Fixpoint)
            }
            _ => false,
        });
        let Some(Formula::App(name, args)) = held.map(|k| &conjuncts[k]) else {
            let body = self.conjoin(Bdd::TRUE, conjuncts, None)?;
            return Ok(self.manager.and_exists(domain, body, cube));
        };
        let rest = self.conjoin(domain, conjuncts, held)?;
        if rest.is_false() {
            return Ok(Bdd::FALSE);
        }
        self.compile_app(name, args, rest, cube)
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

    /// Relation application `∃cube. name(args) ∧ g`: the stored
    /// interpretation is renamed from the formals onto the argument
    /// variables, conjoined with `g` and quantified over `cube`, in one
    /// kernel call. Constant and duplicate arguments are routed through
    /// scratch columns, whose equalities join `g` and whose variables join
    /// `cube`. A plain application passes `g = ⊤` and an empty cube.
    fn compile_app(
        &mut self,
        name: &str,
        args: &[Term],
        g: Bdd,
        cube: Bdd,
    ) -> Result<Bdd, SolveError> {
        let rel =
            self.system.relation_id(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
        let stored =
            self.interp[rel].ok_or_else(|| SolveError::MissingInterpretation(name.to_string()))?;

        let mut pairs: Vec<(Var, Var)> = Vec::new();
        // Scratch columns and what each must equal: conjoined into `g`,
        // then quantified away with `cube`.
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

        let map = VarMap::new(pairs);
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
        let g = self.manager.and(g, eqs);
        let scratch_cube = self.manager.cube(&scratch_vars);
        let cube = self.manager.and(cube, scratch_cube);
        Ok(self.manager.rename_and_exists(stored, &map, g, cube))
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
