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
//!   Where the substitution does not preserve the variable order on the
//!   relation's support — most Bluetooth image steps, whose binder
//!   columns sit past other formals of the same channel — the kernel
//!   renames first and then runs one `and_exists`, so the conjunction
//!   with the renamed copy is still never built.
//! * **Stop at ⊥.** Once a conjunction's accumulator is ⊥, the remaining
//!   conjuncts are not compiled, and an `∃` whose `rest` is ⊥ returns ⊥
//!   without touching the held-back relation. Skipping never hides an
//!   error: every caller resolves each applied relation before it
//!   compiles (a missing input is reported up front).
//!
//! # Binder numbering
//!
//! Every quantifier binder owns an instance that the allocation plan
//! numbers in preorder (`alloc.rs`), and the compiler takes instances
//! from a [`BinderCounter`] in the same order. Holding an application
//! back never reorders binders — an application binds none — and a
//! skipped conjunct advances the counter by its
//! [`Formula::binder_count`], so every later binder still gets the
//! instance the plan gave it.

use crate::alloc::{eq_const, eq_vars, lt_const, lt_vars, Allocation, BinderCounter, Instance};
use crate::ast::{CmpOp, Formula, Term};
use crate::solve::SolveError;
use crate::system::{RelationKind, System};
use getafix_bdd::{Bdd, Manager, Var, VarMap};
use std::collections::BTreeMap;

/// One allocated leaf of a term: its BDD variables (LSB first) plus the
/// `range` bound, if any.
type TermLeaf = (Vec<Var>, Option<u64>);

/// Compilation context: one formula body, one scope.
pub(crate) struct CompileCtx<'a> {
    pub manager: &'a mut Manager,
    pub system: &'a System,
    pub alloc: &'a Allocation,
    /// Interpretation of every relation that may be applied.
    pub interp: &'a BTreeMap<String, Bdd>,
    /// Binder numbering for the body being compiled.
    pub counter: BinderCounter,
    /// In-scope variables: name -> instance id (shadowing via later wins).
    pub scope: Vec<(String, usize)>,
    /// Instances by id (borrowed views created on demand).
    pub instances: BTreeMap<usize, Instance>,
}

impl<'a> CompileCtx<'a> {
    pub(crate) fn new(
        manager: &'a mut Manager,
        system: &'a System,
        alloc: &'a Allocation,
        interp: &'a BTreeMap<String, Bdd>,
        owner: String,
    ) -> Self {
        Self::with_binder_offset(manager, system, alloc, interp, owner, 0)
    }

    /// As [`CompileCtx::new`], but resuming binder numbering at `offset` —
    /// for compiling a top-level disjunct in isolation (the worklist
    /// engine's disjunct-level recompilation).
    pub(crate) fn with_binder_offset(
        manager: &'a mut Manager,
        system: &'a System,
        alloc: &'a Allocation,
        interp: &'a BTreeMap<String, Bdd>,
        owner: String,
        offset: usize,
    ) -> Self {
        CompileCtx {
            manager,
            system,
            alloc,
            interp,
            counter: BinderCounter::new_at(owner, offset),
            scope: Vec::new(),
            instances: BTreeMap::new(),
        }
    }

    pub(crate) fn bind(&mut self, name: &str, inst: Instance) {
        self.instances.insert(inst.id, inst.clone());
        self.scope.push((name.to_string(), inst.id));
    }

    fn lookup(&self, name: &str) -> Result<&Instance, SolveError> {
        let id = self
            .scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
            .ok_or_else(|| SolveError::Internal(format!("unbound variable `{name}`")))?;
        Ok(&self.instances[&id])
    }

    /// The allocated leaves a term denotes, in flattening order.
    fn term_leaves(&self, term: &Term) -> Result<Vec<TermLeaf>, SolveError> {
        match term {
            Term::Int(_) => Err(SolveError::Internal("term_leaves on an integer".into())),
            Term::Var { name, path } => {
                let inst = self.lookup(name)?;
                let leaves = inst.leaves_under(path);
                if leaves.is_empty() {
                    return Err(SolveError::Internal(format!(
                        "term `{term}` resolves to no leaves"
                    )));
                }
                Ok(leaves.into_iter().map(|l| (l.vars.clone(), l.leaf.bound)).collect())
            }
        }
    }

    /// Compiles `f` to a BDD.
    pub(crate) fn compile(&mut self, f: &Formula) -> Result<Bdd, SolveError> {
        match f {
            Formula::Const(b) => Ok(self.manager.constant(*b)),
            Formula::Atom(t) => {
                let leaves = self.term_leaves(t)?;
                let (vars, _) = &leaves[0];
                Ok(self.manager.var(vars[0]))
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
        binders: &[(String, crate::types::Type)],
    ) -> Result<(Bdd, Bdd), SolveError> {
        let mut vars = Vec::new();
        let mut domain = Bdd::TRUE;
        for (name, _) in binders {
            let inst = self.counter.take(self.alloc).clone();
            vars.extend(inst.all_vars());
            let d = self.alloc.domain(&inst);
            domain = self.manager.and(domain, d);
            self.bind(name, inst);
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
        gs: &[Formula],
        held: Option<usize>,
    ) -> Result<Bdd, SolveError> {
        for (i, g) in gs.iter().enumerate() {
            if Some(i) == held {
                continue;
            }
            if acc.is_false() {
                self.counter.skip(g.binder_count());
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
    fn compile_exists(&mut self, g: &Formula, domain: Bdd, cube: Bdd) -> Result<Bdd, SolveError> {
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
                let leaves = self.term_leaves(t)?;
                let (vars, _) = &leaves[0];
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
                        for ((va, _), (vb, _)) in la.iter().zip(&lb) {
                            let eq = eq_vars(self.manager, va, vb);
                            acc = self.manager.and(acc, eq);
                        }
                        acc
                    }
                    CmpOp::Lt => lt_vars(self.manager, &la[0].0, &lb[0].0),
                    CmpOp::Le => {
                        let lt = lt_vars(self.manager, &la[0].0, &lb[0].0);
                        let eq = eq_vars(self.manager, &la[0].0, &lb[0].0);
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
        let stored = *self
            .interp
            .get(name)
            .ok_or_else(|| SolveError::MissingInterpretation(name.to_string()))?;
        let nparams = self.system.relation(name).map(|r| r.params.len()).unwrap_or(0);
        debug_assert_eq!(nparams, args.len());

        let mut pairs: Vec<(Var, Var)> = Vec::new();
        let mut used_targets: std::collections::HashSet<u32> = std::collections::HashSet::new();
        // (scratch vars, target vars, target const) equalities to conjoin,
        // and scratch vars to quantify away afterwards.
        let mut scratch_eqs: Vec<(Vec<Var>, ScratchTarget)> = Vec::new();
        let mut scratch_used: BTreeMap<String, usize> = BTreeMap::new();

        for (i, arg) in args.iter().enumerate() {
            let formal = self.alloc.formal(name, i).clone();
            match arg {
                Term::Int(v) => {
                    // Constant argument: constrain the formal's (single)
                    // leaf to the constant, via scratch so the stored
                    // relation is restricted, then quantified.
                    let leaf = &formal.leaves[0];
                    let col = self.take_scratch(&leaf.leaf.channel, &mut scratch_used)?;
                    pairs.extend(leaf.vars.iter().copied().zip(col.iter().copied()));
                    scratch_eqs.push((col, ScratchTarget::Const(*v)));
                }
                Term::Var { .. } => {
                    let arg_leaves = self.term_leaves(arg)?;
                    if arg_leaves.len() != formal.leaves.len() {
                        return Err(SolveError::Internal(format!(
                            "arity shape mismatch applying `{name}`"
                        )));
                    }
                    // Collision check across the whole argument.
                    let collides = arg_leaves
                        .iter()
                        .flat_map(|(vs, _)| vs.iter())
                        .any(|v| used_targets.contains(&v.level()));
                    if collides {
                        for (leaf, (tvars, _)) in formal.leaves.iter().zip(&arg_leaves) {
                            let col = self.take_scratch(&leaf.leaf.channel, &mut scratch_used)?;
                            pairs.extend(leaf.vars.iter().copied().zip(col.iter().copied()));
                            scratch_eqs.push((col, ScratchTarget::Vars(tvars.clone())));
                        }
                    } else {
                        for (leaf, (tvars, _)) in formal.leaves.iter().zip(&arg_leaves) {
                            if leaf.vars.len() != tvars.len() {
                                return Err(SolveError::Internal(format!(
                                    "width mismatch applying `{name}`"
                                )));
                            }
                            for (&from, &to) in leaf.vars.iter().zip(tvars) {
                                used_targets.insert(to.level());
                                pairs.push((from, to));
                            }
                        }
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

    fn take_scratch(
        &mut self,
        channel: &str,
        used: &mut BTreeMap<String, usize>,
    ) -> Result<Vec<Var>, SolveError> {
        let idx = *used.get(channel).unwrap_or(&0);
        let cols = self.alloc.scratch_columns(channel);
        if idx >= cols.len() {
            return Err(SolveError::Internal(format!(
                "out of scratch columns for channel `{channel}` \
                 (more than {} duplicate arguments in one application)",
                cols.len()
            )));
        }
        used.insert(channel.to_string(), idx + 1);
        Ok(cols[idx].clone())
    }
}

enum ScratchTarget {
    Vars(Vec<Var>),
    Const(u64),
}
