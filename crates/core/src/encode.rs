//! Symbolic encoding of a Boolean program: building the template relations
//! of §4 as BDDs over the solver's input-relation formals.
//!
//! The templates form the interface between "the program" and "the
//! algorithm" (Figure 1 of the paper): the fixed-point formulae only ever
//! mention these relations, so the encoding and the algorithms evolve
//! independently.
//!
//! # One walk
//!
//! [`install_templates`] first reads every template's formals, checking
//! that the system declares each as an input of the arity the encoder
//! writes. It then walks the CFG once. Each procedure adds its entry to
//! `EntryOf`, its exits to `ExitOf` and its pc interval to `ProcEntry`. An
//! internal edge yields its `ProgramInt` disjunct; a call edge yields its
//! `ProgramCall`, `SkipCall` and `SetReturn1` disjuncts and one
//! `SetReturn2` disjunct per exit of the callee.
//!
//! # Constants as cubes
//!
//! The constant part of every disjunct — its pcs, and the zeroed tails of
//! local vectors narrower than the widest frame — is one literal cube
//! ([`eq_consts`]), built bottom-up by the kernel with no `and` at all.
//! So is `Init`.
//!
//! # One set of builders
//!
//! [`can_value`], [`assign_bit`] and [`eq_except`] here, with
//! [`eq_const`], [`eq_consts`] and [`eq_vars`](getafix_mucalc::eq_vars)
//! from `getafix-mucalc` (re-exported at this crate's root), are the
//! workspace's only copies of these builders: the concurrent `InitConf`
//! and the BEBOP and MOPED baselines (`getafix-bebop`, `getafix-pds`)
//! build their relations from them too.
//!
//! # Deviations from the paper's template signatures
//!
//! * Program counters are **globally unique** across procedures (the CFG
//!   hands them out densely), so the `mod` component of a configuration is
//!   derivable from `pc` and is dropped; a configuration is
//!   `Conf = { pc, cl, cg, ecl, ecg }`.
//! * Call sites determine their return-target variables, so `SetReturn1`
//!   needs only the call pc, and `SetReturn2` only the (call pc, exit pc)
//!   pair — the pairing also ties an exit to *the procedure called at that
//!   site*, subsuming the appendix's explicit module equalities.
//! * All variables initialize to `false` (see `getafix_boolprog::cfg`), so
//!   `Init` is a single configuration.
//!
//! # Nondeterminism
//!
//! Expressions may contain `*` and `schoose`; they compile to a pair of
//! BDDs `can_true`/`can_false` over the state variables (each choice
//! occurrence independent), and an assignment `v' := e` becomes
//! `ite(v', can_true(e), can_false(e))` — exactly the relation the explicit
//! oracle's `value_set` induces pointwise.

use getafix_bdd::{Bdd, Manager, Var};
use getafix_boolprog::{Cfg, Edge, LExpr, Pc, VarRef};
use getafix_mucalc::{eq_const, eq_consts, lt_const, RelationKind, SolveError, Solver};

/// Errors raised while encoding a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The system does not declare this template as an input relation of
    /// `arity` formals — a sign the system and the encoder have drifted
    /// apart.
    Template {
        /// The template's name.
        name: &'static str,
        /// The number of formals the encoder writes.
        arity: usize,
    },
    /// The solver rejected an input (internal wiring bug).
    Solve(String),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Template { name, arity } => write!(
                f,
                "the system does not declare template `{name}` as an input relation of arity {arity}"
            ),
            EncodeError::Solve(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for EncodeError {}

impl From<SolveError> for EncodeError {
    fn from(e: SolveError) -> Self {
        EncodeError::Solve(e.to_string())
    }
}

/// `can_true` / `can_false` compilation of an [`LExpr`] over the given
/// local/global variable blocks.
pub fn can_value(
    m: &mut Manager,
    e: &LExpr,
    locals: &[Var],
    globals: &[Var],
    want_true: bool,
) -> Bdd {
    match e {
        LExpr::Const(b) => m.constant(*b == want_true),
        LExpr::Nondet => Bdd::TRUE,
        LExpr::Var(v) => m.literal(var_of(v, locals, globals), want_true),
        LExpr::Not(a) => can_value(m, a, locals, globals, !want_true),
        LExpr::And(a, b) => {
            if want_true {
                let x = can_value(m, a, locals, globals, true);
                let y = can_value(m, b, locals, globals, true);
                m.and(x, y)
            } else {
                let x = can_value(m, a, locals, globals, false);
                let y = can_value(m, b, locals, globals, false);
                m.or(x, y)
            }
        }
        LExpr::Or(a, b) => {
            if want_true {
                let x = can_value(m, a, locals, globals, true);
                let y = can_value(m, b, locals, globals, true);
                m.or(x, y)
            } else {
                let x = can_value(m, a, locals, globals, false);
                let y = can_value(m, b, locals, globals, false);
                m.and(x, y)
            }
        }
        LExpr::Eq(a, b) => {
            let at = can_value(m, a, locals, globals, true);
            let af = can_value(m, a, locals, globals, false);
            let bt = can_value(m, b, locals, globals, true);
            let bf = can_value(m, b, locals, globals, false);
            if want_true {
                let tt = m.and(at, bt);
                let ff = m.and(af, bf);
                m.or(tt, ff)
            } else {
                let tf = m.and(at, bf);
                let ft = m.and(af, bt);
                m.or(tf, ft)
            }
        }
        LExpr::Ne(a, b) => can_value(m, &flip_ne(a, b), locals, globals, want_true),
        LExpr::Schoose(p, n) => {
            let pt = can_value(m, p, locals, globals, true);
            let pf = can_value(m, p, locals, globals, false);
            if want_true {
                // T when pos holds; free when neither constrains.
                let nf = can_value(m, n, locals, globals, false);
                let free = m.and(pf, nf);
                m.or(pt, free)
            } else {
                // F requires pos to possibly fail, and then neg decides or
                // is free.
                let nt = can_value(m, n, locals, globals, true);
                let nf = can_value(m, n, locals, globals, false);
                let any = m.or(nt, nf);
                m.and(pf, any)
            }
        }
    }
}

fn flip_ne(a: &LExpr, b: &LExpr) -> LExpr {
    LExpr::Not(Box::new(LExpr::Eq(Box::new(a.clone()), Box::new(b.clone()))))
}

/// The variable `v` names in the frame (`locals`, `globals`).
fn var_of(v: &VarRef, locals: &[Var], globals: &[Var]) -> Var {
    match *v {
        VarRef::Local(i) => locals[i],
        VarRef::Global(i) => globals[i],
    }
}

/// The relation `target := e(state)` for a single target bit.
pub fn assign_bit(m: &mut Manager, target: Var, e: &LExpr, locals: &[Var], globals: &[Var]) -> Bdd {
    let ct = can_value(m, e, locals, globals, true);
    let cf = can_value(m, e, locals, globals, false);
    let t = m.var(target);
    m.ite(t, ct, cf)
}

/// Equality of two equal-length variable blocks, skipping indices in
/// `except`. Conjoined from the last bit up, so on interleaved blocks every
/// step adds one equality above the chain built so far.
pub fn eq_except(m: &mut Manager, a: &[Var], b: &[Var], except: &[usize]) -> Bdd {
    let mut acc = Bdd::TRUE;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate().rev() {
        if except.contains(&i) {
            continue;
        }
        let (fx, fy) = (m.var(x), m.var(y));
        let eq = m.iff(fx, fy);
        acc = m.and(eq, acc);
    }
    acc
}

/// The local and the global indices a list of assignment targets writes.
fn written<'a>(targets: impl IntoIterator<Item = &'a VarRef>) -> (Vec<usize>, Vec<usize>) {
    let (mut locals, mut globals) = (Vec::new(), Vec::new());
    for t in targets {
        match *t {
            VarRef::Local(i) => locals.push(i),
            VarRef::Global(i) => globals.push(i),
        }
    }
    (locals, globals)
}

/// The variables of each formal of template `name`, once the system is
/// checked to declare it as an input of `N` formals.
fn formals<const N: usize>(
    solver: &Solver,
    name: &'static str,
) -> Result<[Vec<Var>; N], EncodeError> {
    match solver.system().relation(name) {
        Some(def) if def.kind == RelationKind::Input && def.params.len() == N => {
            Ok(std::array::from_fn(|i| solver.alloc().formal(name, i).all_vars()))
        }
        _ => Err(EncodeError::Template { name, arity: N }),
    }
}

/// Builds and installs every template relation for `cfg` into `solver`.
///
/// The solver must have been created from one of the systems in
/// [`crate::systems`] (they all declare the same input signatures).
///
/// # Errors
///
/// Returns [`EncodeError::Template`], before building anything, if the
/// system does not declare a template as an input of the expected arity.
pub fn install_templates(
    solver: &mut Solver,
    cfg: &Cfg,
    targets: &[Pc],
) -> Result<(), EncodeError> {
    let [init] = formals(solver, "Init")?;
    let [entry_of] = formals(solver, "EntryOf")?;
    let [exit_of] = formals(solver, "ExitOf")?;
    let [target] = formals(solver, "Target")?;
    let [from, to, l, l2, g, g2] = formals(solver, "ProgramInt")?;
    let [call, entry, cl, el, cg] = formals(solver, "ProgramCall")?;
    let [skip_call, skip_ret] = formals(solver, "SkipCall")?;
    let [pe_pc, pe_entry] = formals(solver, "ProcEntry")?;
    let [r1_call, lcall, lret] = formals(solver, "SetReturn1")?;
    let [r2_call, r2_exit, ucl, scl, ucg, scg] = formals(solver, "SetReturn2")?;
    let ng = cfg.globals.len();
    let m = solver.manager();

    // Init(s): `pc` is a Conf's first field, so main's entry with every
    // variable false is that one constant on the whole formal.
    let init = eq_const(m, &init, u64::from(cfg.procs[cfg.main].entry));
    let mut target_set = Bdd::FALSE;
    for &pc in targets {
        let p = eq_const(m, &target, u64::from(pc));
        target_set = m.or(target_set, p);
    }
    let [mut entries, mut exits, mut proc_entry] = [Bdd::FALSE; 3];
    let [mut int, mut calls, mut skips, mut ret1, mut ret2] = [Bdd::FALSE; 5];
    for proc in &cfg.procs {
        let (nl, p_entry) = (proc.n_locals(), u64::from(proc.entry));
        let e = eq_const(m, &entry_of, p_entry);
        entries = m.or(entries, e);
        for exit in &proc.exits {
            let x = eq_const(m, &exit_of, u64::from(exit.pc));
            exits = m.or(exits, x);
        }
        // ProcEntry(p, e): p in the procedure's pc interval, e its entry.
        let below_hi = lt_const(m, &pe_pc, u64::from(proc.pc_range.1));
        let below_lo = lt_const(m, &pe_pc, u64::from(proc.pc_range.0));
        let e = eq_const(m, &pe_entry, p_entry);
        let at_or_above_lo = m.not(below_lo);
        let mut b = m.and(e, below_hi);
        b = m.and(b, at_or_above_lo);
        proc_entry = m.or(proc_entry, b);

        for (&pc, edges) in &proc.edges {
            let pc = u64::from(pc);
            for edge in edges {
                match edge {
                    // ProgramInt(from, to, l, l2, g, g2): the guard, the
                    // assignments, and every other frame variable kept.
                    Edge::Internal { to: next, guard, assigns } => {
                        let mut b = eq_consts(
                            m,
                            &[(&from, pc), (&to, u64::from(*next)), (&l[nl..], 0), (&l2[nl..], 0)],
                        );
                        let gd = can_value(m, guard, &l, &g, true);
                        b = m.and(b, gd);
                        for (tv, expr) in assigns {
                            let a = assign_bit(m, var_of(tv, &l2, &g2), expr, &l, &g);
                            b = m.and(b, a);
                        }
                        let (al, ag) = written(assigns.iter().map(|(tv, _)| tv));
                        let fl = eq_except(m, &l[..nl], &l2[..nl], &al);
                        b = m.and(b, fl);
                        let fg = eq_except(m, &g[..ng], &g2[..ng], &ag);
                        b = m.and(b, fg);
                        int = m.or(int, b);
                    }
                    Edge::Call { callee, args, rets, ret_to } => {
                        let q = &cfg.procs[*callee];
                        // ProgramCall(call, entry, cl, el, g): parameters
                        // from the arguments, the callee's other locals F.
                        let mut b = eq_consts(
                            m,
                            &[
                                (&call, pc),
                                (&entry, u64::from(q.entry)),
                                (&cl[nl..], 0),
                                (&el[args.len()..], 0),
                            ],
                        );
                        for (i, arg) in args.iter().enumerate() {
                            let a = assign_bit(m, el[i], arg, &cl, &cg);
                            b = m.and(b, a);
                        }
                        calls = m.or(calls, b);
                        // SkipCall(call, ret): the `Across` relation.
                        let b = eq_consts(m, &[(&skip_call, pc), (&skip_ret, u64::from(*ret_to))]);
                        skips = m.or(skips, b);
                        // SetReturn1(call, lcall, lret): the caller's locals
                        // kept, except the return-value targets.
                        let (lt, gt) = written(rets);
                        let mut b =
                            eq_consts(m, &[(&r1_call, pc), (&lcall[nl..], 0), (&lret[nl..], 0)]);
                        let keep = eq_except(m, &lcall[..nl], &lret[..nl], &lt);
                        b = m.and(b, keep);
                        ret1 = m.or(ret1, b);
                        // SetReturn2(call, exit, ucl, scl, ucg, scg), per
                        // callee exit: the i-th target receives the i-th
                        // return expression, evaluated in the exit state
                        // (ucl, ucg); globals not written come from it.
                        let keep = eq_except(m, &ucg[..ng], &scg[..ng], &gt);
                        for exit in &q.exits {
                            let mut b = eq_consts(
                                m,
                                &[
                                    (&r2_call, pc),
                                    (&r2_exit, u64::from(exit.pc)),
                                    (&ucl[q.n_locals()..], 0),
                                    (&scl[nl..], 0),
                                ],
                            );
                            for (tv, expr) in rets.iter().zip(&exit.ret_exprs) {
                                let a = assign_bit(m, var_of(tv, &scl, &scg), expr, &ucl, &ucg);
                                b = m.and(b, a);
                            }
                            b = m.and(b, keep);
                            ret2 = m.or(ret2, b);
                        }
                    }
                }
            }
        }
    }

    for (name, rel) in [
        ("Init", init),
        ("EntryOf", entries),
        ("ExitOf", exits),
        ("Target", target_set),
        ("ProgramInt", int),
        ("ProgramCall", calls),
        ("SkipCall", skips),
        ("ProcEntry", proc_entry),
        ("SetReturn1", ret1),
        ("SetReturn2", ret2),
    ] {
        solver.set_input(name, rel)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use getafix_bdd::Manager;
    use getafix_boolprog::parse_program;
    use getafix_mucalc::{System, Type};

    #[test]
    fn can_value_matches_value_set() {
        // Exhaustively compare can_true/can_false against LExpr::value_set
        // over all states for a few expressions.
        let exprs = [
            LExpr::Nondet,
            LExpr::Var(VarRef::Local(0)),
            LExpr::And(Box::new(LExpr::Var(VarRef::Local(0))), Box::new(LExpr::Nondet)),
            LExpr::Or(
                Box::new(LExpr::Not(Box::new(LExpr::Var(VarRef::Global(0))))),
                Box::new(LExpr::Var(VarRef::Local(1))),
            ),
            LExpr::Eq(Box::new(LExpr::Var(VarRef::Local(0))), Box::new(LExpr::Nondet)),
            LExpr::Ne(
                Box::new(LExpr::Var(VarRef::Local(0))),
                Box::new(LExpr::Var(VarRef::Global(0))),
            ),
            LExpr::Schoose(
                Box::new(LExpr::Var(VarRef::Local(0))),
                Box::new(LExpr::Var(VarRef::Global(0))),
            ),
            LExpr::Schoose(Box::new(LExpr::Const(false)), Box::new(LExpr::Const(false))),
        ];
        for e in &exprs {
            let mut m = Manager::new();
            let locals = m.new_vars(2);
            let globals = m.new_vars(1);
            let ct = can_value(&mut m, e, &locals, &globals, true);
            let cf = can_value(&mut m, e, &locals, &globals, false);
            for bits in 0..8u32 {
                let l0 = bits & 1 == 1;
                let l1 = bits & 2 == 2;
                let g0 = bits & 4 == 4;
                let lbits: u64 = (l0 as u64) | ((l1 as u64) << 1);
                let gbits: u64 = g0 as u64;
                let read = |v: VarRef| match v {
                    VarRef::Local(i) => (lbits >> i) & 1 == 1,
                    VarRef::Global(i) => (gbits >> i) & 1 == 1,
                };
                let (want_t, want_f) = e.value_set(&read);
                let env = vec![l0, l1, g0];
                assert_eq!(m.eval(ct, &env), want_t, "{e:?} can_true at {bits:03b}");
                assert_eq!(m.eval(cf, &env), want_f, "{e:?} can_false at {bits:03b}");
            }
        }
    }

    #[test]
    fn assign_bit_is_functional_for_deterministic_exprs() {
        let mut m = Manager::new();
        let locals = m.new_vars(2);
        let globals = m.new_vars(0);
        let target = m.new_var();
        let e = LExpr::And(
            Box::new(LExpr::Var(VarRef::Local(0))),
            Box::new(LExpr::Var(VarRef::Local(1))),
        );
        let rel = assign_bit(&mut m, target, &e, &locals, &globals);
        // Exactly one target value per state.
        for bits in 0..4u32 {
            let l0 = bits & 1 == 1;
            let l1 = bits & 2 == 2;
            let t_true = m.eval(rel, &[l0, l1, true]);
            let t_false = m.eval(rel, &[l0, l1, false]);
            assert_eq!(t_true, l0 && l1);
            assert_eq!(t_false, !(l0 && l1));
        }
    }

    #[test]
    fn eq_except_keeps_the_other_bits() {
        let mut m = Manager::new();
        let a = m.new_vars(3);
        let b = m.new_vars(3);
        let f = eq_except(&mut m, &a, &b, &[1]);
        for bits in 0..64u32 {
            let env: Vec<bool> = (0..6).map(|i| (bits >> i) & 1 == 1).collect();
            let kept = [0, 2].iter().all(|&i| env[i] == env[3 + i]);
            assert_eq!(m.eval(f, &env), kept, "{bits:06b}");
        }
    }

    fn pc_input(b: &mut getafix_mucalc::SystemBuilder, name: &str, arity: usize) {
        let params = (0..arity).map(|i| (format!("p{i}"), Type::named("PC"))).collect();
        b.input(name, params);
    }

    fn encode_error(declare: impl Fn(&mut getafix_mucalc::SystemBuilder)) -> EncodeError {
        let program = parse_program("main() begin HIT: skip; end").unwrap();
        let cfg = Cfg::build(&program).unwrap();
        let mut b = System::builder();
        b.declare_type("PC", Type::Range(cfg.pc_count as u64)).unwrap();
        declare(&mut b);
        let mut solver = Solver::new(b.build().unwrap()).unwrap();
        install_templates(&mut solver, &cfg, &[]).unwrap_err()
    }

    #[test]
    fn a_system_without_the_templates_is_an_error() {
        let err = encode_error(|b| pc_input(b, "Target", 1));
        assert_eq!(err, EncodeError::Template { name: "Init", arity: 1 });
        assert!(err.to_string().contains("`Init`"), "{err}");
    }

    #[test]
    fn a_template_of_the_wrong_arity_is_an_error() {
        let err = encode_error(|b| {
            for name in ["Init", "EntryOf", "ExitOf", "Target"] {
                pc_input(b, name, 1);
            }
            pc_input(b, "ProgramInt", 5);
        });
        assert_eq!(err, EncodeError::Template { name: "ProgramInt", arity: 6 });
        assert!(err.to_string().contains("`ProgramInt`"), "{err}");
    }
}
