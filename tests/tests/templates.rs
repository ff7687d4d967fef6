//! Template equality: the encoder must build every §4 template as the same
//! function as the reference construction below, so that the fixed-point
//! formulae see the same relations however the encoder is written.
//!
//! The reference is the straightforward construction, one template at a
//! time, with its own `and`-chain builders (`eq_const`, `eq_except`,
//! `zero_above`, `assign_bit`). It shares only `can_value` with the
//! encoder, which the explicit differential suites check on their own.
//! Both constructions build into the solver's manager, so equal functions
//! are equal handles.

use getafix_boolprog::{parse_concurrent, parse_program, Cfg, Edge, LExpr, Pc, Program, VarRef};
use getafix_conc::{build_conc_solver, merge};
use getafix_core::{build_solver, can_value, Algorithm};
use getafix_mucalc::{Bdd, Instance, Manager, Solver, Var};
use getafix_workloads::{
    bluetooth, regression_suite, slam_suites, terminator_suite, FIGURE3_CONFIGS,
};

/// The systems each sequential program is encoded under.
const SYSTEMS: [Algorithm; 3] =
    [Algorithm::SummarySimple, Algorithm::EntryForward, Algorithm::EntryForwardOpt];

/// Asserts that the solver's installed interpretation of each template
/// equals the reference's.
fn assert_same(solver: &mut Solver, reference: Vec<(&'static str, Bdd)>, case: &str) {
    for (name, want) in reference {
        let got = solver.evaluate(name).unwrap_or_else(|e| panic!("{case}: {name}: {e}"));
        assert!(got == want, "{case}: template {name} differs from the reference construction");
    }
}

/// Every label of `cfg`, as targets.
fn all_labels(cfg: &Cfg) -> Vec<Pc> {
    cfg.labels.values().copied().collect()
}

fn check_sequential(case: &str, program: &Program, targets: impl Fn(&Cfg) -> Vec<Pc>) {
    let cfg = Cfg::build(program).unwrap_or_else(|e| panic!("{case}: {e}"));
    let targets = targets(&cfg);
    for algo in SYSTEMS {
        let mut solver = build_solver(&cfg, &targets, algo).unwrap();
        let reference = reference_templates(&mut solver, &cfg, &targets);
        assert_same(&mut solver, reference, &format!("{case} ({algo})"));
    }
}

#[test]
fn examples_match_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "bp") {
            let program = parse_program(&std::fs::read_to_string(&path).unwrap()).unwrap();
            check_sequential(&path.display().to_string(), &program, all_labels);
            seen += 1;
        }
    }
    assert!(seen >= 4, "expected the shipped .bp examples, found {seen}");
}

#[test]
fn workload_suites_match_the_reference() {
    let label_of = |label: &str| {
        let label = label.to_string();
        move |cfg: &Cfg| vec![cfg.label(&label).unwrap()]
    };
    for (_, cases) in slam_suites(1) {
        for c in cases {
            check_sequential(&c.name, &c.program, label_of(&c.label));
        }
    }
    for c in terminator_suite(5) {
        check_sequential(&c.name, &c.program, label_of(&c.label));
    }
    let (pos, neg) = regression_suite();
    for c in pos.iter().chain(&neg) {
        check_sequential(&c.name, &c.program, label_of(&c.label));
    }
}

#[test]
fn concurrent_programs_match_the_reference() {
    let handshake = include_str!("../../examples/handshake.cbp");
    let mut programs = vec![("handshake".to_string(), parse_concurrent(handshake).unwrap())];
    for &(name, adders, stoppers) in &FIGURE3_CONFIGS {
        programs.push((name.to_string(), bluetooth(adders, stoppers)));
    }
    for (name, conc) in &programs {
        let merged = merge(conc).unwrap();
        let targets = all_labels(&merged.cfg);
        for k in 1..=3 {
            let mut solver = build_conc_solver(&merged, &targets, k).unwrap();
            let mut reference = reference_templates(&mut solver, &merged.cfg, &targets);
            reference.push(("InitConf", reference_init_conf(&mut solver, &merged.thread_entries)));
            assert_same(&mut solver, reference, &format!("{name} (k = {k})"));
        }
    }
}

// --- The reference construction. ---------------------------------------

/// The variable blocks of one relation formal of `Conf` type.
struct ConfVars {
    pc: Vec<Var>,
    cl: Vec<Var>,
    cg: Vec<Var>,
    ecl: Vec<Var>,
    ecg: Vec<Var>,
}

fn conf_vars(inst: &Instance) -> ConfVars {
    let leaf = |name: &str| -> Vec<Var> {
        inst.leaves_under(&[name.to_string()])
            .first()
            .unwrap_or_else(|| panic!("Conf field `{name}` missing"))
            .vars
            .clone()
    };
    ConfVars { pc: leaf("pc"), cl: leaf("cl"), cg: leaf("cg"), ecl: leaf("ecl"), ecg: leaf("ecg") }
}

fn scalar_vars(inst: &Instance) -> Vec<Var> {
    inst.all_vars()
}

/// Bit `i` of the constant `c`; a block wider than 64 variables reads 0
/// past bit 63.
fn const_bit(c: u64, i: usize) -> bool {
    i < 64 && (c >> i) & 1 == 1
}

/// The constant `value` on `bits` (LSB first), one `and` per bit.
fn eq_const(m: &mut Manager, bits: &[Var], value: u64) -> Bdd {
    let mut acc = Bdd::TRUE;
    for (i, &v) in bits.iter().enumerate() {
        let lit = m.literal(v, const_bit(value, i));
        acc = m.and(acc, lit);
    }
    acc
}

/// The relation `target := e(state)` for a single target bit.
fn assign_bit(m: &mut Manager, target: Var, e: &LExpr, locals: &[Var], globals: &[Var]) -> Bdd {
    let ct = can_value(m, e, locals, globals, true);
    let cf = can_value(m, e, locals, globals, false);
    let t = m.var(target);
    m.ite(t, ct, cf)
}

/// Equality of two equal-length variable blocks, skipping indices in `except`.
fn eq_except(m: &mut Manager, a: &[Var], b: &[Var], except: &[usize]) -> Bdd {
    let mut acc = Bdd::TRUE;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        if except.contains(&i) {
            continue;
        }
        let fx = m.var(x);
        let fy = m.var(y);
        let eq = m.iff(fx, fy);
        acc = m.and(acc, eq);
    }
    acc
}

/// Constrains the bits of `vars` at positions `width..` to `false`.
fn zero_above(m: &mut Manager, vars: &[Var], width: usize) -> Bdd {
    let mut acc = Bdd::TRUE;
    for &v in vars.iter().skip(width) {
        let nv = m.nvar(v);
        acc = m.and(acc, nv);
    }
    acc
}

/// `InitConf(t, s)`: thread `t`'s main entry, all-false locals, entry
/// halves mirroring the current halves, globals free.
fn reference_init_conf(solver: &mut Solver, thread_entries: &[Pc]) -> Bdd {
    let t_inst = solver.alloc().formal("InitConf", 0).clone();
    let s_inst = solver.alloc().formal("InitConf", 1).clone();
    let t_vars = t_inst.all_vars();
    let leaf = |name: &str| s_inst.leaves_under(&[name.to_string()])[0].vars.clone();
    let (pc_v, cl_v, cg_v, ecl_v, ecg_v) =
        (leaf("pc"), leaf("cl"), leaf("cg"), leaf("ecl"), leaf("ecg"));
    let m = solver.manager();
    let mut rel = Bdd::FALSE;
    for (i, &entry) in thread_entries.iter().enumerate() {
        let mut b = eq_const(m, &t_vars, i as u64);
        let p = eq_const(m, &pc_v, entry as u64);
        b = m.and(b, p);
        let zl = eq_const(m, &cl_v, 0);
        b = m.and(b, zl);
        let zel = eq_const(m, &ecl_v, 0);
        b = m.and(b, zel);
        // ecg mirrors cg.
        for (&a, &c) in ecg_v.iter().zip(&cg_v) {
            let fa = m.var(a);
            let fc = m.var(c);
            let eqb = m.iff(fa, fc);
            b = m.and(b, eqb);
        }
        rel = m.or(rel, b);
    }
    rel
}

/// Every template of `cfg`, built one template at a time over the
/// solver's formals.
fn reference_templates(solver: &mut Solver, cfg: &Cfg, targets: &[Pc]) -> Vec<(&'static str, Bdd)> {
    let mut out = Vec::new();
    let n_globals = cfg.globals.len();

    // --- Init(s: Conf): the single all-false configuration at main entry.
    {
        let s = solver.alloc().formal("Init", 0).clone();
        let v = conf_vars(&s);
        let m = solver.manager();
        let main_entry = cfg.procs[cfg.main].entry as u64;
        let mut b = eq_const(m, &v.pc, main_entry);
        for blk in [&v.cl, &v.cg, &v.ecl, &v.ecg] {
            let z = eq_const(m, blk, 0);
            b = m.and(b, z);
        }
        out.push(("Init", b));
    }

    // --- EntryOf(p), ExitOf(p), Target(p): pc point sets.
    let point_set = |solver: &mut Solver, rel: &str, pcs: &[Pc]| -> Bdd {
        let inst = solver.alloc().formal(rel, 0).clone();
        let vars = scalar_vars(&inst);
        let m = solver.manager();
        let mut b = Bdd::FALSE;
        for &pc in pcs {
            let p = eq_const(m, &vars, pc as u64);
            b = m.or(b, p);
        }
        b
    };
    let entries: Vec<Pc> = cfg.procs.iter().map(|p| p.entry).collect();
    let exits: Vec<Pc> = cfg.procs.iter().flat_map(|p| p.exits.iter().map(|e| e.pc)).collect();
    out.push(("EntryOf", point_set(solver, "EntryOf", &entries)));
    out.push(("ExitOf", point_set(solver, "ExitOf", &exits)));
    out.push(("Target", point_set(solver, "Target", targets)));

    // --- ProgramInt(from, to, l, l2, g, g2).
    {
        let from_i = solver.alloc().formal("ProgramInt", 0).clone();
        let to_i = solver.alloc().formal("ProgramInt", 1).clone();
        let l_i = solver.alloc().formal("ProgramInt", 2).clone();
        let l2_i = solver.alloc().formal("ProgramInt", 3).clone();
        let g_i = solver.alloc().formal("ProgramInt", 4).clone();
        let g2_i = solver.alloc().formal("ProgramInt", 5).clone();
        let (from_v, to_v) = (scalar_vars(&from_i), scalar_vars(&to_i));
        let (l_v, l2_v) = (scalar_vars(&l_i), scalar_vars(&l2_i));
        let (g_v, g2_v) = (scalar_vars(&g_i), scalar_vars(&g2_i));
        let m = solver.manager();
        let mut rel = Bdd::FALSE;
        for proc in &cfg.procs {
            let nl = proc.n_locals();
            let frame = {
                let a = zero_above(m, &l_v, nl);
                let b = zero_above(m, &l2_v, nl);
                m.and(a, b)
            };
            for (&pc, edges) in &proc.edges {
                for e in edges {
                    let Edge::Internal { to, guard, assigns } = e else { continue };
                    let mut b = eq_const(m, &from_v, pc as u64);
                    let tob = eq_const(m, &to_v, *to as u64);
                    b = m.and(b, tob);
                    let gd = can_value(m, guard, &l_v, &g_v, true);
                    b = m.and(b, gd);
                    let mut assigned_locals = Vec::new();
                    let mut assigned_globals = Vec::new();
                    for (tv, expr) in assigns {
                        let target = match tv {
                            VarRef::Local(i) => {
                                assigned_locals.push(*i);
                                l2_v[*i]
                            }
                            VarRef::Global(i) => {
                                assigned_globals.push(*i);
                                g2_v[*i]
                            }
                        };
                        let a = assign_bit(m, target, expr, &l_v, &g_v);
                        b = m.and(b, a);
                    }
                    // Frame: unassigned variables keep their values.
                    let fl = eq_except(m, &l_v[..nl], &l2_v[..nl], &assigned_locals);
                    b = m.and(b, fl);
                    let fg = eq_except(m, &g_v[..n_globals], &g2_v[..n_globals], &assigned_globals);
                    b = m.and(b, fg);
                    b = m.and(b, frame);
                    rel = m.or(rel, b);
                }
            }
        }
        out.push(("ProgramInt", rel));
    }

    // --- ProgramCall(call, entry, cl, el, g): parameter passing.
    {
        let call_i = solver.alloc().formal("ProgramCall", 0).clone();
        let entry_i = solver.alloc().formal("ProgramCall", 1).clone();
        let cl_i = solver.alloc().formal("ProgramCall", 2).clone();
        let el_i = solver.alloc().formal("ProgramCall", 3).clone();
        let g_i = solver.alloc().formal("ProgramCall", 4).clone();
        let call_v = scalar_vars(&call_i);
        let entry_v = scalar_vars(&entry_i);
        let cl_v = scalar_vars(&cl_i);
        let el_v = scalar_vars(&el_i);
        let g_v = scalar_vars(&g_i);
        let m = solver.manager();
        let mut rel = Bdd::FALSE;
        for proc in &cfg.procs {
            let caller_frame = zero_above(m, &cl_v, proc.n_locals());
            for (&pc, edges) in &proc.edges {
                for e in edges {
                    let Edge::Call { callee, args, .. } = e else { continue };
                    let q = &cfg.procs[*callee];
                    let mut b = eq_const(m, &call_v, pc as u64);
                    let eb = eq_const(m, &entry_v, q.entry as u64);
                    b = m.and(b, eb);
                    // Parameters from arguments; remaining callee locals F.
                    for (i, arg) in args.iter().enumerate() {
                        let a = assign_bit(m, el_v[i], arg, &cl_v, &g_v);
                        b = m.and(b, a);
                    }
                    let rest = zero_above(m, &el_v, args.len());
                    b = m.and(b, rest);
                    b = m.and(b, caller_frame);
                    rel = m.or(rel, b);
                }
            }
        }
        out.push(("ProgramCall", rel));
    }

    // --- SkipCall(call, ret): the `Across` relation.
    {
        let call_i = solver.alloc().formal("SkipCall", 0).clone();
        let ret_i = solver.alloc().formal("SkipCall", 1).clone();
        let call_v = scalar_vars(&call_i);
        let ret_v = scalar_vars(&ret_i);
        let m = solver.manager();
        let mut rel = Bdd::FALSE;
        for proc in &cfg.procs {
            for (&pc, edges) in &proc.edges {
                for e in edges {
                    let Edge::Call { ret_to, .. } = e else { continue };
                    let a = eq_const(m, &call_v, pc as u64);
                    let b = eq_const(m, &ret_v, *ret_to as u64);
                    let both = m.and(a, b);
                    rel = m.or(rel, both);
                }
            }
        }
        out.push(("SkipCall", rel));
    }

    // --- ProcEntry(p, e): every pc maps to the entry pc of its procedure.
    {
        let p_i = solver.alloc().formal("ProcEntry", 0).clone();
        let e_i = solver.alloc().formal("ProcEntry", 1).clone();
        let p_v = scalar_vars(&p_i);
        let e_v = scalar_vars(&e_i);
        let m = solver.manager();
        let mut rel = Bdd::FALSE;
        for proc in &cfg.procs {
            let entry = eq_const(m, &e_v, proc.entry as u64);
            for pc in proc.pc_range.0..proc.pc_range.1 {
                let a = eq_const(m, &p_v, pc as u64);
                let both = m.and(a, entry);
                rel = m.or(rel, both);
            }
        }
        out.push(("ProcEntry", rel));
    }

    // --- SetReturn1(call, lcall, lret): caller locals preserved except
    //     return-value targets.
    {
        let call_i = solver.alloc().formal("SetReturn1", 0).clone();
        let lc_i = solver.alloc().formal("SetReturn1", 1).clone();
        let lr_i = solver.alloc().formal("SetReturn1", 2).clone();
        let call_v = scalar_vars(&call_i);
        let lc_v = scalar_vars(&lc_i);
        let lr_v = scalar_vars(&lr_i);
        let m = solver.manager();
        let mut rel = Bdd::FALSE;
        for proc in &cfg.procs {
            let nl = proc.n_locals();
            for (&pc, edges) in &proc.edges {
                for e in edges {
                    let Edge::Call { rets, .. } = e else { continue };
                    let local_targets: Vec<usize> = rets
                        .iter()
                        .filter_map(|r| match r {
                            VarRef::Local(i) => Some(*i),
                            VarRef::Global(_) => None,
                        })
                        .collect();
                    let mut b = eq_const(m, &call_v, pc as u64);
                    let keep = eq_except(m, &lc_v[..nl], &lr_v[..nl], &local_targets);
                    b = m.and(b, keep);
                    let fa = zero_above(m, &lc_v, nl);
                    let fb = zero_above(m, &lr_v, nl);
                    b = m.and(b, fa);
                    b = m.and(b, fb);
                    rel = m.or(rel, b);
                }
            }
        }
        out.push(("SetReturn1", rel));
    }

    // --- SetReturn2(call, exit, ucl, scl, ucg, scg): return-value transfer.
    //     Pairs each call site with the exit points of its callee, ties the
    //     exit state (ucl, ucg) to the post-return state (scl, scg).
    {
        let call_i = solver.alloc().formal("SetReturn2", 0).clone();
        let exit_i = solver.alloc().formal("SetReturn2", 1).clone();
        let ucl_i = solver.alloc().formal("SetReturn2", 2).clone();
        let scl_i = solver.alloc().formal("SetReturn2", 3).clone();
        let ucg_i = solver.alloc().formal("SetReturn2", 4).clone();
        let scg_i = solver.alloc().formal("SetReturn2", 5).clone();
        let call_v = scalar_vars(&call_i);
        let exit_v = scalar_vars(&exit_i);
        let ucl_v = scalar_vars(&ucl_i);
        let scl_v = scalar_vars(&scl_i);
        let ucg_v = scalar_vars(&ucg_i);
        let scg_v = scalar_vars(&scg_i);
        let m = solver.manager();
        let mut rel = Bdd::FALSE;
        for proc in &cfg.procs {
            for (&pc, edges) in &proc.edges {
                for e in edges {
                    let Edge::Call { callee, rets, .. } = e else { continue };
                    let q = &cfg.procs[*callee];
                    let global_targets: Vec<usize> = rets
                        .iter()
                        .filter_map(|r| match r {
                            VarRef::Global(i) => Some(*i),
                            VarRef::Local(_) => None,
                        })
                        .collect();
                    for exit in &q.exits {
                        let mut b = eq_const(m, &call_v, pc as u64);
                        let eb = eq_const(m, &exit_v, exit.pc as u64);
                        b = m.and(b, eb);
                        // Return values: i-th target receives i-th expr,
                        // evaluated in the exit state (ucl, ucg).
                        for (target, expr) in rets.iter().zip(&exit.ret_exprs) {
                            let tv = match target {
                                VarRef::Local(i) => scl_v[*i],
                                VarRef::Global(i) => scg_v[*i],
                            };
                            let a = assign_bit(m, tv, expr, &ucl_v, &ucg_v);
                            b = m.and(b, a);
                        }
                        // Globals not overwritten come from the exit state.
                        let keep =
                            eq_except(m, &ucg_v[..n_globals], &scg_v[..n_globals], &global_targets);
                        b = m.and(b, keep);
                        // Frames: exit locals within the callee's width.
                        let fu = zero_above(m, &ucl_v, q.n_locals());
                        b = m.and(b, fu);
                        let fs = zero_above(m, &scl_v, proc.n_locals());
                        b = m.and(b, fs);
                        rel = m.or(rel, b);
                    }
                }
            }
        }
        out.push(("SetReturn2", rel));
    }

    out
}
