//! A hand-coded per-program-point summary worklist engine, standing in for
//! BEBOP (Ball–Rajamani, SPIN 2000).
//!
//! Where the Getafix formulation keeps one monolithic BDD with a *symbolic*
//! program counter, Bebop partitions path edges by explicit program point
//! and drives a worklist: when the set at a point grows, its outgoing edges
//! are reprocessed. Summaries are the sets at exit points; discovering a
//! new exit state resumes every recorded call site. This is the classical
//! RHS functional approach — lazy like the entry-forward algorithm, but
//! implemented as several hundred lines of explicit BDD plumbing instead of
//! a page of formulae.
//!
//! The transfer relations are built from the same block builders as the
//! formula encoder's templates: `can_value`, `assign_bit` and `eq_except`
//! from `getafix_core`, with the `eq_const`, `eq_consts` and `eq_vars` it
//! re-exports from `getafix_mucalc`. Only the builders are shared; the
//! variable blocks, the relations and the worklist algorithm stay
//! hand-coded here.

use getafix_bdd::{Bdd, Manager, Var, VarMap};
use getafix_boolprog::{Cfg, Edge, LExpr, Pc, ProcId, VarRef};
use getafix_core::{assign_bit, can_value, eq_const, eq_consts, eq_except, eq_vars};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors from the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BebopError {
    /// The worklist failed to drain within the step bound.
    Diverged(usize),
}

impl fmt::Display for BebopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BebopError::Diverged(n) => write!(f, "worklist exceeded {n} steps"),
        }
    }
}

impl std::error::Error for BebopError {}

/// Verdict and statistics.
#[derive(Debug, Clone)]
pub struct BebopResult {
    /// Is a target pc reachable?
    pub reachable: bool,
    /// Total DAG nodes across all per-point path-edge BDDs at the end.
    pub set_nodes: usize,
    /// Worklist steps processed.
    pub iterations: usize,
    /// Wall-clock time (encoding + solving).
    pub time: Duration,
}

const MAX_STEPS: usize = 10_000_000;

/// Variable blocks: entry (l0,g0), current (l1,g1), next/callee-exit
/// (l2,g2), post-return (l3,g3), callee-entry scratch (l4,g4).
struct Blocks {
    l: [Vec<Var>; 5],
    g: [Vec<Var>; 5],
}

struct Engine<'a> {
    cfg: &'a Cfg,
    m: Manager,
    b: Blocks,
    /// Path edges per pc, over (l0, g0, l1, g1).
    sets: BTreeMap<Pc, Bdd>,
    /// Call sites waiting on summaries of a procedure.
    callers: BTreeMap<ProcId, BTreeSet<(ProcId, Pc, usize)>>,
    work: VecDeque<Pc>,
    queued: BTreeSet<Pc>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a Cfg) -> Engine<'a> {
        let mut m = Manager::new();
        let l_bits = cfg.max_locals().max(1);
        let g_bits = cfg.globals.len().max(1);
        const COPIES: usize = 5;
        let alloc = |m: &mut Manager, width: usize| -> [Vec<Var>; COPIES] {
            let block = m.new_vars(width * COPIES);
            std::array::from_fn(|c| (0..width).map(|b| block[b * COPIES + c]).collect())
        };
        let l = alloc(&mut m, l_bits);
        let g = alloc(&mut m, g_bits);
        Engine {
            cfg,
            m,
            b: Blocks { l, g },
            sets: BTreeMap::new(),
            callers: BTreeMap::new(),
            work: VecDeque::new(),
            queued: BTreeSet::new(),
        }
    }

    fn set_at(&self, pc: Pc) -> Bdd {
        self.sets.get(&pc).copied().unwrap_or(Bdd::FALSE)
    }

    fn add(&mut self, pc: Pc, states: Bdd) -> bool {
        let old = self.set_at(pc);
        let new = self.m.or(old, states);
        if new == old {
            return false;
        }
        self.sets.insert(pc, new);
        if self.queued.insert(pc) {
            self.work.push_back(pc);
        }
        true
    }

    fn rename(&mut self, f: Bdd, l_moves: &[(usize, usize)], g_moves: &[(usize, usize)]) -> Bdd {
        let mut pairs = Vec::new();
        for &(a, b) in l_moves {
            pairs.extend(self.b.l[a].iter().copied().zip(self.b.l[b].iter().copied()));
        }
        for &(a, b) in g_moves {
            pairs.extend(self.b.g[a].iter().copied().zip(self.b.g[b].iter().copied()));
        }
        let map = VarMap::new(pairs);
        self.m.rename(f, &map)
    }

    fn cube(&mut self, ls: &[usize], gs: &[usize]) -> Bdd {
        let mut vars = Vec::new();
        for &i in ls {
            vars.extend(self.b.l[i].iter().copied());
        }
        for &i in gs {
            vars.extend(self.b.g[i].iter().copied());
        }
        self.m.cube(&vars)
    }

    /// Parameter passing over (l1, g1): the callee's entry locals in block
    /// `l[to]` take the arguments, and its other locals are F.
    fn args_rel(&mut self, args: &[LExpr], to: usize) -> Bdd {
        let (l1, g1, el) = (&self.b.l[1], &self.b.g[1], &self.b.l[to]);
        let m = &mut self.m;
        let mut rel = eq_const(m, &el[args.len()..], 0);
        for (i, a) in args.iter().enumerate() {
            let ab = assign_bit(m, el[i], a, l1, g1);
            rel = m.and(rel, ab);
        }
        rel
    }

    /// Transfer relation of an internal edge over (l1,g1) → (l2,g2).
    fn internal_transfer(
        &mut self,
        proc: &getafix_boolprog::ProcCfg,
        guard: &LExpr,
        assigns: &[(VarRef, LExpr)],
    ) -> Bdd {
        let (l1, g1, l2, g2) = (&self.b.l[1], &self.b.g[1], &self.b.l[2], &self.b.g[2]);
        let m = &mut self.m;
        let mut t = can_value(m, guard, l1, g1, true);
        let mut al = Vec::new();
        let mut ag = Vec::new();
        for (tv, ex) in assigns {
            let tvar = match tv {
                VarRef::Local(i) => {
                    al.push(*i);
                    l2[*i]
                }
                VarRef::Global(i) => {
                    ag.push(*i);
                    g2[*i]
                }
            };
            let a = assign_bit(m, tvar, ex, l1, g1);
            t = m.and(t, a);
        }
        let nl = proc.n_locals();
        let ng = self.cfg.globals.len();
        let fl = eq_except(m, &l1[..nl], &l2[..nl], &al);
        t = m.and(t, fl);
        let fg = eq_except(m, &g1[..ng], &g2[..ng], &ag);
        t = m.and(t, fg);
        let tails = eq_consts(m, &[(&l1[nl..], 0), (&l2[nl..], 0)]);
        m.and(t, tails)
    }

    fn process(&mut self, pc: Pc) -> Result<(), BebopError> {
        let proc = self.cfg.proc_of(pc).clone();
        let states = self.set_at(pc);
        if states.is_false() {
            return Ok(());
        }

        // Exit point: resume recorded callers.
        if proc.is_exit(pc) {
            let waiting: Vec<(ProcId, Pc, usize)> =
                self.callers.get(&proc.id).map(|s| s.iter().copied().collect()).unwrap_or_default();
            for (caller_proc, call_pc, edge_idx) in waiting {
                self.apply_return(caller_proc, call_pc, edge_idx, proc.id, pc)?;
            }
        }

        let edges = proc.edges.get(&pc).cloned().unwrap_or_default();
        for (edge_idx, edge) in edges.iter().enumerate() {
            match edge {
                Edge::Internal { to, guard, assigns } => {
                    let t = self.internal_transfer(&proc, guard, assigns);
                    let cube = self.cube(&[1], &[1]);
                    let img = self.m.and_exists(states, t, cube);
                    let moved = self.rename(img, &[(2, 1)], &[(2, 1)]);
                    self.add(*to, moved);
                }
                Edge::Call { callee, args, .. } => {
                    // Seed the callee entry.
                    let q = self.cfg.procs[*callee].clone();
                    let argrel = self.args_rel(args, 2);
                    let cube = self.cube(&[0, 1], &[0]);
                    let entry_half = self.m.and_exists(states, argrel, cube);
                    // entry_half over (g1, l2): build (l0,g0,l1,g1) with
                    // l1 := l2, l0 = l1, g0 = g1.
                    let moved = self.rename(entry_half, &[(2, 1)], &[]);
                    let el = eq_vars(&mut self.m, &self.b.l[0], &self.b.l[1]);
                    let eg = eq_vars(&mut self.m, &self.b.g[0], &self.b.g[1]);
                    let mut seed = self.m.and(moved, el);
                    seed = self.m.and(seed, eg);
                    self.add(q.entry, seed);
                    // Record the call site and apply existing summaries.
                    self.callers.entry(*callee).or_default().insert((proc.id, pc, edge_idx));
                    let exits: Vec<Pc> = q.exits.iter().map(|e| e.pc).collect();
                    for x in exits {
                        self.apply_return(proc.id, pc, edge_idx, *callee, x)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Composes the caller set at `call_pc` with the callee summary at exit
    /// `exit_pc`; adds the result at the return site.
    fn apply_return(
        &mut self,
        caller_proc: ProcId,
        call_pc: Pc,
        edge_idx: usize,
        callee: ProcId,
        exit_pc: Pc,
    ) -> Result<bool, BebopError> {
        let caller_states = self.set_at(call_pc);
        let summary = self.set_at(exit_pc);
        if caller_states.is_false() || summary.is_false() {
            return Ok(false);
        }
        let cp = self.cfg.procs[caller_proc].clone();
        let q = self.cfg.procs[callee].clone();
        let Edge::Call { args, rets, ret_to, .. } = cp.edges[&call_pc][edge_idx].clone() else {
            return Ok(false);
        };
        let exit = q.exits.iter().find(|e| e.pc == exit_pc).expect("exit point").clone();

        // Callee summary: entry (l0,g0) → (l4,g4); exit (l1,g1) → (l2,g2).
        let callee_sum = self.rename(summary, &[(0, 4), (1, 2)], &[(0, 4), (1, 2)]);
        // Link: callee entry globals g4 = caller g1; entry locals l4 = args.
        let link_g = eq_vars(&mut self.m, &self.b.g[4], &self.b.g[1]);
        let argrel = self.args_rel(&args, 4);
        // Return transfer: post state (l3, g3) from exit (l2, g2) and
        // caller locals l1.
        let (l1, l2, g2) = (&self.b.l[1], &self.b.l[2], &self.b.g[2]);
        let (l3, g3) = (&self.b.l[3], &self.b.g[3]);
        let (nl, ng) = (cp.n_locals(), self.cfg.globals.len());
        let m = &mut self.m;
        let mut retrel = eq_const(m, &l3[nl..], 0);
        let mut al = Vec::new();
        let mut ag = Vec::new();
        for (tv, ex) in rets.iter().zip(&exit.ret_exprs) {
            let tvar = match tv {
                VarRef::Local(i) => {
                    al.push(*i);
                    l3[*i]
                }
                VarRef::Global(i) => {
                    ag.push(*i);
                    g3[*i]
                }
            };
            let ab = assign_bit(m, tvar, ex, l2, g2);
            retrel = m.and(retrel, ab);
        }
        let keep_l = eq_except(m, &l1[..nl], &l3[..nl], &al);
        retrel = m.and(retrel, keep_l);
        let keep_g = eq_except(m, &g2[..ng], &g3[..ng], &ag);
        retrel = m.and(retrel, keep_g);

        let mut conj = self.m.and(caller_states, callee_sum);
        conj = self.m.and(conj, link_g);
        conj = self.m.and(conj, argrel);
        conj = self.m.and(conj, retrel);
        let cube = self.cube(&[1, 2, 4], &[1, 2, 4]);
        let projected = self.m.exists(conj, cube);
        let moved = self.rename(projected, &[(3, 1)], &[(3, 1)]);
        Ok(self.add(ret_to, moved))
    }
}

/// Runs the worklist engine; reachability of any pc in `targets`.
///
/// # Errors
///
/// Returns [`BebopError::Diverged`] if the worklist exceeds the step bound.
pub fn bebop_reachable(cfg: &Cfg, targets: &[Pc]) -> Result<BebopResult, BebopError> {
    let t0 = Instant::now();
    let mut e = Engine::new(cfg);
    let target_set: BTreeSet<Pc> = targets.iter().copied().collect();

    // Seed: main entry, everything false, entry = current.
    let main = &cfg.procs[cfg.main];
    let seed =
        eq_consts(&mut e.m, &[(&e.b.l[0], 0), (&e.b.l[1], 0), (&e.b.g[0], 0), (&e.b.g[1], 0)]);
    e.add(main.entry, seed);

    let mut steps = 0usize;
    while let Some(pc) = e.work.pop_front() {
        e.queued.remove(&pc);
        steps += 1;
        if steps > MAX_STEPS {
            return Err(BebopError::Diverged(MAX_STEPS));
        }
        // Early exit: target discovered.
        if target_set.iter().any(|t| !e.set_at(*t).is_false()) {
            break;
        }
        e.process(pc)?;
    }

    let reachable = target_set.iter().any(|t| !e.set_at(*t).is_false());
    let set_nodes = e.sets.values().map(|&b| e.m.node_count(b)).sum();
    Ok(BebopResult { reachable, set_nodes, iterations: steps, time: t0.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use getafix_boolprog::{explicit_reachable, parse_program};

    fn agree(src: &str, label: &str) {
        let cfg = Cfg::build(&parse_program(src).unwrap()).unwrap();
        let pc = cfg.label(label).unwrap();
        let oracle = explicit_reachable(&cfg, &[pc], 5_000_000).unwrap().reachable;
        let got = bebop_reachable(&cfg, &[pc]).unwrap();
        assert_eq!(got.reachable, oracle, "bebop vs oracle\n{src}");
    }

    #[test]
    fn basics() {
        agree(
            r#"
            decl g;
            main() begin
              g := T;
              if (g) then HIT: skip; fi;
            end
            "#,
            "HIT",
        );
        agree(
            r#"
            decl g;
            main() begin
              g := F;
              if (g) then HIT: skip; fi;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn call_chain() {
        agree(
            r#"
            decl g;
            main() begin
              decl x;
              x := f(T);
              if (x) then HIT: skip; fi;
            end
            f(a) returns 1 begin
              decl y;
              y := h(a);
              return y;
            end
            h(b) returns 1 begin
              return !b;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn recursion() {
        agree(
            r#"
            decl g;
            main() begin
              call rec();
              if (g) then HIT: skip; fi;
            end
            rec() begin
              if (*) then
                g := !g;
                call rec();
              fi;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn summary_applied_to_later_callers() {
        agree(
            r#"
            decl g;
            main() begin
              decl x, y;
              x := f(F);
              y := f(T);
              if (x & y) then HIT: skip; fi;
            end
            f(a) returns 1 begin
              return a | g;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn unreachable_proc_not_summarized() {
        agree(
            r#"
            decl g;
            main() begin
              g := F;
              if (g) then HIT: skip; fi;
            end
            never() begin
              g := T;
            end
            "#,
            "HIT",
        );
    }
}
