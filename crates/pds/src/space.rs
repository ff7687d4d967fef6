//! The hand-rolled variable space and transfer relations for the PDS
//! baselines.
//!
//! Blocks (all interleaved bit-by-bit per kind so equalities and renames
//! stay linear):
//!
//! * `pc[0..4]` — program-counter copies,
//! * `l[0..4]`  — local-frame copies,
//! * `g[0..4]`  — global copies.
//!
//! A *summary element* lives over `(l[0], g[0], pc[1], l[1], g[1])`:
//! entry valuations (the entry pc is implied by `pc[1]`'s procedure) and
//! current state — the same shape as the paper's `Conf`.

use getafix_bdd::{Bdd, Manager, Var, VarMap};
use getafix_boolprog::{Cfg, Edge, Pc, VarRef};
use getafix_core::{assign_bit, can_value, eq_const, eq_consts, eq_except, eq_vars, lt_const};

/// Number of copies of each block kind.
pub const COPIES: usize = 5;

/// The allocated variable space plus the program's transfer relations.
pub struct Space {
    /// Node manager.
    pub m: Manager,
    /// `pc[i]` blocks, LSB first.
    pub pc: [Vec<Var>; COPIES],
    /// `l[i]` blocks.
    pub l: [Vec<Var>; COPIES],
    /// `g[i]` blocks.
    pub g: [Vec<Var>; COPIES],
    /// Internal transitions over `(pc1, l1, g1) → (pc2, l2, g2)`.
    pub int_rel: Bdd,
    /// Calls: `(pc1 = call site, l1, g1)` to callee entry locals in `l2`
    /// and entry pc in `pc2`.
    pub call_rel: Bdd,
    /// Call-site skip: `(pc1 = call, pc2 = return-to)`.
    pub skip_rel: Bdd,
    /// Return transfer: callee exit `(pc2 = exit, l2, g2)` with caller at
    /// call site `(pc1, l1)` yields post-return `(l3, g3)`.
    pub ret_rel: Bdd,
    /// pc → its procedure's entry pc, over `(pc1, pc2)`.
    pub proc_entry: Bdd,
    /// Target pcs over `pc1`.
    pub targets: Bdd,
    /// Initial configuration over `(pc1, l1, g1)`.
    pub init: Bdd,
}

impl Space {
    /// Allocates the blocks and builds every transfer relation for `cfg`.
    pub fn build(cfg: &Cfg, target_pcs: &[Pc]) -> Space {
        let mut m = Manager::new();
        let pc_bits = 64 - (cfg.pc_count.max(2) as u64 - 1).leading_zeros() as usize;
        let l_bits = cfg.max_locals().max(1);
        let g_bits = cfg.globals.len().max(1);

        // Interleaved allocation per kind.
        let alloc = |m: &mut Manager, width: usize| -> [Vec<Var>; COPIES] {
            let block = m.new_vars(width * COPIES);
            std::array::from_fn(|c| (0..width).map(|b| block[b * COPIES + c]).collect())
        };
        let pc = alloc(&mut m, pc_bits);
        let l = alloc(&mut m, l_bits);
        let g = alloc(&mut m, g_bits);

        let ng = cfg.globals.len();
        let [mut int_rel, mut call_rel, mut skip_rel, mut ret_rel, mut proc_entry] =
            [Bdd::FALSE; 5];
        for proc in &cfg.procs {
            let nl = proc.n_locals();
            // pc → proc entry: the procedure's pc interval.
            let below_hi = lt_const(&mut m, &pc[1], u64::from(proc.pc_range.1));
            let below_lo = lt_const(&mut m, &pc[1], u64::from(proc.pc_range.0));
            let at_or_above_lo = m.not(below_lo);
            let mut b = eq_const(&mut m, &pc[2], u64::from(proc.entry));
            b = m.and(b, below_hi);
            b = m.and(b, at_or_above_lo);
            proc_entry = m.or(proc_entry, b);
            for (&from, edges) in &proc.edges {
                let from = u64::from(from);
                for e in edges {
                    match e {
                        Edge::Internal { to, guard, assigns } => {
                            let mut b = eq_consts(
                                &mut m,
                                &[
                                    (&pc[1], from),
                                    (&pc[2], u64::from(*to)),
                                    (&l[1][nl..], 0),
                                    (&l[2][nl..], 0),
                                ],
                            );
                            let gd = can_value(&mut m, guard, &l[1], &g[1], true);
                            b = m.and(b, gd);
                            let mut al = Vec::new();
                            let mut ag = Vec::new();
                            for (tv, ex) in assigns {
                                let tvar = match tv {
                                    VarRef::Local(i) => {
                                        al.push(*i);
                                        l[2][*i]
                                    }
                                    VarRef::Global(i) => {
                                        ag.push(*i);
                                        g[2][*i]
                                    }
                                };
                                let a = assign_bit(&mut m, tvar, ex, &l[1], &g[1]);
                                b = m.and(b, a);
                            }
                            let fl = eq_except(&mut m, &l[1][..nl], &l[2][..nl], &al);
                            b = m.and(b, fl);
                            let fg = eq_except(&mut m, &g[1][..ng], &g[2][..ng], &ag);
                            b = m.and(b, fg);
                            int_rel = m.or(int_rel, b);
                        }
                        Edge::Call { callee, args, rets, ret_to } => {
                            let q = &cfg.procs[*callee];
                            let mut b = eq_consts(
                                &mut m,
                                &[
                                    (&pc[1], from),
                                    (&pc[2], u64::from(q.entry)),
                                    (&l[1][nl..], 0),
                                    (&l[2][args.len()..], 0),
                                ],
                            );
                            for (i, arg) in args.iter().enumerate() {
                                let a = assign_bit(&mut m, l[2][i], arg, &l[1], &g[1]);
                                b = m.and(b, a);
                            }
                            call_rel = m.or(call_rel, b);
                            let b =
                                eq_consts(&mut m, &[(&pc[1], from), (&pc[2], u64::from(*ret_to))]);
                            skip_rel = m.or(skip_rel, b);
                            // ret_rel: caller (pc1 = call, l1) + callee exit
                            // (pc2, l2, g2) → post-return (l3, g3).
                            let (mut lt, mut gt) = (Vec::new(), Vec::new());
                            for r in rets {
                                match *r {
                                    VarRef::Local(i) => lt.push(i),
                                    VarRef::Global(i) => gt.push(i),
                                }
                            }
                            let mut keep = eq_except(&mut m, &l[1][..nl], &l[3][..nl], &lt);
                            let keep_g = eq_except(&mut m, &g[2][..ng], &g[3][..ng], &gt);
                            keep = m.and(keep, keep_g);
                            for exit in &q.exits {
                                let mut b = eq_consts(
                                    &mut m,
                                    &[
                                        (&pc[1], from),
                                        (&pc[2], u64::from(exit.pc)),
                                        (&l[1][nl..], 0),
                                        (&l[2][q.n_locals()..], 0),
                                        (&l[3][nl..], 0),
                                    ],
                                );
                                for (tv, ex) in rets.iter().zip(&exit.ret_exprs) {
                                    let tvar = match tv {
                                        VarRef::Local(i) => l[3][*i],
                                        VarRef::Global(i) => g[3][*i],
                                    };
                                    let a = assign_bit(&mut m, tvar, ex, &l[2], &g[2]);
                                    b = m.and(b, a);
                                }
                                b = m.and(b, keep);
                                ret_rel = m.or(ret_rel, b);
                            }
                        }
                    }
                }
            }
        }
        let mut targets = Bdd::FALSE;
        for &t in target_pcs {
            let b = eq_const(&mut m, &pc[1], u64::from(t));
            targets = m.or(targets, b);
        }
        let main_entry = u64::from(cfg.procs[cfg.main].entry);
        let init = eq_consts(&mut m, &[(&pc[1], main_entry), (&l[1], 0), (&g[1], 0)]);

        Space { m, pc, l, g, int_rel, call_rel, skip_rel, ret_rel, proc_entry, targets, init }
    }

    /// Renames blocks: all (pc, l, g) triples `(from_i → to_i)`.
    pub fn rename_blocks(&mut self, f: Bdd, moves: &[(usize, usize)]) -> Bdd {
        self.rename_parts(f, moves, moves, moves)
    }

    /// Renames per-kind blocks independently.
    pub fn rename_parts(
        &mut self,
        f: Bdd,
        pc_moves: &[(usize, usize)],
        l_moves: &[(usize, usize)],
        g_moves: &[(usize, usize)],
    ) -> Bdd {
        let mut pairs = Vec::new();
        for &(a, b) in pc_moves {
            pairs.extend(self.pc[a].iter().copied().zip(self.pc[b].iter().copied()));
        }
        for &(a, b) in l_moves {
            pairs.extend(self.l[a].iter().copied().zip(self.l[b].iter().copied()));
        }
        for &(a, b) in g_moves {
            pairs.extend(self.g[a].iter().copied().zip(self.g[b].iter().copied()));
        }
        let map = VarMap::new(pairs);
        self.m.rename(f, &map)
    }

    /// Cube over selected kinds of blocks.
    pub fn cube_parts(&mut self, pcs: &[usize], ls: &[usize], gs: &[usize]) -> Bdd {
        let mut vars = Vec::new();
        for &i in pcs {
            vars.extend(self.pc[i].iter().copied());
        }
        for &i in ls {
            vars.extend(self.l[i].iter().copied());
        }
        for &i in gs {
            vars.extend(self.g[i].iter().copied());
        }
        self.m.cube(&vars)
    }

    /// Equality of the g blocks `a` and `b`.
    pub fn eq_g(&mut self, a: usize, b: usize) -> Bdd {
        eq_vars(&mut self.m, &self.g[a], &self.g[b])
    }

    /// Equality of the l blocks `a` and `b`.
    pub fn eq_l(&mut self, a: usize, b: usize) -> Bdd {
        eq_vars(&mut self.m, &self.l[a], &self.l[b])
    }
}
