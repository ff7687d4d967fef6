//! BDD variable allocation for an equation system.
//!
//! Every *instance* — a relation formal parameter or a quantifier binder —
//! gets its own block of BDD variables. The allocator interleaves instances
//! **per channel** (channel = the named type of a leaf): bit `b` of every
//! instance of a channel sits next to bit `b` of every other instance. This
//! keeps the three operations the solver performs constantly *small*:
//!
//! * equality between two values of the same channel (`u = v`, `zpc = z.pc`)
//!   is a chain of adjacent-iff nodes — linear, never exponential;
//! * renaming a relation from its formals onto application arguments is a
//!   monotone map, a single cheap pass;
//! * ordered comparisons (`cs' <= cs`) stay linear for the same reason.
//!
//! This is the moral equivalent of the "allocation constraints" GETAFIX
//! computes for MUCKE (§6.1 of the paper): variables that interact are
//! placed together.

use crate::system::{System, SystemError};
use crate::types::{Leaf, Type};
use getafix_bdd::{Bdd, Manager, Var};
use std::collections::BTreeMap;

use crate::ast::Formula;

/// How many spare columns each channel reserves for duplicate-argument
/// rewriting (`R(u, u)` routes the second `u` through a scratch column).
const SCRATCH_COLUMNS: usize = 2;

/// One allocated leaf of an instance: its flattened type leaf plus the BDD
/// variables (LSB first) that carry it.
#[derive(Debug, Clone)]
pub struct LeafAlloc {
    /// The flattened type leaf (path, channel, width, bound).
    pub leaf: Leaf,
    /// The BDD variables carrying this leaf, LSB first.
    pub vars: Vec<Var>,
}

/// An allocated variable instance (relation formal or quantifier binder).
#[derive(Debug, Clone)]
pub struct Instance {
    /// Dense instance id.
    pub id: usize,
    /// Declared type of the instance.
    pub ty: Type,
    /// Allocated leaves in flattening order.
    pub leaves: Vec<LeafAlloc>,
}

impl Instance {
    /// All BDD variables of the instance, in leaf order (LSB first within a
    /// leaf).
    pub fn all_vars(&self) -> Vec<Var> {
        self.leaves.iter().flat_map(|l| l.vars.iter().copied()).collect()
    }

    /// The leaves whose path starts with `prefix` (the whole instance for an
    /// empty prefix), in flattening order.
    pub fn leaves_under<'a>(&'a self, prefix: &[String]) -> Vec<&'a LeafAlloc> {
        self.leaves
            .iter()
            .filter(|l| l.leaf.path.len() >= prefix.len() && l.leaf.path[..prefix.len()] == *prefix)
            .collect()
    }

    /// Total bit width.
    pub fn width(&self) -> u32 {
        self.leaves.iter().map(|l| l.leaf.width).sum()
    }
}

/// Identifies who owns a binder sequence: a relation body or a query body.
pub(crate) fn owner_rel(name: &str) -> String {
    format!("rel:{name}")
}

pub(crate) fn owner_query(name: &str) -> String {
    format!("query:{name}")
}

/// The complete variable allocation for a system.
#[derive(Debug)]
pub struct Allocation {
    instances: Vec<Instance>,
    /// (relation name, param index) -> instance id.
    formals: BTreeMap<(String, usize), usize>,
    /// (owner, binder sequence number) -> instance id.
    binders: BTreeMap<(String, usize), usize>,
    /// channel -> scratch columns (each a `Vec<Var>` of the channel's width).
    scratch: BTreeMap<String, Vec<Vec<Var>>>,
    /// Per-instance domain constraints, built eagerly in [`Allocation::build`]
    /// and rebuilt (via `&mut self`) after a manager GC.
    domains: Vec<Bdd>,
}

impl Allocation {
    /// Plans and performs the allocation for `system` on `manager`.
    ///
    /// # Errors
    ///
    /// Propagates type-flattening errors (which `System::build` should have
    /// already ruled out).
    pub fn build(manager: &mut Manager, system: &System) -> Result<Allocation, SystemError> {
        let mut planner = Planner {
            system,
            instances: Vec::new(),
            formals: BTreeMap::new(),
            binders: BTreeMap::new(),
        };

        // 1. Relation formals.
        for rel in system.relations() {
            for (i, (_, ty)) in rel.params.iter().enumerate() {
                let id = planner.add_instance(ty)?;
                planner.formals.insert((rel.name.clone(), i), id);
            }
        }
        // 2. Quantifier binders, in the same preorder the compiler uses.
        for rel in system.relations() {
            if let Some(body) = &rel.body {
                planner.scan_binders(&owner_rel(&rel.name), body)?;
            }
        }
        for q in system.queries() {
            planner.scan_binders(&owner_query(&q.name), &q.body)?;
        }

        // 3. Group leaves by channel and hand out interleaved levels.
        let Planner { instances: planned, formals, binders, .. } = planner;
        // channel -> list of (instance id, leaf index)
        let mut channels: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut channel_order: Vec<String> = Vec::new();
        for (iid, leaves) in planned.iter().enumerate() {
            for (lidx, leaf) in leaves.1.iter().enumerate() {
                let entry = channels.entry(leaf.channel.clone()).or_insert_with(|| {
                    channel_order.push(leaf.channel.clone());
                    Vec::new()
                });
                entry.push((iid, lidx));
            }
        }

        let mut assigned: BTreeMap<(usize, usize), Vec<Var>> = BTreeMap::new();
        let mut scratch: BTreeMap<String, Vec<Vec<Var>>> = BTreeMap::new();
        for chan in &channel_order {
            let members = &channels[chan];
            let width = planned[members[0].0].1[members[0].1].width as usize;
            let ncols = members.len() + SCRATCH_COLUMNS;
            // Interleave: for each bit, one var per column.
            let block = manager.new_vars(width * ncols);
            for (col, &(iid, lidx)) in members.iter().enumerate() {
                let vars: Vec<Var> = (0..width).map(|b| block[b * ncols + col]).collect();
                assigned.insert((iid, lidx), vars);
            }
            let cols = (0..SCRATCH_COLUMNS)
                .map(|s| {
                    (0..width).map(|b| block[b * ncols + members.len() + s]).collect::<Vec<Var>>()
                })
                .collect();
            scratch.insert(chan.clone(), cols);
        }

        // 4. Materialize instances.
        let instances: Vec<Instance> = planned
            .into_iter()
            .enumerate()
            .map(|(iid, (ty, leaves))| Instance {
                id: iid,
                ty,
                leaves: leaves
                    .into_iter()
                    .enumerate()
                    .map(|(lidx, leaf)| LeafAlloc {
                        vars: assigned.remove(&(iid, lidx)).expect("planned leaf"),
                        leaf,
                    })
                    .collect(),
            })
            .collect();

        let mut alloc = Allocation { instances, formals, binders, scratch, domains: Vec::new() };
        alloc.rebuild_domains(manager);
        Ok(alloc)
    }

    /// The instance of formal parameter `i` of relation `rel`.
    ///
    /// # Panics
    ///
    /// Panics if the relation/parameter does not exist.
    pub fn formal(&self, rel: &str, i: usize) -> &Instance {
        let id = self.formals[&(rel.to_string(), i)];
        &self.instances[id]
    }

    /// The instance for binder number `seq` of `owner`.
    pub(crate) fn binder(&self, owner: &str, seq: usize) -> &Instance {
        let id = self.binders[&(owner.to_string(), seq)];
        &self.instances[id]
    }

    /// Scratch columns for a channel.
    pub(crate) fn scratch_columns(&self, channel: &str) -> &[Vec<Var>] {
        self.scratch.get(channel).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The domain constraint of an instance: every `range n` leaf holds a
    /// value `< n`. Precomputed in [`Allocation::build`], so this is a
    /// pure read.
    pub fn domain(&self, inst: &Instance) -> Bdd {
        self.domains[inst.id]
    }

    /// Recomputes every instance's domain constraint on `manager`. Called
    /// once at construction and again after a manager GC, when the stored
    /// handles may point at reclaimed nodes. The constraints are cheap
    /// `lt_const` chains that hash-cons straight back into the (compacted)
    /// arena.
    pub(crate) fn rebuild_domains(&mut self, manager: &mut Manager) {
        self.domains.clear();
        self.domains.reserve(self.instances.len());
        for inst in &self.instances {
            let mut acc = Bdd::TRUE;
            for leaf in &inst.leaves {
                if let Some(bound) = leaf.leaf.bound {
                    let lt = lt_const(manager, &leaf.vars, bound);
                    acc = manager.and(acc, lt);
                }
            }
            self.domains.push(acc);
        }
    }

    /// Number of allocated instances (diagnostics).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

/// Builds the BDD for `bits < bound` (unsigned, LSB-first `bits`).
pub fn lt_const(manager: &mut Manager, bits: &[Var], bound: u64) -> Bdd {
    if bound == 0 {
        return Bdd::FALSE;
    }
    if bits.len() < 64 && bound >= (1u64 << bits.len()) {
        return Bdd::TRUE;
    }
    // MSB-down comparison: value < bound iff at the highest differing bit,
    // value has 0 where bound has 1.
    let mut acc = Bdd::FALSE; // strictly-less so equality fails
    for (i, &v) in bits.iter().enumerate() {
        // Process LSB..MSB; rebuild acc so that after processing bit i, acc
        // compares the low i+1 bits.
        let b = (bound >> i) & 1 == 1;
        let lit = manager.var(v);
        acc = if b {
            // value_i < bound_i (0<1) makes low bits irrelevant; equal (1=1)
            // defers to lower bits.
            let nv = manager.not(lit);
            manager.or(nv, acc)
        } else {
            // bound_i = 0: value_i must be 0 and lower bits decide.
            let nv = manager.not(lit);
            manager.and(nv, acc)
        };
    }
    acc
}

/// Builds the BDD for the constant value `value` on `bits` (LSB-first).
pub fn eq_const(manager: &mut Manager, bits: &[Var], value: u64) -> Bdd {
    let mut acc = Bdd::TRUE;
    for (i, &v) in bits.iter().enumerate() {
        let bit = (value >> i) & 1 == 1;
        let lit = manager.literal(v, bit);
        acc = manager.and(acc, lit);
    }
    acc
}

/// Builds the BDD for bitwise equality of two equal-length variable blocks.
pub fn eq_vars(manager: &mut Manager, a: &[Var], b: &[Var]) -> Bdd {
    assert_eq!(a.len(), b.len(), "eq_vars: width mismatch");
    let mut acc = Bdd::TRUE;
    for (&x, &y) in a.iter().zip(b) {
        let fx = manager.var(x);
        let fy = manager.var(y);
        let eq = manager.iff(fx, fy);
        acc = manager.and(acc, eq);
    }
    acc
}

/// Builds the BDD for `a < b` over two equal-length unsigned blocks
/// (LSB-first).
pub fn lt_vars(manager: &mut Manager, a: &[Var], b: &[Var]) -> Bdd {
    assert_eq!(a.len(), b.len(), "lt_vars: width mismatch");
    let mut acc = Bdd::FALSE;
    for (&x, &y) in a.iter().zip(b) {
        // LSB..MSB: higher bits dominate, so fold as
        // acc' = (x<y) ∨ ((x=y) ∧ acc)
        let fx = manager.var(x);
        let fy = manager.var(y);
        let nx = manager.not(fx);
        let lt = manager.and(nx, fy);
        let eq = manager.iff(fx, fy);
        let keep = manager.and(eq, acc);
        acc = manager.or(lt, keep);
    }
    acc
}

struct Planner<'a> {
    system: &'a System,
    /// Planned instances: (type, flattened leaves).
    instances: Vec<(Type, Vec<Leaf>)>,
    formals: BTreeMap<(String, usize), usize>,
    binders: BTreeMap<(String, usize), usize>,
}

impl Planner<'_> {
    fn add_instance(&mut self, ty: &Type) -> Result<usize, SystemError> {
        let leaves = self.system.types().flatten(ty)?;
        let id = self.instances.len();
        self.instances.push((ty.clone(), leaves));
        Ok(id)
    }

    /// Assigns binder sequence numbers in the exact preorder the compiler
    /// will replay.
    fn scan_binders(&mut self, owner: &str, f: &Formula) -> Result<(), SystemError> {
        let mut seq = 0usize;
        self.scan_rec(owner, f, &mut seq)
    }

    fn scan_rec(&mut self, owner: &str, f: &Formula, seq: &mut usize) -> Result<(), SystemError> {
        match f {
            Formula::Const(_) | Formula::Atom(_) | Formula::Cmp(..) | Formula::App(..) => Ok(()),
            Formula::Not(g) => self.scan_rec(owner, g, seq),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    self.scan_rec(owner, g, seq)?;
                }
                Ok(())
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                self.scan_rec(owner, a, seq)?;
                self.scan_rec(owner, b, seq)
            }
            Formula::Exists(binders, g) | Formula::Forall(binders, g) => {
                for (_, ty) in binders {
                    let id = self.add_instance(ty)?;
                    self.binders.insert((owner.to_string(), *seq), id);
                    *seq += 1;
                }
                self.scan_rec(owner, g, seq)
            }
        }
    }
}

/// Re-export used by the solver to keep binder numbering in one place.
#[derive(Debug)]
pub(crate) struct BinderCounter {
    owner: String,
    next: usize,
}

impl BinderCounter {
    /// A counter starting at binder sequence number `start` (0 for a whole
    /// body; the disjunct's preorder offset when the worklist engine
    /// compiles a top-level disjunct on its own).
    pub(crate) fn new_at(owner: String, start: usize) -> Self {
        BinderCounter { owner, next: start }
    }

    pub(crate) fn take<'a>(&mut self, alloc: &'a Allocation) -> &'a Instance {
        let inst = alloc.binder(&self.owner, self.next);
        self.next += 1;
        inst
    }

    /// Moves past `n` binders without taking them: the compiler skipped a
    /// subformula that binds `n` variables, and later binders must still
    /// get the instances the plan gave them.
    pub(crate) fn skip(&mut self, n: usize) {
        self.next += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;
    use crate::system::System;

    fn small_system() -> System {
        let mut b = System::builder();
        b.declare_type("S", Type::Bits(3)).unwrap();
        b.input("Init", vec![("s".into(), Type::named("S"))]);
        b.input("Trans", vec![("s".into(), Type::named("S")), ("t".into(), Type::named("S"))]);
        b.define(
            "Reach",
            vec![("u".into(), Type::named("S"))],
            Formula::or(vec![
                Formula::app("Init", vec![Term::var("u")]),
                Formula::exists(
                    vec![("x".into(), Type::named("S"))],
                    Formula::and(vec![
                        Formula::app("Reach", vec![Term::var("x")]),
                        Formula::app("Trans", vec![Term::var("x"), Term::var("u")]),
                    ]),
                ),
            ]),
        );
        b.build().unwrap()
    }

    #[test]
    fn interleaved_channel_allocation() {
        let sys = small_system();
        let mut m = Manager::new();
        let alloc = Allocation::build(&mut m, &sys).unwrap();
        // Instances: Init.s, Trans.s, Trans.t, Reach.u, binder x = 5 of
        // channel S (width 3) + 2 scratch = 7 columns * 3 bits = 21 vars.
        assert_eq!(alloc.instance_count(), 5);
        assert_eq!(m.var_count(), 21);
        // Bit b of instance i is at level b*7 + column(i).
        let init_s = alloc.formal("Init", 0);
        let trans_t = alloc.formal("Trans", 1);
        let vs = &init_s.leaves[0].vars;
        let vt = &trans_t.leaves[0].vars;
        assert_eq!(vs.len(), 3);
        // Same bit of different instances must be closer than different bits
        // of the same instance (interleaving).
        let gap_same_bit = (vt[0].level() as i64 - vs[0].level() as i64).unsigned_abs();
        let gap_next_bit = (vs[1].level() as i64 - vs[0].level() as i64).unsigned_abs();
        assert!(gap_same_bit < gap_next_bit);
    }

    #[test]
    fn scratch_columns_exist() {
        let sys = small_system();
        let mut m = Manager::new();
        let alloc = Allocation::build(&mut m, &sys).unwrap();
        let cols = alloc.scratch_columns("S");
        assert_eq!(cols.len(), SCRATCH_COLUMNS);
        assert_eq!(cols[0].len(), 3);
    }

    #[test]
    fn domain_constraints_for_range() {
        let mut b = System::builder();
        b.declare_type("PC", Type::Range(5)).unwrap();
        b.input("I", vec![("p".into(), Type::named("PC"))]);
        let sys = b.build().unwrap();
        let mut m = Manager::new();
        let alloc = Allocation::build(&mut m, &sys).unwrap();
        let inst = alloc.formal("I", 0).clone();
        let d = alloc.domain(&inst);
        // 3 bits, constraint value < 5 → 5 models.
        assert_eq!(m.sat_count(d, m.var_count()), 5.0 * 2f64.powi(m.var_count() as i32 - 3));
    }

    #[test]
    fn lt_const_truth() {
        let mut m = Manager::new();
        let bits = m.new_vars(3);
        let f = lt_const(&mut m, &bits, 5);
        for v in 0..8u64 {
            let env: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(m.eval(f, &env), v < 5, "value {v}");
        }
        assert_eq!(lt_const(&mut m, &bits, 0), Bdd::FALSE);
    }

    #[test]
    fn eq_const_truth() {
        let mut m = Manager::new();
        let bits = m.new_vars(3);
        let f = eq_const(&mut m, &bits, 6);
        for v in 0..8u64 {
            let env: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(m.eval(f, &env), v == 6, "value {v}");
        }
    }

    #[test]
    fn lt_vars_truth() {
        let mut m = Manager::new();
        let a = m.new_vars(2);
        let b = m.new_vars(2);
        let f = lt_vars(&mut m, &a, &b);
        for x in 0..4u64 {
            for y in 0..4u64 {
                let mut env = vec![false; 4];
                for i in 0..2 {
                    env[a[i].level() as usize] = (x >> i) & 1 == 1;
                    env[b[i].level() as usize] = (y >> i) & 1 == 1;
                }
                assert_eq!(m.eval(f, &env), x < y, "{x} < {y}");
            }
        }
    }

    #[test]
    fn eq_vars_truth() {
        let mut m = Manager::new();
        let a = m.new_vars(2);
        let b = m.new_vars(2);
        let f = eq_vars(&mut m, &a, &b);
        for x in 0..4u64 {
            for y in 0..4u64 {
                let mut env = vec![false; 4];
                for i in 0..2 {
                    env[a[i].level() as usize] = (x >> i) & 1 == 1;
                    env[b[i].level() as usize] = (y >> i) & 1 == 1;
                }
                assert_eq!(m.eval(f, &env), x == y, "{x} = {y}");
            }
        }
    }
}
