//! BDD variable allocation for an equation system.
//!
//! Every *instance* — a relation formal parameter or a quantifier binder —
//! gets its own block of BDD variables. The allocator interleaves instances
//! **per channel** (channel = the named type of a leaf): bit `b` of every
//! instance of a channel sits next to bit `b` of every other instance, each
//! instance leaf owning one *column* of the channel. This keeps the three
//! operations the solver performs constantly *small*:
//!
//! * equality between two values of the same channel (`u = v`, `zpc = z.pc`)
//!   is a chain of adjacent-iff nodes — linear, never exponential;
//! * renaming a relation from its formals onto application arguments is a
//!   monotone map, a single cheap pass (see the constraints below);
//! * ordered comparisons (`cs' <= cs`) stay linear for the same reason.
//!
//! # Allocation constraints
//!
//! Interleaving alone does not make a rename monotone: that depends on the
//! order of the columns within each channel. These are the "allocation
//! constraints" GETAFIX computes for MUCKE (§6.1 of the paper), recorded
//! by the same preorder walk that plans the binders:
//!
//! 1. at every application `R(ā)` of a *fixpoint* relation, within each
//!    channel, the columns the arguments name come in the same order as
//!    the formal columns of `R` they replace — identity columns included,
//!    such as `gs` in `Reach(x, ecs, cs, gs, ts)` inside `Reach`'s body;
//! 2. every relation's own formal columns keep their declaration order.
//!
//! A stable topological sort then orders each channel: Kahn's algorithm,
//! taking among the ready columns the one that comes first in declaration
//! order (every relation's formals, then every body's binders, as numbered
//! below). On a cycle nothing is ready, and the earliest remaining column
//! goes next. A system whose applications already preserve order keeps
//! the declaration order exactly; every other keeps each relation's formal
//! columns in their relative order (constraint 2), so every relation value
//! is the same BDD, of the same size, wherever the constraints move it.
//!
//! Where the constraints hold, the substitution of an application is
//! strictly order-preserving across the whole relation: columns of one
//! channel keep their order bit by bit, and channels stay in separate
//! blocks. (Scratch columns come last in their channel, so a formal routed
//! through one keeps the order only if no later formal of its channel is
//! renamed onto a column.) That is when [`Manager::rename_and_exists`]
//! renames, conjoins and quantifies in a single traversal. Only fixpoint
//! applications constrain the order: an input's renamed copy is reused
//! from the kernel's rename cache across passes, the same reason
//! `compile.rs` holds a fixpoint application back. A cycle — `R(b, a)` in
//! `R(a, b)`'s body — admits no order-preserving column order; the kernel
//! then renames first and quantifies after.
//!
//! # Scratch columns
//!
//! [`Routing`] is the one rule that decides where an application sends each
//! argument, and both this plan and the compiler follow it: a constant, or
//! an argument reusing a column an earlier argument already targets, goes
//! through scratch columns — one per formal leaf, on that leaf's channel,
//! which then must equal the argument — and constrains nothing. Each
//! channel reserves exactly as many scratch columns as the most any one
//! application uses, none where no application routes through scratch.
//!
//! # Numbering
//!
//! Instances are numbered densely: first every relation's formals, in
//! relation-id order ([`System::relation_id`]), then every body's binders —
//! relation bodies by id, then query bodies — each body's in the preorder
//! the compiler replays. So a relation's formals and a body's binders are
//! consecutive runs of instance ids, and the compiler finds each by
//! offset, without a name or an owner key. Columns are numbered the same
//! way, instance by instance and leaf by leaf ([`LeafAlloc::column`]).
//! Names are looked up only at the public edge, [`Allocation::formal`].

use crate::ast::{Formula, Term};
use crate::system::{RelationKind, System, SystemError};
use crate::types::{Leaf, Type};
use getafix_bdd::{Bdd, Manager, Var};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Range;

/// One allocated leaf of an instance: its flattened type leaf plus the BDD
/// variables (LSB first) that carry it.
#[derive(Debug, Clone)]
pub struct LeafAlloc {
    /// The flattened type leaf (path, channel, width, bound).
    pub leaf: Leaf,
    /// The BDD variables carrying this leaf, LSB first.
    pub vars: Vec<Var>,
    /// The leaf's column: its dense index among every leaf of every
    /// instance, in instance order and then leaf order.
    pub(crate) column: usize,
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
        self.leaves.iter().filter(|l| has_prefix(&l.leaf, prefix)).collect()
    }

    /// Total bit width.
    pub fn width(&self) -> u32 {
        self.leaves.iter().map(|l| l.leaf.width).sum()
    }
}

/// Does `leaf`'s path start with `prefix`?
fn has_prefix(leaf: &Leaf, prefix: &[String]) -> bool {
    leaf.path.len() >= prefix.len() && leaf.path[..prefix.len()] == *prefix
}

/// The body a compilation takes its quantifier binders from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Body {
    /// The defining body of the relation with this id.
    Relation(usize),
    /// The body of the query at this position in [`System::queries`].
    Query(usize),
}

/// Where an application sends one argument (see [`Routing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Renamed straight onto the columns the argument names.
    Direct,
    /// Through one scratch column per formal leaf, each then equated with
    /// the argument.
    Scratch,
}

/// The routing rule of one application's arguments, taken in order. The
/// allocation plan sizes scratch columns and records its constraints by
/// it, and the compiler renames by it, so the two cannot drift apart.
#[derive(Debug, Default)]
pub(crate) struct Routing {
    /// The columns earlier arguments are renamed straight onto.
    targets: Vec<usize>,
}

impl Routing {
    /// Routes the next argument, given the columns it names (`None` for a
    /// constant). A constant, or an argument that reuses a column an
    /// earlier argument already targets, goes through scratch.
    pub(crate) fn route<I: IntoIterator<Item = usize>>(&mut self, columns: Option<I>) -> Route {
        let Some(columns) = columns else {
            return Route::Scratch;
        };
        let earlier = self.targets.len();
        self.targets.extend(columns);
        let (before, new) = self.targets.split_at(earlier);
        if new.iter().any(|c| before.contains(c)) {
            self.targets.truncate(earlier);
            return Route::Scratch;
        }
        Route::Direct
    }
}

/// The complete variable allocation for a system.
#[derive(Debug)]
pub struct Allocation {
    instances: Vec<Instance>,
    /// Relation name -> relation id, for [`Allocation::formal`] only.
    ids: BTreeMap<String, usize>,
    /// Relation id -> the instance ids of its formals.
    formals: Vec<Range<usize>>,
    /// The instance id of each body's first binder: relation bodies by
    /// id, then query bodies by position.
    binders: Vec<usize>,
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
            place: Vec::new(),
            channels: Vec::new(),
            formals: Vec::with_capacity(system.relations().len()),
            scope: Vec::new(),
        };

        // 1. Relation formals, each relation's columns in declaration
        //    order (constraint 2).
        for rel in system.relations() {
            let (start, first_column) = (planner.instances.len(), planner.place.len());
            for (_, ty) in &rel.params {
                planner.add_instance(ty)?;
            }
            planner.formals.push(start..planner.instances.len());
            planner.keep_order((first_column..planner.place.len()).collect());
        }
        // 2. Quantifier binders, in the same preorder the compiler uses,
        //    with every application's scratch columns and every fixpoint
        //    application's constraints (constraint 1).
        let mut binders = Vec::new();
        for (rel, def) in system.relations().iter().enumerate() {
            binders.push(planner.instances.len());
            if let Some(body) = &def.body {
                let formals = planner.formals[rel].clone();
                planner.scope = def.params.iter().map(|(n, _)| n.as_str()).zip(formals).collect();
                planner.scan(body)?;
            }
        }
        for q in system.queries() {
            binders.push(planner.instances.len());
            planner.scope.clear();
            planner.scan(&q.body)?;
        }

        // 3. Order each channel and hand out interleaved levels.
        let Planner { instances, place, channels, formals, .. } = planner;
        let mut assigned: Vec<Vec<Var>> = vec![Vec::new(); place.len()];
        let mut scratch: BTreeMap<String, Vec<Vec<Var>>> = BTreeMap::new();
        for chan in channels {
            let width = chan.width;
            let ncols = chan.members.len() + chan.scratch;
            // Interleave: for each bit, one var per column.
            let block = manager.new_vars(width * ncols);
            let column = |col: usize| (0..width).map(|b| block[b * ncols + col]).collect();
            let order = stable_topological_order(chan.members.len(), &chan.before);
            for (col, position) in order.into_iter().enumerate() {
                assigned[chan.members[position]] = column(col);
            }
            scratch.insert(chan.name, (chan.members.len()..ncols).map(column).collect());
        }

        // 4. Materialize instances.
        let instances: Vec<Instance> = instances
            .into_iter()
            .enumerate()
            .map(|(iid, (ty, leaves, first))| Instance {
                id: iid,
                ty,
                leaves: (leaves.into_iter().zip(first..))
                    .map(|(leaf, column)| LeafAlloc {
                        leaf,
                        vars: std::mem::take(&mut assigned[column]),
                        column,
                    })
                    .collect(),
            })
            .collect();

        let ids = system.relations().iter().enumerate().map(|(i, r)| (r.name.clone(), i)).collect();
        let mut alloc =
            Allocation { instances, ids, formals, binders, scratch, domains: Vec::new() };
        alloc.rebuild_domains(manager);
        Ok(alloc)
    }

    /// The instance of formal parameter `i` of relation `rel`.
    ///
    /// # Panics
    ///
    /// Panics if the relation/parameter does not exist.
    pub fn formal(&self, rel: &str, i: usize) -> &Instance {
        self.formal_of(self.ids[rel], i)
    }

    /// [`Allocation::formal`] by relation id.
    pub(crate) fn formal_of(&self, rel: usize, i: usize) -> &Instance {
        let ids = &self.formals[rel];
        assert!(i < ids.len(), "relation {rel} has no parameter {i}");
        &self.instances[ids.start + i]
    }

    /// The conjunction of the domain constraints of relation `rel`'s
    /// formals: conjoined into every value of the relation, it keeps the
    /// interpretation canonical (no out-of-range junk tuples).
    pub(crate) fn formals_domain(&self, manager: &mut Manager, rel: usize) -> Bdd {
        let mut acc = Bdd::TRUE;
        for id in self.formals[rel].clone() {
            acc = manager.and(acc, self.domains[id]);
        }
        acc
    }

    /// The instance id of `body`'s first binder; the body's later binders
    /// follow it consecutively.
    pub(crate) fn first_binder(&self, body: Body) -> usize {
        match body {
            Body::Relation(rel) => self.binders[rel],
            Body::Query(q) => self.binders[self.formals.len() + q],
        }
    }

    /// The instance with id `id`.
    pub(crate) fn instance(&self, id: usize) -> &Instance {
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

/// Bit `i` of the constant `c`; a block wider than 64 variables reads 0
/// past bit 63.
fn const_bit(c: u64, i: usize) -> bool {
    i < 64 && (c >> i) & 1 == 1
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
        let b = const_bit(bound, i);
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

/// Builds the BDD for the constant value `value` on `bits` (LSB-first):
/// one literal cube.
pub fn eq_const(manager: &mut Manager, bits: &[Var], value: u64) -> Bdd {
    eq_consts(manager, &[(bits, value)])
}

/// Builds the conjunction of `bits = value` over every `(bits, value)`
/// pair (each LSB-first) as one literal cube, with no `and`.
pub fn eq_consts(manager: &mut Manager, blocks: &[(&[Var], u64)]) -> Bdd {
    let literals: Vec<(Var, bool)> = blocks
        .iter()
        .flat_map(|&(bits, value)| {
            bits.iter().enumerate().map(move |(i, &v)| (v, const_bit(value, i)))
        })
        .collect();
    manager.literal_cube(&literals)
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

/// `n` columns, by position, reordered by the precedence constraints
/// `before` (pairs of positions, the first to come before the second):
/// Kahn's algorithm, taking among the ready columns the earliest position,
/// and on a cycle, where none is ready, the earliest remaining one. When
/// every constraint already points forward the order is `0..n`.
fn stable_topological_order(n: usize, before: &[(usize, usize)]) -> Vec<usize> {
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut blockers = vec![0usize; n];
    for &(a, b) in before {
        successors[a].push(b);
        blockers[b] += 1;
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&p| blockers[p] == 0).map(Reverse).collect();
    let mut placed = vec![false; n];
    let mut earliest = 0;
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let p = match ready.pop() {
            Some(Reverse(p)) => p,
            None => {
                while placed[earliest] {
                    earliest += 1;
                }
                earliest
            }
        };
        placed[p] = true;
        order.push(p);
        for &q in &successors[p] {
            blockers[q] -= 1;
            if blockers[q] == 0 && !placed[q] {
                ready.push(Reverse(q));
            }
        }
    }
    order
}

/// One channel of the plan.
struct Channel {
    /// The channel's name, [`Leaf::channel`].
    name: String,
    /// Bits per column: every leaf of a channel has the same width.
    width: usize,
    /// The channel's columns, in declaration order.
    members: Vec<usize>,
    /// Precedence constraints between positions in `members`: the first
    /// of each pair must come before the second.
    before: Vec<(usize, usize)>,
    /// How many scratch columns to reserve.
    scratch: usize,
}

struct Planner<'a> {
    system: &'a System,
    /// Planned instances: (type, flattened leaves, first column).
    instances: Vec<(Type, Vec<Leaf>, usize)>,
    /// Column -> (its channel, its position among the channel's members).
    place: Vec<(usize, usize)>,
    /// The channels, in order of first appearance.
    channels: Vec<Channel>,
    /// Relation id -> the instance ids of its formals.
    formals: Vec<Range<usize>>,
    /// The variables in scope where the walk is, innermost last.
    scope: Vec<(&'a str, usize)>,
}

impl<'a> Planner<'a> {
    /// Plans an instance of type `ty`, one column per leaf, and returns
    /// its id.
    fn add_instance(&mut self, ty: &Type) -> Result<usize, SystemError> {
        let leaves = self.system.types().flatten(ty)?;
        let first_column = self.place.len();
        for leaf in &leaves {
            let chan = match self.channels.iter().position(|c| c.name == leaf.channel) {
                Some(chan) => chan,
                None => {
                    self.channels.push(Channel {
                        name: leaf.channel.clone(),
                        width: leaf.width as usize,
                        members: Vec::new(),
                        before: Vec::new(),
                        scratch: 0,
                    });
                    self.channels.len() - 1
                }
            };
            let members = &mut self.channels[chan].members;
            self.place.push((chan, members.len()));
            members.push(self.place.len() - 1);
        }
        self.instances.push((ty.clone(), leaves, first_column));
        Ok(self.instances.len() - 1)
    }

    /// Within each channel, `columns` keep the order they are given in.
    fn keep_order(&mut self, mut columns: Vec<usize>) {
        columns.sort_by_key(|&c| self.place[c].0);
        for w in columns.windows(2) {
            let ((chan, a), (next_chan, b)) = (self.place[w[0]], self.place[w[1]]);
            if chan == next_chan {
                self.channels[chan].before.push((a, b));
            }
        }
    }

    /// Plans one instance per binder of `f`, in the exact preorder the
    /// compiler will replay, and every application in `f` with the scope
    /// the compiler will see there.
    fn scan(&mut self, f: &'a Formula) -> Result<(), SystemError> {
        match f {
            Formula::Const(_) | Formula::Atom(_) | Formula::Cmp(..) => Ok(()),
            Formula::App(name, args) => {
                self.plan_app(name, args);
                Ok(())
            }
            Formula::Not(g) => self.scan(g),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    self.scan(g)?;
                }
                Ok(())
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                self.scan(a)?;
                self.scan(b)
            }
            Formula::Exists(binders, g) | Formula::Forall(binders, g) => {
                for (name, ty) in binders {
                    let id = self.add_instance(ty)?;
                    self.scope.push((name.as_str(), id));
                }
                self.scan(g)?;
                self.scope.truncate(self.scope.len() - binders.len());
                Ok(())
            }
        }
    }

    /// Routes the arguments of `name(args)` as the compiler will. Every
    /// application sizes the scratch columns; a fixpoint application also
    /// keeps the columns its arguments are renamed onto in the order of
    /// the formal columns they replace (constraint 1).
    fn plan_app(&mut self, name: &str, args: &[Term]) {
        let Some(rel) = self.system.relation_id(name) else {
            return;
        };
        let fixpoint = self.system.relations()[rel].kind == RelationKind::Fixpoint;
        let mut routing = Routing::default();
        let mut targets_in_formal_order = Vec::new();
        let mut scratch_channels = Vec::new();
        for (arg, formal) in args.iter().zip(self.formals[rel].clone()) {
            let formal_columns = self.columns(formal);
            let targets = match arg {
                Term::Int(_) => None,
                Term::Var { name, path } => Some(self.resolve(name, path)),
            };
            match routing.route(targets.as_deref().map(|t| t.iter().copied())) {
                Route::Scratch => {
                    scratch_channels.extend(formal_columns.map(|c| self.place[c].0));
                }
                Route::Direct if fixpoint => targets_in_formal_order.extend(
                    formal_columns
                        .zip(targets.unwrap_or_default())
                        .filter(|&(f, t)| self.place[f].0 == self.place[t].0)
                        .map(|(_, t)| t),
                ),
                Route::Direct => {}
            }
        }
        scratch_channels.sort_unstable();
        for run in scratch_channels.chunk_by(|a, b| a == b) {
            let chan = &mut self.channels[run[0]];
            chan.scratch = chan.scratch.max(run.len());
        }
        self.keep_order(targets_in_formal_order);
    }

    /// The columns of instance `id`.
    fn columns(&self, id: usize) -> Range<usize> {
        let (_, leaves, first) = &self.instances[id];
        *first..first + leaves.len()
    }

    /// The columns the variable term `name.path` names in the current
    /// scope: those of the innermost `name`'s leaves under `path`.
    fn resolve(&self, name: &str, path: &[String]) -> Vec<usize> {
        let Some(&(_, id)) = self.scope.iter().rev().find(|(n, _)| *n == name) else {
            return Vec::new();
        };
        let (_, leaves, first) = &self.instances[id];
        (leaves.iter().enumerate())
            .filter(|(_, leaf)| has_prefix(leaf, path))
            .map(|(i, _)| first + i)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::solve::Solver;
    use crate::system::System;
    use getafix_bdd::VarMap;

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
        // Instances: Init.s, Trans.s, Trans.t, Reach.u, binder x = 5
        // columns of channel S (width 3), and no application routes through
        // scratch: 5 columns * 3 bits = 15 vars.
        assert_eq!(alloc.instance_count(), 5);
        assert_eq!(m.var_count(), 15);
        // Bit b of instance i is at level b*5 + column(i).
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

    /// A channel reserves exactly the scratch columns its applications
    /// use: none in the small system, one when an application passes a
    /// constant.
    #[test]
    fn scratch_columns_exist() {
        let mut m = Manager::new();
        let alloc = Allocation::build(&mut m, &small_system()).unwrap();
        assert!(alloc.scratch_columns("S").is_empty());

        let mut b = System::builder();
        b.declare_type("S", Type::Range(8)).unwrap();
        b.input("Init", vec![("s".into(), Type::named("S"))]);
        b.query("q", Formula::app("Init", vec![Term::int(5)]));
        let mut m = Manager::new();
        let alloc = Allocation::build(&mut m, &b.build().unwrap()).unwrap();
        let cols = alloc.scratch_columns("S");
        assert_eq!(cols.len(), 1);
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
        // A zeroed tail: bits 1 and 2 false, bit 0 free.
        let tail = eq_const(&mut m, &bits[1..], 0);
        let split = eq_consts(&mut m, &[(&bits[..1], 0), (&bits[1..], 3)]);
        for v in 0..8u64 {
            let env: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(m.eval(f, &env), v == 6, "value {v}");
            assert_eq!(m.eval(tail, &env), v < 2, "tail at value {v}");
        }
        assert_eq!(split, f);
    }

    /// Blocks wider than 64 variables come from `bits n` types and from
    /// the `Conf` fields of frames wider than 64 variables: the constant's
    /// bits past 63 read 0.
    #[test]
    fn constants_on_blocks_wider_than_64_variables() {
        let mut m = Manager::new();
        let bits = m.new_vars(70);
        let x: Vec<Bdd> = bits.iter().map(|&v| m.var(v)).collect();
        let and = |m: &mut Manager, fs: &[Bdd]| fs.iter().fold(Bdd::TRUE, |a, &f| m.and(a, f));
        let any_high = x[3..].iter().fold(Bdd::FALSE, |a, &f| m.or(a, f));
        let high_zero = m.not(any_high);
        let (nx0, nx1, nx2) = (m.not(x[0]), m.not(x[1]), m.not(x[2]));
        let zero = and(&mut m, &[high_zero, nx0, nx1, nx2]);
        let five = and(&mut m, &[high_zero, x[0], nx1, x[2]]);
        let low_below_4 = and(&mut m, &[nx1, nx0]);
        let low_below_5 = m.or(nx2, low_below_4);
        let below_five = m.and(high_zero, low_below_5);
        assert_eq!(eq_const(&mut m, &bits, 0), zero);
        assert_eq!(eq_const(&mut m, &bits, 5), five);
        assert_eq!(lt_const(&mut m, &bits, 0), Bdd::FALSE);
        assert_eq!(lt_const(&mut m, &bits, 5), below_five);
        assert_eq!(m.sat_count(below_five, 70), 5.0);
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

    fn state() -> Type {
        Type::named("S")
    }

    fn params(names: &[&str]) -> Vec<(String, Type)> {
        names.iter().map(|n| (n.to_string(), state())).collect()
    }

    fn app(name: &str, args: &[&str]) -> Formula {
        Formula::app(name, args.iter().map(|a| Term::var(*a)).collect())
    }

    /// The level of bit 0 of an instance's first leaf.
    fn level(inst: &Instance) -> u32 {
        inst.leaves[0].vars[0].level()
    }

    /// Installs the input `name` as the set of `tuples` over its formals.
    pub(crate) fn set_tuples(solver: &mut Solver, name: &str, tuples: &[&[u64]]) {
        let arity = solver.system().relation(name).unwrap().params.len();
        let formals: Vec<Vec<Var>> =
            (0..arity).map(|i| solver.alloc().formal(name, i).all_vars()).collect();
        let m = solver.manager();
        let mut set = Bdd::FALSE;
        for tuple in tuples {
            let blocks: Vec<(&[Var], u64)> =
                formals.iter().map(Vec::as_slice).zip(tuple.iter().copied()).collect();
            let t = eq_consts(m, &blocks);
            set = m.or(set, t);
        }
        solver.set_input(name, set).unwrap();
    }

    /// `∃ y, x. R(x, y) ∧ …` declares its binders against the order of
    /// `R(a, b)`'s formals. The plan moves `x` before `y`, so renaming `R`
    /// onto them preserves the variable order and every image step fuses.
    #[test]
    fn crossing_binders_are_ordered_so_the_map_preserves_order() {
        let mut b = System::builder();
        b.declare_type("S", Type::Range(4)).unwrap();
        b.input("E", params(&["a", "b"]));
        b.define(
            "R",
            params(&["a", "b"]),
            Formula::or(vec![
                app("E", &["a", "b"]),
                Formula::exists(
                    params(&["y", "x"]),
                    Formula::and(vec![
                        app("R", &["x", "y"]),
                        Formula::eq(Term::var("x"), Term::var("a")),
                        app("E", &["y", "b"]),
                    ]),
                ),
            ]),
        );
        let mut solver = Solver::new(b.build().unwrap()).unwrap();
        let alloc = solver.alloc();
        let first = alloc.first_binder(Body::Relation(solver.system().relation_id("R").unwrap()));
        let (y, x) = (alloc.instance(first), alloc.instance(first + 1));
        let (ra, rb) = (alloc.formal("R", 0), alloc.formal("R", 1));
        assert!(level(ra) < level(rb), "R's formals keep their order");
        assert!(level(x) < level(y), "x moves before y");
        let map = VarMap::new(
            (ra.all_vars().into_iter().zip(x.all_vars()))
                .chain(rb.all_vars().into_iter().zip(y.all_vars())),
        );
        assert!(map.is_order_preserving());

        // E is the path 0 → 1 → 2 → 3; R is its transitive closure.
        set_tuples(&mut solver, "E", &[&[0, 1], &[1, 2], &[2, 3]]);
        assert_eq!(solver.tuple_count("R").unwrap(), 6.0);
        assert_eq!(solver.stats().rename_fallbacks, 0);
    }

    /// `R(b, a)` inside `R(a, b)`'s body is a real cycle: no column order
    /// preserves its map. The plan keeps the declaration order, the solve
    /// still yields the symmetric closure, and the kernel counts the
    /// fallback. (The binder `c`, of another channel, makes the swapped
    /// application an image step with something to quantify.)
    #[test]
    fn a_swapped_self_application_keeps_the_order_and_falls_back() {
        let mut b = System::builder();
        b.declare_type("S", Type::Range(4)).unwrap();
        b.declare_type("B", Type::Range(2)).unwrap();
        b.input("E", params(&["a", "b"]));
        b.define(
            "R",
            params(&["a", "b"]),
            Formula::or(vec![
                app("E", &["a", "b"]),
                Formula::exists(
                    vec![("c".into(), Type::named("B"))],
                    Formula::and(vec![
                        Formula::eq(Term::var("c"), Term::int(1)),
                        app("R", &["b", "a"]),
                    ]),
                ),
            ]),
        );
        let mut solver = Solver::new(b.build().unwrap()).unwrap();
        let alloc = solver.alloc();
        let columns = [alloc.formal("E", 0), alloc.formal("E", 1)]
            .into_iter()
            .chain([alloc.formal("R", 0), alloc.formal("R", 1)])
            .map(level)
            .collect::<Vec<_>>();
        assert!(columns.windows(2).all(|w| w[0] < w[1]), "declaration order: {columns:?}");

        set_tuples(&mut solver, "E", &[&[0, 1], &[2, 3]]);
        assert_eq!(solver.tuple_count("R").unwrap(), 4.0);
        assert!(solver.stats().rename_fallbacks >= 1);
    }

    /// Three constants of one channel in one application take three
    /// scratch columns: the plan reserves them.
    #[test]
    fn three_constants_of_one_channel_get_three_scratch_columns() {
        let mut b = System::builder();
        b.declare_type("S", Type::Range(4)).unwrap();
        b.input("E", params(&["a", "b", "c"]));
        let constants = [0, 1, 2].map(Term::int).to_vec();
        b.query("q", Formula::app("E", constants));
        let mut solver = Solver::new(b.build().unwrap()).unwrap();
        assert_eq!(solver.alloc().scratch_columns("S").len(), 3);
        set_tuples(&mut solver, "E", &[&[0, 1, 2]]);
        assert_eq!(solver.eval_query("q"), Ok(true));
    }

    /// A variable repeated four times routes the last three through
    /// scratch columns of its channel.
    #[test]
    fn a_variable_repeated_four_times_gets_three_scratch_columns() {
        for (tuple, holds) in [([1, 1, 1, 1], true), ([1, 1, 1, 2], false)] {
            let mut b = System::builder();
            b.declare_type("S", Type::Range(4)).unwrap();
            b.input("E", params(&["a", "b", "c", "d"]));
            b.query("q", Formula::exists(params(&["x"]), app("E", &["x", "x", "x", "x"])));
            let mut solver = Solver::new(b.build().unwrap()).unwrap();
            assert_eq!(solver.alloc().scratch_columns("S").len(), 3);
            set_tuples(&mut solver, "E", &[&tuple]);
            assert_eq!(solver.eval_query("q"), Ok(holds), "E = {tuple:?}");
        }
    }
}
