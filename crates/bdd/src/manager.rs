//! The node arena, unique table and core Boolean operations.
//!
//! # Complement edges
//!
//! A [`Bdd`] handle packs an arena index and a **complement bit** (bit 0):
//! the handle `idx·2 + 1` denotes the *negation* of the function stored at
//! node `idx`. Negation is therefore a single xor — no traversal, no new
//! nodes — and a function and its complement share one DAG, halving the
//! arena relative to a plain ROBDD.
//!
//! Canonicity needs one extra rule on top of reduce + hash-consing: of the
//! two ways to write a node (`(v, l, h)` vs the complement of
//! `(v, ¬l, ¬h)`), exactly one has a **regular (uncomplemented) low edge**,
//! and only that form is ever stored. [`Manager::mk`] normalizes: if the
//! requested low edge is complemented, the stored node takes both edges
//! complemented and the returned handle carries the complement bit. There
//! is a single terminal node (index 0); [`Bdd::FALSE`] is its regular
//! handle and [`Bdd::TRUE`] its complement.
//!
//! Cofactor accessors ([`Manager::lo`], [`Manager::hi`]) apply the parity
//! rule — the cofactor of a complemented handle is the complement of the
//! stored edge — so traversal code sees ordinary Shannon cofactors and
//! never needs to know about the encoding.

use crate::cache::{Caches, TableCounts};
use crate::explore::VisitSet;
use crate::hasher::FxHashMap;
use crate::table::UniqueTable;
use std::cell::RefCell;

/// A BDD variable, identified by its *level* in the (fixed) variable order.
///
/// Lower levels are tested first. Levels are dense `u32`s handed out by
/// [`Manager::new_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The level of this variable in the global order.
    #[inline]
    pub fn level(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles are cheap to copy and compare; canonicity of the underlying arena
/// guarantees that two handles are equal iff they denote the same Boolean
/// function. A handle is only meaningful together with the manager that
/// produced it.
///
/// Bit 0 of the raw value is the complement tag (see the module docs);
/// [`Manager::not`] just flips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false function (the regular handle of the terminal).
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function (the complemented handle of the terminal).
    pub const TRUE: Bdd = Bdd(1);

    /// Is this the constant-false function?
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Is this the constant-true function?
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Is this either constant?
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// The raw handle bits (arena index · 2 + complement bit). Exposed for
    /// debugging and for stable map keys: distinct functions always have
    /// distinct raw values.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The arena index of the node this handle refers to (complement bit
    /// stripped).
    #[inline]
    pub(crate) fn node_index(self) -> u32 {
        self.0 >> 1
    }

    /// The complement bit of the handle.
    #[inline]
    pub(crate) fn parity(self) -> u32 {
        self.0 & 1
    }
}

/// Level assigned to the terminal node: strictly below every variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// An interior (or terminal) node of the shared DAG. Edges are stored as
/// raw handle bits; the canonical form keeps `lo` regular (even) — `hi`
/// may carry the complement bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: u32,
    pub hi: u32,
}

/// Counters describing the health of a [`Manager`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ManagerStats {
    /// Total nodes currently in the arena (including the shared terminal).
    pub nodes: usize,
    /// Nodes created since construction: each unique-table insert counts
    /// one, in O(1), and a lookup that finds its node counts none. A
    /// collection copies the survivors without creating any, so the count
    /// only grows and `nodes == 1 + nodes_created − gc_reclaimed_nodes`.
    pub nodes_created: u64,
    /// Number of distinct variables created so far.
    pub vars: usize,
    /// Hits across all operation caches since construction: the sum of
    /// [`ManagerStats::cache_tables`]' hits.
    pub cache_hits: u64,
    /// Misses across all operation caches since construction: the sum of
    /// [`ManagerStats::cache_tables`]' misses.
    pub cache_misses: u64,
    /// Hits and misses of each computed table since construction, in
    /// [`CacheTable::ALL`](crate::CacheTable::ALL) order: which operation
    /// family the kernel's lookups went to.
    pub cache_tables: [TableCounts; 9],
    /// Number of garbage collections performed.
    pub gcs: u64,
    /// Total nodes reclaimed by those collections.
    pub gc_reclaimed_nodes: u64,
    /// Total wall-clock time spent inside [`Manager::gc`] pauses, in
    /// milliseconds (always measured; one `Instant` pair per collection).
    pub gc_pause_ms: f64,
    /// Peak arena size ever observed (in nodes).
    pub peak_nodes: usize,
    /// Bytes currently held by the arena, the unique table and the
    /// computed caches.
    pub arena_bytes: usize,
    /// Peak of [`ManagerStats::arena_bytes`] ever observed.
    pub peak_arena_bytes: usize,
    /// [`Manager::rename_and_exists`] calls with variables to quantify
    /// whose map was not order-preserving, so the relation was renamed
    /// into a fresh BDD before [`Manager::and_exists`] instead of in one
    /// fused traversal.
    pub rename_fallbacks: u64,
}

/// A BDD manager: owns the node arena, the unique table and the operation
/// caches. All operations that build or inspect nodes go through a manager.
///
/// # Example
///
/// ```
/// use getafix_bdd::Manager;
/// let mut m = Manager::new();
/// let a = m.new_var();
/// let b = m.new_var();
/// let fa = m.var(a);
/// let fb = m.var(b);
/// let f = m.or(fa, fb);
/// let g = m.not(f);
/// let h = m.and(g, fa); // ¬(a ∨ b) ∧ a  ==  false
/// assert!(h.is_false());
/// ```
#[derive(Debug)]
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) caches: Caches,
    pub(crate) num_vars: u32,
    pub(crate) stats: ManagerStats,
    pub(crate) map_registry: crate::rename::MapRegistry,
    /// Reusable visited-bitset for DAG walks (node counting, support).
    pub(crate) visit: RefCell<VisitSet>,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates an empty manager with just the terminal node.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a manager whose arena and unique table are pre-sized for
    /// roughly `nodes` nodes, avoiding early growth/rehash churn on
    /// workloads with a known scale.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes.saturating_add(1));
        arena.push(Node { var: TERMINAL_LEVEL, lo: 0, hi: 0 });
        let mut m = Manager {
            nodes: arena,
            unique: UniqueTable::with_node_capacity(nodes),
            caches: Caches::new(),
            num_vars: 0,
            stats: ManagerStats { nodes: 1, peak_nodes: 1, ..ManagerStats::default() },
            map_registry: crate::rename::MapRegistry::default(),
            visit: RefCell::new(VisitSet::default()),
        };
        m.stats.peak_arena_bytes = m.current_bytes();
        m
    }

    /// Allocates a fresh variable at the next level of the order.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        self.stats.vars = self.num_vars as usize;
        v
    }

    /// Allocates `n` fresh consecutive variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables created so far.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.num_vars as usize
    }

    /// Bytes currently held by the arena, unique table and computed caches.
    fn current_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.unique.bytes()
            + self.caches.bytes()
    }

    /// Folds the current byte footprint into the tracked peak. Called at
    /// the points where the footprint can step up (new arena peak, GC
    /// entry) and from [`Manager::stats`], so the reported peak is
    /// monotone and includes lazily allocated cache tables.
    pub(crate) fn note_peak_bytes(&mut self) {
        let cur = self.current_bytes();
        if cur > self.stats.peak_arena_bytes {
            self.stats.peak_arena_bytes = cur;
        }
    }

    /// A snapshot of the manager's counters.
    pub fn stats(&self) -> ManagerStats {
        let mut s = self.stats;
        s.nodes = self.nodes.len();
        s.nodes_created = self.unique.created;
        s.cache_tables = self.caches.counts;
        s.cache_hits = s.cache_tables.iter().map(|t| t.hits).sum();
        s.cache_misses = s.cache_tables.iter().map(|t| t.misses).sum();
        s.arena_bytes = self.current_bytes();
        s.peak_arena_bytes = self.stats.peak_arena_bytes.max(s.arena_bytes);
        s
    }

    /// The variable tested at the root of `f`.
    ///
    /// Returns `None` for the constant functions.
    pub fn root_var(&self, f: Bdd) -> Option<Var> {
        let l = self.level(f);
        if l == TERMINAL_LEVEL {
            None
        } else {
            Some(Var(l))
        }
    }

    /// The low (else) cofactor of a non-terminal node, complement parity
    /// applied: `lo(¬f) = ¬lo(f)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn lo(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "lo() on a terminal");
        self.cof(f).0
    }

    /// The high (then) cofactor of a non-terminal node, complement parity
    /// applied: `hi(¬f) = ¬hi(f)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn hi(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "hi() on a terminal");
        self.cof(f).1
    }

    #[inline]
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        self.nodes[f.node_index() as usize].var
    }

    /// Both Shannon cofactors of `f`, parity applied.
    #[inline]
    pub(crate) fn cof(&self, f: Bdd) -> (Bdd, Bdd) {
        let c = f.parity();
        let n = &self.nodes[f.node_index() as usize];
        (Bdd(n.lo ^ c), Bdd(n.hi ^ c))
    }

    /// Cofactors of `f` with respect to the variable at `var`: the real
    /// cofactors when `f` tests `var` at its root, `(f, f)` otherwise.
    #[inline]
    pub(crate) fn cof_at(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        if self.level(f) == var {
            self.cof(f)
        } else {
            (f, f)
        }
    }

    /// The canonical node constructor: reduces, normalizes the complement
    /// parity (stored low edge always regular) and hash-conses.
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        debug_assert!(var < self.level(lo) && var < self.level(hi), "order violation in mk");
        if lo == hi {
            return lo;
        }
        let c = lo.parity();
        let idx = self.unique.get_or_insert(&mut self.nodes, var, lo.0 ^ c, hi.0 ^ c);
        if self.nodes.len() > self.stats.peak_nodes {
            self.stats.peak_nodes = self.nodes.len();
            self.note_peak_bytes();
        }
        Bdd((idx << 1) | c)
    }

    /// The constant function for `value`.
    #[inline]
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// The projection function of variable `v` (i.e. the literal `v`).
    pub fn var(&mut self, v: Var) -> Bdd {
        self.mk(v.0, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated literal `¬v`.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        let f = self.var(v);
        self.not(f)
    }

    /// The literal `v` or `¬v` depending on `positive`.
    pub fn literal(&mut self, v: Var, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Negation `¬f`: flips the complement bit. O(1), allocation-free.
    #[inline]
    pub fn not(&mut self, f: Bdd) -> Bdd {
        Bdd(f.0 ^ 1)
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // Terminal and complement rules.
        if f == g {
            return f;
        }
        if f.0 ^ 1 == g.0 {
            // f ∧ ¬f
            return Bdd::FALSE;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() {
            return f;
        }
        // Commutative: normalize operand order for better cache hit rates.
        let (f, g) = if f.0 > g.0 { (g, f) } else { (f, g) };
        if let Some(r) = self.caches.and_get(f, g) {
            return r;
        }
        let var = self.level(f).min(self.level(g));
        let (f0, f1) = self.cof_at(f, var);
        let (g0, g1) = self.cof_at(g, var);
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(var, lo, hi);
        self.caches.and_put(f, g, r);
        r
    }

    /// Disjunction `f ∨ g`, derived from the conjunction via De Morgan —
    /// with complement edges the negations are free, so AND and OR share
    /// one computed table.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let r = self.and(Bdd(f.0 ^ 1), Bdd(g.0 ^ 1));
        Bdd(r.0 ^ 1)
    }

    /// Exclusive or `f ⊕ g`. Complement parity factors out of both
    /// operands (`¬f ⊕ g = ¬(f ⊕ g)`), so the cache only ever stores
    /// regular-handle pairs.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g {
            return Bdd::FALSE;
        }
        if f.0 ^ 1 == g.0 {
            return Bdd::TRUE;
        }
        if f.is_false() {
            return g;
        }
        if g.is_false() {
            return f;
        }
        if f.is_true() {
            return self.not(g);
        }
        if g.is_true() {
            return self.not(f);
        }
        let parity = f.parity() ^ g.parity();
        let (f, g) = (Bdd(f.0 & !1), Bdd(g.0 & !1));
        let (f, g) = if f.0 > g.0 { (g, f) } else { (f, g) };
        let r = match self.caches.xor_get(f, g) {
            Some(r) => r,
            None => {
                let var = self.level(f).min(self.level(g));
                let (f0, f1) = self.cof_at(f, var);
                let (g0, g1) = self.cof_at(g, var);
                let lo = self.xor(f0, g0);
                let hi = self.xor(f1, g1);
                let r = self.mk(var, lo, hi);
                self.caches.xor_put(f, g, r);
                r
            }
        };
        Bdd(r.0 ^ parity)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// If-then-else `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal simplifications; every constant-argument case reduces to
        // a binary operation, so the recursion below only ever sees three
        // non-constant operands.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.0 ^ 1 == h.0 {
            // ite(f, g, ¬g) = f ↔ g = f ⊕ h.
            return self.xor(f, h);
        }
        if g.is_true() {
            return self.or(f, h);
        }
        if g.is_false() {
            let nf = self.not(f);
            return self.and(nf, h);
        }
        if h.is_false() {
            return self.and(f, g);
        }
        if h.is_true() {
            let nf = self.not(f);
            return self.or(nf, g);
        }
        // Normalize for the cache: regular predicate (ite(¬f, g, h) =
        // ite(f, h, g)), regular then-branch (ite(f, ¬g, ¬h) = ¬ite(f, g, h)).
        let (mut f, mut g, mut h) = (f, g, h);
        if f.parity() == 1 {
            f = Bdd(f.0 ^ 1);
            std::mem::swap(&mut g, &mut h);
        }
        let parity = g.parity();
        if parity == 1 {
            g = Bdd(g.0 ^ 1);
            h = Bdd(h.0 ^ 1);
        }
        let r = match self.caches.ite_get(f, g, h) {
            Some(r) => r,
            None => {
                let var = self.level(f).min(self.level(g)).min(self.level(h));
                let (f0, f1) = self.cof_at(f, var);
                let (g0, g1) = self.cof_at(g, var);
                let (h0, h1) = self.cof_at(h, var);
                let lo = self.ite(f0, g0, h0);
                let hi = self.ite(f1, g1, h1);
                let r = self.mk(var, lo, hi);
                self.caches.ite_put(f, g, h, r);
                r
            }
        };
        Bdd(r.0 ^ parity)
    }

    /// The cofactor of `f` with variable `v` fixed to `value`.
    pub fn restrict(&mut self, f: Bdd, v: Var, value: bool) -> Bdd {
        if f.is_const() {
            return f;
        }
        let fl = self.level(f);
        if fl > v.0 {
            // v does not occur in f (it is below the root in the order).
            return f;
        }
        // Restriction commutes with complement, so cache regular handles
        // only and re-apply the parity outside.
        let c = f.parity();
        let g = Bdd(f.0 ^ c);
        if let Some(r) = self.caches.restrict_get(g, v, value) {
            return Bdd(r.0 ^ c);
        }
        let (lo, hi) = self.cof(g);
        let r = if fl == v.0 {
            if value {
                hi
            } else {
                lo
            }
        } else {
            let lo = self.restrict(lo, v, value);
            let hi = self.restrict(hi, v, value);
            self.mk(fl, lo, hi)
        };
        self.caches.restrict_put(g, v, value, r);
        Bdd(r.0 ^ c)
    }

    /// Evaluates `f` under a total assignment: `assignment[i]` is the value of
    /// the variable at level `i`. Variables at levels beyond the slice length
    /// are treated as `false`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur.is_true() {
                return true;
            }
            if cur.is_false() {
                return false;
            }
            let c = cur.parity();
            let n = &self.nodes[cur.node_index() as usize];
            let val = assignment.get(n.var as usize).copied().unwrap_or(false);
            cur = Bdd((if val { n.hi } else { n.lo }) ^ c);
        }
    }

    /// Number of satisfying assignments of `f` over `nvars` variables
    /// (levels `0..nvars`), as an `f64` (exact up to 2^53): the
    /// all-variables case of [`Manager::sat_count_over`].
    ///
    /// # Panics
    ///
    /// Panics if `f` mentions a variable at level ≥ `nvars`.
    pub fn sat_count(&self, f: Bdd, nvars: usize) -> f64 {
        let vars: Vec<Var> = (0..nvars as u32).map(Var).collect();
        self.sat_count_over(f, &vars)
    }

    /// Number of satisfying assignments of `f` over exactly the variables
    /// `vars`, as an `f64` (exact up to 2^53). Variables outside `vars` do
    /// not scale the count, so a relation's tuples count the same however
    /// many other variables the manager holds.
    ///
    /// Counts are computed with the standard level-relative recurrence: the
    /// count at a node is taken over the counted variables *at or below*
    /// its level, with terminals conceptually below all of them.
    ///
    /// # Panics
    ///
    /// Panics if `f` mentions a variable outside `vars`.
    pub fn sat_count_over(&self, f: Bdd, vars: &[Var]) -> f64 {
        let mut levels: Vec<u32> = vars.iter().map(|v| v.level()).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        let total = self.count_rec(f, &levels, &mut memo);
        total * 2f64.powi(self.position(f, &levels) as i32)
    }

    /// The rank of `f`'s level among the counted `levels` (sorted), with
    /// terminals ranked `levels.len()`.
    fn position(&self, f: Bdd, levels: &[u32]) -> u32 {
        if f.is_const() {
            return levels.len() as u32;
        }
        let l = self.level(f);
        match levels.binary_search(&l) {
            Ok(i) => i as u32,
            Err(_) => panic!("sat_count: variable level {l} outside the counted variables"),
        }
    }

    /// Satisfying-assignment count of `f` over the counted `levels` at or
    /// below its own. Memoized on the full handle — with complement edges,
    /// `f` and `¬f` have different counts despite sharing a node.
    fn count_rec(&self, f: Bdd, levels: &[u32], memo: &mut FxHashMap<u32, f64>) -> f64 {
        if f.is_false() {
            return 0.0;
        }
        if f.is_true() {
            return 1.0;
        }
        if let Some(&c) = memo.get(&f.0) {
            return c;
        }
        let (lo, hi) = self.cof(f);
        let at = self.position(f, levels);
        let lo_gap = self.position(lo, levels) - at - 1;
        let hi_gap = self.position(hi, levels) - at - 1;
        let c = self.count_rec(lo, levels, memo) * 2f64.powi(lo_gap as i32)
            + self.count_rec(hi, levels, memo) * 2f64.powi(hi_gap as i32);
        memo.insert(f.0, c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = Manager::new();
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_false());
        // One shared terminal node: TRUE is its complemented handle.
        assert_eq!(m.stats().nodes, 1);
    }

    #[test]
    fn literal_structure() {
        let mut m = Manager::new();
        let v = m.new_var();
        let f = m.var(v);
        assert_eq!(m.root_var(f), Some(v));
        assert_eq!(m.lo(f), Bdd::FALSE);
        assert_eq!(m.hi(f), Bdd::TRUE);
        let g = m.nvar(v);
        assert_eq!(m.lo(g), Bdd::TRUE);
        assert_eq!(m.hi(g), Bdd::FALSE);
        // A literal and its negation share one arena node.
        assert_eq!(f.node_index(), g.node_index());
        assert_ne!(f, g);
    }

    #[test]
    fn not_is_o1_and_involutive() {
        let mut m = Manager::new();
        let v = m.new_vars(3);
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.and(a, b);
        let nodes_before = m.stats().nodes;
        let nf = m.not(f);
        assert_eq!(m.stats().nodes, nodes_before, "not must not allocate");
        let nnf = m.not(nf);
        assert_eq!(nnf, f);
    }

    #[test]
    fn hash_consing_canonical() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let f1 = m.and(fa, fb);
        let f2 = m.and(fb, fa);
        assert_eq!(f1, f2, "AND must be canonical irrespective of operand order");
        let g1 = m.or(fa, fb);
        let ng = m.not(g1);
        let nng = m.not(ng);
        assert_eq!(g1, nng, "double negation is identity");
    }

    #[test]
    fn de_morgan() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let and = m.and(fa, fb);
        let nand = m.not(and);
        let na = m.not(fa);
        let nb = m.not(fb);
        let or = m.or(na, nb);
        assert_eq!(nand, or);
    }

    #[test]
    fn ite_equals_definition() {
        let mut m = Manager::new();
        let vars: Vec<_> = (0..3).map(|_| m.new_var()).collect();
        let f = m.var(vars[0]);
        let g = m.var(vars[1]);
        let h = m.var(vars[2]);
        let ite = m.ite(f, g, h);
        let fg = m.and(f, g);
        let nf = m.not(f);
        let nfh = m.and(nf, h);
        let expect = m.or(fg, nfh);
        assert_eq!(ite, expect);
    }

    #[test]
    fn xor_truth_table() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let x = m.xor(fa, fb);
        assert!(!m.eval(x, &[false, false]));
        assert!(m.eval(x, &[true, false]));
        assert!(m.eval(x, &[false, true]));
        assert!(!m.eval(x, &[true, true]));
    }

    #[test]
    fn restrict_shannon() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let f = m.xor(fa, fb);
        let f_a1 = m.restrict(f, a, true);
        let nb = m.not(fb);
        assert_eq!(f_a1, nb);
        let f_a0 = m.restrict(f, a, false);
        assert_eq!(f_a0, fb);
    }

    #[test]
    fn sat_count_small() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let fc = m.var(c);
        let f = m.or(fa, fb);
        // over 3 vars: (a|b) has 6 models
        assert_eq!(m.sat_count(f, 3), 6.0);
        let g = m.and(f, fc);
        assert_eq!(m.sat_count(g, 3), 3.0);
        assert_eq!(m.sat_count(Bdd::TRUE, 3), 8.0);
        assert_eq!(m.sat_count(Bdd::FALSE, 3), 0.0);
    }

    #[test]
    fn eval_missing_vars_default_false() {
        let mut m = Manager::new();
        let a = m.new_var();
        let fa = m.var(a);
        assert!(!m.eval(fa, &[]));
    }

    #[test]
    fn with_capacity_matches_default_semantics() {
        let mut small = Manager::new();
        let mut big = Manager::with_capacity(1 << 16);
        let (vs, vb) = (small.new_vars(8), big.new_vars(8));
        let mut fs = Bdd::FALSE;
        let mut fb = Bdd::FALSE;
        for i in 0..8 {
            let (a, b) = (small.var(vs[i]), big.var(vb[i]));
            fs = small.xor(fs, a);
            fb = big.xor(fb, b);
        }
        for bits in 0..256u32 {
            let env: Vec<bool> = (0..8).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(small.eval(fs, &env), big.eval(fb, &env));
        }
        // Pre-sizing avoids growth: the unique table never rehashed.
        assert_eq!(small.stats().nodes, big.stats().nodes);
    }

    #[test]
    fn unique_table_survives_many_inserts() {
        // Push the table through several grow/incremental-rehash cycles and
        // verify canonicity is preserved throughout.
        let mut m = Manager::new();
        let vars = m.new_vars(16);
        let mut handles = Vec::new();
        for i in 0..1000u32 {
            let mut f = m.constant(true);
            for (j, &v) in vars.iter().enumerate() {
                let lit = m.literal(v, (i >> (j % 16)) & 1 == 1);
                f = m.and(f, lit);
            }
            handles.push((i, f));
        }
        for (i, f) in handles {
            let mut g = m.constant(true);
            for (j, &v) in vars.iter().enumerate() {
                let lit = m.literal(v, (i >> (j % 16)) & 1 == 1);
                g = m.and(g, lit);
            }
            assert_eq!(f, g, "hash-consing must find the original node after growth");
        }
    }

    /// Each lookup counts against its own table, and the global pair is
    /// the sum over the tables.
    #[test]
    fn cache_counts_are_kept_per_table_and_sum_to_the_totals() {
        use crate::{CacheTable, VarMap};
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let again = m.and(a, b);
        assert_eq!(again, ab);
        let cube = m.cube(&[v[1]]);
        let _ = m.and_exists(f, c, cube);
        let map = VarMap::new([(v[0], v[3])]);
        let _ = m.rename(f, &map);
        let s = m.stats();
        let table = |t: CacheTable| s.cache_tables[t as usize];
        assert!(table(CacheTable::And).hits >= 1, "the repeated conjunction is a hit");
        assert!(table(CacheTable::AndExists) != TableCounts::default());
        assert!(table(CacheTable::Rename).misses >= 1);
        assert_eq!(table(CacheTable::Restrict), TableCounts::default());
        assert_eq!(s.cache_hits, s.cache_tables.iter().map(|t| t.hits).sum::<u64>());
        assert_eq!(s.cache_misses, s.cache_tables.iter().map(|t| t.misses).sum::<u64>());
        assert!(s.cache_hits > 0 && s.cache_misses > 0);
    }
}
