//! Lossy computed tables (operation caches) for the manager.
//!
//! Every recursive BDD operation memoizes results keyed on operand handles.
//! Unlike the previous growable `FxHashMap`s, each table here is a
//! **fixed-size direct-mapped array**: a key hashes to exactly one slot, a
//! colliding insert overwrites whatever lived there, and a lookup compares
//! the stored key exactly before returning the stored result.
//!
//! # Why lossiness is sound
//!
//! Canonicity of the arena makes cache keys *exact*: equal keys always
//! denote equal results, so a hit can never return a wrong value — only a
//! stale-generation or overwritten entry can be *missed*, in which case the
//! operation simply recomputes (and, being deterministic over a canonical
//! arena, recomputes the identical handle). Lossiness therefore affects
//! throughput, never results.
//!
//! # Generations instead of `clear()`
//!
//! Invalidating after a GC (cached results may reference reclaimed nodes)
//! does not touch the arrays at all: a single generation counter is bumped,
//! and every slot stamped with an older generation reads as empty. This
//! makes [`Caches::clear`] O(1) — important now that GC can run in the
//! middle of a long stratum.
//!
//! # Fixed sizes
//!
//! Every table has one size, a constant below, as a log₂ slot count. It
//! is allocated at that size on first use and never grows; managers that
//! never touch an operation never pay for its table, and the full set
//! totals a few MiB. The committed `BENCH_bdd.json` pins the kernel
//! counters these sizes produce.
//!
//! # Counted per table
//!
//! Every lookup counts one hit or one miss against its own table
//! ([`CacheTable`]), an O(1) increment, so a run's kernel work splits by
//! operation family; [`crate::ManagerStats::cache_hits`] and
//! [`crate::ManagerStats::cache_misses`] are the sums over the tables.

use crate::manager::{Bdd, Var};
use crate::table::hash_node;

/// The conjunction cache (disjunction is derived from it via complement
/// edges, negation is free).
const AND_BITS: u32 = 14;
/// The exclusive-or cache.
const XOR_BITS: u32 = 12;
/// The if-then-else cache.
const ITE_BITS: u32 = 12;
/// The existential-quantification cache.
const EXISTS_BITS: u32 = 13;
/// The fused `∃·∧` relational-product cache.
const AND_EXISTS_BITS: u32 = 15;
/// The variable-renaming cache.
const RENAME_BITS: u32 = 12;
/// The fused `∃·(rename ∧ ·)` image cache.
const RENAME_AND_EXISTS_BITS: u32 = 15;
/// The single-variable restriction cache.
const RESTRICT_BITS: u32 = 12;
/// The cube-cofactor ([`crate::Manager::restrict_cube`]) cache.
const COFACTOR_BITS: u32 = 12;

/// The computed tables, one per operation family: [`CacheTable::And`]
/// serves disjunction too (through complement edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTable {
    And,
    Xor,
    Ite,
    Exists,
    AndExists,
    Rename,
    RenameAndExists,
    Restrict,
    Cofactor,
}

impl CacheTable {
    /// Every table, in [`crate::ManagerStats::cache_tables`] order.
    pub const ALL: [CacheTable; 9] = [
        CacheTable::And,
        CacheTable::Xor,
        CacheTable::Ite,
        CacheTable::Exists,
        CacheTable::AndExists,
        CacheTable::Rename,
        CacheTable::RenameAndExists,
        CacheTable::Restrict,
        CacheTable::Cofactor,
    ];

    /// The table's name in statistics output.
    pub fn name(self) -> &'static str {
        match self {
            CacheTable::And => "and",
            CacheTable::Xor => "xor",
            CacheTable::Ite => "ite",
            CacheTable::Exists => "exists",
            CacheTable::AndExists => "and_exists",
            CacheTable::Rename => "rename",
            CacheTable::RenameAndExists => "rename_and_exists",
            CacheTable::Restrict => "restrict",
            CacheTable::Cofactor => "cofactor",
        }
    }
}

/// One computed table's lookups: those that found their key and those
/// that did not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCounts {
    pub hits: u64,
    pub misses: u64,
}

/// A two-key direct-mapped entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot2 {
    a: u32,
    b: u32,
    r: u32,
    gen: u32,
}

/// A three-key direct-mapped entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot3 {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
    gen: u32,
}

/// A four-key direct-mapped entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot4 {
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    r: u32,
    gen: u32,
}

/// All computed tables plus the shared generation counter.
#[derive(Debug)]
pub(crate) struct Caches {
    and: Vec<Slot2>,
    xor: Vec<Slot2>,
    ite: Vec<Slot3>,
    exists: Vec<Slot2>,
    and_exists: Vec<Slot3>,
    rename: Vec<Slot2>,
    rename_and_exists: Vec<Slot4>,
    restrict: Vec<Slot2>,
    cofactor: Vec<Slot2>,
    /// Current generation; slots stamped with anything else are empty.
    /// Starts at 1 so zero-initialized slots read as empty.
    gen: u32,
    /// Per table, in [`CacheTable::ALL`] order.
    pub(crate) counts: [TableCounts; 9],
}

#[inline]
fn index2(table_len: usize, a: u32, b: u32) -> usize {
    (hash_node(0, a, b) as usize) & (table_len - 1)
}

#[inline]
fn index3(table_len: usize, a: u32, b: u32, c: u32) -> usize {
    (hash_node(a, b, c) as usize) & (table_len - 1)
}

#[inline]
fn index4(table_len: usize, a: u32, b: u32, c: u32, d: u32) -> usize {
    (hash_node(a, b, c).wrapping_add(u64::from(d).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize)
        & (table_len - 1)
}

impl Caches {
    /// Tables are allocated *lazily*, on the first insertion into each:
    /// short-lived managers (one per solved case in a differential or
    /// bench sweep) never pay for zeroing slots an operation mix does not
    /// touch.
    pub(crate) fn new() -> Caches {
        Caches {
            and: Vec::new(),
            xor: Vec::new(),
            ite: Vec::new(),
            exists: Vec::new(),
            and_exists: Vec::new(),
            rename: Vec::new(),
            rename_and_exists: Vec::new(),
            restrict: Vec::new(),
            cofactor: Vec::new(),
            gen: 1,
            counts: [TableCounts::default(); 9],
        }
    }

    /// Bytes held by the computed tables.
    pub(crate) fn bytes(&self) -> usize {
        self.and.len() * std::mem::size_of::<Slot2>()
            + self.xor.len() * std::mem::size_of::<Slot2>()
            + self.ite.len() * std::mem::size_of::<Slot3>()
            + self.exists.len() * std::mem::size_of::<Slot2>()
            + self.and_exists.len() * std::mem::size_of::<Slot3>()
            + self.rename.len() * std::mem::size_of::<Slot2>()
            + self.rename_and_exists.len() * std::mem::size_of::<Slot4>()
            + self.restrict.len() * std::mem::size_of::<Slot2>()
            + self.cofactor.len() * std::mem::size_of::<Slot2>()
    }

    /// Invalidates every entry in O(1) by bumping the generation. On the
    /// (practically unreachable) 2³²-nd clear the arrays are zeroed to keep
    /// stale stamps from aliasing the restarted counter.
    pub(crate) fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        getafix_telemetry::event(getafix_telemetry::Phase::Bdd, "cache_generation_bump", || {
            vec![("generation", self.gen.into())]
        });
        if self.gen == 0 {
            self.and.fill(Slot2::default());
            self.xor.fill(Slot2::default());
            self.ite.fill(Slot3::default());
            self.exists.fill(Slot2::default());
            self.and_exists.fill(Slot3::default());
            self.rename.fill(Slot2::default());
            self.rename_and_exists.fill(Slot4::default());
            self.restrict.fill(Slot2::default());
            self.cofactor.fill(Slot2::default());
            self.gen = 1;
        }
    }

    #[inline]
    fn get2(table: &[Slot2], gen: u32, a: u32, b: u32) -> Option<Bdd> {
        if table.is_empty() {
            return None;
        }
        let s = &table[index2(table.len(), a, b)];
        (s.gen == gen && s.a == a && s.b == b).then_some(Bdd(s.r))
    }

    #[inline]
    fn put2(table: &mut Vec<Slot2>, bits: u32, gen: u32, a: u32, b: u32, r: u32) {
        if table.is_empty() {
            table.resize(1usize << bits, Slot2::default());
        }
        let i = index2(table.len(), a, b);
        table[i] = Slot2 { a, b, r, gen };
    }

    #[inline]
    fn get3(table: &[Slot3], gen: u32, a: u32, b: u32, c: u32) -> Option<Bdd> {
        if table.is_empty() {
            return None;
        }
        let s = &table[index3(table.len(), a, b, c)];
        (s.gen == gen && s.a == a && s.b == b && s.c == c).then_some(Bdd(s.r))
    }

    #[inline]
    fn put3(table: &mut Vec<Slot3>, bits: u32, gen: u32, a: u32, b: u32, c: u32, r: u32) {
        if table.is_empty() {
            table.resize(1usize << bits, Slot3::default());
        }
        let i = index3(table.len(), a, b, c);
        table[i] = Slot3 { a, b, c, r, gen };
    }

    #[inline]
    fn get4(table: &[Slot4], gen: u32, a: u32, b: u32, c: u32, d: u32) -> Option<Bdd> {
        if table.is_empty() {
            return None;
        }
        let s = &table[index4(table.len(), a, b, c, d)];
        (s.gen == gen && s.a == a && s.b == b && s.c == c && s.d == d).then_some(Bdd(s.r))
    }

    #[inline]
    fn put4(table: &mut Vec<Slot4>, bits: u32, gen: u32, key: (u32, u32, u32, u32), r: u32) {
        if table.is_empty() {
            table.resize(1usize << bits, Slot4::default());
        }
        let (a, b, c, d) = key;
        let i = index4(table.len(), a, b, c, d);
        table[i] = Slot4 { a, b, c, d, r, gen };
    }

    #[inline]
    fn record(&mut self, table: CacheTable, hit: Option<Bdd>) -> Option<Bdd> {
        let counts = &mut self.counts[table as usize];
        match hit {
            Some(_) => counts.hits += 1,
            None => counts.misses += 1,
        }
        hit
    }

    #[inline]
    pub(crate) fn and_get(&mut self, f: Bdd, g: Bdd) -> Option<Bdd> {
        let hit = Self::get2(&self.and, self.gen, f.0, g.0);
        self.record(CacheTable::And, hit)
    }

    #[inline]
    pub(crate) fn and_put(&mut self, f: Bdd, g: Bdd, r: Bdd) {
        Self::put2(&mut self.and, AND_BITS, self.gen, f.0, g.0, r.0);
    }

    #[inline]
    pub(crate) fn xor_get(&mut self, f: Bdd, g: Bdd) -> Option<Bdd> {
        let hit = Self::get2(&self.xor, self.gen, f.0, g.0);
        self.record(CacheTable::Xor, hit)
    }

    #[inline]
    pub(crate) fn xor_put(&mut self, f: Bdd, g: Bdd, r: Bdd) {
        Self::put2(&mut self.xor, XOR_BITS, self.gen, f.0, g.0, r.0);
    }

    #[inline]
    pub(crate) fn ite_get(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        let hit = Self::get3(&self.ite, self.gen, f.0, g.0, h.0);
        self.record(CacheTable::Ite, hit)
    }

    #[inline]
    pub(crate) fn ite_put(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        Self::put3(&mut self.ite, ITE_BITS, self.gen, f.0, g.0, h.0, r.0);
    }

    #[inline]
    pub(crate) fn exists_get(&mut self, f: Bdd, cube: Bdd) -> Option<Bdd> {
        let hit = Self::get2(&self.exists, self.gen, f.0, cube.0);
        self.record(CacheTable::Exists, hit)
    }

    #[inline]
    pub(crate) fn exists_put(&mut self, f: Bdd, cube: Bdd, r: Bdd) {
        Self::put2(&mut self.exists, EXISTS_BITS, self.gen, f.0, cube.0, r.0);
    }

    #[inline]
    pub(crate) fn and_exists_get(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Option<Bdd> {
        let hit = Self::get3(&self.and_exists, self.gen, f.0, g.0, cube.0);
        self.record(CacheTable::AndExists, hit)
    }

    #[inline]
    pub(crate) fn and_exists_put(&mut self, f: Bdd, g: Bdd, cube: Bdd, r: Bdd) {
        Self::put3(&mut self.and_exists, AND_EXISTS_BITS, self.gen, f.0, g.0, cube.0, r.0);
    }

    #[inline]
    pub(crate) fn rename_get(&mut self, f: Bdd, map_id: u32) -> Option<Bdd> {
        let hit = Self::get2(&self.rename, self.gen, f.0, map_id);
        self.record(CacheTable::Rename, hit)
    }

    #[inline]
    pub(crate) fn rename_put(&mut self, f: Bdd, map_id: u32, r: Bdd) {
        Self::put2(&mut self.rename, RENAME_BITS, self.gen, f.0, map_id, r.0);
    }

    #[inline]
    pub(crate) fn rename_and_exists_get(
        &mut self,
        f: Bdd,
        map_id: u32,
        g: Bdd,
        cube: Bdd,
    ) -> Option<Bdd> {
        let hit = Self::get4(&self.rename_and_exists, self.gen, f.0, map_id, g.0, cube.0);
        self.record(CacheTable::RenameAndExists, hit)
    }

    #[inline]
    pub(crate) fn rename_and_exists_put(&mut self, f: Bdd, map_id: u32, g: Bdd, cube: Bdd, r: Bdd) {
        Self::put4(
            &mut self.rename_and_exists,
            RENAME_AND_EXISTS_BITS,
            self.gen,
            (f.0, map_id, g.0, cube.0),
            r.0,
        );
    }

    #[inline]
    pub(crate) fn restrict_get(&mut self, f: Bdd, v: Var, value: bool) -> Option<Bdd> {
        let key = (v.0 << 1) | u32::from(value);
        let hit = Self::get2(&self.restrict, self.gen, f.0, key);
        self.record(CacheTable::Restrict, hit)
    }

    #[inline]
    pub(crate) fn restrict_put(&mut self, f: Bdd, v: Var, value: bool, r: Bdd) {
        let key = (v.0 << 1) | u32::from(value);
        Self::put2(&mut self.restrict, RESTRICT_BITS, self.gen, f.0, key, r.0);
    }

    #[inline]
    pub(crate) fn cofactor_get(&mut self, f: Bdd, cube: Bdd) -> Option<Bdd> {
        let hit = Self::get2(&self.cofactor, self.gen, f.0, cube.0);
        self.record(CacheTable::Cofactor, hit)
    }

    #[inline]
    pub(crate) fn cofactor_put(&mut self, f: Bdd, cube: Bdd, r: Bdd) {
        Self::put2(&mut self.cofactor, COFACTOR_BITS, self.gen, f.0, cube.0, r.0);
    }
}
