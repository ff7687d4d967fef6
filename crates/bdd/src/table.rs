//! The open-addressed unique table: hash-consing without per-node boxing.
//!
//! The table stores *arena indices* in a power-of-two array of slots probed
//! linearly; the node payload `(var, lo, hi)` lives inline in the arena
//! (`Manager::nodes`), so a probe is one load from the slot array and one
//! load from the arena — no pointer chasing through hash-map buckets and no
//! per-entry allocation, unlike the previous `FxHashMap<Node, u32>`.
//!
//! # Incremental rehash
//!
//! Growing never stops the world. When the load factor crosses 3/4 the
//! table allocates a slot array of twice the capacity and keeps the old
//! array around; every subsequent insertion migrates a fixed chunk of
//! arena entries into the new array, and lookups consult the new array
//! first and fall back to the old one until the migration cursor has swept
//! the whole pre-grow arena. The arena itself is the ground truth (it
//! densely lists every node), which is what makes cursor-based migration
//! this simple.

use crate::manager::Node;

/// Sentinel for an empty slot. Arena index 0 is the terminal node, which is
/// never hash-consed, so any value would do — `u32::MAX` also doubles as an
/// "impossible index" guard.
const EMPTY: u32 = u32::MAX;

/// Slots migrated from the old generation per insertion while a rehash is
/// in flight.
const MIGRATE_CHUNK: usize = 64;

/// Smallest slot-array size (must be a power of two).
const MIN_CAPACITY: usize = 256;

/// Multiplicative constant shared with [`crate::hasher::FxHasher`].
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hash of a node triple. The mix must (and does) depend on all three
/// words; the unique table and the computed caches both key on it.
#[inline]
pub(crate) fn hash_node(var: u32, lo: u32, hi: u32) -> u64 {
    let mut h = (u64::from(var).rotate_left(5) ^ u64::from(lo)).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ u64::from(hi)).wrapping_mul(SEED);
    // Spread the high bits down: the index is taken from the low bits.
    h ^ (h >> 32)
}

/// The previous slot array while an incremental rehash is in flight.
#[derive(Debug)]
struct OldGeneration {
    slots: Vec<u32>,
    mask: u64,
    /// Next arena index to migrate into the new array.
    cursor: u32,
    /// One past the last arena index the old array can contain (the arena
    /// length at grow time; later nodes were inserted into the new array).
    limit: u32,
}

/// Open-addressed, linearly probed table of arena indices.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Vec<u32>,
    mask: u64,
    /// Entries in `slots` (excludes entries still only in `old`).
    len: usize,
    old: Option<OldGeneration>,
    /// Nodes appended to the arena since the manager was built; a
    /// [`UniqueTable::rebuild`] keeps the count.
    pub(crate) created: u64,
}

impl UniqueTable {
    /// A table pre-sized for roughly `nodes` arena entries.
    pub(crate) fn with_node_capacity(nodes: usize) -> UniqueTable {
        let cap = (nodes.saturating_mul(4) / 3 + 1).next_power_of_two().max(MIN_CAPACITY);
        UniqueTable {
            slots: vec![EMPTY; cap],
            mask: (cap - 1) as u64,
            len: 0,
            old: None,
            created: 0,
        }
    }

    /// Bytes currently held by the slot arrays (both generations).
    pub(crate) fn bytes(&self) -> usize {
        let old = self.old.as_ref().map_or(0, |o| o.slots.len() * std::mem::size_of::<u32>());
        self.slots.len() * std::mem::size_of::<u32>() + old
    }

    /// Looks up the node `(var, lo, hi)` in `slots`/`mask`, returning the
    /// arena index on a hit or the insertion slot on a miss.
    #[inline]
    fn probe(
        slots: &[u32],
        mask: u64,
        nodes: &[Node],
        var: u32,
        lo: u32,
        hi: u32,
    ) -> Result<u32, usize> {
        let mut i = (hash_node(var, lo, hi) & mask) as usize;
        loop {
            let s = slots[i];
            if s == EMPTY {
                return Err(i);
            }
            let n = &nodes[s as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(s);
            }
            i = (i + 1) & mask as usize;
        }
    }

    /// Inserts `idx` (which must not already be present) into the current
    /// generation.
    #[inline]
    fn insert_new(&mut self, nodes: &[Node], idx: u32) {
        let n = &nodes[idx as usize];
        match Self::probe(&self.slots, self.mask, nodes, n.var, n.lo, n.hi) {
            Ok(found) => debug_assert_eq!(found, idx, "unique table: duplicate node"),
            Err(slot) => {
                self.slots[slot] = idx;
                self.len += 1;
            }
        }
    }

    /// Advances the in-flight migration by up to `budget` arena entries.
    fn migrate(&mut self, nodes: &[Node], budget: usize) {
        let Some(old) = &mut self.old else { return };
        let end = old.limit.min(old.cursor.saturating_add(budget as u32));
        let (mut cursor, limit) = (old.cursor, old.limit);
        while cursor < end {
            let idx = cursor;
            cursor += 1;
            let n = &nodes[idx as usize];
            match Self::probe(&self.slots, self.mask, nodes, n.var, n.lo, n.hi) {
                Ok(_) => {}
                Err(slot) => {
                    self.slots[slot] = idx;
                    self.len += 1;
                }
            }
        }
        if cursor >= limit {
            self.old = None;
        } else if let Some(o) = &mut self.old {
            o.cursor = cursor;
        }
    }

    /// Finishes any in-flight migration immediately.
    fn drain(&mut self, nodes: &[Node]) {
        while self.old.is_some() {
            self.migrate(nodes, usize::MAX / 2);
        }
    }

    /// Doubles the slot array, starting an incremental rehash. Any previous
    /// rehash is drained first, so at most two generations ever exist.
    fn grow(&mut self, nodes: &[Node]) {
        self.drain(nodes);
        let cap = self.slots.len() * 2;
        getafix_telemetry::event(getafix_telemetry::Phase::Bdd, "unique_rehash", || {
            vec![("old_capacity", self.slots.len().into()), ("new_capacity", cap.into())]
        });
        let fresh = vec![EMPTY; cap];
        let old_slots = std::mem::replace(&mut self.slots, fresh);
        self.old = Some(OldGeneration {
            slots: old_slots,
            mask: self.mask,
            // Index 0 is the terminal node, never hash-consed.
            cursor: 1,
            limit: nodes.len() as u32,
        });
        self.mask = (cap - 1) as u64;
        self.len = 0;
    }

    /// Hash-consing lookup: returns the index of the node `(var, lo, hi)`,
    /// appending it to `nodes` if it does not exist yet.
    pub(crate) fn get_or_insert(
        &mut self,
        nodes: &mut Vec<Node>,
        var: u32,
        lo: u32,
        hi: u32,
    ) -> u32 {
        self.migrate(nodes, MIGRATE_CHUNK);
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow(nodes);
        }
        match Self::probe(&self.slots, self.mask, nodes, var, lo, hi) {
            Ok(idx) => idx,
            Err(slot) => {
                // Not in the current generation; check the old one before
                // allocating. A hit is promoted so repeat lookups stay
                // single-probe.
                if let Some(old) = &self.old {
                    if old.cursor < old.limit {
                        if let Ok(idx) = Self::probe(&old.slots, old.mask, nodes, var, lo, hi) {
                            self.slots[slot] = idx;
                            self.len += 1;
                            return idx;
                        }
                    }
                }
                let idx = nodes.len() as u32;
                assert!(idx < u32::MAX / 2, "BDD arena overflow (2^31 nodes)");
                nodes.push(Node { var, lo, hi });
                self.created += 1;
                self.slots[slot] = idx;
                self.len += 1;
                idx
            }
        }
    }

    /// Rebuilds the table from scratch over `nodes` (used after GC
    /// compaction). Every arena index ≥ 1 is inserted; none counts as
    /// created.
    pub(crate) fn rebuild(&mut self, nodes: &[Node]) {
        *self =
            UniqueTable { created: self.created, ..UniqueTable::with_node_capacity(nodes.len()) };
        for idx in 1..nodes.len() as u32 {
            self.insert_new(nodes, idx);
        }
    }
}
