//! The open-addressed unique table: hash-consing without per-node boxing.
//!
//! The table stores *arena indices* in a power-of-two array of slots probed
//! linearly; the node payload `(var, lo, hi)` lives inline in the arena
//! (`Manager::nodes`), so a probe is one load from the slot array and one
//! load from the arena — no pointer chasing through hash-map buckets and no
//! per-entry allocation, unlike the previous `FxHashMap<Node, u32>`.
//!
//! # One rebuild
//!
//! The arena is the ground truth: it densely lists every node. So the table
//! has one way to change size, [`UniqueTable::rebuild`], which inserts
//! arena indices 1.. into a fresh slot array. A lookup that could insert
//! the entry that takes the load factor to 3/4 first rebuilds at twice the
//! capacity; a collection rebuilds over the survivors at the smallest
//! capacity that holds them.

use crate::manager::Node;

/// Sentinel for an empty slot. Arena index 0 is the terminal node, which is
/// never hash-consed, so any value would do — `u32::MAX` also doubles as an
/// "impossible index" guard.
const EMPTY: u32 = u32::MAX;

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

/// Open-addressed, linearly probed table of arena indices. It holds every
/// arena index ≥ 1, so it has one entry fewer than the arena has nodes.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Vec<u32>,
    mask: u64,
    /// Nodes appended to the arena since the manager was built; a
    /// [`UniqueTable::rebuild`] keeps the count.
    pub(crate) created: u64,
}

impl UniqueTable {
    /// An empty table of the smallest capacity.
    pub(crate) fn new() -> UniqueTable {
        UniqueTable {
            slots: vec![EMPTY; MIN_CAPACITY],
            mask: (MIN_CAPACITY - 1) as u64,
            created: 0,
        }
    }

    /// The smallest capacity that holds `nodes` arena entries below load
    /// 3/4.
    pub(crate) fn capacity_for(nodes: usize) -> usize {
        (nodes.saturating_mul(4) / 3 + 1).next_power_of_two().max(MIN_CAPACITY)
    }

    /// Bytes held by the slot array.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }

    /// Looks up the node `(var, lo, hi)`, returning the arena index on a
    /// hit or the insertion slot on a miss.
    #[inline]
    fn probe(&self, nodes: &[Node], var: u32, lo: u32, hi: u32) -> Result<u32, usize> {
        let mut i = (hash_node(var, lo, hi) & self.mask) as usize;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Err(i);
            }
            let n = &nodes[s as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(s);
            }
            i = (i + 1) & self.mask as usize;
        }
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
        if nodes.len() * 4 >= self.slots.len() * 3 {
            let cap = self.slots.len() * 2;
            getafix_telemetry::event(getafix_telemetry::Phase::Bdd, "unique_rehash", || {
                vec![("old_capacity", self.slots.len().into()), ("new_capacity", cap.into())]
            });
            self.rebuild(nodes, cap);
        }
        match self.probe(nodes, var, lo, hi) {
            Ok(idx) => idx,
            Err(slot) => {
                let idx = nodes.len() as u32;
                assert!(idx < u32::MAX / 2, "BDD arena overflow (2^31 nodes)");
                nodes.push(Node { var, lo, hi });
                self.created += 1;
                self.slots[slot] = idx;
                idx
            }
        }
    }

    /// Replaces the slot array with one of `capacity` slots (a power of
    /// two that holds `nodes` below load 3/4) and inserts every arena
    /// index ≥ 1 — index 0 is the terminal, never hash-consed. None counts
    /// as created.
    pub(crate) fn rebuild(&mut self, nodes: &[Node], capacity: usize) {
        debug_assert!(capacity.is_power_of_two() && nodes.len() * 4 < capacity * 3);
        self.slots = vec![EMPTY; capacity];
        self.mask = (capacity - 1) as u64;
        for idx in 1..nodes.len() as u32 {
            let n = &nodes[idx as usize];
            match self.probe(nodes, n.var, n.lo, n.hi) {
                Ok(found) => debug_assert_eq!(found, idx, "unique table: duplicate node"),
                Err(slot) => self.slots[slot] = idx,
            }
        }
    }
}
