//! Solve provenance: *when* each tuple first entered each top-level
//! fixpoint, as a product of the one and only solve.
//!
//! While a top-level fixpoint evaluation runs (under either
//! [`crate::Strategy`]), the solver can snapshot the relation's value
//! after every change. The snapshot index of a tuple's first appearance is
//! its **rank** — a well-founded derivation measure: a tuple of rank `r`
//! is derivable by one application of the relation's defining body from
//! tuples of rank `< r` (under round-robin because round `r` is computed
//! from round `r - 1`'s frozen value; under the worklist engine because
//! single-member iterations and the ordered non-monotone schedule compile
//! each round against the previously recorded value).
//!
//! Witness extraction onion-peels these ranks back to the initial
//! configurations instead of re-solving a second system; see
//! `getafix-witness`. Recording is off by default
//! ([`crate::SolveOptions::record_provenance`]) because snapshots pin
//! intermediate BDDs for the lifetime of the solve.

use getafix_bdd::{Bdd, Manager};
use std::collections::BTreeMap;

/// Rank-indexed frontier snapshots per top-level relation.
///
/// Obtained from [`crate::Solver::provenance`]; cleared whenever an input
/// changes ([`crate::Solver::set_input`]), because every recorded rank may
/// be stale afterwards.
#[derive(Debug, Default)]
pub struct Provenance {
    /// Per-relation snapshots: `snapshots[name][i]` is the relation's value
    /// after its `(i + 1)`-th change. ⊆-increasing; the last entry equals
    /// the final interpretation.
    snapshots: BTreeMap<String, Vec<Bdd>>,
    /// Memoized [`Provenance::node_footprint`] — invalidated whenever a
    /// snapshot is added or everything is cleared. A GC remap keeps it:
    /// compaction renames nodes but preserves the DAG shape.
    footprint: std::cell::Cell<Option<usize>>,
}

impl Provenance {
    /// The snapshot sequence of `name`, or `None` when the relation was
    /// never evaluated at the top level (or recording was off).
    pub fn snapshots(&self, name: &str) -> Option<&[Bdd]> {
        self.snapshots.get(name).map(Vec::as_slice)
    }

    /// The number of recorded ranks of `name` (0 when unrecorded).
    pub fn rank_count(&self, name: &str) -> usize {
        self.snapshots.get(name).map_or(0, Vec::len)
    }

    /// Were any snapshots recorded at all?
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The names of the relations with recorded provenance.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.snapshots.keys().map(String::as_str)
    }

    /// The **first-change rank** of the assignment `env` in `name`'s
    /// snapshots: the least `i` with `env ∈ snapshots[i]`, found by binary
    /// search (snapshots are ⊆-increasing). `None` when the tuple never
    /// appears or nothing was recorded.
    pub fn rank_of(&self, manager: &Manager, name: &str, env: &[bool]) -> Option<usize> {
        let snaps = self.snapshots.get(name)?;
        let (mut lo, mut hi) = (0usize, snaps.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if manager.eval(snaps[mid], env) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo < snaps.len()).then_some(lo)
    }

    /// The set of tuples of rank **strictly below** `rank`: snapshot
    /// `rank - 1`, or `⊥` for rank 0. Out-of-range ranks saturate to the
    /// final snapshot (every recorded tuple has rank below them).
    pub fn below(&self, name: &str, rank: usize) -> Bdd {
        match self.snapshots.get(name) {
            None => Bdd::FALSE,
            Some(_) if rank == 0 => Bdd::FALSE,
            Some(snaps) => snaps[(rank - 1).min(snaps.len() - 1)],
        }
    }

    /// The number of distinct BDD nodes pinned by all recorded snapshots
    /// (shared structure counted once) — the memory cost of provenance,
    /// surfaced as [`crate::SolveStats::provenance_nodes`]. Memoized: the
    /// multi-root DAG walk only reruns after new snapshots arrive.
    pub fn node_footprint(&self, manager: &Manager) -> usize {
        if let Some(v) = self.footprint.get() {
            return v;
        }
        let roots: Vec<Bdd> = self.snapshots.values().flatten().copied().collect();
        let v = if roots.is_empty() { 0 } else { manager.node_count_many(&roots) };
        self.footprint.set(Some(v));
        v
    }

    /// Every snapshot handle, for GC root collection.
    pub(crate) fn roots(&self) -> impl Iterator<Item = Bdd> + '_ {
        self.snapshots.values().flatten().copied()
    }

    /// Remaps every snapshot handle after a GC (same iteration order as
    /// [`Provenance::roots`]).
    pub(crate) fn remap(&mut self, mut remapped: impl Iterator<Item = Bdd>) {
        for snaps in self.snapshots.values_mut() {
            for s in snaps.iter_mut() {
                *s = remapped.next().expect("remap length mismatch");
            }
        }
    }

    /// Records a post-change snapshot of `name`.
    pub(crate) fn note(&mut self, name: &str, value: Bdd) {
        crate::solve::entry_mut(&mut self.snapshots, name, Vec::new).push(value);
        self.footprint.set(None);
    }

    /// Forgets everything (inputs changed; ranks are stale).
    pub(crate) fn clear(&mut self) {
        self.snapshots.clear();
        self.footprint.set(None);
    }
}
