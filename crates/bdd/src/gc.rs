//! Mark-sweep garbage collection for the node arena.
//!
//! The arena only grows during normal operation; long fixed-point runs call
//! [`Manager::gc`] with the handles they still need — between strata *and*,
//! since the solver learned to register its per-disjunct caches as roots,
//! in the middle of one. GC rebuilds the arena keeping exactly the nodes
//! reachable from the roots, remaps the roots (preserving each handle's
//! complement bit), rebuilds the unique table over the survivors and drops
//! the operation caches (cached results may reference dead nodes).
//!
//! A collection is the only point where the kernel's footprint falls:
//! between collections the arena, the unique table and the computed tables
//! only grow. So the peaks in [`crate::ManagerStats`] are noted here, on
//! entry, and [`Manager::stats`] folds in the current values.

use crate::manager::{Bdd, Manager, Node};
use crate::table::UniqueTable;
use getafix_telemetry::{self as telemetry, Phase};
use std::time::Instant;

/// Outcome of a garbage collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcResult {
    /// The input roots, remapped into the compacted arena (same order).
    pub roots: Vec<Bdd>,
    /// Arena size before collection, in nodes.
    pub nodes_before: usize,
    /// Arena size after collection, in nodes.
    pub nodes_after: usize,
}

impl Manager {
    /// Collects garbage, keeping exactly the nodes reachable from `roots`.
    ///
    /// Every `Bdd` handle not derived from the returned
    /// [`GcResult::roots`] is invalidated; using one afterwards yields
    /// unspecified (but memory-safe) results. Operation caches are cleared.
    pub fn gc(&mut self, roots: &[Bdd]) -> GcResult {
        let pause_start = Instant::now();
        let mut span = telemetry::span(Phase::Bdd, "gc");
        // The footprint is at its largest since the last collection; note
        // it before the arena is replaced by the compacted copy.
        let nodes_before = self.nodes.len();
        self.stats.peak_nodes = self.stats.peak_nodes.max(nodes_before);
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.current_bytes());

        // Mark: old node index -> new node index, dense (the arena is the
        // key space, so a flat vector beats a hash map). The terminal keeps
        // slot 0.
        let mut remap: Vec<u32> = vec![u32::MAX; self.nodes.len()];
        remap[0] = 0;
        let mut new_nodes: Vec<Node> = vec![self.nodes[0]];

        // Depth-first copy that assigns new indices in child-before-parent
        // order so the new arena stays topologically sorted.
        for &root in roots {
            self.copy_rec(root.node_index(), &mut remap, &mut new_nodes);
        }

        let new_roots: Vec<Bdd> =
            roots.iter().map(|r| Bdd((remap[r.node_index() as usize] << 1) | r.parity())).collect();

        let nodes_after = new_nodes.len();
        self.nodes = new_nodes;
        self.unique.rebuild(&self.nodes, UniqueTable::capacity_for(nodes_after));
        self.caches.clear();
        self.stats.gcs += 1;
        self.stats.gc_reclaimed_nodes += (nodes_before - nodes_after) as u64;

        let pause_ms = pause_start.elapsed().as_secs_f64() * 1e3;
        self.stats.gc_pause_ms += pause_ms;
        if span.is_recording() {
            span.attr("nodes_before", nodes_before);
            span.attr("nodes_after", nodes_after);
            span.attr("reclaimed", nodes_before - nodes_after);
            span.attr("pause_ms", pause_ms);
        }

        GcResult { roots: new_roots, nodes_before, nodes_after }
    }

    fn copy_rec(&self, old: u32, remap: &mut [u32], new_nodes: &mut Vec<Node>) -> u32 {
        let seen = remap[old as usize];
        if seen != u32::MAX {
            return seen;
        }
        let node = self.nodes[old as usize];
        // Edges carry the complement bit; remap the index, keep the parity.
        let lo = self.copy_rec(node.lo >> 1, remap, new_nodes);
        let hi = self.copy_rec(node.hi >> 1, remap, new_nodes);
        let idx = new_nodes.len() as u32;
        new_nodes.push(Node {
            var: node.var,
            lo: (lo << 1) | (node.lo & 1),
            hi: (hi << 1) | (node.hi & 1),
        });
        remap[old as usize] = idx;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Manager;

    #[test]
    fn gc_reclaims_dead_nodes() {
        let mut m = Manager::new();
        let v = m.new_vars(8);
        // Build a live function and a pile of garbage.
        let live = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            m.and(a, b)
        };
        for i in 0..6 {
            let a = m.var(v[i]);
            let b = m.var(v[i + 1]);
            let g = m.xor(a, b);
            let _dead = m.or(g, a);
        }
        let before = m.stats().nodes;
        let result = m.gc(&[live]);
        assert_eq!(result.nodes_before, before);
        assert!(result.nodes_after < before);
        // The remapped root must denote the same function.
        let live2 = result.roots[0];
        assert!(m.eval(live2, &[true, true]));
        assert!(!m.eval(live2, &[true, false]));
    }

    #[test]
    fn gc_preserves_semantics_and_canonicity() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let c = m.var(v[2]);
            let ab = m.xor(a, b);
            m.or(ab, c)
        };
        let g = {
            let c = m.var(v[2]);
            let d = m.var(v[3]);
            m.and(c, d)
        };
        let result = m.gc(&[f, g]);
        let (f2, g2) = (result.roots[0], result.roots[1]);
        // Rebuild the same functions; hash-consing must find the kept nodes.
        let f3 = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let c = m.var(v[2]);
            let ab = m.xor(a, b);
            m.or(ab, c)
        };
        let g3 = {
            let c = m.var(v[2]);
            let d = m.var(v[3]);
            m.and(c, d)
        };
        assert_eq!(f2, f3);
        assert_eq!(g2, g3);
    }

    #[test]
    fn gc_with_constant_roots() {
        let mut m = Manager::new();
        let v = m.new_var();
        let a = m.var(v);
        let _ = m.not(a);
        let result = m.gc(&[Bdd::TRUE, Bdd::FALSE]);
        assert_eq!(result.roots, vec![Bdd::TRUE, Bdd::FALSE]);
        // The single shared terminal is all that survives.
        assert_eq!(result.nodes_after, 1);
    }

    #[test]
    fn gc_preserves_complement_parity() {
        let mut m = Manager::new();
        let v = m.new_vars(3);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            m.and(a, b)
        };
        let nf = m.not(f);
        let result = m.gc(&[f, nf]);
        let (f2, nf2) = (result.roots[0], result.roots[1]);
        let nf2b = m.not(f2);
        assert_eq!(nf2, nf2b, "complement bit must survive the remap");
        for bits in 0..4u32 {
            let env = [(bits & 1) == 1, (bits & 2) == 2];
            assert_eq!(m.eval(f2, &env), !m.eval(nf2, &env));
        }
    }

    #[test]
    fn gc_shared_subgraphs_counted_once() {
        let mut m = Manager::new();
        let v = m.new_vars(3);
        let shared = {
            let a = m.var(v[1]);
            let b = m.var(v[2]);
            m.and(a, b)
        };
        let x = m.var(v[0]);
        let f = m.and(x, shared);
        let nx = m.nvar(v[0]);
        let g = m.and(nx, shared);
        let result = m.gc(&[f, g, shared]);
        // nodes: terminal, (v2), (v1∧v2), f=(v0? shared:0), g=(v0? 0:shared)
        assert_eq!(result.nodes_after, 5);
    }
}
