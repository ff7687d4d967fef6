//! How fast the host is right now, measured with a fixed reference
//! workload that shares no code with the program: a minimal hash-consed
//! BDD package building the 6-queens constraint.
//!
//! On a shared host, everything slows by a third or more in phases that
//! last minutes, longer than a run, so no statistic over one run's samples
//! can take it out. Synthetic probes (an ALU loop, pointer chases over
//! 1 MB and 32 MB, hash-table inserts) tracked the program's slowdowns
//! poorly, but program-like code tracks them well: cases of different
//! workloads slow together almost exactly (see `NOTES.md`). Reported times
//! are therefore scaled to a reference host speed: `wall ×
//! REFERENCE_PROBE_MS ÷ probe ms`, with the probe run between cases.
//! Raw walls are printed next to them.

use std::time::Instant;

/// Board size of the reference problem.
const QUEENS: u32 = 6;

/// Slots in the unique table and the computed cache (powers of two).
const UNIQUE_SLOTS: usize = 1 << 17;
const CACHE_SLOTS: usize = 1 << 15;

/// Most nodes the reference problem builds.
const MAX_NODES: usize = 1 << 16;

/// Milliseconds one probe takes on the reference host (2-vCPU Xeon VM at
/// 2.1 GHz, in its faster phases). A run that measures this reports its
/// raw walls.
pub const REFERENCE_PROBE_MS: f64 = 1.3;

const FALSE: u32 = 0;
const TRUE: u32 = 1;
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    And = 1,
    Or = 2,
}

/// The reference workload's BDD package; its tables are allocated once
/// and cleared before every probe.
pub struct HostProbe {
    /// `(var, lo, hi)`; nodes 0 and 1 are the terminals.
    nodes: Vec<[u32; 3]>,
    /// Node indices, open addressing with linear probing.
    unique: Vec<u32>,
    /// `(op, a, b, result)`, direct-mapped.
    cache: Vec<[u32; 4]>,
}

fn hash(a: u32, b: u32, c: u32) -> usize {
    let h = (u64::from(a) << 42 ^ u64::from(b) << 21 ^ u64::from(c))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as usize
}

impl HostProbe {
    /// Allocates the tables and touches every page of them.
    pub fn new() -> HostProbe {
        let mut nodes = vec![[0; 3]; MAX_NODES];
        nodes.clear();
        HostProbe { nodes, unique: vec![EMPTY; UNIQUE_SLOTS], cache: vec![[0; 4]; CACHE_SLOTS] }
    }

    /// Resident bytes the probe adds to the process.
    pub fn bytes(&self) -> u64 {
        (self.nodes.capacity() * 12 + self.unique.len() * 4 + self.cache.len() * 16) as u64
    }

    /// Milliseconds of one probe: clears the tables and builds the
    /// reference BDD.
    ///
    /// # Panics
    ///
    /// If the reference BDD comes out wrong (6-queens has 4 solutions).
    pub fn probe_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let root = self.queens();
        let solutions = self.count(root, 0);
        assert_eq!(solutions, 4, "the host probe's BDD is wrong");
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn var(&self, f: u32) -> u32 {
        if f <= TRUE {
            QUEENS * QUEENS
        } else {
            self.nodes[f as usize][0]
        }
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let mask = UNIQUE_SLOTS - 1;
        let mut slot = hash(var, lo, hi) & mask;
        loop {
            let at = self.unique[slot];
            if at == EMPTY {
                let id = self.nodes.len() as u32;
                assert!(self.nodes.len() < MAX_NODES, "the host probe outgrew its tables");
                self.nodes.push([var, lo, hi]);
                self.unique[slot] = id;
                return id;
            }
            if self.nodes[at as usize] == [var, lo, hi] {
                return at;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn apply(&mut self, op: Op, a: u32, b: u32) -> u32 {
        match (op, a, b) {
            (Op::And, FALSE, _) | (Op::And, _, FALSE) => return FALSE,
            (Op::Or, TRUE, _) | (Op::Or, _, TRUE) => return TRUE,
            (Op::And, TRUE, x) | (Op::And, x, TRUE) | (Op::Or, FALSE, x) | (Op::Or, x, FALSE) => {
                return x
            }
            _ if a == b => return a,
            _ => {}
        }
        let (a, b) = (a.min(b), a.max(b));
        let slot = hash(op as u32, a, b) & (CACHE_SLOTS - 1);
        if self.cache[slot][..3] == [op as u32, a, b] {
            return self.cache[slot][3];
        }
        let v = self.var(a).min(self.var(b));
        let split = |p: &Self, f: u32| {
            if p.var(f) == v {
                let [_, lo, hi] = p.nodes[f as usize];
                (lo, hi)
            } else {
                (f, f)
            }
        };
        let (a0, a1) = split(self, a);
        let (b0, b1) = split(self, b);
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache[slot] = [op as u32, a, b, r];
        r
    }

    /// The 6-queens constraint, one variable per square: a queen on every
    /// row, no two queens attacking each other.
    fn queens(&mut self) -> u32 {
        self.nodes.clear();
        self.nodes.extend([[QUEENS * QUEENS, 0, 0], [QUEENS * QUEENS, 1, 1]]);
        self.unique.fill(EMPTY);
        self.cache.fill([0; 4]);
        let n = QUEENS;
        let mut all = TRUE;
        for r in 0..n {
            let mut row = FALSE;
            for c in 0..n {
                let q = self.mk(r * n + c, FALSE, TRUE);
                row = self.apply(Op::Or, row, q);
            }
            all = self.apply(Op::And, all, row);
        }
        for a in 0..n * n {
            for b in a + 1..n * n {
                let (ra, ca, rb, cb) = (a / n, a % n, b / n, b % n);
                let attacks = ra == rb || ca == cb || ra.abs_diff(rb) == ca.abs_diff(cb);
                if attacks {
                    let na = self.mk(a, TRUE, FALSE);
                    let nb = self.mk(b, TRUE, FALSE);
                    let apart = self.apply(Op::Or, na, nb);
                    all = self.apply(Op::And, all, apart);
                }
            }
        }
        all
    }

    /// Satisfying assignments of `f` over the variables from `level` on.
    fn count(&self, f: u32, level: u32) -> u64 {
        let skipped = |to: u32| 1u64 << (to - level);
        match f {
            FALSE => 0,
            TRUE => skipped(QUEENS * QUEENS),
            _ => {
                let [v, lo, hi] = self.nodes[f as usize];
                (self.count(lo, v + 1) + self.count(hi, v + 1)) * skipped(v)
            }
        }
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

/// The factor that scales a wall measured while a probe took `probe_ms`
/// to the reference host speed.
pub fn speed_factor(probe_ms: f64) -> f64 {
    REFERENCE_PROBE_MS / probe_ms
}
