//! The three workloads as lists of cases, each rendered to the source text
//! a user would hand to `getafix check` / `check-conc`.
//!
//! Expected verdicts come from the generators, never from the solver:
//! `expect_reachable` holds by construction for the drivers, and the
//! Bluetooth grid uses the documented Figure 3 bug thresholds.

use getafix::workloads::{adder_err_label, bluetooth, driver, DriverSpec, FIGURE3_CONFIGS};

/// The workloads the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SLAM-shaped device drivers drawn from the seed, checked with `--slice`.
    Drivers,
    /// The Figure 3 Bluetooth grid at 1–3 context switches.
    Bluetooth,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Drivers, Workload::Bluetooth];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Drivers => "drivers",
            Workload::Bluetooth => "bluetooth",
        }
    }

    /// Parses a `--workload` value.
    ///
    /// # Errors
    ///
    /// Names the accepted values when `s` is none of them.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (drivers, bluetooth)"))
    }
}

/// How large a corpus to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's corpus.
    Full,
    /// A few cheap cases per workload, covering the same layers (self-test).
    Small,
}

/// What a case asks of the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `getafix check FILE --label L --trace`, plus `--slice` when `slice`.
    Seq { label: String, slice: bool },
    /// `getafix check-conc FILE --switches K --trace`, with every adder's
    /// error label as a target.
    Conc { labels: Vec<String>, switches: usize },
}

/// One benchmark case: a program as source text and the question asked.
#[derive(Debug, Clone)]
pub struct Case {
    /// Unique within the corpus.
    pub name: String,
    /// The rendered program (`.bp` for [`Query::Seq`], `.cbp` for
    /// [`Query::Conc`]).
    pub source: String,
    /// The check to run.
    pub query: Query,
    /// The generator's answer.
    pub expect_reachable: bool,
}

impl Case {
    /// FNV-1a 64 of the source text: two runs measured the same input iff
    /// their case lists (name, verdict, hash) agree.
    pub fn source_hash(&self) -> u64 {
        self.source.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// The `slam_suites(1)` shapes: (name, programs, handlers, globals,
/// locals per handler). Filler is 4 statements per handler, as there.
const DRIVER_SHAPES: [(&str, usize, usize, usize, usize); 4] = [
    ("iscsiprt", 15, 6, 3, 8),
    ("floppy", 12, 8, 5, 10),
    ("driver-neg", 4, 6, 8, 8),
    ("iscsi", 16, 7, 12, 12),
];

/// Programs drawn per `slam_suites(1)` program: more draws make the
/// corpus's slow tail depend less on the seed.
const DRIVER_DRAWS: usize = 4;

/// First context-switch bound at which the Figure 3 bug manifests, per
/// `(adders, stoppers)` configuration (`None`: never).
fn fig3_threshold(adders: usize, stoppers: usize) -> Option<usize> {
    match (adders, stoppers) {
        (1, 2) | (2, 2) => Some(3),
        (2, 1) => Some(4),
        _ => None,
    }
}

/// Builds the corpus of `workload` from `seed`; the same seed gives the
/// same cases. Only the drivers are drawn from the seed. The order is
/// fixed: on Bluetooth, shuffling it moved the process's peak RSS by a
/// third from seed to seed.
pub fn build(workload: Workload, seed: u64, scale: Scale) -> Vec<Case> {
    match workload {
        Workload::Drivers => drivers(seed, scale),
        Workload::Bluetooth => bluetooth_grid(scale),
    }
}

/// A handler that takes the lock twice but that no dispatch loop calls.
/// Its label is unreachable because nothing calls it, and the slice drops
/// dead procedures, so a check of it ends in the slice, before any solve.
const ORPHAN_HANDLER: &str = "\nunregistered() begin\n  call acquire();\n  \
                              if (lock) then ORPHAN: skip; fi;\n  call release();\nend\n";

fn drivers(seed: u64, scale: Scale) -> Vec<Case> {
    let mut rng = SplitMix64(seed);
    let mut cases = Vec::new();
    for (shape, count, handlers, globals, locals) in DRIVER_SHAPES {
        let count = if scale == Scale::Small { 2 } else { count * DRIVER_DRAWS };
        // Alternating polarity from a seeded phase: half of each shape plants
        // the double acquire, half does not.
        let phase = rng.next() % 2;
        for i in 0..count {
            let positive = (i as u64 + phase).is_multiple_of(2);
            let spec =
                DriverSpec { handlers, globals, locals, filler: 4, positive, seed: rng.next() };
            let name = format!("{shape}-{i:02}{}", if positive { '+' } else { '-' });
            let d = driver(&name, spec);
            cases.push(Case {
                name,
                source: d.program.to_string(),
                query: Query::Seq { label: d.label, slice: true },
                expect_reachable: d.expect_reachable,
            });
        }
        // One driver per shape is asked about an unregistered handler.
        let spec =
            DriverSpec { handlers, globals, locals, filler: 4, positive: false, seed: rng.next() };
        let name = format!("{shape}-orphan");
        let d = driver(&name, spec);
        cases.push(Case {
            name,
            source: format!("{}{ORPHAN_HANDLER}", d.program),
            query: Query::Seq { label: "ORPHAN".into(), slice: true },
            expect_reachable: false,
        });
    }
    cases
}

fn bluetooth_grid(scale: Scale) -> Vec<Case> {
    let grid: Vec<(usize, usize, usize)> = match scale {
        Scale::Full => {
            FIGURE3_CONFIGS.iter().flat_map(|&(_, a, s)| (1..=3).map(move |k| (a, s, k))).collect()
        }
        Scale::Small => vec![(1, 1, 1), (1, 2, 2), (1, 2, 3)],
    };
    grid.into_iter()
        .map(|(adders, stoppers, switches)| Case {
            name: format!("bt-{adders}a{stoppers}s-k{switches}"),
            source: bluetooth(adders, stoppers).to_string(),
            query: Query::Conc { labels: (0..adders).map(adder_err_label).collect(), switches },
            expect_reachable: fig3_threshold(adders, stoppers).is_some_and(|t| switches >= t),
        })
        .collect()
}

/// SplitMix64: the seed stream for driver spec seeds and polarity.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
