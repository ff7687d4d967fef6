//! The fixed-point solver: two strategies over one equation system.
//!
//! # `Strategy::RoundRobin` — the paper's §3 operational semantics
//!
//! The reference evaluator is the paper's `Evaluate(R, Eq)`. To evaluate a
//! relation `R` defined by `R = B`:
//!
//! 1. start with `S := ∅`;
//! 2. in each round, freeze `R ↦ S`, evaluate every relation occurring in
//!    `B` under that frozen environment (recursively, by the same
//!    procedure), then re-evaluate `B` to obtain the next `S`;
//! 3. stop when `S` stabilizes.
//!
//! For *positive* systems this computes the least fixed point
//! (Tarski–Knaster). For non-positive systems — the optimized entry-forward
//! algorithm (§4.3) needs one — the procedure is still well-defined and the
//! specific equations we run are written to terminate; a configurable
//! iteration bound turns accidental divergence into an error. Round-robin is
//! kept unoptimized on purpose: it is the executable definition the fast
//! path is differentially tested against.
//!
//! # `Strategy::Worklist` — dependency-ordered chaotic iteration
//!
//! The default strategy (see `worklist.rs` for the engine and `deps.rs` for
//! the dependency analysis) stratifies the system into SCCs of the
//! relation-dependency graph and solves them dependencies-first:
//!
//! * non-recursive relations are evaluated **exactly once**;
//! * monotone recursive components run chaotic iteration from a worklist,
//!   re-evaluating a relation only when something it reads has changed, and
//!   re-compiling only the top-level disjuncts that mention a changed
//!   relation (semi-naive propagation);
//! * non-monotone components fitting the §4.3 **frontier pattern**
//!   ([`crate::DepGraph::ordered_plan`]) run an *ordered change-driven
//!   schedule* that reproduces the nested §3 round sequence exactly while
//!   recompiling only disjuncts whose reads changed; the rest are routed
//!   to the nested §3 semantics above, with already-solved outer strata
//!   memoized.
//!
//! **When do the strategies agree?** On every component that is monotone
//! (all intra-component applications positive), both compute the unique
//! least fixed point, so interpretations — as canonical BDDs — are
//! *identical*. On non-monotone components the worklist strategy either
//! replays the round-robin round sequence bit for bit (ordered schedule)
//! or defers to it wholesale (nested fallback), so results again coincide.
//! The difference is purely how much work is re-done: round-robin
//! re-evaluates every inner relation of a body from scratch every round
//! (nested fixpoints multiply), the worklist engine never re-evaluates a
//! relation — or a disjunct — whose inputs did not change.
//! [`SolveStats::total_reevaluations`] makes the difference measurable.

use crate::alloc::{owner_query, owner_rel, Allocation};
use crate::compile::CompileCtx;
use crate::deps::DepGraph;
use crate::limits::{LimitKind, LimitReport, ResourceLimits};
use crate::provenance::Provenance;
use crate::system::{RelationKind, System, SystemError};
use getafix_bdd::{Bdd, Manager};
use getafix_telemetry::json::JsonWriter;
use getafix_telemetry::{self as telemetry, Phase};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// Errors produced while solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// An input relation was applied but never supplied.
    MissingInterpretation(String),
    /// Evaluation exceeded the iteration bound (non-positive system that
    /// does not stabilize, or the bound is too small).
    Diverged { relation: String, bound: usize },
    /// A query did not reduce to a constant (free variables escaped).
    OpenQuery(String),
    /// Unknown relation or query name.
    Unknown(String),
    /// System-level error surfaced during setup.
    System(String),
    /// Invalid solver options (e.g. a zero iteration bound).
    Options(String),
    /// A resource bound tripped ([`crate::ResourceLimits`]): deadline,
    /// node budget, step budget, or an external cancellation. The boxed
    /// [`LimitReport`] carries the partial [`SolveStats`] collected up to
    /// the trip. Equality compares the limit kind only.
    LimitExceeded(Box<LimitReport>),
    /// Invariant violation (a bug in the caller or in this crate).
    Internal(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::MissingInterpretation(n) => {
                write!(f, "input relation `{n}` has no interpretation")
            }
            SolveError::Diverged { relation, bound } => {
                write!(f, "evaluation of `{relation}` did not stabilize within {bound} rounds")
            }
            SolveError::OpenQuery(n) => write!(f, "query `{n}` has free variables"),
            SolveError::Unknown(n) => write!(f, "unknown relation or query `{n}`"),
            SolveError::System(msg) => write!(f, "{msg}"),
            SolveError::Options(msg) => write!(f, "invalid solver options: {msg}"),
            SolveError::LimitExceeded(report) => write!(f, "{report}"),
            SolveError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SystemError> for SolveError {
    fn from(e: SystemError) -> Self {
        SolveError::System(e.to_string())
    }
}

/// How the solver schedules fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The paper's §3 `Evaluate(R, Eq)` nested semantics, unoptimized.
    /// Every relation occurring in a body is fully re-evaluated each round.
    /// Kept as the executable reference the fast path is tested against.
    RoundRobin,
    /// Dependency-ordered worklist iteration (the default): SCC strata,
    /// change-driven re-evaluation, semi-naive disjunct propagation.
    /// Non-monotone frontier-pattern components run an ordered
    /// change-driven schedule (exact w.r.t. the reference rounds); other
    /// non-monotone components fall back to the round-robin semantics.
    #[default]
    Worklist,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::RoundRobin => write!(f, "round-robin"),
            Strategy::Worklist => write!(f, "worklist"),
        }
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "round-robin" | "roundrobin" | "rr" => Ok(Strategy::RoundRobin),
            "worklist" | "wl" => Ok(Strategy::Worklist),
            other => {
                Err(format!("unknown strategy `{other}` (expected `worklist` or `round-robin`)"))
            }
        }
    }
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum rounds per relation before declaring divergence.
    /// Zero is rejected by [`Solver::with_options`].
    pub max_iterations: usize,
    /// Iteration scheduling strategy.
    pub strategy: Strategy,
    /// Record the [`Provenance`] of every top-level fixpoint evaluation
    /// (see [`Solver::provenance`]): the relation's value after each
    /// change, so the first snapshot containing a tuple is a well-founded
    /// rank witness extraction can onion-peel — directly from the verdict
    /// solve, no second system. Off by default — snapshots pin
    /// intermediate BDDs and cost memory proportional to the iteration
    /// count ([`SolveStats::provenance_nodes`] reports how much).
    pub record_provenance: bool,
    /// Garbage-collect the node arena once it exceeds this many nodes,
    /// keeping exactly the live roots (inputs, memoized interpretations,
    /// provenance snapshots — plus, inside a running stratum, the
    /// iteration's own state: member environments, per-disjunct caches and
    /// domain constraints). Collections trigger both *between* SCC strata
    /// and *inside* a long-running monotone or ordered iteration, so a
    /// single huge component no longer pins its intermediate garbage.
    /// `None` disables collection. Only the worklist strategy collects;
    /// the round-robin reference never does.
    pub gc_threshold: Option<usize>,
    /// Resource bounds: wall-clock deadline, arena node budget, global
    /// step budget, plus the shared cancellation token every poll point
    /// checks. All off by default. Cloning the limits *shares* the
    /// deadline and token, so one budget governs the solve and whatever
    /// else the caller runs under the same clone (witness extraction,
    /// explicit refinement). On a trip the solver returns
    /// [`SolveError::LimitExceeded`] with partial statistics; on node
    /// pressure it first forces a collection and only fails if the live
    /// set itself exceeds the budget.
    pub limits: ResourceLimits,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions::new()
    }
}

impl SolveOptions {
    /// The default iteration bound.
    pub const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

    /// The default GC threshold: collect between strata once the arena
    /// holds this many nodes (~tens of MB of node storage).
    pub const DEFAULT_GC_THRESHOLD: usize = 1 << 21;

    /// Default options with an explicit strategy.
    pub fn with_strategy(strategy: Strategy) -> SolveOptions {
        SolveOptions { strategy, ..SolveOptions::new() }
    }

    /// The default options (worklist strategy, 10⁶-round bound, no
    /// provenance recording, inter-stratum GC at the default threshold).
    pub fn new() -> SolveOptions {
        SolveOptions {
            max_iterations: Self::DEFAULT_MAX_ITERATIONS,
            strategy: Strategy::default(),
            record_provenance: false,
            gc_threshold: Some(Self::DEFAULT_GC_THRESHOLD),
            limits: ResourceLimits::default(),
        }
    }

    fn validate(&self) -> Result<(), SolveError> {
        if self.max_iterations == 0 {
            return Err(SolveError::Options(
                "max_iterations must be at least 1 (0 would reject every fixpoint)".into(),
            ));
        }
        Ok(())
    }
}

/// Per-relation evaluation statistics.
#[derive(Debug, Clone, Default)]
pub struct RelationStats {
    /// Outer rounds taken to stabilize (top-level evaluations only for
    /// [`Strategy::RoundRobin`]; worklist passes for [`Strategy::Worklist`]).
    pub iterations: usize,
    /// Total body compilations of this relation, **including** nested
    /// re-evaluations — the work measure the worklist engine minimizes.
    pub reevaluations: usize,
    /// DAG node count of the final interpretation.
    pub final_nodes: usize,
    /// Peak DAG node count of the interpretation across rounds.
    pub peak_nodes: usize,
    /// Index of the relation's SCC in [`SolveStats::sccs`].
    pub scc: Option<usize>,
}

/// Per-SCC statistics (components in dependency-topological order).
#[derive(Debug, Clone, Default)]
pub struct SccStats {
    /// Member relation names.
    pub members: Vec<String>,
    /// Does the component contain a cycle (self-loops included)?
    pub recursive: bool,
    /// Are all intra-component applications positive?
    pub monotone: bool,
    /// Total body compilations attributed to members of this component.
    pub evaluations: usize,
    /// Did the worklist engine run this (non-monotone) component on the
    /// ordered change-driven schedule instead of the nested §3 fallback?
    pub ordered: bool,
    /// Wall-clock time spent solving this component, in milliseconds
    /// (worklist strategy only; round-robin does not attribute time to
    /// components).
    pub wall_ms: f64,
    /// Indices (into [`SolveStats::sccs`]) of the components this one
    /// reads from — the SCC-level dependency edges, deduplicated and
    /// sorted. Populated at solver construction, which is what lets the
    /// topology report ([`crate::depgraph_dot`]) render the full solve
    /// graph from a statistics object alone.
    pub dep_sccs: Vec<usize>,
}

impl SccStats {
    /// The schedule the worklist engine uses for this component:
    /// `"once"` (non-recursive), `"chaotic"` (monotone semi-naive),
    /// `"ordered"` (§4.3 frontier-pattern change-driven) or `"nested"`
    /// (the §3 reference fallback). `ordered` is only known after the
    /// component has been solved; before that, non-monotone recursive
    /// components report `"nested"`.
    pub fn schedule(&self) -> &'static str {
        if self.ordered {
            "ordered"
        } else if !self.recursive {
            "once"
        } else if self.monotone {
            "chaotic"
        } else {
            "nested"
        }
    }
}

/// Work attributed to one top-level disjunct of a relation body — the
/// granularity the semi-naive engine recompiles at, hence the right unit
/// for answering "which part of which body is eating the solve".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisjunctStats {
    /// A short pretty-printed prefix of the disjunct, for humans.
    pub label: String,
    /// Times this disjunct's formula was recompiled against a changed
    /// environment.
    pub recompilations: usize,
    /// Total DAG nodes across all compiled results (growth pressure this
    /// disjunct puts on the arena).
    pub nodes_built: u64,
    /// Largest single compiled result, in DAG nodes.
    pub peak_nodes: usize,
    /// Wall-clock time spent compiling this disjunct, in microseconds.
    pub wall_us: u64,
}

/// Aggregated solver statistics.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Statistics per evaluated relation.
    pub relations: BTreeMap<String, RelationStats>,
    /// Statistics per dependency SCC, in topological (dependencies-first)
    /// order. Populated at solver construction; `evaluations` grows as the
    /// solver runs.
    pub sccs: Vec<SccStats>,
    /// Body compilations spent inside ordered non-monotone schedules (a
    /// subset of [`SolveStats::total_reevaluations`]); zero when every
    /// non-monotone component ran the nested reference fallback.
    pub ordered_reevaluations: usize,
    /// Distinct BDD nodes pinned by the recorded provenance snapshots
    /// (0 when recording is off) — the memory price of rank provenance.
    pub provenance_nodes: usize,
    /// Garbage collections performed (between strata and mid-stratum).
    pub gcs: usize,
    /// Total nodes reclaimed by those collections.
    pub gc_reclaimed_nodes: usize,
    /// Total wall-clock time spent inside GC pauses, in milliseconds
    /// (mirrors [`getafix_bdd::ManagerStats::gc_pause_ms`]).
    pub gc_pause_ms: f64,
    /// BDD operation-cache hits, from [`getafix_bdd::ManagerStats`].
    pub cache_hits: u64,
    /// BDD operation-cache misses, from [`getafix_bdd::ManagerStats`].
    pub cache_misses: u64,
    /// Current BDD arena size in nodes at the end of the last evaluation.
    pub arena_nodes: usize,
    /// Current bytes held by the BDD arena, unique table and computed
    /// caches.
    pub arena_bytes: usize,
    /// Peak of `arena_bytes` observed by the manager.
    pub peak_arena_bytes: usize,
    /// Per-disjunct work attribution, keyed `"Relation#index"` (index =
    /// position among the body's top-level disjuncts). Worklist strategy
    /// only; the round-robin reference compiles whole bodies.
    pub disjuncts: BTreeMap<String, DisjunctStats>,
}

impl SolveStats {
    /// Total body compilations across all relations — the scheduler-quality
    /// measure: `Worklist` must never exceed `RoundRobin` on it.
    pub fn total_reevaluations(&self) -> usize {
        self.relations.values().map(|r| r.reevaluations).sum()
    }

    /// Renders the statistics as a self-contained JSON object — the single
    /// serialization consumed by `getafix … --stats-json`, the bench
    /// reporter and CI artifacts, so no tool re-derives numbers by hand.
    pub fn to_json(&self) -> String {
        self.to_json_with_metrics(None)
    }

    /// [`SolveStats::to_json`] with the telemetry metrics registry embedded
    /// as a trailing `"metrics"` field — what `--stats-json` emits when a
    /// collector is installed, and what diagnostics bundles always carry.
    /// With `None` the output is byte-identical to [`SolveStats::to_json`],
    /// so runs without a collector keep their schema unchanged.
    pub fn to_json_with_metrics(&self, metrics: Option<&getafix_telemetry::Registry>) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("total_reevaluations", self.total_reevaluations() as u64);
        w.field_u64("ordered_reevaluations", self.ordered_reevaluations as u64);
        w.field_u64("provenance_nodes", self.provenance_nodes as u64);
        w.field_u64("gcs", self.gcs as u64);
        w.field_u64("gc_reclaimed_nodes", self.gc_reclaimed_nodes as u64);
        w.field_f64("gc_pause_ms", self.gc_pause_ms);
        w.field_u64("cache_hits", self.cache_hits);
        w.field_u64("cache_misses", self.cache_misses);
        w.field_u64("arena_nodes", self.arena_nodes as u64);
        w.field_u64("arena_bytes", self.arena_bytes as u64);
        w.field_u64("peak_arena_bytes", self.peak_arena_bytes as u64);
        w.key("relations");
        w.begin_array();
        for (name, r) in &self.relations {
            w.begin_object();
            w.field_str("name", name);
            w.field_u64("iterations", r.iterations as u64);
            w.field_u64("reevaluations", r.reevaluations as u64);
            w.field_u64("final_nodes", r.final_nodes as u64);
            w.field_u64("peak_nodes", r.peak_nodes as u64);
            w.key("scc");
            match r.scc {
                Some(s) => w.value_u64(s as u64),
                None => w.value_null(),
            }
            w.end_object();
        }
        w.end_array();
        w.key("sccs");
        w.begin_array();
        for scc in &self.sccs {
            w.begin_object();
            w.key("members");
            w.begin_array();
            for m in &scc.members {
                w.value_str(m);
            }
            w.end_array();
            w.field_bool("recursive", scc.recursive);
            w.field_bool("monotone", scc.monotone);
            w.field_bool("ordered", scc.ordered);
            w.field_str("schedule", scc.schedule());
            w.field_u64("evaluations", scc.evaluations as u64);
            w.field_f64("wall_ms", scc.wall_ms);
            w.key("dep_sccs");
            w.begin_array();
            for &d in &scc.dep_sccs {
                w.value_u64(d as u64);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("disjuncts");
        w.begin_array();
        for (key, d) in &self.disjuncts {
            w.begin_object();
            w.field_str("key", key);
            w.field_str("label", &d.label);
            w.field_u64("recompilations", d.recompilations as u64);
            w.field_u64("nodes_built", d.nodes_built);
            w.field_u64("peak_nodes", d.peak_nodes as u64);
            w.field_u64("wall_us", d.wall_us);
            w.end_object();
        }
        w.end_array();
        if let Some(reg) = metrics {
            w.key("metrics");
            reg.write_json(&mut w);
        }
        w.end_object();
        w.finish()
    }

    /// The "top offenders" table of `--profile`: the `n` disjuncts doing
    /// the most recompilation work, ranked by recompilations, then total
    /// nodes built, then key — a run-deterministic order (wall time is
    /// shown but never ranks). Empty string when nothing was attributed
    /// (round-robin strategy, or a solve with no fixpoint work).
    pub fn top_offenders(&self, n: usize) -> String {
        use std::fmt::Write as _;
        if self.disjuncts.is_empty() {
            return String::new();
        }
        let mut rows: Vec<(&String, &DisjunctStats)> = self.disjuncts.iter().collect();
        rows.sort_by(|a, b| {
            b.1.recompilations
                .cmp(&a.1.recompilations)
                .then_with(|| b.1.nodes_built.cmp(&a.1.nodes_built))
                .then_with(|| a.0.cmp(b.0))
        });
        rows.truncate(n);
        let key_w = rows.iter().map(|(k, _)| k.len()).chain([12]).max().unwrap_or(12);
        let mut out = String::new();
        let _ = writeln!(out, "top offenders (by disjunct recompilations):");
        let _ = writeln!(
            out,
            "{:<key_w$} {:>10} {:>12} {:>10} {:>9}  formula",
            "disjunct", "recompiles", "nodes built", "peak", "ms"
        );
        for (key, d) in rows {
            let _ = writeln!(
                out,
                "{:<key_w$} {:>10} {:>12} {:>10} {:>9.2}  {}",
                key,
                d.recompilations,
                d.nodes_built,
                d.peak_nodes,
                d.wall_us as f64 / 1e3,
                d.label
            );
        }
        out
    }

    /// Accumulates another run's statistics into this one — used by the
    /// bench reporter to aggregate a workload into one JSON object. All
    /// runs of one workload share an algorithm, hence a system shape, so
    /// SCC tables of equal length merge positionally; mismatched shapes
    /// concatenate instead.
    pub fn absorb(&mut self, other: &SolveStats) {
        for (name, r) in &other.relations {
            let e = self.relations.entry(name.clone()).or_default();
            e.iterations += r.iterations;
            e.reevaluations += r.reevaluations;
            e.final_nodes = e.final_nodes.max(r.final_nodes);
            e.peak_nodes = e.peak_nodes.max(r.peak_nodes);
            e.scc = e.scc.or(r.scc);
        }
        if self.sccs.len() == other.sccs.len() {
            for (mine, theirs) in self.sccs.iter_mut().zip(&other.sccs) {
                mine.evaluations += theirs.evaluations;
                mine.ordered |= theirs.ordered;
                mine.wall_ms += theirs.wall_ms;
                if mine.dep_sccs.is_empty() {
                    mine.dep_sccs = theirs.dep_sccs.clone();
                }
            }
        } else {
            self.sccs.extend(other.sccs.iter().cloned());
        }
        for (key, d) in &other.disjuncts {
            let e = self.disjuncts.entry(key.clone()).or_default();
            if e.label.is_empty() {
                e.label = d.label.clone();
            }
            e.recompilations += d.recompilations;
            e.nodes_built += d.nodes_built;
            e.peak_nodes = e.peak_nodes.max(d.peak_nodes);
            e.wall_us += d.wall_us;
        }
        self.ordered_reevaluations += other.ordered_reevaluations;
        self.provenance_nodes = self.provenance_nodes.max(other.provenance_nodes);
        self.gcs += other.gcs;
        self.gc_reclaimed_nodes += other.gc_reclaimed_nodes;
        self.gc_pause_ms += other.gc_pause_ms;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.arena_nodes = self.arena_nodes.max(other.arena_nodes);
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
    }
}

/// The solver: owns the manager, the allocation and the interpretations.
#[derive(Debug)]
pub struct Solver {
    pub(crate) manager: Manager,
    pub(crate) system: System,
    pub(crate) alloc: Allocation,
    pub(crate) deps: DepGraph,
    pub(crate) inputs: BTreeMap<String, Bdd>,
    /// Memoized top-level (empty-frozen-environment) interpretations.
    pub(crate) evaluated: BTreeMap<String, Bdd>,
    pub(crate) options: SolveOptions,
    pub(crate) stats: SolveStats,
    /// Rank provenance of every top-level fixpoint evaluation (see
    /// [`SolveOptions::record_provenance`]).
    pub(crate) provenance: Provenance,
}

impl Solver {
    /// Creates a solver for `system` with default options.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (undeclared types).
    pub fn new(system: System) -> Result<Solver, SolveError> {
        Self::with_options(system, SolveOptions::default())
    }

    /// Creates a solver with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (undeclared types) and rejects
    /// semantically invalid options ([`SolveError::Options`]).
    pub fn with_options(system: System, options: SolveOptions) -> Result<Solver, SolveError> {
        options.validate()?;
        let mut manager = Manager::new();
        let alloc = Allocation::build(&mut manager, &system)?;
        let deps = DepGraph::build(&system);
        let mut stats = SolveStats::default();
        for (idx, scc) in deps.sccs().iter().enumerate() {
            let mut dep_sccs: Vec<usize> = scc
                .external_deps
                .iter()
                .map(|&rel| deps.scc_of(rel))
                .filter(|&s| s != idx)
                .collect();
            dep_sccs.sort_unstable();
            dep_sccs.dedup();
            stats.sccs.push(SccStats {
                members: scc.members.iter().map(|&i| deps.name(i).to_string()).collect(),
                recursive: scc.recursive,
                monotone: scc.monotone,
                evaluations: 0,
                ordered: false,
                wall_ms: 0.0,
                dep_sccs,
            });
        }
        Ok(Solver {
            manager,
            system,
            alloc,
            deps,
            inputs: BTreeMap::new(),
            evaluated: BTreeMap::new(),
            options,
            stats,
            provenance: Provenance::default(),
        })
    }

    /// The underlying manager (input relations are built against it).
    pub fn manager(&mut self) -> &mut Manager {
        &mut self.manager
    }

    /// Read-only view of the manager, for non-mutating operations
    /// (`eval`, `cubes`, `sat_one`, node counts).
    pub fn manager_ref(&self) -> &Manager {
        &self.manager
    }

    /// The variable allocation (to look up formal-parameter variables when
    /// building input relations).
    pub fn alloc(&self) -> &Allocation {
        &self.alloc
    }

    /// The system being solved.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The relation-dependency graph driving the worklist strategy.
    pub fn deps(&self) -> &DepGraph {
        &self.deps
    }

    /// The options the solver was built with.
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The rank provenance recorded so far (see
    /// [`SolveOptions::record_provenance`]).
    ///
    /// Snapshots are ⊆-increasing and the last one equals the final
    /// interpretation. The **rank property** witness extraction relies on:
    /// a tuple first appearing in snapshot `i` is derivable (by one
    /// application of the relation's body) from tuples that already appear
    /// in snapshots `< i` — under the round-robin semantics because round
    /// `i` is computed from round `i - 1`'s value, under the worklist
    /// strategy for *single-member* monotone components because each
    /// semi-naive delta is compiled against the previously recorded value,
    /// and under the ordered non-monotone schedule because it reproduces
    /// the reference round sequence exactly. (For multi-member monotone
    /// components the per-relation sequences are still increasing, but
    /// ranks are not comparable across members.)
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Pushes a provenance snapshot for `name` (no-op unless recording).
    pub(crate) fn note_provenance(&mut self, name: &str, value: Bdd) {
        if self.options.record_provenance {
            self.provenance.note(name, value);
        }
    }

    /// Supplies the interpretation of an input relation.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unknown`] if `name` is not an input relation.
    pub fn set_input(&mut self, name: &str, bdd: Bdd) -> Result<(), SolveError> {
        match self.system.relation(name) {
            Some(rel) if rel.kind == RelationKind::Input => {
                self.inputs.insert(name.to_string(), bdd);
                // Interpretations downstream may change, and every
                // recorded rank with them.
                self.evaluated.clear();
                self.provenance.clear();
                Ok(())
            }
            Some(_) => Err(SolveError::System(format!("`{name}` is not an input relation"))),
            None => Err(SolveError::Unknown(name.to_string())),
        }
    }

    /// Evaluates relation `name` under the configured [`Strategy`] and
    /// returns its interpretation (a BDD over the relation's formal
    /// variables).
    ///
    /// Top-level results are memoized until the next [`Solver::set_input`].
    ///
    /// **Handle lifetime:** when inter-stratum GC is enabled
    /// ([`SolveOptions::gc_threshold`], on by default), a *later* call to
    /// `evaluate`/[`Solver::eval_query`] may compact the arena, remapping
    /// only the solver's own tables. Do not hold a returned [`Bdd`] across
    /// another evaluation — re-read it (it stays memoized, remapped, under
    /// the same name).
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub fn evaluate(&mut self, name: &str) -> Result<Bdd, SolveError> {
        if let Some(&b) = self.evaluated.get(name) {
            return Ok(b);
        }
        let mut span = telemetry::span(Phase::Solve, "evaluate");
        if span.is_recording() {
            span.attr("relation", name);
            span.attr("strategy", self.options.strategy.to_string());
        }
        let b = match self.options.strategy {
            Strategy::RoundRobin => {
                let frozen = BTreeMap::new();
                self.evaluate_nested(name, &frozen, true, None)?
            }
            Strategy::Worklist => self.evaluate_worklist(name)?,
        };
        self.evaluated.insert(name.to_string(), b);
        if self.options.record_provenance {
            self.stats.provenance_nodes = self.provenance.node_footprint(&self.manager);
        }
        self.sync_manager_stats();
        Ok(b)
    }

    /// Copies the manager's kernel counters (cache hit rates, arena size
    /// and bytes) into [`SolveStats`], so `--stats`/`--stats-json` and the
    /// bench reporter surface them without reaching into the manager.
    pub(crate) fn sync_manager_stats(&mut self) {
        let ms = self.manager.stats();
        self.stats.cache_hits = ms.cache_hits;
        self.stats.cache_misses = ms.cache_misses;
        self.stats.gc_pause_ms = ms.gc_pause_ms;
        self.stats.arena_nodes = ms.nodes;
        self.stats.arena_bytes = ms.arena_bytes;
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(ms.peak_arena_bytes);
    }

    /// Garbage-collects the node arena if it has outgrown the configured
    /// threshold, keeping exactly the live roots: input relations,
    /// memoized interpretations and provenance snapshots, plus the
    /// *extra* handles a running stratum still needs — member
    /// environments, per-disjunct cache values, domain constraints,
    /// accumulated interpretations (none between strata). The extras are
    /// remapped in place, which is what lets `gc_threshold` fire in the
    /// middle of a long-running SCC instead of only at its boundary. The
    /// allocation's lazily cached domain constraints are dropped (they
    /// rebuild on demand and re-deduplicate by hash-consing). Returns
    /// whether a collection happened.
    pub(crate) fn maybe_gc_with(&mut self, extras: &mut [&mut Bdd]) -> bool {
        let Some(threshold) = self.options.gc_threshold else { return false };
        if self.manager.stats().nodes <= threshold {
            return false;
        }
        self.force_gc_with(extras);
        true
    }

    /// Unconditional collection with extra live roots — the threshold-gated
    /// [`Solver::maybe_gc_with`] and the node-budget degradation ladder
    /// ([`Solver::enforce_node_budget`]) both bottom out here. Computed
    /// caches are dropped as part of the collection.
    pub(crate) fn force_gc_with(&mut self, extras: &mut [&mut Bdd]) {
        let mut roots: Vec<Bdd> = Vec::new();
        roots.extend(self.inputs.values().copied());
        roots.extend(self.evaluated.values().copied());
        roots.extend(self.provenance.roots());
        roots.extend(extras.iter().map(|b| **b));
        let result = self.manager.gc(&roots);
        let mut remapped = result.roots.iter().copied();
        for v in self.inputs.values_mut() {
            *v = remapped.next().expect("gc root count mismatch");
        }
        for v in self.evaluated.values_mut() {
            *v = remapped.next().expect("gc root count mismatch");
        }
        self.provenance.remap(remapped.by_ref());
        for b in extras.iter_mut() {
            **b = remapped.next().expect("gc root count mismatch");
        }
        self.alloc.rebuild_domains(&mut self.manager);
        self.stats.gcs += 1;
        self.stats.gc_reclaimed_nodes += result.reclaimed();
        if telemetry::enabled() {
            telemetry::counter_add("solve.gcs", 1);
            telemetry::gauge_set("solve.gc_pause_ms", self.manager.stats().gc_pause_ms);
        }
    }

    /// Builds the structured limit error for `kind`: cancels the shared
    /// token (so every later poll of the same limits trips too), refreshes
    /// the kernel counters, and snapshots the partial statistics into the
    /// report.
    pub(crate) fn limit_error(&mut self, kind: LimitKind) -> SolveError {
        self.options.limits.cancel.cancel(kind);
        self.sync_manager_stats();
        SolveError::LimitExceeded(Box::new(LimitReport { kind, partial: self.stats.clone() }))
    }

    /// One poll point: checks the shared token and the deadline. Called
    /// per re-evaluation and per governance round — must stay cheap (an
    /// atomic load; a clock read only when a deadline is configured).
    pub(crate) fn check_limits(&mut self) -> Result<(), SolveError> {
        match self.options.limits.poll() {
            Ok(()) => Ok(()),
            Err(kind) => Err(self.limit_error(kind)),
        }
    }

    /// Accounts one step against the global budget, then polls. The step
    /// counter lives in the shared token, so the budget bounds the *total*
    /// work of everything run under the same limits (solve, witness
    /// extraction, explicit refinement).
    pub(crate) fn note_step(&mut self) -> Result<(), SolveError> {
        match self.options.limits.note_steps(1) {
            Ok(()) => Ok(()),
            Err(kind) => Err(self.limit_error(kind)),
        }
    }

    /// The mid-stratum governance round the worklist engine runs where it
    /// used to only consider GC: poll the limits, do a threshold-gated
    /// collection, then hold the arena to the node budget.
    pub(crate) fn govern_with(&mut self, extras: &mut [&mut Bdd]) -> Result<(), SolveError> {
        self.check_limits()?;
        self.maybe_gc_with(extras);
        self.enforce_node_budget(extras)
    }

    /// Cheap pre-check for mid-loop governance: is the arena over the GC
    /// threshold or the node budget right now? One counter read — the
    /// ordered schedule's inner fixpoint calls this every pass and only
    /// pays for live-root collection when it answers `true`.
    pub(crate) fn arena_over_pressure(&self) -> bool {
        let nodes = self.manager.stats().nodes;
        self.options.gc_threshold.is_some_and(|t| nodes > t)
            || self.options.limits.node_budget.is_some_and(|b| nodes > b)
    }

    /// Node-budget enforcement with graceful degradation: when the arena
    /// exceeds [`crate::ResourceLimits::node_budget`], first force a
    /// collection (dropping computed caches and dead intermediates), and
    /// only if the *live* set still exceeds the budget surface
    /// [`LimitKind::NodeBudget`] — with peak-arena diagnostics in the
    /// partial stats.
    pub(crate) fn enforce_node_budget(
        &mut self,
        extras: &mut [&mut Bdd],
    ) -> Result<(), SolveError> {
        let Some(budget) = self.options.limits.node_budget else { return Ok(()) };
        if self.manager.stats().nodes <= budget {
            return Ok(());
        }
        self.force_gc_with(extras);
        if self.manager.stats().nodes <= budget {
            return Ok(());
        }
        Err(self.limit_error(LimitKind::NodeBudget))
    }

    /// Attributes one body compilation of `name` to the statistics.
    pub(crate) fn note_reevaluation(&mut self, name: &str) {
        let scc = self.deps.scc_of_name(name);
        let entry = self.stats.relations.entry(name.to_string()).or_default();
        entry.reevaluations += 1;
        entry.scc = scc;
        if let Some(s) = scc {
            self.stats.sccs[s].evaluations += 1;
        }
        telemetry::counter_add("solve.reevals", 1);
    }

    /// Attributes one disjunct compilation: `part` is the disjunct's index
    /// among `name`'s top-level disjuncts, `nodes` the compiled result's
    /// DAG size, `wall_us` the compile time. Always-on (the cost is a map
    /// insert next to a BDD compilation) so `--profile` needs no re-run.
    pub(crate) fn note_disjunct(
        &mut self,
        name: &str,
        part: usize,
        label: &str,
        nodes: usize,
        wall_us: u64,
    ) {
        let e = self.stats.disjuncts.entry(format!("{name}#{part}")).or_default();
        if e.label.is_empty() {
            e.label = label.to_string();
        }
        e.recompilations += 1;
        e.nodes_built += nodes as u64;
        e.peak_nodes = e.peak_nodes.max(nodes);
        e.wall_us += wall_us;
    }

    /// The paper's `Evaluate(R, Eq)` with a frozen environment.
    ///
    /// `memo_outside`: when `Some(members)`, fixpoint relations *outside*
    /// `members` are resolved from the memoized top-level interpretations
    /// instead of being re-evaluated — the worklist strategy's non-monotone
    /// fallback, where every outer stratum is already fixed. `None` gives
    /// the exact seed semantics (round-robin), which re-derives everything.
    pub(crate) fn evaluate_nested(
        &mut self,
        name: &str,
        frozen: &BTreeMap<String, Bdd>,
        top_level: bool,
        memo_outside: Option<&BTreeSet<String>>,
    ) -> Result<Bdd, SolveError> {
        if let Some(&b) = frozen.get(name) {
            return Ok(b);
        }
        let (body, param_names) = {
            let rel =
                self.system.relation(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
            if rel.kind == RelationKind::Input {
                return self
                    .inputs
                    .get(name)
                    .copied()
                    .ok_or_else(|| SolveError::MissingInterpretation(name.to_string()));
            }
            if let Some(members) = memo_outside {
                if !members.contains(name) {
                    return self.evaluated.get(name).copied().ok_or_else(|| {
                        SolveError::Internal(format!(
                            "worklist fallback: outer stratum `{name}` not pre-evaluated"
                        ))
                    });
                }
            }
            let body = rel.body.clone().expect("fixpoint relation has a body");
            let names: Vec<String> = rel.params.iter().map(|(n, _)| n.clone()).collect();
            (body, names)
        };
        let inner_relations = body.relations();

        // Domain constraint of the formals, conjoined into each round so the
        // interpretation stays canonical (no out-of-range junk tuples).
        let mut formals_domain = Bdd::TRUE;
        for i in 0..param_names.len() {
            let inst = self.alloc.formal(name, i).clone();
            let d = self.alloc.domain(&inst);
            formals_domain = self.manager.and(formals_domain, d);
        }

        let rel_name = name.to_string();
        let nparams = param_names.len();
        let mut s = Bdd::FALSE;
        let mut iterations = 0usize;
        let mut peak_nodes = 0usize;
        loop {
            iterations += 1;
            if iterations > self.options.max_iterations {
                return Err(SolveError::Diverged {
                    relation: rel_name,
                    bound: self.options.max_iterations,
                });
            }
            // One governed step per round: deadline/cancellation poll plus
            // step-budget accounting, before any BDD work for the round.
            self.note_step()?;
            let mut round_span = top_level.then(|| {
                let mut sp = telemetry::span(Phase::Solve, "round");
                sp.attr("relation", rel_name.as_str());
                sp.attr("round", iterations);
                sp
            });
            let mut env = frozen.clone();
            env.insert(rel_name.clone(), s);
            // Evaluate every inner relation under the frozen environment.
            let mut interp = env.clone();
            for r in &inner_relations {
                if !interp.contains_key(r) {
                    let v = self.evaluate_nested(r, &env, false, memo_outside)?;
                    interp.insert(r.clone(), v);
                }
            }
            self.note_reevaluation(&rel_name);
            let next = {
                let mut ctx = CompileCtx::new(
                    &mut self.manager,
                    &self.system,
                    &self.alloc,
                    &interp,
                    owner_rel(&rel_name),
                );
                for (i, pname) in param_names.iter().enumerate().take(nparams) {
                    let inst = ctx.alloc.formal(&rel_name, i).clone();
                    ctx.bind(pname, inst);
                }
                let raw = ctx.compile(&body)?;
                ctx.manager.and(raw, formals_domain)
            };
            peak_nodes = peak_nodes.max(self.manager.node_count(next));
            if let Some(sp) = &mut round_span {
                sp.attr("changed", next != s);
            }
            if next == s {
                break;
            }
            s = next;
            if top_level {
                self.note_provenance(name, s);
            }
        }
        if top_level {
            let entry = self.stats.relations.entry(rel_name).or_default();
            entry.iterations = iterations;
            entry.final_nodes = self.manager.node_count(s);
            entry.peak_nodes = peak_nodes;
        }
        Ok(s)
    }

    /// Evaluates a closed Boolean query.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::OpenQuery`] if the query's formula does not
    /// reduce to a constant, plus any evaluation error.
    pub fn eval_query(&mut self, name: &str) -> Result<bool, SolveError> {
        let mut query_span = telemetry::span(Phase::Solve, "query");
        query_span.attr("query", name);
        let q =
            self.system.query(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?.clone();
        // Evaluate every relation the query mentions — all of them BEFORE
        // collecting handles: a later evaluation may garbage-collect the
        // arena, and only the memo table (and provenance) are remapped. The
        // memo table therefore is the one safe place to read handles from.
        for r in q.body.relations() {
            self.evaluate(&r)?;
        }
        let mut interp = BTreeMap::new();
        for r in q.body.relations() {
            let v = *self
                .evaluated
                .get(&r)
                .ok_or_else(|| SolveError::Internal(format!("`{r}` evaluated but not memoized")))?;
            interp.insert(r, v);
        }
        let result = {
            let mut ctx = CompileCtx::new(
                &mut self.manager,
                &self.system,
                &self.alloc,
                &interp,
                owner_query(&q.name),
            );
            ctx.compile(&q.body)?
        };
        self.sync_manager_stats();
        if result.is_true() {
            Ok(true)
        } else if result.is_false() {
            Ok(false)
        } else {
            Err(SolveError::OpenQuery(name.to_string()))
        }
    }

    /// Node count of the most recent interpretation of `name`, if evaluated.
    pub fn interpretation_nodes(&self, name: &str) -> Option<usize> {
        self.evaluated.get(name).map(|&b| self.manager.node_count(b))
    }

    /// Number of satisfying tuples of the interpretation of `name`
    /// (over the relation's formal variables, domain-constrained).
    ///
    /// # Errors
    ///
    /// Evaluates the relation first; see [`Solver::evaluate`].
    pub fn tuple_count(&mut self, name: &str) -> Result<f64, SolveError> {
        let b = self.evaluate(name)?;
        let rel =
            self.system.relation(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
        // Count over exactly the formal variables.
        let mut formal_vars = Vec::new();
        for i in 0..rel.params.len() {
            formal_vars.extend(self.alloc.formal(name, i).all_vars());
        }
        // Project onto the formal space: existentially quantify nothing —
        // the interpretation already only mentions formal vars. Count by
        // scaling: sat_count over all manager vars / 2^(others).
        let total_vars = self.manager.var_count();
        let full = self.manager.sat_count(b, total_vars);
        let scale = 2f64.powi((total_vars - formal_vars.len()) as i32);
        Ok(full / scale)
    }
}
