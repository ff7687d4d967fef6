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
//! relation-dependency graph and solves them dependencies-first. One
//! evaluation step serves every schedule: it recompiles only the top-level
//! disjuncts never compiled or whose reads changed version since their
//! last compilation.
//!
//! * monotone components run chaotic iteration from a worklist,
//!   re-evaluating a relation only when something it reads has changed and
//!   OR-accumulating the recompiled disjuncts — each against only the
//!   tuples added since its last compile, where a syntactic check proves
//!   that exact (semi-naive evaluation; the Deltas section of
//!   `worklist.rs`); a non-recursive relation reads nothing in its
//!   component, so it is evaluated **exactly once**;
//! * non-monotone components fitting the §4.3 **frontier pattern**
//!   ([`crate::DepGraph::ordered_plan`]) run an *ordered change-driven
//!   schedule* that reproduces the nested §3 round sequence exactly,
//!   reusing the cached value of every disjunct whose reads did not
//!   change; the rest are routed to the nested §3 semantics above, with
//!   the already-solved outer strata frozen.
//!
//! # One relation numbering
//!
//! Inside the solver a relation is its [`System`] declaration index
//! ([`System::relation_id`]). The dependency graph, the variable
//! allocation, the value table, the compiler and the worklist component
//! all key by it, so no relation name is looked up, cloned or formatted on
//! the way to a compilation. Names stay at the public edge:
//! [`Solver::set_input`], [`Solver::evaluate`], [`Solver::eval_query`],
//! [`Allocation::formal`], the [`SolveStats`] keys and [`Provenance`].
//!
//! Both strategies run [`Solver::evaluate_nested`] against a *frozen
//! environment*, a slice by relation id. Round-robin freezes the inputs
//! only. The worklist engine's nested fallback freezes the whole value
//! table minus the component's members: the inputs and the solved outer
//! strata, which are final before the component starts, so the fallback
//! reads them instead of re-deriving them every round.
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

use crate::alloc::{Allocation, Body};
use crate::compile::CompileCtx;
use crate::deps::DepGraph;
use crate::limits::{LimitKind, LimitReport, ResourceLimits};
use crate::provenance::Provenance;
use crate::system::{RelationKind, System, SystemError};
use crate::worklist::Plan;
use getafix_bdd::{Bdd, Manager};
use getafix_telemetry::json::JsonWriter;
use getafix_telemetry::{self as telemetry, Phase};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
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
    /// node budget, or an external cancellation. The boxed
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
    /// change-driven re-evaluation that recompiles only the disjuncts whose
    /// reads changed.
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
            "round-robin" => Ok(Strategy::RoundRobin),
            "worklist" => Ok(Strategy::Worklist),
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
    /// Resource bounds: wall-clock deadline and arena node budget, plus
    /// the shared cancellation token every poll point checks. All off by
    /// default. Cloning the limits *shares* the deadline and token, so one
    /// value governs the solve and whatever else the caller runs under the
    /// same clone (witness extraction, explicit refinement, guided
    /// replay). On a trip the solver returns
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
    /// DAG node count of the final interpretation: one walk per relation
    /// per top-level solve, never one per round.
    pub final_nodes: usize,
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
    /// `"once"` (non-recursive), `"chaotic"` (monotone, accumulating),
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
/// granularity the worklist engine recompiles at, hence the right unit
/// for answering "which part of which body is eating the solve".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisjunctStats {
    /// A short pretty-printed prefix of the disjunct, for humans.
    pub label: String,
    /// Times this disjunct's formula was recompiled against a changed
    /// environment.
    pub recompilations: usize,
    /// BDD nodes the kernel created while recompiling this disjunct
    /// ([`getafix_bdd::ManagerStats::nodes_created`], read before and
    /// after each recompilation): the growth pressure it puts on the
    /// arena. A node the arena already held is found, not built, so a
    /// recompilation whose result already exists adds nothing.
    pub nodes_built: u64,
    /// The most nodes one recompilation created.
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
    /// Disjunct recompilations that compiled against Δ, the tuples added
    /// since the disjunct's last compile, instead of the full current
    /// values (each also counts in [`DisjunctStats::recompilations`]).
    /// Only the worklist strategy's accumulating steps do; zero under
    /// round-robin.
    pub delta_compiles: u64,
    /// Distinct BDD nodes pinned by the recorded provenance snapshots
    /// (0 when recording is off) — the memory price of rank provenance.
    pub provenance_nodes: usize,
    /// Garbage collections performed (between strata and mid-stratum),
    /// from [`getafix_bdd::ManagerStats::gcs`].
    pub gcs: usize,
    /// Total nodes reclaimed by those collections, from
    /// [`getafix_bdd::ManagerStats::gc_reclaimed_nodes`].
    pub gc_reclaimed_nodes: usize,
    /// Total wall-clock time spent inside GC pauses, in milliseconds, from
    /// [`getafix_bdd::ManagerStats::gc_pause_ms`].
    pub gc_pause_ms: f64,
    /// BDD operation-cache hits, from [`getafix_bdd::ManagerStats`].
    pub cache_hits: u64,
    /// BDD operation-cache misses, from [`getafix_bdd::ManagerStats`].
    pub cache_misses: u64,
    /// Image steps whose rename map did not keep the variable order, so
    /// the relation was renamed before it was conjoined and quantified,
    /// from [`getafix_bdd::ManagerStats::rename_fallbacks`]. The
    /// allocation plan's constraints keep it at 0 on every shipped system.
    pub rename_fallbacks: u64,
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
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("total_reevaluations", self.total_reevaluations() as u64);
        w.field_u64("ordered_reevaluations", self.ordered_reevaluations as u64);
        w.field_u64("delta_compiles", self.delta_compiles);
        w.field_u64("provenance_nodes", self.provenance_nodes as u64);
        w.field_u64("gcs", self.gcs as u64);
        w.field_u64("gc_reclaimed_nodes", self.gc_reclaimed_nodes as u64);
        w.field_f64("gc_pause_ms", self.gc_pause_ms);
        w.field_u64("cache_hits", self.cache_hits);
        w.field_u64("cache_misses", self.cache_misses);
        w.field_u64("rename_fallbacks", self.rename_fallbacks);
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
        self.delta_compiles += other.delta_compiles;
        self.provenance_nodes = self.provenance_nodes.max(other.provenance_nodes);
        self.gcs += other.gcs;
        self.gc_reclaimed_nodes += other.gc_reclaimed_nodes;
        self.gc_pause_ms += other.gc_pause_ms;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.rename_fallbacks += other.rename_fallbacks;
        self.arena_nodes = self.arena_nodes.max(other.arena_nodes);
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
    }
}

/// The entry of `map` under `key`, inserted with `init()` when absent:
/// the key is copied only on that first insert.
pub(crate) fn entry_mut<'m, V>(
    map: &'m mut BTreeMap<String, V>,
    key: &str,
    init: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), init());
    }
    map.get_mut(key).expect("inserted above")
}

/// The solver: owns the manager, the allocation and the interpretations.
#[derive(Debug)]
pub struct Solver {
    pub(crate) manager: Manager,
    pub(crate) system: System,
    pub(crate) alloc: Allocation,
    pub(crate) deps: DepGraph,
    /// The value table, by relation id ([`System::relation_id`]): each
    /// input as supplied, each fixpoint relation's memoized top-level
    /// interpretation once evaluated.
    pub(crate) values: Vec<Option<Bdd>>,
    /// Each fixpoint relation's compilation plan, by relation id, built
    /// on first use ([`Solver::plan`]).
    pub(crate) plans: Vec<Option<Rc<Plan>>>,
    pub(crate) options: SolveOptions,
    pub(crate) stats: SolveStats,
    /// Rank provenance of every top-level fixpoint evaluation (see
    /// [`SolveOptions::record_provenance`]).
    pub(crate) provenance: Provenance,
    /// The running worklist evaluation's strata: solved so far and in the
    /// evaluated relation's cone, for the `--progress` heartbeat.
    pub(crate) strata: Option<(usize, usize)>,
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
                members: scc.members.iter().map(|&i| system.relations()[i].name.clone()).collect(),
                recursive: scc.recursive,
                monotone: scc.monotone,
                evaluations: 0,
                ordered: false,
                wall_ms: 0.0,
                dep_sccs,
            });
        }
        let n = system.relations().len();
        Ok(Solver {
            manager,
            system,
            alloc,
            deps,
            values: vec![None; n],
            plans: vec![None; n],
            options,
            stats,
            provenance: Provenance::default(),
            strata: None,
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
    /// interpretation; a relation that never leaves `⊥` records none. The **rank property** witness extraction relies on:
    /// a tuple first appearing in snapshot `i` is derivable (by one
    /// application of the relation's body) from tuples that already appear
    /// in snapshots `< i` — under the round-robin semantics because round
    /// `i` is computed from round `i - 1`'s value, under the worklist
    /// strategy for *single-member* monotone components because each
    /// accumulated delta is compiled against the previously recorded value,
    /// and under the ordered non-monotone schedule because it reproduces
    /// the reference round sequence exactly. (For multi-member monotone
    /// components the per-relation sequences are still increasing, but
    /// ranks are not comparable across members.)
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Pushes a provenance snapshot for relation `rel` (no-op unless
    /// recording).
    pub(crate) fn note_provenance(&mut self, rel: usize, value: Bdd) {
        if self.options.record_provenance {
            self.provenance.note(&self.system.relations()[rel].name, value);
        }
    }

    /// The name of relation `rel`, for errors and telemetry.
    pub(crate) fn name(&self, rel: usize) -> &str {
        &self.system.relations()[rel].name
    }

    /// Supplies the interpretation of an input relation.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Unknown`] if `name` is not an input relation.
    pub fn set_input(&mut self, name: &str, bdd: Bdd) -> Result<(), SolveError> {
        let rel =
            self.system.relation_id(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
        if self.system.relations()[rel].kind != RelationKind::Input {
            return Err(SolveError::System(format!("`{name}` is not an input relation")));
        }
        // Interpretations downstream may change, and every recorded rank
        // with them.
        for (value, def) in self.values.iter_mut().zip(self.system.relations()) {
            if def.kind == RelationKind::Fixpoint {
                *value = None;
            }
        }
        self.values[rel] = Some(bdd);
        self.provenance.clear();
        Ok(())
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
        let rel =
            self.system.relation_id(name).ok_or_else(|| SolveError::Unknown(name.to_string()))?;
        if let Some(b) = self.values[rel] {
            return Ok(b);
        }
        if self.system.relations()[rel].kind == RelationKind::Input {
            return Err(SolveError::MissingInterpretation(name.to_string()));
        }
        let mut span = telemetry::span(Phase::Solve, "evaluate");
        if span.is_recording() {
            span.attr("relation", name);
            span.attr("strategy", self.options.strategy.to_string());
        }
        let b = match self.options.strategy {
            Strategy::RoundRobin => {
                // The reference re-derives every fixpoint relation a body
                // reaches: it freezes the inputs only.
                let frozen: Vec<Option<Bdd>> = (self.values.iter().zip(self.system.relations()))
                    .map(|(&v, def)| v.filter(|_| def.kind == RelationKind::Input))
                    .collect();
                self.evaluate_nested(rel, &frozen, true)?
            }
            Strategy::Worklist => self.evaluate_worklist(rel)?,
        };
        self.values[rel] = Some(b);
        if self.options.record_provenance {
            self.stats.provenance_nodes = self.provenance.node_footprint(&self.manager);
        }
        self.sync_manager_stats();
        Ok(b)
    }

    /// Copies the manager's kernel counters (cache hit rates, rename
    /// fallbacks, collections, arena size and bytes) into [`SolveStats`],
    /// so `--stats`/`--stats-json` and the bench reporter surface them
    /// without reaching into the manager. The kernel counts them; the
    /// solver only copies.
    pub(crate) fn sync_manager_stats(&mut self) {
        let ms = self.manager.stats();
        self.stats.cache_hits = ms.cache_hits;
        self.stats.cache_misses = ms.cache_misses;
        self.stats.rename_fallbacks = ms.rename_fallbacks;
        self.stats.gcs = ms.gcs as usize;
        self.stats.gc_reclaimed_nodes = ms.gc_reclaimed_nodes as usize;
        self.stats.gc_pause_ms = ms.gc_pause_ms;
        self.stats.arena_nodes = ms.nodes;
        self.stats.arena_bytes = ms.arena_bytes;
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(ms.peak_arena_bytes);
    }

    /// The solver's one safe point, entered when
    /// [`Solver::arena_over_pressure`] says so: garbage-collects the node
    /// arena, keeping exactly the live roots — the value table (inputs and
    /// memoized interpretations) and provenance snapshots, plus the
    /// *extra* handles a running stratum still needs (its component state;
    /// none between strata) — then holds the arena to
    /// [`crate::ResourceLimits::node_budget`]. The extras are remapped in
    /// place, which is what lets a collection fire in the middle of a
    /// long-running component instead of only at its boundary. Computed
    /// caches are dropped, and so are the allocation's lazily cached
    /// domain constraints (they rebuild on demand and re-deduplicate by
    /// hash-consing). Only if the *live* set itself still exceeds the
    /// budget does it surface [`LimitKind::NodeBudget`], with peak-arena
    /// diagnostics in the partial stats.
    pub(crate) fn collect(&mut self, extras: &mut [&mut Bdd]) -> Result<(), SolveError> {
        let mut roots: Vec<Bdd> = self.values.iter().flatten().copied().collect();
        roots.extend(self.provenance.roots());
        roots.extend(extras.iter().map(|b| **b));
        let result = self.manager.gc(&roots);
        let mut remapped = result.roots.iter().copied();
        for v in self.values.iter_mut().flatten() {
            *v = remapped.next().expect("gc root count mismatch");
        }
        self.provenance.remap(remapped.by_ref());
        for b in extras.iter_mut() {
            **b = remapped.next().expect("gc root count mismatch");
        }
        self.alloc.rebuild_domains(&mut self.manager);
        if self.options.limits.node_budget.is_some_and(|b| self.manager.stats().nodes > b) {
            return Err(self.limit_error(LimitKind::NodeBudget));
        }
        Ok(())
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
    /// at every stratum boundary — must stay cheap (an atomic load; a
    /// clock read only when a deadline is configured).
    pub(crate) fn check_limits(&mut self) -> Result<(), SolveError> {
        match self.options.limits.poll() {
            Ok(()) => Ok(()),
            Err(kind) => Err(self.limit_error(kind)),
        }
    }

    /// The poll point of every pass and round of a fixpoint iteration,
    /// and where the solver offers the `--progress` heartbeat, which the
    /// collector throttles.
    pub(crate) fn note_step(&mut self) -> Result<(), SolveError> {
        telemetry::heartbeat(|t_us| self.heartbeat(t_us));
        self.check_limits()
    }

    /// The `--progress` line at collector time `t_us`, from the solver's
    /// and the kernel's own counters. A section appears once it has
    /// something to say (strata only under the worklist strategy):
    ///
    /// ```text
    /// [  12.4s] stratum 3/7 · 1842 re-evals · arena 12.5 MiB · gc 2 (0.8 ms)
    /// ```
    fn heartbeat(&self, t_us: u64) -> String {
        use std::fmt::Write as _;
        let ms = self.manager.stats();
        let mut out = format!("[{:6.1}s]", t_us as f64 / 1e6);
        if let Some((done, total)) = self.strata {
            let _ = write!(out, " stratum {done}/{total}");
        }
        let reevals = self.stats.total_reevaluations();
        if reevals > 0 {
            let _ = write!(out, " · {reevals} re-evals");
        }
        let _ = write!(out, " · arena {:.1} MiB", ms.arena_bytes as f64 / (1024.0 * 1024.0));
        if ms.gcs > 0 {
            let _ = write!(out, " · gc {} ({:.1} ms)", ms.gcs, ms.gc_pause_ms);
        }
        out
    }

    /// Is the arena over the GC threshold or the node budget right now?
    /// One counter read: every worklist driver asks at each pass or round
    /// boundary and only pays for [`Solver::collect`] when it answers
    /// `true`.
    pub(crate) fn arena_over_pressure(&self) -> bool {
        let nodes = self.manager.stats().nodes;
        self.options.gc_threshold.is_some_and(|t| nodes > t)
            || self.options.limits.node_budget.is_some_and(|b| nodes > b)
    }

    /// The statistics entry of relation `rel`, created on first use.
    pub(crate) fn relation_stats(&mut self, rel: usize) -> &mut RelationStats {
        entry_mut(&mut self.stats.relations, &self.system.relations()[rel].name, Default::default)
    }

    /// Writes a solved relation's statistics, for every schedule: the
    /// passes (or rounds) it took and the final size of its value.
    pub(crate) fn record_relation(&mut self, rel: usize, iterations: usize, value: Bdd) {
        let final_nodes = self.manager.node_count(value);
        let entry = self.relation_stats(rel);
        entry.iterations = iterations;
        entry.final_nodes = final_nodes;
    }

    /// Attributes one body compilation of fixpoint relation `rel` to the
    /// statistics.
    pub(crate) fn note_reevaluation(&mut self, rel: usize) {
        let scc = self.deps.scc_of(rel);
        let entry = self.relation_stats(rel);
        entry.reevaluations += 1;
        entry.scc = Some(scc);
        self.stats.sccs[scc].evaluations += 1;
    }

    /// The paper's `Evaluate(R, Eq)` for relation `rel`, under a frozen
    /// environment indexed by relation id: a relation frozen there is
    /// read, never re-derived. Round-robin freezes the inputs only, so
    /// every fixpoint relation a body reaches is re-derived from scratch,
    /// as §3 prescribes. The worklist engine's nested fallback also
    /// freezes the solved outer strata: they are fixed before the
    /// component starts, so re-deriving them could only repeat work.
    pub(crate) fn evaluate_nested(
        &mut self,
        rel: usize,
        frozen: &[Option<Bdd>],
        top_level: bool,
    ) -> Result<Bdd, SolveError> {
        if let Some(b) = frozen[rel] {
            return Ok(b);
        }
        if self.system.relations()[rel].kind == RelationKind::Input {
            return Err(SolveError::MissingInterpretation(self.name(rel).to_string()));
        }
        let plan = self.plan(rel);
        let formals_domain = self.alloc.formals_domain(&mut self.manager, rel);
        let mut s = Bdd::FALSE;
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > self.options.max_iterations {
                return Err(SolveError::Diverged {
                    relation: self.name(rel).to_string(),
                    bound: self.options.max_iterations,
                });
            }
            // One poll per round, before any BDD work for the round.
            self.note_step()?;
            let mut round_span = top_level.then(|| {
                let mut sp = telemetry::span(Phase::Solve, "round");
                sp.attr("relation", self.name(rel));
                sp.attr("round", iterations);
                sp
            });
            let mut env = frozen.to_vec();
            env[rel] = Some(s);
            // Evaluate every inner relation under the frozen environment.
            let mut interp = env.clone();
            for &r in &plan.reads {
                if interp[r].is_none() {
                    interp[r] = Some(self.evaluate_nested(r, &env, false)?);
                }
            }
            self.note_reevaluation(rel);
            let body = self.system.relations()[rel].body.as_ref().expect("fixpoint body");
            let raw = CompileCtx::new(
                &mut self.manager,
                &self.system,
                &self.alloc,
                &interp,
                Body::Relation(rel),
                0,
            )
            .compile(body)?;
            let next = self.manager.and(raw, formals_domain);
            if let Some(sp) = &mut round_span {
                sp.attr("changed", next != s);
            }
            if next == s {
                break;
            }
            s = next;
            if top_level {
                self.note_provenance(rel, s);
            }
        }
        if top_level {
            self.record_relation(rel, iterations, s);
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
        let q = (self.system.queries().iter().position(|q| q.name == name))
            .ok_or_else(|| SolveError::Unknown(name.to_string()))?;
        // Evaluate every relation the query mentions — all of them BEFORE
        // compiling: a later evaluation may garbage-collect the arena, and
        // only the value table (and provenance) are remapped. The table
        // therefore is the one safe place to read handles from.
        for r in self.system.queries()[q].body.relations() {
            self.evaluate(&r)?;
        }
        let body = &self.system.queries()[q].body;
        let result = CompileCtx::new(
            &mut self.manager,
            &self.system,
            &self.alloc,
            &self.values,
            Body::Query(q),
            0,
        )
        .compile(body)?;
        self.sync_manager_stats();
        if result.is_true() {
            Ok(true)
        } else if result.is_false() {
            Ok(false)
        } else {
            Err(SolveError::OpenQuery(name.to_string()))
        }
    }

    /// Node count of the interpretation of `name`, if it has one: an
    /// input once supplied, a fixpoint relation once evaluated.
    pub fn interpretation_nodes(&self, name: &str) -> Option<usize> {
        let b = self.values[self.system.relation_id(name)?]?;
        Some(self.manager.node_count(b))
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
        // Count over exactly the formal variables: the interpretation
        // mentions no other.
        let mut formal_vars = Vec::new();
        for i in 0..rel.params.len() {
            formal_vars.extend(self.alloc.formal(name, i).all_vars());
        }
        Ok(self.manager.sat_count_over(b, &formal_vars))
    }
}
