//! **getafix-telemetry** — zero-dependency tracing, metrics and JSON
//! plumbing for the Getafix pipeline.
//!
//! The fixed-point calculus is an inherently *phased* computation — parse
//! → encode → strata → SCC rounds → disjunct recompilations → witness —
//! and this crate maps that structure onto three observability surfaces:
//!
//! 1. **Spans and events** ([`span`], [`event`]): a thread-local collector
//!    with RAII span guards. Every instrumentation point in the solver and
//!    BDD kernel compiles to one thread-local flag test when disabled (the
//!    default) — see the cost model in [`collect`].
//! 2. **Export** ([`TraceData::chrome_trace_json`],
//!    [`TraceData::folded_stacks`], [`TraceData::profile_summary`]):
//!    Chrome trace-event JSON loadable in Perfetto / `about:tracing`
//!    (`getafix check … --trace-out out.json`), folded stacks for
//!    inferno/speedscope flamegraphs, plus a human top-spans/self-time
//!    summary (`--profile`).
//! 3. **Metrics** ([`Registry`]): named monotonic counters, gauges and
//!    timestamped time series — the publication surface a future
//!    `getafix serve` will snapshot from.
//!    [`attach_progress`] taps the same registry for a throttled live
//!    heartbeat (`--progress`), and [`metrics_snapshot`] clones it mid-run
//!    for `--stats-json`.
//!
//! [`json`] is the shared JSON emitter/parser the exporters, the bench
//! reporter and `SolveStats::to_json` are all built on (this workspace
//! builds offline, without serde).
//!
//! # Capturing a trace
//!
//! ```
//! use getafix_telemetry::{self as telemetry, Phase};
//!
//! telemetry::install();
//! {
//!     let mut solve = telemetry::span(Phase::Solve, "evaluate");
//!     solve.attr("relation", "Reach");
//!     telemetry::event(Phase::Bdd, "gc", || vec![("reclaimed", 1024u64.into())]);
//!     telemetry::sample("arena_nodes", 4096.0);
//! }
//! let data = telemetry::take().expect("installed above");
//! data.check_well_formed()?;
//! let perfetto_json = data.chrome_trace_json();
//! assert!(perfetto_json.contains("traceEvents"));
//! # Ok::<(), String>(())
//! ```

pub mod collect;
pub mod folded;
pub mod json;
pub mod metrics;
pub mod progress;

mod chrome;
mod profile;

pub use collect::{
    attach_progress, counter_add, enabled, event, gauge_set, install, metrics_snapshot, sample,
    span, take, AttrValue, Attrs, EventRecord, Phase, Span, SpanRecord, TraceData,
};
pub use folded::{parse_folded, rooted_weight};
pub use metrics::{Registry, Sample};
