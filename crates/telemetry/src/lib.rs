//! **getafix-telemetry** — zero-dependency tracing, profiling and JSON
//! plumbing for the Getafix pipeline.
//!
//! The fixed-point calculus is an inherently *phased* computation — parse
//! → encode → strata → SCC rounds → disjunct recompilations → witness —
//! and this crate maps that structure onto three observability surfaces:
//!
//! 1. **Spans and events** ([`span`], [`event`]): a thread-local collector
//!    with RAII span guards. Every instrumentation point in the solver and
//!    BDD kernel compiles to one thread-local flag test when disabled (the
//!    default) — see the cost model in [`collect`]. Each closing span and
//!    each event is folded into a [`Summary`] (span groups with self
//!    time, a re-evaluation latency histogram, event counts), which is
//!    what `--profile` prints; raw records are kept only by a collector
//!    installed for an export ([`install`] rather than
//!    [`install_summary`]).
//! 2. **Export** ([`TraceData::chrome_trace_json`],
//!    [`TraceData::folded_stacks`]): Chrome trace-event JSON loadable in
//!    Perfetto / `about:tracing` (`getafix check … --trace-out out.json`)
//!    and folded stacks for inferno/speedscope flamegraphs. The
//!    [`Registry`] holds the time series ([`sample`]) the Chrome export
//!    draws as counter tracks; it counts nothing — counters live in the
//!    layer that does the work.
//! 3. **Progress** ([`attach_progress`], [`heartbeat`]): the solver
//!    renders a `--progress` line at its poll point and the collector
//!    throttles it into the attached sink.
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

mod chrome;
mod profile;

pub use collect::{
    attach_progress, enabled, event, heartbeat, install, install_summary, sample, span, take,
    AttrValue, Attrs, EventRecord, Phase, Span, SpanRecord, TraceData,
};
pub use folded::{parse_folded, rooted_weight};
pub use metrics::{Registry, Sample};
pub use profile::Summary;
