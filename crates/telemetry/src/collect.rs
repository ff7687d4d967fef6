//! The thread-local collector: RAII spans, instant events, metric
//! samples and the progress heartbeat behind one `enabled` branch.
//!
//! # Cost model
//!
//! Instrumentation points are compiled into the solver's hottest loops, so
//! the disabled path must be a **single thread-local flag test**: every
//! entry point ([`span`], [`event`], [`sample`], [`heartbeat`]) first
//! reads a `Cell<bool>` and returns before touching any argument that
//! would allocate. Dynamic attribute values therefore travel as closures
//! ([`event`], [`heartbeat`]) or post-hoc [`Span::attr`] calls — never as
//! eagerly built strings.
//!
//! # Aggregate as spans close
//!
//! Every collector folds each closing span and each event into its
//! [`Summary`], which is all `--profile` prints. The raw records are kept
//! only by a collector installed with [`install`], for the exports that
//! draw them (Chrome trace, folded stacks); [`install_summary`] drops
//! each record once it is folded in, so memory is bounded by the number
//! of span groups and relations, not by the length of the run.
//!
//! # Why thread-local
//!
//! Every solve runs on one thread, so a thread-local collector needs no
//! locks and records one well-nested span stream. [`install`]/[`take`]
//! operate on the calling thread only; work on other threads records
//! nothing.

use crate::metrics::Registry;
use crate::profile::Summary;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Which pipeline stage a span or event belongs to — the `cat` field of
/// the exported Chrome trace events, and the grouping key of the
/// `--profile` summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Reading and parsing source programs.
    Parse,
    /// Formula generation + template installation (sequential and merged).
    Encode,
    /// Concurrent program merging.
    Merge,
    /// Fixed-point evaluation (strata, rounds, re-evaluations).
    Solve,
    /// Witness extraction, refinement and replay.
    Witness,
    /// BDD kernel events: GC, unique-table rehash.
    Bdd,
}

impl Phase {
    /// The stable lower-case name (used as the Chrome `cat`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Encode => "encode",
            Phase::Merge => "merge",
            Phase::Solve => "solve",
            Phase::Witness => "witness",
            Phase::Bdd => "bdd",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    UInt(u64),
    Float(f64),
    Bool(bool),
    Str(String),
}

macro_rules! attr_from {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue {
                AttrValue::$variant(v as $conv)
            }
        }
    )*};
}
attr_from!(i64 => Int as i64, i32 => Int as i64, u64 => UInt as u64, u32 => UInt as u64,
           usize => UInt as u64, f64 => Float as f64);

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// Attribute list of one span or event.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// One completed span: a `(phase, name, t_start, t_end, attrs)` record.
/// `depth` is the span-stack depth at entry (0 = top level), which the
/// well-formedness checks and self-time computation key on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub phase: Phase,
    pub name: &'static str,
    /// Microseconds since the collector was installed.
    pub t_start_us: u64,
    pub t_end_us: u64,
    pub depth: usize,
    pub attrs: Attrs,
}

impl SpanRecord {
    /// The span's wall-clock duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.t_end_us - self.t_start_us
    }
}

/// One instantaneous event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    pub phase: Phase,
    pub name: &'static str,
    /// Microseconds since the collector was installed.
    pub t_us: u64,
    pub attrs: Attrs,
}

/// Everything one collector recorded. The [`Summary`] is always there;
/// the raw records only when the collector was installed with
/// [`install`]. Spans appear in **completion** order (a parent closes
/// after its children); events and metric samples are timestamped
/// independently.
#[derive(Debug, Default)]
pub struct TraceData {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub metrics: Registry,
    /// The aggregates, folded as each span closed and each event fired.
    pub summary: Summary,
}

/// A throttled live-progress sink: called with a heartbeat line at most
/// once per `interval_us` of collector time.
struct Progress {
    interval_us: u64,
    last_us: Option<u64>,
    sink: Box<dyn FnMut(&str)>,
}

/// The per-thread recording state.
struct Collector {
    epoch: Instant,
    depth: usize,
    /// Keep raw span, event and series records, as an export needs?
    keep_records: bool,
    data: TraceData,
    progress: Option<Progress>,
}

impl Collector {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

thread_local! {
    /// Fast path: is a collector installed on this thread?
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Is a collector installed on the calling thread? One `Cell` read — the
/// branch every disabled instrumentation point reduces to.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Installs a fresh collector on the calling thread (replacing any
/// previous one and discarding its records) that keeps every raw span,
/// event and series record next to the [`Summary`] — what a trace export
/// needs. Timestamps are relative to this moment.
pub fn install() {
    install_with(true);
}

/// Installs a fresh collector that keeps the [`Summary`] only: each
/// span and event is folded in and dropped, so memory stays constant
/// however long the run (what `--profile` and `--progress` need).
pub fn install_summary() {
    install_with(false);
}

fn install_with(keep_records: bool) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            epoch: Instant::now(),
            depth: 0,
            keep_records,
            data: TraceData::default(),
            progress: None,
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Attaches a live-progress sink to the calling thread's collector: from
/// now on, [`heartbeat`] hands it a line at most once per `interval`.
/// Replaces any previous sink. Returns `false` (and does nothing) when no
/// collector is installed — progress is a feature of an active
/// collector, never of the disabled fast path.
pub fn attach_progress(interval: std::time::Duration, sink: impl FnMut(&str) + 'static) -> bool {
    with_collector(|c| {
        c.progress = Some(Progress {
            interval_us: interval.as_micros() as u64,
            last_us: None,
            sink: Box::new(sink),
        });
    })
    .is_some()
}

/// Offers a heartbeat to the attached progress sink. The collector only
/// throttles: when a beat is due, `render` is called with the collector
/// time in µs and its line goes to the sink. Without a collector, a sink
/// or a due beat, `render` never runs, so a caller may offer one at
/// every step.
#[inline]
pub fn heartbeat(render: impl FnOnce(u64) -> String) {
    if !enabled() {
        return;
    }
    let due = with_collector(|c| {
        let p = c.progress.as_mut()?;
        let now = c.epoch.elapsed().as_micros() as u64;
        let due = p.last_us.is_none_or(|last| now.saturating_sub(last) >= p.interval_us);
        due.then(|| {
            p.last_us = Some(now);
            now
        })
    });
    if let Some(t_us) = due.flatten() {
        // Rendered outside the collector's borrow, so `render` may record.
        let line = render(t_us);
        with_collector(|c| c.progress.as_mut().map(|p| (p.sink)(&line)));
    }
}

/// Uninstalls the calling thread's collector and returns everything it
/// recorded. `None` if no collector was installed. Open spans guards that
/// outlive the take record nothing.
pub fn take() -> Option<TraceData> {
    ENABLED.with(|e| e.set(false));
    COLLECTOR.with(|c| c.borrow_mut().take()).map(|c| c.data)
}

/// Runs `f` with the installed collector, if any.
#[inline]
fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    COLLECTOR.with(|c| c.borrow_mut().as_mut().map(f))
}

/// An RAII span guard: records a [`SpanRecord`] from creation to drop.
/// When no collector is installed the guard is inert — creating and
/// dropping it is a flag test each.
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    phase: Phase,
    name: &'static str,
    t_start_us: u64,
    depth: usize,
    attrs: Attrs,
}

/// Opens a span. `name` must be a static label — dynamic values belong in
/// [`Span::attr`], which is free when disabled (the hot paths pass
/// integers, never formatted strings).
#[inline]
pub fn span(phase: Phase, name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span(with_collector(|c| {
        c.depth += 1;
        SpanInner { phase, name, t_start_us: c.now_us(), depth: c.depth - 1, attrs: Vec::new() }
    }))
}

impl Span {
    /// Attaches an attribute (no-op when the guard is inert).
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(inner) = &mut self.0 {
            inner.attrs.push((key, value.into()));
        }
    }

    /// Is this guard actually recording?
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        with_collector(|c| {
            c.depth = c.depth.saturating_sub(1);
            let t_end_us = c.now_us().max(inner.t_start_us);
            let record = SpanRecord {
                phase: inner.phase,
                name: inner.name,
                t_start_us: inner.t_start_us,
                t_end_us,
                depth: inner.depth,
                attrs: inner.attrs,
            };
            c.data.summary.close_span(&record);
            if c.keep_records {
                c.data.spans.push(record);
            }
        });
    }
}

/// Records an instantaneous event. The attribute closure only runs when a
/// collector that keeps raw records is installed, so hot call sites pay
/// one flag test when disabled.
#[inline]
pub fn event(phase: Phase, name: &'static str, attrs: impl FnOnce() -> Attrs) {
    if !enabled() {
        return;
    }
    with_collector(|c| {
        c.data.summary.note_event(phase, name);
        if c.keep_records {
            let t_us = c.now_us();
            c.data.events.push(EventRecord { phase, name, t_us, attrs: attrs() });
        }
    });
}

/// Appends a point to a named time series, timestamped now, when the
/// installed collector keeps raw records.
#[inline]
pub fn sample(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_collector(|c| {
        if c.keep_records {
            let t = c.now_us();
            c.data.metrics.sample_at(name, t, value);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_is_inert() {
        assert!(!enabled());
        let mut s = span(Phase::Solve, "noop");
        assert!(!s.is_recording());
        s.attr("k", 1u64);
        drop(s);
        event(Phase::Bdd, "never", || panic!("attrs closure must not run when disabled"));
        sample("s", 1.0);
        heartbeat(|_| panic!("no collector, nothing to render for"));
        assert!(take().is_none());
    }

    #[test]
    fn spans_nest_and_balance() {
        install();
        {
            let mut outer = span(Phase::Solve, "outer");
            outer.attr("x", 7u64);
            {
                let _inner = span(Phase::Solve, "inner");
            }
            event(Phase::Bdd, "tick", || vec![("n", 3u64.into())]);
        }
        let data = take().expect("collector installed");
        assert_eq!(data.spans.len(), 2);
        // Completion order: inner closes first.
        assert_eq!(data.spans[0].name, "inner");
        assert_eq!(data.spans[0].depth, 1);
        assert_eq!(data.spans[1].name, "outer");
        assert_eq!(data.spans[1].depth, 0);
        assert!(data.spans[1].t_start_us <= data.spans[0].t_start_us);
        assert!(data.spans[1].t_end_us >= data.spans[0].t_end_us);
        assert_eq!(data.spans[1].attrs, vec![("x", AttrValue::UInt(7))]);
        assert_eq!(data.events.len(), 1);
        assert_eq!((data.summary.span_count(), data.summary.event_count()), (2, 1));
        assert!(!enabled());
    }

    /// A summary-only collector keeps no raw record however many it
    /// sees, and its aggregates still count every span and event.
    #[test]
    fn a_summary_collector_keeps_no_records_and_counts_everything() {
        const N: u64 = 100_000;
        install_summary();
        for i in 0..N {
            let mut reeval = span(Phase::Solve, "reeval");
            reeval.attr("relation", "Reach");
            event(Phase::Bdd, "rehash", || panic!("no record, so no attributes to build"));
            sample("arena", i as f64);
        }
        let data = take().expect("collector installed");
        assert!(data.spans.is_empty() && data.events.is_empty() && data.metrics.is_empty());
        let summary = &data.summary;
        assert_eq!((summary.span_count(), summary.event_count()), (N, N));
        assert_eq!(summary.groups[&(Phase::Solve, "reeval")].count, N);
        assert_eq!(summary.events[&(Phase::Bdd, "rehash")], N);
        assert_eq!(summary.latency["Reach"].iter().sum::<u64>(), N);
    }

    #[test]
    fn progress_sink_fires_throttled_and_needs_a_collector() {
        use std::rc::Rc;

        assert!(
            !attach_progress(std::time::Duration::ZERO, |_| {}),
            "no collector, nothing to attach to"
        );

        // A collector without a sink renders nothing.
        install_summary();
        heartbeat(|_| panic!("no sink, nothing to render for"));

        let lines: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink = Rc::clone(&lines);
        assert!(attach_progress(std::time::Duration::ZERO, move |l| {
            sink.borrow_mut().push(l.to_string());
        }));
        heartbeat(|t_us| format!("first at {t_us}"));
        heartbeat(|_| "second".to_string());
        assert!(take().is_some());
        let lines = lines.borrow();
        assert_eq!(lines.len(), 2, "zero interval passes every beat: {lines:?}");
        assert!(lines[0].starts_with("first at "), "{lines:?}");
        assert_eq!(lines[1], "second");

        // A long interval lets only the first beat through, and the
        // throttled ones are never rendered.
        install_summary();
        let count = Rc::new(Cell::new(0usize));
        let sink = Rc::clone(&count);
        attach_progress(std::time::Duration::from_secs(3600), move |_| {
            sink.set(sink.get() + 1);
        });
        let renders = Cell::new(0usize);
        for _ in 0..10 {
            heartbeat(|_| {
                renders.set(renders.get() + 1);
                String::new()
            });
        }
        assert!(take().is_some());
        assert_eq!((count.get(), renders.get()), (1, 1));
    }

    #[test]
    fn reinstall_resets() {
        install();
        let _ = span(Phase::Parse, "first");
        install();
        drop(span(Phase::Parse, "second"));
        let data = take().expect("collector installed");
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.spans[0].name, "second");
    }
}
