//! In-memory spans recorded from outside the program: one around each
//! call the benchmark makes into a layer's public function, under one root
//! span per case. Nothing here reaches into the program; its own
//! telemetry collector stays uninstalled.

use std::fmt::Write as _;
use std::time::Instant;

/// The name of the root span each case runs under.
pub const CASE: &str = "case";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which case (numbered in run order) the span belongs to.
    pub case: u32,
    /// The layer name, or [`CASE`].
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; when off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    case_names: Vec<String>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            case_names: Vec::new(),
        }
    }

    /// Switches recording on or off between cases.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing switched inside a span");
        self.on = on;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new case; its id is its position in run
    /// order.
    pub fn open_case(&mut self, case_name: &str) {
        if self.on {
            self.case_names.push(case_name.to_string());
            self.open(CASE);
        }
    }

    /// Opens a span inside the current case.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            case: u32::try_from(self.case_names.len()).unwrap_or(u32::MAX).saturating_sub(1),
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Self time of every span in `range`: its duration minus the part
    /// its direct children cover (children nest, so their durations add).
    pub fn self_ns(&self, range: std::ops::Range<usize>) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; range.len()];
        for s in &self.spans[range.clone()] {
            if let Some(p) = s.parent.filter(|p| range.contains(p)) {
                child_ns[p - range.start] += s.dur_ns();
            }
        }
        self.spans[range]
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.name, s.dur_ns().saturating_sub(c)))
            .collect()
    }

    /// The case names, indexed by case id, and all spans as one JSON
    /// object (times in microseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"cases\": [");
        for (i, name) in self.case_names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\"");
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"case\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent}}}{}",
                s.case,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
