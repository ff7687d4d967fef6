//! Chrome trace-event export: one [`TraceData`] becomes a JSON document
//! loadable in Perfetto (<https://ui.perfetto.dev>) or `about:tracing`.
//!
//! The mapping uses the simplest portable subset of the format:
//!
//! * every span is a **complete** event (`"ph": "X"`) with `ts`/`dur` in
//!   microseconds — nesting is reconstructed by the viewer from the
//!   timestamps, which the collector's LIFO guards guarantee are properly
//!   bracketed;
//! * every instant event is `"ph": "i"` with thread scope;
//! * every metrics time series becomes a **counter** track (`"ph": "C"`),
//!   which Perfetto renders as a stepped graph — cache hit rates and arena
//!   growth over the run, next to the span tree that caused them;
//! * span/event attributes land in `args`, phases in `cat`.

use crate::collect::{AttrValue, Attrs, TraceData};
use crate::json::JsonWriter;

fn write_attrs(w: &mut JsonWriter, attrs: &Attrs) {
    w.begin_object();
    for (k, v) in attrs {
        match v {
            AttrValue::Int(i) => {
                w.key(k);
                w.value_i64(*i);
            }
            AttrValue::UInt(u) => w.field_u64(k, *u),
            AttrValue::Float(f) => w.field_f64(k, *f),
            AttrValue::Bool(b) => w.field_bool(k, *b),
            AttrValue::Str(s) => w.field_str(k, s),
        }
    }
    w.end_object();
}

impl TraceData {
    /// Renders the trace as a Chrome trace-event JSON document.
    ///
    /// `pid` and `tid` are fixed at 1: a trace records one thread, so it
    /// renders as one track.
    pub fn chrome_trace_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_str("cat", s.phase.name());
            w.field_str("ph", "X");
            w.field_u64("ts", s.t_start_us);
            w.field_u64("dur", s.dur_us());
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            if !s.attrs.is_empty() {
                w.key("args");
                write_attrs(&mut w, &s.attrs);
            }
            w.end_object();
        }
        for e in &self.events {
            w.begin_object();
            w.field_str("name", e.name);
            w.field_str("cat", e.phase.name());
            w.field_str("ph", "i");
            w.field_str("s", "t");
            w.field_u64("ts", e.t_us);
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            if !e.attrs.is_empty() {
                w.key("args");
                write_attrs(&mut w, &e.attrs);
            }
            w.end_object();
        }
        for (name, samples) in self.metrics.all_series() {
            for s in samples {
                w.begin_object();
                w.field_str("name", name);
                w.field_str("cat", "metrics");
                w.field_str("ph", "C");
                w.field_u64("ts", s.t_us);
                w.field_u64("pid", 1);
                w.key("args");
                w.begin_object();
                w.field_f64("value", s.value);
                w.end_object();
                w.end_object();
            }
        }
        w.end_array();
        w.field_str("displayTimeUnit", "ms");
        if !self.metrics.is_empty() {
            // The series again, whole, in the documented side-channel
            // field, for tools that read the numbers rather than draw them.
            w.key("otherData");
            w.begin_object();
            w.key("metrics");
            self.metrics.write_json(&mut w);
            w.end_object();
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::collect::{self, Phase};
    use crate::json::{parse, Value};

    #[test]
    fn chrome_export_is_valid_and_complete() {
        collect::install();
        {
            let mut outer = collect::span(Phase::Solve, "evaluate");
            outer.attr("relation", "Reach");
            let _inner = collect::span(Phase::Solve, "stratum");
            collect::event(Phase::Bdd, "gc", || vec![("reclaimed", 12u64.into())]);
            collect::sample("arena_nodes", 42.0);
        }
        let data = collect::take().expect("collector installed");
        let doc = data.chrome_trace_json();
        let v = parse(&doc).expect("chrome trace parses as JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        // 2 spans + 1 instant + 1 counter sample.
        assert_eq!(events.len(), 4);
        for e in events {
            assert!(e.get("name").is_some() && e.get("ph").is_some() && e.get("ts").is_some());
        }
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Value::as_str)).collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 1);
        let metrics = v.get("otherData").and_then(|o| o.get("metrics")).expect("metrics snapshot");
        assert!(metrics.get("series").and_then(|s| s.get("arena_nodes")).is_some());
    }
}
