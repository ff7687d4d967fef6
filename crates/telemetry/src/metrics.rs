//! The live metrics registry: named monotonic counters, gauges and
//! timestamped time series.
//!
//! [`Registry`] is a plain value type, deliberately independent of the
//! thread-local collector: a future `getafix serve` mode can own a
//! registry directly and publish snapshots from it, while today's CLI
//! reaches the same registry through the collector's free functions
//! ([`crate::counter_add`], [`crate::sample`], …). A snapshot is one
//! [`Registry::to_json`] call — the export surface a scrape endpoint
//! will serve verbatim.
//!
//! Time series are what turn the solver's end-of-run aggregates into
//! trajectories: the solver samples [`ManagerStats`]-derived values at
//! every stratum boundary, so a long ef-opt run shows cache hit rate and
//! arena growth *over time* instead of one terminal ratio.
//!
//! [`ManagerStats`]: https://docs.rs/getafix-bdd

use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// One `(t_us, value)` time-series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Microseconds since the owning collector/registry epoch.
    pub t_us: u64,
    pub value: f64,
}

/// A named-metrics registry: counters, gauges and time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    series: BTreeMap<&'static str, Vec<Sample>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named monotonic counter (creating it at 0).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Appends a time-series point with an explicit timestamp.
    pub fn sample_at(&mut self, name: &'static str, t_us: u64, value: f64) {
        self.series.entry(name).or_default().push(Sample { t_us, value });
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The recorded points of a time series (empty if never sampled).
    pub fn series(&self, name: &str) -> &[Sample] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates all time series, name-ordered.
    pub fn all_series(&self) -> impl Iterator<Item = (&'static str, &[Sample])> {
        self.series.iter().map(|(&n, s)| (n, s.as_slice()))
    }

    /// Is there nothing recorded at all?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.series.is_empty()
    }

    /// Serializes the whole registry as a self-contained JSON object:
    /// `{ "counters": {…}, "gauges": {…}, "series": { name: [{"t_us":…,
    /// "value":…}, …] } }`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the registry object into an existing [`JsonWriter`] (so the
    /// trace exporter can embed it in a larger document).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, v) in &self.gauges {
            w.field_f64(name, *v);
        }
        w.end_object();
        w.key("series");
        w.begin_object();
        for (name, samples) in &self.series {
            w.key(name);
            w.begin_array();
            for s in samples {
                w.begin_object();
                w.field_u64("t_us", s.t_us);
                w.field_f64("value", s.value);
                w.end_object();
            }
            w.end_array();
        }
        w.end_object();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn counters_gauges_series() {
        let mut r = Registry::new();
        r.counter_add("reevals", 3);
        r.counter_add("reevals", 4);
        r.gauge_set("arena_nodes", 128.0);
        r.sample_at("hit_rate", 10, 0.5);
        r.sample_at("hit_rate", 20, 0.75);
        assert_eq!(r.counter("reevals"), 7);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("arena_nodes"), Some(128.0));
        assert_eq!(r.series("hit_rate").len(), 2);
        assert!(!r.is_empty());

        let v = parse(&r.to_json()).expect("registry JSON parses");
        assert_eq!(
            v.get("counters").and_then(|c| c.get("reevals")).and_then(Value::as_f64),
            Some(7.0)
        );
        let series = v
            .get("series")
            .and_then(|s| s.get("hit_rate"))
            .and_then(Value::as_array)
            .expect("series array");
        assert_eq!(series[1].get("value").and_then(Value::as_f64), Some(0.75));
    }
}
