//! The metrics registry: named, timestamped time series for trace export.
//!
//! The solver samples [`ManagerStats`]-derived values at every stratum
//! boundary, so a long ef-opt run shows cache hit rate and arena growth
//! *over time* instead of one terminal ratio. The Chrome exporter draws
//! each series as a counter track. The registry counts nothing: every
//! counter of a run lives in the layer that performs the work
//! (`ManagerStats` for the BDD kernel, `SolveStats` for the solver).
//!
//! [`ManagerStats`]: https://docs.rs/getafix-bdd

use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// One `(t_us, value)` time-series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Microseconds since the owning collector's epoch.
    pub t_us: u64,
    pub value: f64,
}

/// Named time series, kept by a collector that records for an export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    series: BTreeMap<&'static str, Vec<Sample>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Appends a time-series point with an explicit timestamp.
    pub fn sample_at(&mut self, name: &'static str, t_us: u64, value: f64) {
        self.series.entry(name).or_default().push(Sample { t_us, value });
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
        self.series.is_empty()
    }

    /// Writes the registry as one JSON object, `{ "series": { name:
    /// [{"t_us":…, "value":…}, …] } }`, into an existing [`JsonWriter`]
    /// (the trace exporter embeds it as `otherData.metrics`).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
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
    fn series_record_in_order_and_serialize() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.sample_at("hit_rate", 10, 0.5);
        r.sample_at("hit_rate", 20, 0.75);
        r.sample_at("arena", 15, 4.0);
        assert_eq!(r.series("hit_rate").len(), 2);
        assert!(r.series("absent").is_empty());
        assert_eq!(r.all_series().map(|(n, _)| n).collect::<Vec<_>>(), ["arena", "hit_rate"]);
        assert!(!r.is_empty());

        let mut w = JsonWriter::new();
        r.write_json(&mut w);
        let v = parse(&w.finish()).expect("registry JSON parses");
        assert!(v.get("counters").is_none() && v.get("gauges").is_none(), "series only");
        let series = v
            .get("series")
            .and_then(|s| s.get("hit_rate"))
            .and_then(Value::as_array)
            .expect("series array");
        assert_eq!(series[1].get("value").and_then(Value::as_f64), Some(0.75));
        assert_eq!(series[1].get("t_us").and_then(Value::as_f64), Some(20.0));
    }
}
