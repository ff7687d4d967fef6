//! Property tests of the JSON escaping path and the exporters under
//! hostile names.
//!
//! Relation and procedure names come straight from user programs, so the
//! Chrome exporter, the folded-stack exporter and every `--stats-json`
//! document must survive quotes, backslashes, control characters and
//! non-ASCII text in them. The oracle is the crate's own parser — the
//! same one the bench reporter and trace tests consume — so a failure
//! here is a real tooling break, not a stylistic one.

use getafix_telemetry::json::{escape, parse, JsonWriter, Value};
use getafix_telemetry::{parse_folded, AttrValue, Phase, SpanRecord, TraceData};
use proptest::prelude::*;

/// Characters deliberately chosen to stress the escaper: JSON structural
/// characters, every escape shorthand, raw control chars, DEL, the
/// JavaScript line separators, multi-byte scripts and an astral-plane
/// emoji.
const POOL: [char; 24] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1b}', '\u{1f}', '\u{7f}', '\u{2028}', '\u{2029}', 'é', 'λ', '中', '🔥', ';',
];

/// An arbitrary hostile string drawn from [`POOL`].
fn hostile_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..POOL.len(), 0..24)
        .prop_map(|idx| idx.into_iter().map(|i| POOL[i]).collect())
}

/// A span named `reeval` carrying `s` as its `relation` attribute.
fn reeval_span(s: &str, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        phase: Phase::Solve,
        name: "reeval",
        t_start_us: start,
        t_end_us: end,
        depth: 0,
        attrs: vec![("relation", AttrValue::Str(s.to_string()))],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `escape` → `parse` is the identity on arbitrary hostile strings.
    #[test]
    fn escape_round_trips_through_parse(s in hostile_string()) {
        let doc = format!("\"{}\"", escape(&s));
        let parsed = parse(&doc).expect("escaped string parses");
        prop_assert_eq!(parsed, Value::Str(s.clone()));
    }

    /// A whole document written through `JsonWriter` with hostile keys and
    /// values parses back to the exact strings.
    #[test]
    fn writer_documents_round_trip(key in hostile_string(), val in hostile_string()) {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", &key);
        w.key("values");
        w.begin_array();
        w.value_str(&val);
        w.value_str(&key);
        w.end_array();
        w.end_object();
        let v = parse(&w.finish()).expect("writer output parses");
        prop_assert_eq!(v.get("name").and_then(Value::as_str), Some(key.as_str()));
        let arr = v.get("values").and_then(Value::as_array).expect("values array");
        prop_assert_eq!(arr[0].as_str(), Some(val.as_str()));
        prop_assert_eq!(arr[1].as_str(), Some(key.as_str()));
    }

    /// The Chrome exporter stays valid JSON under hostile span attributes
    /// and event names, and the attribute value survives verbatim.
    #[test]
    fn chrome_export_survives_hostile_attrs(rel in hostile_string()) {
        let data = TraceData {
            spans: vec![reeval_span(&rel, 10, 20)],
            ..TraceData::default()
        };
        let v = parse(&data.chrome_trace_json()).expect("chrome trace parses");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        let hit = events.iter().find_map(|e| {
            e.get("args").and_then(|a| a.get("relation")).and_then(Value::as_str)
        });
        prop_assert_eq!(hit, Some(rel.as_str()));
    }

    /// The folded exporter always emits structurally valid lines — every
    /// frame free of `;` and whitespace, every weight a `u64` — no matter
    /// what the relation was called, and total weight still partitions
    /// the root span.
    #[test]
    fn folded_export_survives_hostile_relations(rel in hostile_string()) {
        let mut inner = reeval_span(&rel, 10, 40);
        inner.depth = 1;
        let root = SpanRecord {
            phase: Phase::Solve,
            name: "evaluate",
            t_start_us: 0,
            t_end_us: 100,
            depth: 0,
            attrs: Vec::new(),
        };
        let data = TraceData { spans: vec![inner, root], ..TraceData::default() };
        let folded = data.folded_stacks();
        let rows = parse_folded(&folded).expect("folded output is structurally valid");
        let total: u64 = rows.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(total, 100);
    }
}
