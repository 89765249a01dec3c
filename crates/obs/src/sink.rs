//! Trace records and the sink that collects them.
//!
//! The [`Collector`] receives a stream of [`TraceRecord`]s — span
//! starts, span ends, and point events — from the span/event API in the
//! crate root. It retains every record, answers span-tree shape
//! questions, and renders the stream as JSONL
//! ([`Collector::write_jsonl`]) once a run is over. Installing no
//! collector at all is the disabled path (one relaxed atomic load per
//! call site).
//!
//! ## Determinism contract
//!
//! Span ids are allocated **per sink** (each sink owns an `AtomicU64`),
//! so two runs that install fresh sinks and execute the same code see
//! the same ids. Wall-clock values live only in the explicitly-tagged
//! `ts` / `dur` fields; [`strip_timing`] removes exactly those, after
//! which equal workloads must yield byte-identical JSONL.

use serde::{Json, Serialize};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One typed key-value field attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A boolean flag.
    Bool(bool),
    /// An unsigned count / dense id index.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point measurement.
    F64(f64),
    /// An owned string (interned names arrive here via `Arc<str>`).
    Text(String),
}

impl Serialize for FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::Bool(b) => Json::Bool(*b),
            FieldValue::U64(n) => Json::Uint(*n),
            FieldValue::I64(n) => Json::Int(*n),
            FieldValue::F64(x) => Json::Num(*x),
            FieldValue::Text(s) => Json::Str(s.clone()),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}

field_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Text(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Text(v)
    }
}

impl From<&Arc<str>> for FieldValue {
    fn from(v: &Arc<str>) -> FieldValue {
        FieldValue::Text(v.to_string())
    }
}

impl From<rca_ident::VarId> for FieldValue {
    fn from(v: rca_ident::VarId) -> FieldValue {
        FieldValue::U64(v.index() as u64)
    }
}

impl From<rca_ident::ModuleId> for FieldValue {
    fn from(v: rca_ident::ModuleId) -> FieldValue {
        FieldValue::U64(v.index() as u64)
    }
}

impl From<rca_ident::OutputId> for FieldValue {
    fn from(v: rca_ident::OutputId) -> FieldValue {
        FieldValue::U64(v.index() as u64)
    }
}

/// A span or event as delivered to a [`Collector`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A span opened.
    SpanStart {
        /// Sink-allocated span id (deterministic per sink).
        id: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Static span name (`phase.slice`, `diagnose`, ...).
        name: &'static str,
        /// Typed key-value fields recorded at open.
        fields: Vec<(&'static str, FieldValue)>,
        /// Nanoseconds since the process trace origin (**timing: stripped by CI diffs**).
        ts: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Id from the matching `SpanStart`.
        id: u64,
        /// Same static name as the matching `SpanStart`.
        name: &'static str,
        /// Close timestamp (**timing**).
        ts: u64,
        /// Span duration in nanoseconds (**timing**).
        dur: u64,
    },
    /// A point event.
    Event {
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Static event name (`refine.iter`, `scenario.error`, ...).
        name: &'static str,
        /// Typed key-value fields.
        fields: Vec<(&'static str, FieldValue)>,
        /// Timestamp (**timing**).
        ts: u64,
    },
}

fn fields_json(fields: &[(&'static str, FieldValue)]) -> Json {
    Json::obj(fields.iter().map(|(k, v)| (*k, v.to_json())))
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::Uint(n),
        None => Json::Null,
    }
}

impl TraceRecord {
    /// The record's static name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceRecord::SpanStart { name, .. }
            | TraceRecord::SpanEnd { name, .. }
            | TraceRecord::Event { name, .. } => name,
        }
    }
}

impl Serialize for TraceRecord {
    /// The JSONL line schema. `ts`/`dur` are the *only* wall-clock
    /// carriers — everything else must be deterministic.
    fn to_json(&self) -> Json {
        match self {
            TraceRecord::SpanStart {
                id,
                parent,
                name,
                fields,
                ts,
            } => Json::obj([
                ("type", Json::Str("span_start".into())),
                ("id", Json::Uint(*id)),
                ("parent", opt_u64(*parent)),
                ("name", Json::Str((*name).into())),
                ("fields", fields_json(fields)),
                ("ts", Json::Uint(*ts)),
            ]),
            TraceRecord::SpanEnd { id, name, ts, dur } => Json::obj([
                ("type", Json::Str("span_end".into())),
                ("id", Json::Uint(*id)),
                ("name", Json::Str((*name).into())),
                ("ts", Json::Uint(*ts)),
                ("dur", Json::Uint(*dur)),
            ]),
            TraceRecord::Event {
                parent,
                name,
                fields,
                ts,
            } => Json::obj([
                ("type", Json::Str("event".into())),
                ("parent", opt_u64(*parent)),
                ("name", Json::Str((*name).into())),
                ("fields", fields_json(fields)),
                ("ts", Json::Uint(*ts)),
            ]),
        }
    }
}

/// The trace sink: retains every record in memory, answers span-tree
/// shape questions, and renders the trace as JSONL. Span ids come from
/// a counter the collector owns, so traces are deterministic per
/// collector rather than per process.
#[derive(Debug, Default)]
pub struct Collector {
    records: Mutex<Vec<TraceRecord>>,
    ids: AtomicU64,
}

impl Collector {
    /// A fresh empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<TraceRecord>> {
        self.records
            .lock()
            .expect("no collector method panics holding the lock")
    }

    /// Retains one record. Called in program order per thread.
    pub fn record(&self, rec: TraceRecord) {
        self.lock().push(rec);
    }

    /// Allocates the next span id (1-based, monotonic within this
    /// collector).
    pub fn next_span_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Every record received so far, in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().clone()
    }

    /// Writes every record received so far as one compact JSON object
    /// per line, in arrival order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for rec in self.lock().iter() {
            let line = serde_json::to_string(rec).unwrap_or_default();
            writeln!(out, "{line}")?;
        }
        Ok(())
    }

    /// Names of all opened spans, in open order.
    pub fn span_names(&self) -> Vec<&'static str> {
        self.lock()
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanStart { name, .. } => Some(*name),
                _ => None,
            })
            .collect()
    }

    /// How many spans named `name` were opened.
    pub fn spans_named(&self, name: &str) -> usize {
        self.span_names().iter().filter(|n| **n == name).count()
    }

    /// Names of spans and events whose parent is a span named
    /// `parent`, in arrival order (children of every such span).
    pub fn children_of(&self, parent: &str) -> Vec<&'static str> {
        let records = self.lock();
        let parent_ids: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanStart { id, name, .. } if *name == parent => Some(*id),
                _ => None,
            })
            .collect();
        records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanStart {
                    parent: Some(p),
                    name,
                    ..
                }
                | TraceRecord::Event {
                    parent: Some(p),
                    name,
                    ..
                } if parent_ids.contains(p) => Some(*name),
                _ => None,
            })
            .collect()
    }

    /// Events named `name`, with their fields.
    #[allow(clippy::type_complexity)]
    pub fn events_named(&self, name: &str) -> Vec<Vec<(&'static str, FieldValue)>> {
        self.lock()
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Event {
                    name: n, fields, ..
                } if *n == name => Some(fields.clone()),
                _ => None,
            })
            .collect()
    }
}

fn strip_value(v: &serde_json::Value) -> Json {
    match v {
        serde_json::Value::Null => Json::Null,
        serde_json::Value::Bool(b) => Json::Bool(*b),
        serde_json::Value::Number(n) => {
            if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 {
                Json::Uint(*n as u64)
            } else {
                Json::Num(*n)
            }
        }
        serde_json::Value::String(s) => Json::Str(s.clone()),
        serde_json::Value::Array(items) => Json::Arr(items.iter().map(strip_value).collect()),
        serde_json::Value::Object(map) => Json::Obj(
            map.iter()
                .filter(|(k, _)| k.as_str() != "ts" && k.as_str() != "dur")
                .map(|(k, v)| (k.clone(), strip_value(v)))
                .collect(),
        ),
    }
}

/// Removes the tagged timing fields (`ts`, `dur`) from every line of a
/// JSONL trace and re-renders it canonically (sorted keys). Two traces
/// of the same workload must be byte-identical after this transform —
/// that is the CI diffing contract.
///
/// Lines that fail to parse are kept verbatim so schema violations stay
/// visible to the comparison rather than being silently dropped.
pub fn strip_timing(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(v) => out.push_str(&serde_json::to_string(&strip_value(&v)).unwrap_or_default()),
            Err(_) => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_schema_has_tagged_timing_fields() {
        let rec = TraceRecord::SpanStart {
            id: 1,
            parent: None,
            name: "phase.parse",
            fields: vec![("files", FieldValue::U64(3))],
            ts: 42,
        };
        let line = serde_json::to_string(&rec).unwrap();
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v["type"].as_str(), Some("span_start"));
        assert_eq!(v["id"].as_u64(), Some(1));
        assert_eq!(v["parent"], serde_json::Value::Null);
        assert_eq!(v["name"].as_str(), Some("phase.parse"));
        assert_eq!(v["fields"]["files"].as_u64(), Some(3));
        assert_eq!(v["ts"].as_u64(), Some(42));
    }

    #[test]
    fn strip_timing_removes_only_ts_and_dur() {
        let a = r#"{"type":"span_end","id":7,"name":"x","ts":123,"dur":456}"#;
        let b = r#"{"type":"span_end","id":7,"name":"x","ts":999,"dur":1}"#;
        assert_eq!(strip_timing(a), strip_timing(b));
        assert!(strip_timing(a).contains("\"id\":7"));
        assert!(!strip_timing(a).contains("ts"));
        // Non-timing fields still distinguish lines.
        let c = r#"{"type":"span_end","id":8,"name":"x","ts":123,"dur":456}"#;
        assert_ne!(strip_timing(a), strip_timing(c));
    }

    #[test]
    fn collector_renders_jsonl_lines() {
        let c = Collector::new();
        c.record(TraceRecord::Event {
            parent: Some(3),
            name: "scenario",
            fields: vec![("ok", FieldValue::Bool(true))],
            ts: 5,
        });
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"event\",\"parent\":3,\"name\":\"scenario\",\"fields\":{\"ok\":true},\"ts\":5}\n"
        );
    }

    #[test]
    fn collector_shape_helpers() {
        let c = Collector::new();
        let outer = c.next_span_id();
        c.record(TraceRecord::SpanStart {
            id: outer,
            parent: None,
            name: "diagnose",
            fields: vec![],
            ts: 0,
        });
        let inner = c.next_span_id();
        c.record(TraceRecord::SpanStart {
            id: inner,
            parent: Some(outer),
            name: "phase.slice",
            fields: vec![],
            ts: 0,
        });
        c.record(TraceRecord::Event {
            parent: Some(inner),
            name: "refine.iter",
            fields: vec![("iter", FieldValue::U64(0))],
            ts: 0,
        });
        assert_eq!(c.span_names(), vec!["diagnose", "phase.slice"]);
        assert_eq!(c.spans_named("phase.slice"), 1);
        assert_eq!(c.children_of("diagnose"), vec!["phase.slice"]);
        assert_eq!(c.children_of("phase.slice"), vec!["refine.iter"]);
        assert_eq!(c.events_named("refine.iter").len(), 1);
    }
}
