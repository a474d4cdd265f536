//! Structured telemetry records.
//!
//! Everything a sink sees is a [`Record`]: a point-in-time
//! [`Event`](RecordKind::Event), a completed span with its duration, or a
//! metric snapshot row. Records
//! serialize to single-line JSON objects (the JSONL schema documented in
//! `OBSERVABILITY.md` at the repository root).

use serde::Value;

/// Severity of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// High-volume diagnostics (per-iteration, per-request).
    Debug,
    /// Normal lifecycle milestones.
    #[default]
    Info,
    /// Something degraded but recoverable (e.g. EM hit its iteration cap).
    Warn,
}

impl Level {
    /// The schema string for this level.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A single structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Field {
    /// Renders the field as a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Field::I64(v) => Value::Int(*v),
            Field::U64(v) => Value::UInt(*v),
            Field::F64(v) => Value::Float(*v),
            Field::Str(v) => Value::Str(v.clone()),
            Field::Bool(v) => Value::Bool(*v),
        }
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}
impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

/// Named fields attached to an event or span, insertion-ordered (so the
/// serialized form is deterministic).
pub type Fields = Vec<(&'static str, Field)>;

/// What kind of record a line is.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// A point-in-time structured event.
    Event {
        /// Severity.
        level: Level,
    },
    /// A completed scoped span.
    Span {
        /// Wall-clock duration in microseconds.
        duration_us: u64,
    },
    /// A counter snapshot row.
    Counter {
        /// Accumulated count.
        value: u64,
    },
    /// A gauge snapshot row.
    Gauge {
        /// Last set value.
        value: f64,
    },
    /// A histogram snapshot row.
    Histogram {
        /// The serialized snapshot.
        snapshot: crate::metrics::HistogramSnapshot,
    },
    /// A streaming-quantile sketch snapshot row.
    Quantile {
        /// The serialized snapshot (count/min/max and p50/p90/p99).
        snapshot: crate::quantile::QuantileSnapshot,
    },
}

/// One telemetry record — the unit every [`Sink`](crate::sink::Sink)
/// receives and every JSONL line encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Timestamp (microseconds on the registry's clock).
    pub ts_us: u64,
    /// Dotted record name; the first segment is the pipeline stage
    /// (`train`, `predict`, `stream`, `net`, ...).
    pub name: String,
    /// Record kind and kind-specific payload.
    pub kind: RecordKind,
    /// Structured fields.
    pub fields: Fields,
}

impl Record {
    /// The schema `kind` string for this record.
    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            RecordKind::Event { .. } => "event",
            RecordKind::Span { .. } => "span",
            RecordKind::Counter { .. } => "counter",
            RecordKind::Gauge { .. } => "gauge",
            RecordKind::Histogram { .. } => "histogram",
            RecordKind::Quantile { .. } => "quantile",
        }
    }

    /// Renders the record as a JSON value tree (one JSONL line when
    /// serialized).
    pub fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("ts_us".into(), Value::UInt(self.ts_us)),
            ("kind".into(), Value::Str(self.kind_str().into())),
            ("name".into(), Value::Str(self.name.clone())),
        ];
        match &self.kind {
            RecordKind::Event { level } => {
                obj.push(("level".into(), Value::Str(level.as_str().into())));
            }
            RecordKind::Span { duration_us } => {
                obj.push(("duration_us".into(), Value::UInt(*duration_us)));
            }
            RecordKind::Counter { value } => {
                obj.push(("value".into(), Value::UInt(*value)));
            }
            RecordKind::Gauge { value } => {
                obj.push(("value".into(), Value::Float(*value)));
            }
            RecordKind::Histogram { snapshot } => {
                obj.push(("count".into(), Value::UInt(snapshot.count)));
                obj.push(("sum".into(), Value::Float(snapshot.sum)));
                obj.push(("min".into(), Value::Float(snapshot.min)));
                obj.push(("max".into(), Value::Float(snapshot.max)));
                let buckets: Vec<Value> = snapshot
                    .buckets
                    .iter()
                    .map(|&(exp, count)| {
                        Value::Array(vec![Value::Int(exp as i64), Value::UInt(count)])
                    })
                    .collect();
                obj.push(("buckets".into(), Value::Array(buckets)));
            }
            RecordKind::Quantile { snapshot } => {
                obj.push(("count".into(), Value::UInt(snapshot.count)));
                obj.push(("min".into(), Value::Float(snapshot.min)));
                obj.push(("max".into(), Value::Float(snapshot.max)));
                obj.push(("p50".into(), Value::Float(snapshot.p50)));
                obj.push(("p90".into(), Value::Float(snapshot.p90)));
                obj.push(("p99".into(), Value::Float(snapshot.p99)));
            }
        }
        if !self.fields.is_empty() {
            let fields: Vec<(String, Value)> = self
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect();
            obj.push(("fields".into(), Value::Object(fields)));
        }
        Value::Object(obj)
    }

    /// Serializes the record to its single-line JSON form.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("record serialization is infallible")
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_with_ordered_keys() {
        let r = Record {
            ts_us: 42,
            name: "train.em.iteration".into(),
            kind: RecordKind::Event {
                level: Level::Debug,
            },
            fields: vec![("iter", 3usize.into()), ("ll", (-12.5f64).into())],
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"ts_us":42,"kind":"event","name":"train.em.iteration","level":"debug","fields":{"iter":3,"ll":-12.5}}"#
        );
    }

    #[test]
    fn span_carries_duration() {
        let r = Record {
            ts_us: 1,
            name: "train.engine".into(),
            kind: RecordKind::Span { duration_us: 250 },
            fields: vec![],
        };
        let line = r.to_json_line();
        assert!(line.contains(r#""kind":"span""#));
        assert!(line.contains(r#""duration_us":250"#));
        assert!(!line.contains("fields"));
    }

    #[test]
    fn field_lookup_finds_values() {
        let r = Record {
            ts_us: 0,
            name: "x".into(),
            kind: RecordKind::Event { level: Level::Info },
            fields: vec![("a", 1u64.into())],
        };
        assert_eq!(r.field("a"), Some(&Field::U64(1)));
        assert_eq!(r.field("b"), None);
    }
}
