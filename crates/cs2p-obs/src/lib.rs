//! # cs2p-obs — structured observability for the CS2P workspace
//!
//! A zero-external-dependency telemetry layer (only the already-vendored
//! `parking_lot` and `serde_json`) giving every pipeline stage — EM
//! training, HMM filtering, MPC decisions, the DASH client/server, the
//! evaluation harness — a common vocabulary:
//!
//! - **Spans** ([`span`]): scoped wall-time timers; each records into a
//!   `<name>.us` histogram and emits a `span` record on drop.
//! - **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]):
//!   counters, gauges, and log-bucketed histograms with mergeable
//!   snapshots ([`metrics::MetricsSnapshot`]).
//! - **Events** ([`event()`]): structured, leveled records with typed
//!   fields.
//! - **Sinks** ([`sink`]): in-memory (tests), JSONL (machines), pretty
//!   stderr (humans); all pluggable on the thread-safe global
//!   [`registry::Registry`].
//! - **Clock injection** ([`clock`]): swap the monotonic clock for a
//!   [`clock::ManualClock`] and telemetry becomes byte-deterministic.
//!
//! Record names are dotted, and the first segment is the pipeline stage:
//! `train.*`, `predict.*`, `stream.*`, `net.*`. The JSONL wire format and
//! the stage vocabulary are specified in `OBSERVABILITY.md` at the
//! repository root and enforced by [`schema::validate_jsonl`].
//!
//! The global registry starts **disabled**; `cs2p-eval --metrics` (or a
//! test) turns it on. Disabled instrumentation costs one relaxed atomic
//! load per call site — `cs2p-eval obs-overhead` measures it.

#![warn(missing_docs)]
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]

pub mod clock;
pub mod event;
pub mod metrics;
pub mod quantile;
pub mod registry;
pub mod schema;
pub mod sink;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{Field, Fields, Level, Record, RecordKind};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot};
pub use quantile::{QuantileSketch, QuantileSnapshot};
pub use registry::{Registry, SpanGuard};
pub use sink::{JsonlSink, MemorySink, Sink, StderrSink};
pub use trace::{current_trace_id, TraceScope};

/// Whether the global registry is recording.
#[inline]
pub fn enabled() -> bool {
    Registry::global().enabled()
}

/// Enables or disables the global registry.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on);
}

/// Adds to a counter on the global registry.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    Registry::global().counter_add(name, delta);
}

/// Sets a gauge on the global registry.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    Registry::global().gauge_set(name, value);
}

/// Records a histogram sample on the global registry.
#[inline]
pub fn observe(name: &str, value: f64) {
    Registry::global().observe(name, value);
}

/// Records a streaming-quantile observation on the global registry.
#[inline]
pub fn quantile_observe(name: &str, value: f64) {
    Registry::global().quantile_observe(name, value);
}

/// Emits a structured event on the global registry.
#[inline]
pub fn event(level: Level, name: &str, fields: Fields) {
    Registry::global().event(level, name, fields);
}

/// Starts a scoped span on the global registry.
#[inline]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    Registry::global().span(name)
}

/// Allocates a process-unique run id (correlates the records of one
/// logical operation).
#[inline]
pub fn next_run_id() -> u64 {
    Registry::global().next_run_id()
}
