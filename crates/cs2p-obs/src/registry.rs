//! The telemetry registry: metric tables, sinks, clock, and the global
//! instance library code reports to.
//!
//! Instrumentation in the workspace's hot paths calls the free functions
//! in [`crate`] (e.g. [`crate::counter_add`]), which forward to the
//! process-global registry. The global starts **disabled**: every call
//! short-circuits on one relaxed atomic load, so un-observed runs pay
//! almost nothing (`cs2p-eval obs-overhead` measures it). Tests that
//! need isolation construct their own [`Registry`]
//! (usually with a [`ManualClock`](crate::clock::ManualClock)) instead of
//! sharing the global.

use crate::clock::{Clock, MonotonicClock};
use crate::event::{Field, Fields, Level, Record, RecordKind};
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::quantile::QuantileSketch;
use crate::sink::Sink;
use crate::trace::current_trace_id;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A self-contained telemetry domain: metrics, sinks, and a clock.
pub struct Registry {
    enabled: AtomicBool,
    clock: RwLock<Arc<dyn Clock>>,
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    quantiles: Mutex<BTreeMap<String, QuantileSketch>>,
    next_run_id: AtomicU64,
}

impl Registry {
    /// An enabled registry on the real monotonic clock.
    pub fn new() -> Self {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An enabled registry on the given clock.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            clock: RwLock::new(clock),
            sinks: RwLock::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            quantiles: Mutex::new(BTreeMap::new()),
            next_run_id: AtomicU64::new(1),
        }
    }

    /// The process-global registry. Starts disabled.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let r = Registry::new();
            r.set_enabled(false);
            r
        })
    }

    /// Whether instrumentation is live. When false, every reporting call
    /// returns after one relaxed atomic load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns instrumentation on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Current time on the registry's clock.
    pub fn now_micros(&self) -> u64 {
        self.clock.read().now_micros()
    }

    /// Attaches a sink; every subsequent record is delivered to it.
    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        self.sinks.write().push(sink);
    }

    /// Detaches every sink (metrics tables are unaffected).
    pub fn clear_sinks(&self) {
        self.sinks.write().clear();
    }

    /// Flushes every attached sink.
    pub fn flush_sinks(&self) {
        for sink in self.sinks.read().iter() {
            sink.flush();
        }
    }

    /// Allocates a process-unique id correlating the records of one
    /// logical operation (e.g. one EM training run).
    pub fn next_run_id(&self) -> u64 {
        self.next_run_id.fetch_add(1, Ordering::Relaxed)
    }

    fn dispatch(&self, record: Record) {
        for sink in self.sinks.read().iter() {
            sink.record(&record);
        }
    }

    /// Appends the active [`TraceScope`](crate::trace::TraceScope) id, if
    /// any, to a live-dispatched record's fields. Only events and
    /// span-close records pass through here — table updates (counters,
    /// gauges, histograms, quantiles) are aggregates across requests and
    /// carry no trace identity.
    fn attach_trace(fields: &mut Fields) {
        if let Some(id) = current_trace_id() {
            if !fields.iter().any(|(k, _)| *k == "trace_id") {
                fields.push(("trace_id", Field::U64(id)));
            }
        }
    }

    /// Emits a structured event.
    pub fn event(&self, level: Level, name: &str, fields: Fields) {
        if !self.enabled() {
            return;
        }
        let mut fields = fields;
        Self::attach_trace(&mut fields);
        self.dispatch(Record {
            ts_us: self.now_micros(),
            name: name.to_string(),
            kind: RecordKind::Event { level },
            fields,
        });
    }

    /// Adds to a counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.enabled() {
            return;
        }
        let mut counters = self.counters.lock();
        // Allocate the key only on first sight — counters sit on hot paths.
        match counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut gauges = self.gauges.lock();
        match gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records a histogram sample.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut histograms = self.histograms.lock();
        match histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Records one observation into a streaming-quantile sketch. Unlike
    /// [`observe`](Self::observe) (log₂ buckets, factor-of-two error) the
    /// sketch resolves p50/p90/p99 to within ~5% relative error and its
    /// state merges exactly; see [`crate::quantile`].
    pub fn quantile_observe(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut quantiles = self.quantiles.lock();
        match quantiles.get_mut(name) {
            Some(q) => q.observe(value),
            None => {
                let mut q = QuantileSketch::new();
                q.observe(value);
                quantiles.insert(name.to_string(), q);
            }
        }
    }

    /// Starts a scoped span. On drop it records the duration into the
    /// `<name>.us` histogram and emits a `span` record.
    ///
    /// Returns a no-op guard when disabled, so callers can
    /// unconditionally write `let _span = obs.span("stage");`.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                registry: self,
                name,
                start_us: 0,
                fields: Vec::new(),
                live: false,
            };
        }
        SpanGuard {
            registry: self,
            name,
            start_us: self.now_micros(),
            fields: Vec::new(),
            live: true,
        }
    }

    /// A copy of every metric table.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().clone(),
            gauges: self.gauges.lock().clone(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            quantiles: self
                .quantiles
                .lock()
                .iter()
                .map(|(k, q)| (k.clone(), q.snapshot()))
                .collect(),
        }
    }

    /// Emits one record per metric (counter/gauge/histogram rows) to the
    /// sinks — the "final snapshot" block of a `--metrics` JSONL file.
    pub fn emit_snapshot(&self) {
        if !self.enabled() {
            return;
        }
        let ts = self.now_micros();
        let snap = self.snapshot();
        for (name, value) in snap.counters {
            self.dispatch(Record {
                ts_us: ts,
                name,
                kind: RecordKind::Counter { value },
                fields: Vec::new(),
            });
        }
        for (name, value) in snap.gauges {
            self.dispatch(Record {
                ts_us: ts,
                name,
                kind: RecordKind::Gauge { value },
                fields: Vec::new(),
            });
        }
        for (name, snapshot) in snap.histograms {
            self.dispatch(Record {
                ts_us: ts,
                name,
                kind: RecordKind::Histogram { snapshot },
                fields: Vec::new(),
            });
        }
        for (name, snapshot) in snap.quantiles {
            self.dispatch(Record {
                ts_us: ts,
                name,
                kind: RecordKind::Quantile { snapshot },
                fields: Vec::new(),
            });
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// A scoped timer returned by [`Registry::span`]. Dropping it records the
/// elapsed time.
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: &'static str,
    start_us: u64,
    fields: Fields,
    live: bool,
}

impl SpanGuard<'_> {
    /// Attaches a field to the span record emitted at drop.
    pub fn field(mut self, key: &'static str, value: impl Into<crate::event::Field>) -> Self {
        if self.live {
            self.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.live || !self.registry.enabled() {
            return;
        }
        let end = self.registry.now_micros();
        let duration_us = end.saturating_sub(self.start_us);
        self.registry
            .observe(&format!("{}.us", self.name), duration_us as f64);
        let mut fields = std::mem::take(&mut self.fields);
        Registry::attach_trace(&mut fields);
        self.registry.dispatch(Record {
            ts_us: end,
            name: self.name.to_string(),
            kind: RecordKind::Span { duration_us },
            fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        let sink = Arc::new(MemorySink::new());
        r.add_sink(sink.clone());
        r.set_enabled(false);
        r.counter_add("c", 1);
        r.gauge_set("g", 2.0);
        r.observe("h", 3.0);
        r.event(Level::Info, "e", vec![]);
        drop(r.span("s"));
        assert!(sink.records().is_empty());
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn span_records_duration_on_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let r = Registry::with_clock(clock.clone());
        let sink = Arc::new(MemorySink::new());
        r.add_sink(sink.clone());
        {
            let _span = r.span("train.engine").field("n", 3u64);
            clock.advance(1500);
        }
        let records = sink.records_named("train.engine");
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].kind,
            RecordKind::Span { duration_us: 1500 }
        ));
        let snap = r.snapshot();
        assert_eq!(snap.histograms["train.engine.us"].count, 1);
        assert_eq!(snap.histograms["train.engine.us"].sum, 1500.0);
    }

    #[test]
    fn emit_snapshot_writes_metric_rows() {
        let r = Registry::with_clock(Arc::new(ManualClock::starting_at(9)));
        let sink = Arc::new(MemorySink::new());
        r.add_sink(sink.clone());
        r.counter_add("train.em.runs", 2);
        r.gauge_set("train.engine.models", 4.0);
        r.observe("predict.latency.us", 10.0);
        r.emit_snapshot();
        let records = sink.records();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|rec| rec.ts_us == 9));
        let kinds: Vec<&str> = records.iter().map(|rec| rec.kind_str()).collect();
        assert_eq!(kinds, vec!["counter", "gauge", "histogram"]);
    }

    #[test]
    fn run_ids_are_unique() {
        let r = Registry::new();
        let a = r.next_run_id();
        let b = r.next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn quantile_observe_feeds_snapshot_and_emit() {
        let r = Registry::with_clock(Arc::new(ManualClock::starting_at(5)));
        let sink = Arc::new(MemorySink::new());
        r.add_sink(sink.clone());
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.quantile_observe("quality.ape.v1", v);
        }
        let snap = r.snapshot();
        let q = &snap.quantiles["quality.ape.v1"];
        assert_eq!(q.count, 4);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.max, 4.0);
        assert!(q.p50 >= 1.0 && q.p50 <= 4.0);
        r.emit_snapshot();
        let records = sink.records_named("quality.ape.v1");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind_str(), "quantile");
        let line = records[0].to_json_line();
        assert!(line.contains(r#""kind":"quantile""#));
        assert!(line.contains(r#""p99""#));
    }

    #[test]
    fn disabled_registry_skips_quantiles() {
        let r = Registry::new();
        r.set_enabled(false);
        r.quantile_observe("q", 1.0);
        assert!(r.snapshot().quantiles.is_empty());
    }

    #[test]
    fn trace_scope_tags_events_and_spans() {
        let clock = Arc::new(ManualClock::new());
        let r = Registry::with_clock(clock.clone());
        let sink = Arc::new(MemorySink::new());
        r.add_sink(sink.clone());
        {
            let _scope = crate::trace::TraceScope::enter(77);
            r.event(Level::Info, "net.server.hit", vec![("n", 1u64.into())]);
            let _span = r.span("serve.request");
            clock.advance(10);
        }
        // Outside the scope: no trace id.
        r.event(Level::Info, "net.server.hit", vec![]);
        let events = sink.records_named("net.server.hit");
        assert_eq!(events[0].field("trace_id"), Some(&Field::U64(77)));
        assert_eq!(events[1].field("trace_id"), None);
        let spans = sink.records_named("serve.request");
        assert_eq!(spans[0].field("trace_id"), Some(&Field::U64(77)));
    }
}
