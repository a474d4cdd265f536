//! The read-only operations surface: everything an operator (or a
//! scraper) needs to judge a running prediction server at a glance.
//!
//! [`OpsSnapshot`] is one consistent-enough point-in-time view — health,
//! the live model version, session/connection/queue gauges, request
//! latency quantiles, the online prediction-quality sketches from
//! [`crate::quality::QualityMonitor`], and the fault counters. The same
//! struct backs three consumers:
//!
//! - `GET /ops` serves it as JSON;
//! - `GET /ops/metrics` renders it as Prometheus-style text
//!   ([`OpsSnapshot::to_prometheus`]);
//! - [`crate::server::ServerHandle::metrics_snapshot`] hands it to
//!   embedding code (benchmarks, `cs2p-eval refresh-bench`) without a
//!   socket round-trip.
//!
//! Counters are gathered from atomics and monitor-local sketches, so
//! the surface works even with the global `cs2p-obs` registry disabled;
//! only the `faults` rows come from the registry (they are empty when
//! it is off — see OBSERVABILITY.md).

use cs2p_obs::QuantileSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One per-provenance APE sketch row
/// (`v{version}.{cluster|global}.{initial|midstream}`, or `log`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityRow {
    /// Sketch key — model version and prediction provenance.
    pub key: String,
    /// Scored predictions in this sketch.
    pub count: u64,
    /// Smallest APE observed.
    pub min: f64,
    /// Largest APE observed.
    pub max: f64,
    /// Median APE.
    pub p50: f64,
    /// 90th-percentile APE.
    pub p90: f64,
    /// 99th-percentile APE.
    pub p99: f64,
}

impl QualityRow {
    /// Builds a row from a sketch key and its snapshot.
    pub fn from_snapshot(key: String, snap: QuantileSnapshot) -> Self {
        QualityRow {
            key,
            count: snap.count,
            min: snap.min,
            max: snap.max,
            p50: snap.p50,
            p90: snap.p90,
            p99: snap.p99,
        }
    }
}

/// One fault counter (`serve.fault.*`), from the global registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRow {
    /// Counter name, e.g. `serve.fault.read_errors`.
    pub name: String,
    /// Count since startup.
    pub value: u64,
}

/// The prediction-quality section of [`OpsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpsQuality {
    /// Predictions scored against a later measurement.
    pub matched: u64,
    /// Predictions that left the server unscored.
    pub unmatched: u64,
    /// Drift alarms fired since startup.
    pub drift_alarms: u64,
    /// Samples currently in the drift window (cleared by each alarm).
    pub windowed_samples: u64,
    /// Median APE over the drift window; `0.0` when the window is empty.
    pub windowed_median_ape: f64,
    /// Per-provenance APE quantiles, sorted by key.
    pub ape: Vec<QualityRow>,
}

/// The overload/degradation section of [`OpsSnapshot`] — the admission
/// ladder's level and counters (see [`crate::admission`]) plus the
/// session store's pressure view, so an operator reads one consistent
/// overload picture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpsAdmission {
    /// Current ladder level (`full`/`degraded`/`fallback`/`shed`).
    pub level: String,
    /// Combined pressure score driving the ladder, `max(queue, latency)`.
    pub pressure: f64,
    /// Ladder level transitions (watermark-driven and forced).
    pub transitions: u64,
    /// Predictions answered at Full level.
    pub served_full: u64,
    /// Predictions answered from cluster priors (Degraded).
    pub served_degraded: u64,
    /// Predictions answered from the harmonic-mean side table (Fallback).
    pub served_fallback: u64,
    /// Requests shed with 503 by the admission layer.
    pub shed: u64,
    /// Fallback-level requests with no measurement history (shed).
    pub fallback_misses: u64,
    /// Session-store occupancy fraction in `[0, 1]`.
    pub store_occupancy: f64,
    /// Session-store evictions per access over the telemetry window.
    pub store_eviction_rate: f64,
}

/// Point-in-time operational snapshot of a running server. Fields are
/// read from independent atomics — the snapshot is not a transaction,
/// which is fine for an ops surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpsSnapshot {
    /// Always `"ok"` (the endpoint answering at all is the liveness
    /// signal; this mirrors `/healthz`).
    pub status: String,
    /// The model version new sessions will pin.
    pub model_version: u64,
    /// Cluster models in the live engine.
    pub n_models: u64,
    /// Sessions resident in the store.
    pub sessions_live: u64,
    /// Sessions evicted (LRU or forced) since startup.
    pub sessions_evicted: u64,
    /// Successful `/predict` responses since startup.
    pub predictions_served: u64,
    /// Session logs stored.
    pub logs: u64,
    /// Completed sessions held by the training recorder.
    pub recorded_sessions: u64,
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections answered with 503 backpressure.
    pub rejected: u64,
    /// Connections currently open.
    pub live_connections: u64,
    /// Requests currently waiting in the worker queue.
    pub queue_depth: u64,
    /// End-to-end request-handling latency, µs (injectable clock).
    pub request_latency_us: QuantileSnapshot,
    /// Online prediction-quality monitor state.
    pub quality: OpsQuality,
    /// Degradation-ladder state and counters.
    pub admission: OpsAdmission,
    /// `serve.fault.*` counters from the global registry; empty when
    /// the registry is disabled.
    pub faults: Vec<FaultRow>,
}

impl OpsSnapshot {
    /// Renders the snapshot as Prometheus text-exposition metrics
    /// (counter/gauge/summary), all under the `cs2p_` prefix. Served at
    /// `GET /ops/metrics`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, value: u64| {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        };
        let gauge = |out: &mut String, name: &str, value: f64| {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        };
        gauge(&mut out, "cs2p_up", 1.0);
        gauge(&mut out, "cs2p_model_version", self.model_version as f64);
        gauge(&mut out, "cs2p_models", self.n_models as f64);
        gauge(&mut out, "cs2p_sessions_live", self.sessions_live as f64);
        counter(&mut out, "cs2p_sessions_evicted", self.sessions_evicted);
        counter(&mut out, "cs2p_predictions_served", self.predictions_served);
        gauge(&mut out, "cs2p_logs", self.logs as f64);
        gauge(
            &mut out,
            "cs2p_recorded_sessions",
            self.recorded_sessions as f64,
        );
        counter(&mut out, "cs2p_connections_accepted", self.accepted);
        counter(&mut out, "cs2p_connections_rejected", self.rejected);
        gauge(
            &mut out,
            "cs2p_connections_live",
            self.live_connections as f64,
        );
        gauge(&mut out, "cs2p_queue_depth", self.queue_depth as f64);

        let _ = writeln!(out, "# TYPE cs2p_request_latency_us summary");
        summary_lines(
            &mut out,
            "cs2p_request_latency_us",
            "",
            &self.request_latency_us,
        );

        counter(&mut out, "cs2p_quality_matched", self.quality.matched);
        counter(&mut out, "cs2p_quality_unmatched", self.quality.unmatched);
        counter(
            &mut out,
            "cs2p_quality_drift_alarms",
            self.quality.drift_alarms,
        );
        gauge(
            &mut out,
            "cs2p_quality_windowed_samples",
            self.quality.windowed_samples as f64,
        );
        gauge(
            &mut out,
            "cs2p_quality_windowed_median_ape",
            self.quality.windowed_median_ape,
        );
        if !self.quality.ape.is_empty() {
            let _ = writeln!(out, "# TYPE cs2p_quality_ape summary");
            for row in &self.quality.ape {
                let snap = QuantileSnapshot {
                    count: row.count,
                    min: row.min,
                    max: row.max,
                    p50: row.p50,
                    p90: row.p90,
                    p99: row.p99,
                };
                summary_lines(
                    &mut out,
                    "cs2p_quality_ape",
                    &format!("key=\"{}\",", row.key),
                    &snap,
                );
            }
        }
        // Admission ladder: the numeric level index (0=full … 3=shed)
        // plus the level string as a label, so both dashboards and
        // alerting rules have something to bite on.
        let level_index = match self.admission.level.as_str() {
            "full" => 0.0,
            "degraded" => 1.0,
            "fallback" => 2.0,
            _ => 3.0,
        };
        gauge(&mut out, "cs2p_admission_level", level_index);
        let _ = writeln!(
            out,
            "cs2p_admission_level_info{{level=\"{}\"}} 1",
            self.admission.level
        );
        gauge(&mut out, "cs2p_admission_pressure", self.admission.pressure);
        counter(
            &mut out,
            "cs2p_admission_transitions",
            self.admission.transitions,
        );
        counter(
            &mut out,
            "cs2p_admission_served_full",
            self.admission.served_full,
        );
        counter(
            &mut out,
            "cs2p_admission_served_degraded",
            self.admission.served_degraded,
        );
        counter(
            &mut out,
            "cs2p_admission_served_fallback",
            self.admission.served_fallback,
        );
        counter(&mut out, "cs2p_admission_shed", self.admission.shed);
        counter(
            &mut out,
            "cs2p_admission_fallback_misses",
            self.admission.fallback_misses,
        );
        gauge(
            &mut out,
            "cs2p_store_occupancy",
            self.admission.store_occupancy,
        );
        gauge(
            &mut out,
            "cs2p_store_eviction_rate",
            self.admission.store_eviction_rate,
        );
        if !self.faults.is_empty() {
            let _ = writeln!(out, "# TYPE cs2p_fault counter");
            for fault in &self.faults {
                let _ = writeln!(out, "cs2p_fault{{name=\"{}\"}} {}", fault.name, fault.value);
            }
        }
        out
    }
}

/// `{name}{quantile="q"} v` rows plus `_count`, Prometheus
/// summary-style. `extra_labels` is either empty or `key="…",`.
fn summary_lines(out: &mut String, name: &str, extra_labels: &str, snap: &QuantileSnapshot) {
    for (q, v) in [("0.5", snap.p50), ("0.9", snap.p90), ("0.99", snap.p99)] {
        let _ = writeln!(out, "{name}{{{extra_labels}quantile=\"{q}\"}} {v}");
    }
    let count_labels = extra_labels.trim_end_matches(',');
    if count_labels.is_empty() {
        let _ = writeln!(out, "{name}_count {}", snap.count);
    } else {
        let _ = writeln!(out, "{name}_count{{{count_labels}}} {}", snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpsSnapshot {
        OpsSnapshot {
            status: "ok".into(),
            model_version: 2,
            n_models: 3,
            sessions_live: 4,
            sessions_evicted: 1,
            predictions_served: 100,
            logs: 5,
            recorded_sessions: 6,
            accepted: 10,
            rejected: 2,
            live_connections: 3,
            queue_depth: 1,
            request_latency_us: QuantileSnapshot {
                count: 100,
                min: 10.0,
                max: 500.0,
                p50: 50.0,
                p90: 200.0,
                p99: 450.0,
            },
            quality: OpsQuality {
                matched: 90,
                unmatched: 10,
                drift_alarms: 1,
                windowed_samples: 30,
                windowed_median_ape: 0.08,
                ape: vec![QualityRow {
                    key: "v2.cluster.midstream".into(),
                    count: 80,
                    min: 0.0,
                    max: 0.9,
                    p50: 0.07,
                    p90: 0.2,
                    p99: 0.5,
                }],
            },
            admission: OpsAdmission {
                level: "degraded".into(),
                pressure: 0.75,
                transitions: 3,
                served_full: 80,
                served_degraded: 15,
                served_fallback: 5,
                shed: 2,
                fallback_misses: 1,
                store_occupancy: 0.5,
                store_eviction_rate: 0.25,
            },
            faults: vec![FaultRow {
                name: "serve.fault.read_errors".into(),
                value: 2,
            }],
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let back: OpsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn prometheus_rendering_contains_every_section() {
        let text = sample().to_prometheus();
        for needle in [
            "# TYPE cs2p_predictions_served counter",
            "cs2p_predictions_served 100",
            "cs2p_model_version 2",
            "cs2p_queue_depth 1",
            "cs2p_request_latency_us{quantile=\"0.5\"} 50",
            "cs2p_request_latency_us_count 100",
            "cs2p_quality_ape{key=\"v2.cluster.midstream\",quantile=\"0.99\"} 0.5",
            "cs2p_quality_ape_count{key=\"v2.cluster.midstream\"} 80",
            "cs2p_quality_drift_alarms 1",
            "cs2p_admission_level 1",
            "cs2p_admission_level_info{level=\"degraded\"} 1",
            "cs2p_admission_pressure 0.75",
            "cs2p_admission_served_degraded 15",
            "cs2p_admission_shed 2",
            "cs2p_store_occupancy 0.5",
            "cs2p_store_eviction_rate 0.25",
            "cs2p_fault{name=\"serve.fault.read_errors\"} 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_sections_are_omitted_from_prometheus_text() {
        let mut snap = sample();
        snap.quality.ape.clear();
        snap.faults.clear();
        let text = snap.to_prometheus();
        assert!(!text.contains("cs2p_quality_ape{"));
        assert!(!text.contains("cs2p_fault{"));
        // The scalar quality counters stay.
        assert!(text.contains("cs2p_quality_matched 90"));
    }
}
