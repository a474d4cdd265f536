//! The Prediction Engine HTTP server (§6, server-side deployment).
//!
//! The paper's Node.js server answers one prediction POST per player per
//! 6-second epoch; at the ROADMAP's target scale that is thousands of
//! concurrent viewers, so the serving layer is shaped like a production
//! service rather than a demo:
//!
//! - **Sharded session store** ([`crate::store::SessionStore`]): per-viewer
//!   HMM filter state lives in N shards keyed by `hash(session_id)`, each
//!   behind its own lock, with LRU eviction under a capacity bound.
//!   Requests for different sessions proceed in parallel; requests for the
//!   same session stay serialized.
//! - **Bounded worker pool**: a fixed set of worker threads pulls
//!   ready-to-read connections from a bounded queue
//!   ([`crate::pool::BoundedQueue`]). When the queue is full the server
//!   answers `503` + `Retry-After` instead of queueing unboundedly, and
//!   every connection carries read/write timeouts.
//! - **Graceful drain**: `shutdown()` stops accepting (the blocking
//!   acceptor is woken by a loopback connect, not a sleep poll), lets the
//!   workers finish every request already read or readable, then joins all
//!   threads — bounded time, zero dropped in-flight requests.
//!
//! Connection readiness is discovered with non-blocking `peek` (std-only;
//! no epoll available), so one poller thread multiplexes idle keep-alive
//! connections while workers only ever touch connections with bytes
//! waiting. Telemetry flows through `cs2p-obs` under the `serve.*` names
//! (see OBSERVABILITY.md).
//!
//! Three files: `app` is request → response (session state, the
//! endpoints, the one prediction pipeline), `conn` the connections and
//! their acceptor / poller / worker threads, `handle` the
//! [`ServerHandle`] and the `serve*` constructors.

use crate::admission::AdmissionConfig;
use crate::quality::QualityConfig;
use crate::transport::TransportWrapper;
use cs2p_core::engine::EngineConfig;
use cs2p_obs::{Clock, MonotonicClock};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

mod app;
mod conn;
mod handle;

pub use handle::{serve, serve_with, ServeStats, ServerHandle};

/// Online model-refresh knobs (see [`ServeConfig::refresh`]).
///
/// The server holds its engine in a versioned `cs2p_core::ModelRegistry`.
/// A refresh snapshots the completed-session window
/// ([`crate::recorder::SessionRecorder`]), retrains with `train_config`
/// (warm-starting every cluster from the live version), and publishes the
/// result as the next [`cs2p_core::ModelVersion`] — a brief pointer swap.
/// Sessions already in flight stay pinned to the version they registered
/// on, so their HMM filter state never crosses models.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Training configuration used by every refresh.
    pub train_config: EngineConfig,
    /// Model versions kept fetchable for pinned readers (min 1).
    pub retain: usize,
    /// A refresh is skipped (no-op) until the recorder holds at least
    /// this many completed sessions.
    pub min_sessions: usize,
    /// Completed-session window size (oldest dropped beyond this).
    pub recorder_capacity: usize,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            train_config: EngineConfig::default(),
            retain: 4,
            min_sessions: 20,
            recorder_capacity: 10_000,
        }
    }
}

/// Tuning knobs for [`serve_with`]. `Default` is sized for tests and
/// small deployments; every limit is explicit so the load tests can
/// force eviction and backpressure deterministically.
#[derive(Clone)]
pub struct ServeConfig {
    /// Session-store shards (parallelism of session-state access).
    pub n_shards: usize,
    /// Worker threads handling requests.
    pub n_workers: usize,
    /// Bounded request-queue depth; beyond this the server answers 503.
    pub queue_depth: usize,
    /// Session capacity bound across all shards (LRU beyond this).
    pub max_sessions: usize,
    /// Concurrent connection cap; beyond this new connections get 503.
    pub max_connections: usize,
    /// Per-connection socket read and write timeout.
    pub io_timeout: Duration,
    /// Time source for the fixed 30 s slow-peer deadline (the time one
    /// request may take to arrive once its first byte is read) — swap in
    /// a [`cs2p_obs::ManualClock`] for deterministic tests.
    pub clock: Arc<dyn Clock>,
    /// Per-connection transport hook (fault injection, middleboxes).
    /// `None` keeps the statically-dispatched `TcpStream` path.
    pub transport_wrapper: Option<Arc<dyn TransportWrapper>>,
    /// Online model-refresh configuration (registry retention, recorder
    /// bounds).
    pub refresh: RefreshConfig,
    /// Online prediction-quality monitoring (APE sketches, drift alarm;
    /// see [`crate::quality`]). The alarm runs on [`ServeConfig::clock`].
    pub quality: QualityConfig,
    /// Overload degradation ladder (see [`crate::admission`]). The
    /// default is disabled — the pre-ladder blanket-503 contract — so
    /// turning the ladder on is an explicit operational decision
    /// ([`AdmissionConfig::watermarks`] for the enabled defaults).
    pub admission: AdmissionConfig,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("n_shards", &self.n_shards)
            .field("n_workers", &self.n_workers)
            .field("queue_depth", &self.queue_depth)
            .field("max_sessions", &self.max_sessions)
            .field("max_connections", &self.max_connections)
            .field("io_timeout", &self.io_timeout)
            .field("transport_wrapper", &self.transport_wrapper.is_some())
            .field("refresh", &self.refresh)
            .field("quality", &self.quality)
            .field("admission", &self.admission)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ServeConfig {
            n_shards: 8,
            n_workers: workers,
            queue_depth: 256,
            max_sessions: 100_000,
            max_connections: 1024,
            io_timeout: Duration::from_secs(10),
            clock: Arc::new(MonotonicClock::new()),
            transport_wrapper: None,
            refresh: RefreshConfig::default(),
            quality: QualityConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request, Request, Response};
    use crate::protocol::{Health, PredictRequest, PredictResponse, SessionLog};
    use cs2p_core::{ClientModel, ModelVersion};
    use cs2p_testkit::scenarios::tiny_engine;
    use std::io::{BufReader, BufWriter};
    use std::net::{SocketAddr, TcpStream};

    fn send(addr: SocketAddr, req: &Request) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(&mut writer, req).unwrap();
        read_response(&mut reader).unwrap()
    }

    fn predict(addr: SocketAddr, preq: &PredictRequest) -> PredictResponse {
        let body = serde_json::to_vec(preq).unwrap();
        let resp = send(addr, &Request::new("POST", "/predict", body));
        assert_eq!(resp.status, 200, "body: {:?}", resp.body);
        serde_json::from_slice(&resp.body).unwrap()
    }

    #[test]
    fn full_prediction_session_over_http() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // First request: features, no measurement -> initial prediction.
        let r1 = predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: Some(vec![1]),
                measured_mbps: None,
                horizon: 3,
            },
        );
        assert!(r1.initial);
        assert_eq!(r1.predictions_mbps.len(), 3);
        assert!((r1.predictions_mbps[0] - 5.0).abs() < 0.5);

        // Midstream: send a measurement, get HMM predictions.
        let r2 = predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: None,
                measured_mbps: Some(5.1),
                horizon: 1,
            },
        );
        assert!(!r2.initial);
        assert!((r2.predictions_mbps[0] - 5.0).abs() < 0.5);

        assert_eq!(server.predictions_served(), 2);
        server.shutdown();
    }

    #[test]
    fn unknown_session_without_features_is_404() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let body = serde_json::to_vec(&PredictRequest {
            session_id: 9,
            features: None,
            measured_mbps: Some(1.0),
            horizon: 1,
        })
        .unwrap();
        let resp = send(server.addr(), &Request::new("POST", "/predict", body));
        assert_eq!(resp.status, 404, "unknown session must trigger re-init");
        assert!(String::from_utf8_lossy(&resp.body).contains("unknown session"));
        server.shutdown();
    }

    #[test]
    fn model_endpoint_serves_client_model() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let resp = send(
            server.addr(),
            &Request::new("GET", "/model?features=0", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 200);
        let cm = ClientModel::from_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!((cm.model.initial_median - 1.0).abs() < 0.5);
        assert!(resp.body.len() < 5 * 1024, "model payload exceeds 5 KB");
        server.shutdown();
    }

    #[test]
    fn log_upload_and_retrieval() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let log = SessionLog {
            session_id: 3,
            strategy: "CS2P+MPC".into(),
            qoe: 100.0,
            avg_bitrate_kbps: 1000.0,
            good_ratio: 1.0,
            rebuffer_seconds: 0.0,
            startup_delay_seconds: 0.5,
            throughput_pairs: vec![],
            bitrates_kbps: vec![],
        };
        let resp = send(
            server.addr(),
            &Request::new("POST", "/log", serde_json::to_vec(&log).unwrap()),
        );
        assert_eq!(resp.status, 204);
        assert_eq!(server.logs(), vec![log]);
        server.shutdown();
    }

    #[test]
    fn stats_endpoint_aggregates_logs() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        for (strategy, qoe) in [("CS2P+MPC", 100.0), ("CS2P+MPC", 300.0), ("HM+MPC", 50.0)] {
            let log = SessionLog {
                session_id: 1,
                strategy: strategy.into(),
                qoe,
                avg_bitrate_kbps: 1000.0,
                good_ratio: 1.0,
                rebuffer_seconds: 0.0,
                startup_delay_seconds: 0.5,
                throughput_pairs: vec![],
                bitrates_kbps: vec![],
            };
            let resp = send(
                server.addr(),
                &Request::new("POST", "/log", serde_json::to_vec(&log).unwrap()),
            );
            assert_eq!(resp.status, 204);
        }
        let resp = send(
            server.addr(),
            &Request::new("GET", "/stats", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 200);
        let stats: crate::protocol::LogStats = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(stats.strategies.len(), 2);
        assert_eq!(stats.strategies[0].n_sessions, 2);
        assert!((stats.strategies[0].mean_qoe - 200.0).abs() < 1e-12);
        server.shutdown();
    }

    #[test]
    fn healthz_reports_counters() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        predict(
            server.addr(),
            &PredictRequest {
                session_id: 5,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        let resp = send(
            server.addr(),
            &Request::new("GET", "/healthz", bytes::Bytes::new()),
        );
        let health: Health = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.n_sessions, 1);
        assert_eq!(health.predictions_served, 1);
        server.shutdown();
    }

    #[test]
    fn unknown_endpoint_404s_and_bad_method_405s() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let resp = send(
            server.addr(),
            &Request::new("GET", "/nope", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 404);
        let resp = send(
            server.addr(),
            &Request::new("DELETE", "/predict", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 405);
        server.shutdown();
    }

    #[test]
    fn keep_alive_connection_serves_many_requests() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for i in 0..5 {
            let preq = PredictRequest {
                session_id: 42,
                features: if i == 0 { Some(vec![1]) } else { None },
                measured_mbps: if i == 0 { None } else { Some(5.0) },
                horizon: 1,
            };
            let req = Request::new("POST", "/predict", serde_json::to_vec(&preq).unwrap());
            write_request(&mut writer, &req).unwrap();
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(server.predictions_served(), 5);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_get_responses() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        // Write several requests back-to-back before reading anything.
        let n = 4;
        for i in 0..n {
            let preq = PredictRequest {
                session_id: 77,
                features: if i == 0 { Some(vec![0]) } else { None },
                measured_mbps: if i == 0 { None } else { Some(1.0) },
                horizon: 1,
            };
            write_request(
                &mut writer,
                &Request::new("POST", "/predict", serde_json::to_vec(&preq).unwrap()),
            )
            .unwrap();
        }
        for _ in 0..n {
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(server.predictions_served(), n as u64);
        server.shutdown();
    }

    #[test]
    fn invalid_measurement_rejected() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        predict(
            server.addr(),
            &PredictRequest {
                session_id: 8,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        let raw = br#"{"session_id":8,"features":null,"measured_mbps":-1.0,"horizon":1}"#;
        let resp = send(server.addr(), &Request::new("POST", "/predict", &raw[..]));
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn connection_limit_yields_503_with_retry_after() {
        let config = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        // Occupy the only slot with a live keep-alive connection.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request::new("GET", "/healthz", bytes::Bytes::new()),
        )
        .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        // The second connection must be refused with backpressure.
        let resp = send(
            server.addr(),
            &Request::new("GET", "/healthz", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let stats = server.shutdown();
        assert!(stats.rejected >= 1);
    }

    #[test]
    fn completed_sessions_feed_the_recorder_and_refresh_swaps() {
        use cs2p_testkit::scenarios::tiny_train_config;
        let config = ServeConfig {
            refresh: RefreshConfig {
                train_config: tiny_train_config(),
                min_sessions: 2,
                ..RefreshConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();
        // Too few completed sessions: refresh is a no-op.
        assert!(server.refresh_models().is_none());
        for sid in [10u64, 11] {
            let isp = (sid % 2) as u32;
            let mbps = if isp == 0 { 1.0 } else { 5.0 };
            for epoch in 0..5 {
                predict(
                    addr,
                    &PredictRequest {
                        session_id: sid,
                        features: (epoch == 0).then(|| vec![isp]),
                        measured_mbps: (epoch > 0).then_some(mbps),
                        horizon: 1,
                    },
                );
            }
        }
        // One session completes via its /log upload, one via eviction.
        let log = SessionLog {
            session_id: 10,
            strategy: "CS2P+MPC".into(),
            qoe: 1.0,
            avg_bitrate_kbps: 1000.0,
            good_ratio: 1.0,
            rebuffer_seconds: 0.0,
            startup_delay_seconds: 0.5,
            throughput_pairs: vec![],
            bitrates_kbps: vec![],
        };
        let resp = send(
            addr,
            &Request::new("POST", "/log", serde_json::to_vec(&log).unwrap()),
        );
        assert_eq!(resp.status, 204);
        assert!(server.force_evict(11));
        assert_eq!(server.recorded_sessions(), 2);
        assert_eq!(server.stats().recorded_sessions, 2);
        let (version, _) = server.refresh_models().expect("enough sessions recorded");
        assert_eq!(version, ModelVersion(2));
        server.shutdown();
    }
}
