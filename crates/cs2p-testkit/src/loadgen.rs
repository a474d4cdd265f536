//! Deterministic in-process load generator for the prediction server:
//! the one driver every serving suite, chaos soak and capture sends its
//! traffic through.
//!
//! Drives a running `cs2p-net` server with K client threads streaming
//! interleaved sessions over keep-alive connections, reproducing the
//! paper's serving workload (one `/predict` POST per session per epoch)
//! at test scale. Everything observable is seeded:
//!
//! - each session's throughput observations come from
//!   `ChaCha8(seed ⊕ session_id)`, so session S sends the same byte
//!   sequence no matter which client thread carries it or how many
//!   clients run;
//! - sessions are partitioned round-robin over the clients, and each
//!   client builds its epoch-major entry stream once, so per-session
//!   request *order* is preserved while requests from different sessions
//!   interleave freely;
//! - the stream is chunked into frames by one seeded frame-size stream:
//!   one entry per `/predict` POST by default, or ragged
//!   `/predict_batch` frames under a [`BatchSpec`];
//! - optional open-loop pacing (`max_gap_us`) draws seeded inter-frame
//!   gaps, perturbing arrival timing without touching payloads.
//!
//! Because the server's per-session HMM state depends only on that
//! session's own observation order, the per-session prediction sequences
//! in [`LoadReport::predictions`] must be *bit-identical* across client
//! counts, server worker counts and framings — the property
//! [`crate::invariants::assert_serving_concurrency_independence`] checks.
//!
//! Faults are an input of the same run, not a second driver:
//! [`crate::faults::run_chaos`] adds the seeded chaotic-client draw, a
//! seeded [`crate::faults::FaultPlan`] per chaotic client, forced
//! evictions before one epoch, and a harness resend budget. Every frame
//! is booked by one rule set:
//!
//! - a 503 is `rejected` and never resent;
//! - a 404 on an entry without features (the session was evicted) books
//!   one `reinit` per session per frame and replays the entry as a
//!   singleton carrying features;
//! - anything else is `errors` — except in a faulted run, where error
//!   statuses (`error_statuses`) and transport failures are resent, up
//!   to 8 sends per frame (`gave_up` past that).
//!
//! The generated features are `[session_id % 2]`, matching the one-column
//! (`isp`) schema of [`crate::scenarios::tiny_engine`].
//!
//! Beside the driver sit the one-shot exchanges the endpoint suites use
//! ([`send`], [`predict`], [`ops`]): one request on a fresh connection.

use crate::faults::{ChaosConfig, FaultCounts, FaultTally};
use cs2p_net::http::{read_response, write_request, Request, Response};
use cs2p_net::protocol::{
    BatchPredictRequest, BatchPredictResponse, Degradation, PredictRequest, PredictResponse,
};
use cs2p_net::{HttpClient, OpsSnapshot, RetryPolicy, ServerHandle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Sends `req` on a fresh connection and reads the whole response.
pub fn send(addr: SocketAddr, req: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut writer = BufWriter::new(stream);
    write_request(&mut writer, req).expect("write the request");
    read_response(&mut reader).expect("read the response")
}

/// `POST /predict` through [`send`]; panics unless it answers 200.
pub fn predict(addr: SocketAddr, preq: &PredictRequest) -> PredictResponse {
    let body = serde_json::to_vec(preq).expect("a PredictRequest always serializes");
    let resp = send(addr, &Request::new("POST", "/predict", body));
    assert_eq!(resp.status, 200, "body: {:?}", resp.body);
    serde_json::from_slice(&resp.body).expect("a 200 carries a PredictResponse")
}

/// `GET /ops` through [`send`]; panics unless it answers a JSON 200.
pub fn ops(addr: SocketAddr) -> OpsSnapshot {
    let resp = send(addr, &Request::new("GET", "/ops", Vec::new()));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    serde_json::from_slice(&resp.body).expect("/ops answers an OpsSnapshot")
}

/// Sends of one frame a faulted run allows (on top of the client's own
/// transport retries); a clean run sends every frame once.
const FAULTED_ATTEMPTS: u32 = 8;

/// Workload shape for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads (each holds one keep-alive connection).
    pub n_clients: usize,
    /// Distinct sessions, partitioned round-robin over the clients.
    pub n_sessions: usize,
    /// Requests per session (the first carries features, the rest a
    /// measured throughput).
    pub epochs_per_session: usize,
    /// Prediction horizon requested per POST.
    pub horizon: usize,
    /// Master seed for all observation sequences and pacing.
    pub seed: u64,
    /// Upper bound (exclusive) on the seeded inter-request gap drawn
    /// before each POST; 0 disables pacing (closed loop).
    pub max_gap_us: u64,
    /// First session id (ids are `base..base + n_sessions`).
    pub session_id_base: u64,
    /// When set, every client enables end-to-end request tracing
    /// ([`HttpClient::with_trace_seed`]) with a per-client seed derived
    /// from this one — each request carries an `x-trace-id` the server
    /// scopes over its `serve.request` span and events.
    pub trace_seed: Option<u64>,
    /// When set, each client ships its entries as `POST /predict_batch`
    /// frames instead of singleton `/predict` POSTs. Frame sizes are
    /// drawn from the spec's seeded distribution; per-session entry
    /// order is unchanged, so [`LoadReport::predictions`] must stay
    /// bit-identical to the singleton run.
    pub batch: Option<BatchSpec>,
}

/// Frame-size distribution for batch mode: each frame's entry count is
/// drawn uniformly from `min_entries..=max_entries` by a ChaCha RNG
/// seeded from the workload's master seed and the client index — the
/// frame boundaries are as reproducible as the payloads they carry.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Smallest frame the generator emits (clamped to at least 1).
    pub min_entries: usize,
    /// Largest frame the generator emits (the final frame of a client's
    /// stream may be smaller — it takes whatever entries remain).
    pub max_entries: usize,
}

impl BatchSpec {
    /// Every frame carries exactly `n` entries (final remainder aside).
    pub fn fixed(n: usize) -> Self {
        BatchSpec {
            min_entries: n,
            max_entries: n,
        }
    }
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            n_clients: 4,
            n_sessions: 8,
            epochs_per_session: 5,
            horizon: 2,
            seed: 7,
            max_gap_us: 0,
            session_id_base: 1_000,
            trace_seed: None,
            batch: None,
        }
    }
}

impl LoadConfig {
    /// Total requests this workload will send.
    pub fn total_requests(&self) -> u64 {
        (self.n_sessions * self.epochs_per_session) as u64
    }

    /// The feature vector session `id` registers with (matches the
    /// single-column schema of [`crate::scenarios::tiny_engine`]).
    fn features_of(id: u64) -> Vec<u32> {
        vec![(id % 2) as u32]
    }

    /// The deterministic observation sequence session `id` reports
    /// (epoch 1 onward; epoch 0 carries features instead).
    fn observations_of(&self, id: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let base = if id.is_multiple_of(2) { 1.0 } else { 5.0 };
        (1..self.epochs_per_session)
            .map(|_| base * rng.gen_range(0.7..1.3))
            .collect()
    }
}

/// What one run did and saw — the same report with or without faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Entries sent, every resend and replay included (whatever their
    /// answer).
    pub sent: u64,
    /// 200 answers.
    pub ok: u64,
    /// 503 backpressure answers (one per entry of a refused frame).
    pub rejected: u64,
    /// 404 "unknown session" answers (the server evicted the session),
    /// one per session per frame; each was followed by a replay carrying
    /// features.
    pub reinit: u64,
    /// Transport errors and unexpected statuses a clean run does not
    /// resend, one per entry.
    pub errors: u64,
    /// 200 answers served at the server's Degraded ladder level
    /// (cluster-prior predictions; see `cs2p_net::AdmissionLevel`).
    pub degraded: u64,
    /// 200 answers served at the Fallback ladder level (harmonic-mean
    /// predictions from the session's own recent measurements).
    pub fallback: u64,
    /// Whole-frame error statuses (400/405) a faulted run resent — each
    /// corresponds to one fired corruption.
    pub error_statuses: u64,
    /// `force_evict` calls that actually evicted a session.
    pub forced_evictions: u64,
    /// Frames a faulted run abandoned after its 8 sends.
    pub gave_up: u64,
    /// Client indices that ran with a fault plan.
    pub chaotic_clients: Vec<usize>,
    /// Sessions owned by clients without a fault plan — these must be
    /// bit-identical to a fault-free run.
    pub clean_sessions: Vec<u64>,
    /// Fired-fault counts across all clients.
    pub fired: FaultCounts,
    /// Per-session prediction vectors, in that session's epoch order.
    pub predictions: BTreeMap<u64, Vec<Vec<f64>>>,
}

impl LoadReport {
    /// Folds one client's report in (`fired` comes from the run's shared
    /// tally, not from the clients).
    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.reinit += other.reinit;
        self.errors += other.errors;
        self.degraded += other.degraded;
        self.fallback += other.fallback;
        self.error_statuses += other.error_statuses;
        self.forced_evictions += other.forced_evictions;
        self.gave_up += other.gave_up;
        self.chaotic_clients.extend(other.chaotic_clients);
        self.clean_sessions.extend(other.clean_sessions);
        self.predictions.extend(other.predictions);
    }
}

/// Runs the workload against a server at `addr` and returns the merged
/// report. Panics only on client-side bugs, never on server refusals —
/// 503s and transport errors are counted, so overload scenarios can
/// assert on them.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    drive(addr, config, None)
}

/// The driver behind [`run_load`] and [`crate::faults::run_chaos`]:
/// `faults` carries the server to force-evict on and the fault schedule.
pub(crate) fn drive(
    addr: SocketAddr,
    config: &LoadConfig,
    faults: Option<(&ServerHandle, &ChaosConfig)>,
) -> LoadReport {
    let tally = Arc::new(FaultTally::default());
    let partial: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.n_clients.max(1))
            .map(|idx| {
                let tally = &tally;
                scope.spawn(move || run_client(addr, config, faults, tally, idx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut report = LoadReport::default();
    for p in partial {
        report.merge(p);
    }
    report.fired = tally.snapshot();
    report
}

fn run_client(
    addr: SocketAddr,
    config: &LoadConfig,
    faults: Option<(&ServerHandle, &ChaosConfig)>,
    tally: &Arc<FaultTally>,
    idx: usize,
) -> LoadReport {
    let mut http = HttpClient::new(addr);
    if let Some(trace_seed) = config.trace_seed {
        // Per-client derivation keeps the id streams disjoint while the
        // whole run stays a function of one seed.
        http = http.with_trace_seed(trace_seed ^ ((idx as u64) << 17));
    }
    let sessions: Vec<u64> = (0..config.n_sessions as u64)
        .filter(|s| (*s as usize) % config.n_clients.max(1) == idx)
        .map(|s| config.session_id_base + s)
        .collect();
    let mut report = LoadReport::default();
    let mut evict = None;
    let mut attempts = 1;
    if let Some((server, chaos)) = faults {
        http = http.with_retry(RetryPolicy {
            seed: chaos.retry.seed ^ (idx as u64) << 17,
            ..chaos.retry.clone()
        });
        if let Some(plan) = chaos.plan_for(idx) {
            http = http.with_transport_wrapper(Arc::new(plan.with_tally(Arc::clone(tally))));
            evict = chaos.evict_before_epoch.map(|epoch| (server, epoch));
            report.chaotic_clients.push(idx);
        }
        attempts = FAULTED_ATTEMPTS;
    }
    if report.chaotic_clients.is_empty() {
        report.clean_sessions = sessions.clone();
    }

    // Entry i is epoch i / sessions.len() of sessions[i % sessions.len()].
    let observations: Vec<Vec<f64>> = sessions
        .iter()
        .map(|&id| config.observations_of(id))
        .collect();
    let stream: Vec<PredictRequest> = (0..config.epochs_per_session)
        .flat_map(|epoch| {
            sessions
                .iter()
                .zip(&observations)
                .map(move |(&id, obs)| PredictRequest {
                    session_id: id,
                    features: (epoch == 0).then(|| LoadConfig::features_of(id)),
                    measured_mbps: epoch.checked_sub(1).map(|e| obs[e]),
                    horizon: config.horizon,
                })
        })
        .collect();
    // Frame boundaries are a pure function of (seed, client index), drawn
    // from their own stream so they never perturb payloads or pacing.
    let mut sizes = ChaCha8Rng::seed_from_u64(config.seed ^ ((idx as u64) << 24) ^ 0xBA7C_F3A3);
    let (lo, hi) = config.batch.as_ref().map_or((1, 1), |spec| {
        let lo = spec.min_entries.max(1);
        (lo, spec.max_entries.max(lo))
    });
    let mut pacing = ChaCha8Rng::seed_from_u64(config.seed ^ (idx as u64) << 32);
    let mut client = Client {
        http,
        attempts,
        report,
    };

    let mut i = 0;
    while i < stream.len() {
        let frame = &stream[i..(i + sizes.gen_range(lo..=hi)).min(stream.len())];
        if config.max_gap_us > 0 {
            let gap = pacing.gen_range(0..config.max_gap_us);
            std::thread::sleep(Duration::from_micros(gap));
        }
        if let Some((server, evict_epoch)) = evict {
            for (k, entry) in frame.iter().enumerate() {
                // Evict right before the frame carrying the victim's
                // `evict_epoch` entry — unless an earlier entry of the
                // victim rides in the same frame: that one would 404, a
                // request the schedule never meant to hit, breaking the
                // one-reinit-per-eviction identity.
                let first_in_frame = frame[..k].iter().all(|e| e.session_id != entry.session_id);
                if (i + k) / sessions.len() == evict_epoch
                    && first_in_frame
                    && server.force_evict(entry.session_id)
                {
                    client.report.forced_evictions += 1;
                }
            }
        }
        i += frame.len();
        client.send(frame, config.batch.is_some());
    }
    client.report
}

/// One client thread's connection and ledger.
struct Client {
    http: HttpClient,
    /// Sends allowed per frame: [`FAULTED_ATTEMPTS`] in a faulted run.
    attempts: u32,
    report: LoadReport,
}

impl Client {
    /// Sends one frame — as `/predict_batch` when `batched`, else its one
    /// entry as `/predict` — and books the answer by the module's rules.
    fn send(&mut self, frame: &[PredictRequest], batched: bool) {
        let n = frame.len() as u64;
        let req = if batched {
            let entries = frame.to_vec();
            let body = BatchPredictRequest { entries }.to_json_bytes();
            Request::new("POST", "/predict_batch", body)
        } else {
            let body = serde_json::to_vec(&frame[0]).expect("a PredictRequest always serializes");
            Request::new("POST", "/predict", body)
        };
        for _ in 0..self.attempts {
            self.report.sent += n;
            let answers = match self.http.send(&req) {
                Ok(resp) if resp.status == 503 => {
                    self.report.rejected += n;
                    // The server closes a 503'd connection.
                    self.http.reset_connection();
                    return;
                }
                Ok(resp) if resp.status == 200 && batched => {
                    serde_json::from_slice::<BatchPredictResponse>(&resp.body)
                        .ok()
                        .map(|b| {
                            b.results
                                .into_iter()
                                .map(|r| (r.status, r.response))
                                .collect()
                        })
                }
                Ok(resp) if resp.status == 200 => {
                    serde_json::from_slice::<PredictResponse>(&resp.body)
                        .ok()
                        .map(|p| vec![(200, Some(p))])
                }
                Ok(resp) if resp.status == 404 && !batched => Some(vec![(404, None)]),
                _ if self.attempts == 1 => None,
                Ok(_) => {
                    // A corrupted frame's 400/405: refused unapplied, and
                    // the server closed the connection after answering.
                    self.report.error_statuses += 1;
                    self.http.reset_connection();
                    continue;
                }
                Err(_) => {
                    // The client's own retries ran out; reconnect and
                    // resend at this layer.
                    self.http.reset_connection();
                    continue;
                }
            };
            match answers {
                Some(answers) if answers.len() == frame.len() => self.book(frame, answers),
                _ => self.report.errors += n,
            }
            return;
        }
        self.report.gave_up += 1;
    }

    /// Books a frame's per-entry answers. The first 404 of an evicted
    /// session books its `reinit` and replays with features; a later
    /// entry of that session in the same frame replays as sent.
    fn book(&mut self, frame: &[PredictRequest], answers: Vec<(u16, Option<PredictResponse>)>) {
        let mut reregistered = BTreeSet::new();
        for (entry, answer) in frame.iter().zip(answers) {
            match answer {
                (200, Some(presp)) => {
                    self.report.ok += 1;
                    match presp.degradation {
                        Some(Degradation::Degraded) => self.report.degraded += 1,
                        Some(Degradation::Fallback) => self.report.fallback += 1,
                        None => {}
                    }
                    self.report
                        .predictions
                        .entry(entry.session_id)
                        .or_default()
                        .push(presp.predictions_mbps);
                }
                (404, _) if entry.features.is_none() => {
                    let mut replay = entry.clone();
                    if reregistered.insert(entry.session_id) {
                        self.report.reinit += 1;
                        replay.features = Some(LoadConfig::features_of(entry.session_id));
                    }
                    self.send(std::slice::from_ref(&replay), false);
                }
                _ => self.report.errors += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::run_chaos;
    use crate::scenarios::tiny_engine;
    use cs2p_net::{serve, serve_with, AdmissionLevel, ServeConfig};

    #[test]
    fn workload_payloads_are_deterministic() {
        let config = LoadConfig::default();
        assert_eq!(config.observations_of(3), config.observations_of(3));
        assert_ne!(config.observations_of(3), config.observations_of(4));
        assert_eq!(LoadConfig::features_of(6), vec![0]);
        assert_eq!(LoadConfig::features_of(7), vec![1]);
    }

    #[test]
    fn load_run_counts_and_records_every_session() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let config = LoadConfig {
            n_clients: 2,
            n_sessions: 4,
            epochs_per_session: 3,
            ..LoadConfig::default()
        };
        let report = run_load(server.addr(), &config);
        assert_eq!(report.sent, config.total_requests());
        assert_eq!(report.ok, report.sent, "errors: {}", report.errors);
        assert_eq!(report.predictions.len(), 4);
        for (id, preds) in &report.predictions {
            assert_eq!(preds.len(), 3, "session {id}");
            for p in preds {
                assert_eq!(p.len(), config.horizon);
            }
        }
        assert_eq!(server.predictions_served(), report.ok);
        server.shutdown();
    }

    #[test]
    fn batched_run_matches_singleton_predictions() {
        // The core differential property at loadgen level: chunking the
        // entry stream into seeded variable-size frames must not change
        // a single per-session prediction.
        let singleton = LoadConfig {
            n_clients: 2,
            n_sessions: 6,
            epochs_per_session: 4,
            ..LoadConfig::default()
        };
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let a = run_load(server.addr(), &singleton);
        server.shutdown();
        for (min_e, max_e) in [(1, 1), (3, 3), (2, 7)] {
            let batched = LoadConfig {
                batch: Some(BatchSpec {
                    min_entries: min_e,
                    max_entries: max_e,
                }),
                ..singleton.clone()
            };
            let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
            let b = run_load(server.addr(), &batched);
            server.shutdown();
            assert_eq!(b.ok, b.sent, "batched run shed load: {b:?}");
            assert_eq!(
                a.predictions, b.predictions,
                "batch frames {min_e}..={max_e} changed predictions"
            );
        }
    }

    #[test]
    fn batch_frame_sizes_are_seed_deterministic() {
        // Same seed, same frame boundaries: two batched runs against
        // fresh servers must produce identical reports end to end.
        let config = LoadConfig {
            n_clients: 2,
            n_sessions: 5,
            epochs_per_session: 3,
            batch: Some(BatchSpec {
                min_entries: 1,
                max_entries: 4,
            }),
            ..LoadConfig::default()
        };
        let server1 = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let a = run_load(server1.addr(), &config);
        server1.shutdown();
        let server2 = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let b = run_load(server2.addr(), &config);
        server2.shutdown();
        assert_eq!(a, b);
    }

    #[test]
    fn paced_run_sends_the_same_payloads_as_closed_loop() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let closed = LoadConfig {
            n_clients: 1,
            n_sessions: 2,
            epochs_per_session: 3,
            ..LoadConfig::default()
        };
        let paced = LoadConfig {
            max_gap_us: 200,
            ..closed.clone()
        };
        let a = run_load(server.addr(), &closed);
        // Fresh server so session state restarts identically.
        let server2 = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let b = run_load(server2.addr(), &paced);
        assert_eq!(a.predictions, b.predictions);
        server.shutdown();
        server2.shutdown();
    }

    #[test]
    fn faults_configured_but_none_drawn_return_the_clean_report() {
        // Faults are an input of the one driver: a schedule that draws no
        // chaotic client and evicts nothing must not move one counter or
        // one prediction, under singleton and ragged batch framing.
        for batch in [
            None,
            Some(BatchSpec {
                min_entries: 1,
                max_entries: 7,
            }),
        ] {
            let load = LoadConfig {
                n_clients: 2,
                n_sessions: 6,
                epochs_per_session: 4,
                batch,
                ..LoadConfig::default()
            };
            let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
            let clean = run_load(server.addr(), &load);
            server.shutdown();
            let chaos = ChaosConfig {
                load: load.clone(),
                chaotic_client_percent: 0,
                evict_before_epoch: None,
                ..ChaosConfig::default()
            };
            let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
            let faulted = run_chaos(&server, &chaos);
            server.shutdown();
            assert_eq!(clean.ok, load.total_requests(), "{:?}", load.batch);
            assert_eq!(faulted, clean, "{:?}", load.batch);
        }
    }

    #[test]
    fn faulted_run_books_degraded_answers() {
        // One merge carries every counter: a faulted, evicting run against
        // a server pinned at Degraded books each 200 as degraded.
        let config = ServeConfig {
            io_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        server.force_admission_level(Some(AdmissionLevel::Degraded));
        let chaos = ChaosConfig {
            chaotic_client_percent: 100,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&server, &chaos);
        server.shutdown();
        assert!(report.forced_evictions > 0, "{report:?}");
        assert!(report.ok > 0, "{report:?}");
        assert_eq!(report.degraded, report.ok, "{report:?}");
    }
}
