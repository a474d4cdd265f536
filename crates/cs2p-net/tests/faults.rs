//! Forcing tests: one deterministic scenario per fault class, each
//! pinned to the `serve.fault.*` / `client.retry.*` counter it must
//! move and to the recovery behaviour it must trigger — plus the
//! player-facing degradation scenarios (server death/disconnect/restart,
//! malformed responses and manifests) folded in from the former
//! `failure_injection.rs`.
//!
//! This file is its own test binary with a single `#[test]` because the
//! scenarios flip the *global* cs2p-obs registry and diff its counters;
//! concurrent tests in the same process would corrupt the diffs. Each
//! scenario runs against its own server and shuts it down before the
//! next baseline is taken, so late asynchronous counter bumps (e.g. a
//! server thread noticing a reset after the client moved on) land
//! inside the scenario that caused them.

use cs2p_core::ThroughputPredictor;
use cs2p_net::dash::{AbrKind, DashPlayer, Manifest, PlayerConfig};
use cs2p_net::protocol::{PredictRequest, PredictResponse};
use cs2p_net::{
    serve, serve_with, HttpClient, RemotePredictor, RetryPolicy, ServeConfig, ServerHandle,
};
use cs2p_obs::ManualClock;
use cs2p_testkit::faults::{counter, FaultAction, FaultPlan};
use cs2p_testkit::scenarios::tiny_engine;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sample count of an `observe()`-style stat (e.g. `client.retry.backoff_us`).
fn stat_count(name: &str) -> u64 {
    cs2p_obs::Registry::global()
        .snapshot()
        .histograms
        .get(name)
        .map(|h| h.count)
        .unwrap_or(0)
}

/// Polls (against wall time, but with a generous bound) until `name`
/// reaches at least `target` — for counters bumped by server threads
/// after the client already saw its side of the fault.
fn wait_counter_at_least(name: &str, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter(name) < target {
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {} < {target}",
            counter(name)
        );
        std::thread::yield_now();
    }
}

fn server(config: ServeConfig) -> ServerHandle {
    serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap()
}

/// A client that never really sleeps (retry backoff is observed through
/// counters, not wall time) and retries up to 4 times.
fn patient_client(server: &ServerHandle, plan: FaultPlan) -> HttpClient {
    HttpClient::new(server.addr())
        .with_retry(RetryPolicy {
            max_attempts: 4,
            seed: 7,
            ..RetryPolicy::default()
        })
        .with_sleeper(Arc::new(|_| {}))
        .with_transport_wrapper(Arc::new(plan))
}

fn register_request(id: u64) -> cs2p_net::http::Request {
    let preq = PredictRequest {
        session_id: id,
        features: Some(vec![1]),
        measured_mbps: None,
        horizon: 2,
    };
    cs2p_net::http::Request::new("POST", "/predict", serde_json::to_vec(&preq).unwrap())
}

fn assert_predictions(resp: &cs2p_net::http::Response) {
    assert_eq!(resp.status, 200, "body: {:?}", resp.body);
    let presp: PredictResponse = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(presp.predictions_mbps.len(), 2);
}

/// Connection reset mid-response: the client loses the first response
/// after reading part of it, retries once with backoff, and succeeds on
/// a fresh connection.
fn reset_mid_response_recovers_via_client_retry() {
    let server = server(ServeConfig::default());
    let attempts0 = counter("client.retry.attempts");
    let backoffs0 = stat_count("client.retry.backoff_us");

    let plan = FaultPlan::new().fault(0, FaultAction::ResetAfterReadBytes(20));
    let tally = plan.tally();
    let mut client = patient_client(&server, plan);
    let resp = client.send(&register_request(1)).unwrap();
    assert_predictions(&resp);

    assert_eq!(tally.snapshot().resets_read, 1, "fault must actually fire");
    assert_eq!(counter("client.retry.attempts") - attempts0, 1);
    assert!(
        stat_count("client.retry.backoff_us") > backoffs0,
        "retry must back off"
    );
    assert_eq!(client.consecutive_failures(), 0, "success resets backoff");
    server.shutdown();
}

/// Connection reset mid-request write: the server sees a partial frame
/// (counted as a read error), the client retries and succeeds.
fn reset_mid_request_counts_a_server_read_error() {
    let server = server(ServeConfig {
        io_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let attempts0 = counter("client.retry.attempts");
    let read_errors0 = counter("serve.fault.read_errors");

    let plan = FaultPlan::new().fault(0, FaultAction::ResetAfterWriteBytes(10));
    let tally = plan.tally();
    let mut client = patient_client(&server, plan);
    let resp = client.send(&register_request(2)).unwrap();
    assert_predictions(&resp);

    assert_eq!(tally.snapshot().resets_write, 1);
    assert_eq!(counter("client.retry.attempts") - attempts0, 1);
    wait_counter_at_least("serve.fault.read_errors", read_errors0 + 1);
    server.shutdown();
}

/// Frame truncation: bytes silently vanish mid-request while the
/// connection stays open. The server's read timeout (not the 30 s
/// slow-peer budget) reaps it; the client retries and succeeds.
fn truncation_is_reaped_by_read_timeout_and_retried() {
    let server = server(ServeConfig {
        io_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let attempts0 = counter("client.retry.attempts");
    let read_errors0 = counter("serve.fault.read_errors");

    let plan = FaultPlan::new().fault(0, FaultAction::TruncateWritesAfter(25));
    let tally = plan.tally();
    let mut client = patient_client(&server, plan);
    let resp = client.send(&register_request(3)).unwrap();
    assert_predictions(&resp);

    assert_eq!(tally.snapshot().truncations, 1);
    assert_eq!(counter("client.retry.attempts") - attempts0, 1);
    wait_counter_at_least("serve.fault.read_errors", read_errors0 + 1);
    server.shutdown();
}

/// Frame corruption: one flipped byte in the method makes the request
/// line non-UTF-8; the server answers 400 (`serve.fault.bad_frames`),
/// closes, and a clean resend on a fresh connection succeeds.
fn corruption_gets_a_400_bad_frame_then_clean_resend() {
    let server = server(ServeConfig::default());
    let bad_frames0 = counter("serve.fault.bad_frames");

    let plan = FaultPlan::new().fault(0, FaultAction::CorruptWriteByte(1));
    let tally = plan.tally();
    let mut client = patient_client(&server, plan);
    let resp = client.send(&register_request(4)).unwrap();
    assert_eq!(
        resp.status, 400,
        "corrupted frame must be rejected, not served"
    );
    assert_eq!(tally.snapshot().corruptions, 1);
    assert_eq!(counter("serve.fault.bad_frames") - bad_frames0, 1);

    client.reset_connection();
    let resp = client.send(&register_request(4)).unwrap();
    assert_predictions(&resp);
    server.shutdown();
}

/// Slow-client byte-dribbling within the budget: the request arrives one
/// byte at a time, and the server serves it normally — no aborts, no
/// errors. Dribbling is a survivable fault.
fn dribbled_request_within_budget_is_served_normally() {
    let server = server(ServeConfig::default());
    let aborts0 = counter("serve.fault.slow_peer_aborts");
    let read_errors0 = counter("serve.fault.read_errors");

    let plan = FaultPlan::new().fault(
        0,
        FaultAction::DribbleWrites {
            advance_us_per_write: 0,
        },
    );
    let tally = plan.tally();
    let mut client = patient_client(&server, plan);
    let resp = client.send(&register_request(5)).unwrap();
    assert_predictions(&resp);

    assert_eq!(tally.snapshot().dribbles, 1);
    assert_eq!(counter("serve.fault.slow_peer_aborts"), aborts0);
    assert_eq!(counter("serve.fault.read_errors"), read_errors0);
    server.shutdown();
}

/// Injected delay past the slow-peer budget: a server-side `DelayReads`
/// fault advances the shared manual clock past the per-request deadline
/// while a raw client dribbles an incomplete request, forcing exactly
/// one `serve.fault.slow_peer_aborts`.
fn delay_past_budget_forces_a_slow_peer_abort() {
    let clock = Arc::new(ManualClock::new());
    let plan = FaultPlan::new()
        .fault(
            0,
            FaultAction::DelayReads {
                advance_us_per_read: 10_000_000,
            },
        )
        .with_clock(Arc::clone(&clock));
    let tally = plan.tally();
    let server = server(ServeConfig {
        io_timeout: Duration::from_secs(2),
        clock,
        transport_wrapper: Some(Arc::new(plan)),
        ..ServeConfig::default()
    });
    let aborts0 = counter("serve.fault.slow_peer_aborts");

    // Dribble an incomplete request line byte by byte; every server-side
    // read advances the clock 10 s against the fixed 30 s budget, so the
    // deadline check must fire within a handful of reads.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let partial = b"POST /predict HTTP/1.1\r\ncontent-";
    let deadline = Instant::now() + Duration::from_secs(5);
    'dribble: for chunk in partial.iter().cycle() {
        if stream.write_all(&[*chunk]).is_err() {
            break 'dribble; // server aborted us — exactly what we want
        }
        if counter("serve.fault.slow_peer_aborts") > aborts0 {
            break 'dribble;
        }
        assert!(Instant::now() < deadline, "slow-peer abort never fired");
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_counter_at_least("serve.fault.slow_peer_aborts", aborts0 + 1);
    assert!(tally.snapshot().delays >= 1, "delay fault must have fired");
    drop(stream);
    server.shutdown();
}

/// The slow-peer deadline is per-request, not an idle timeout: a
/// keep-alive connection may sit idle arbitrarily long (by the injected
/// clock) between requests without being reaped.
fn idle_keepalive_survives_clock_advance_past_budget() {
    let clock = Arc::new(ManualClock::new());
    let server = server(ServeConfig {
        clock: Arc::clone(&clock) as Arc<dyn cs2p_obs::Clock>,
        ..ServeConfig::default()
    });
    let aborts0 = counter("serve.fault.slow_peer_aborts");

    let mut client = HttpClient::new(server.addr());
    assert_predictions(&client.send(&register_request(6)).unwrap());
    // Idle for "hours" of injected time between requests.
    clock.advance(3_600_000_000);
    assert_predictions(&client.send(&register_request(6)).unwrap());
    assert_eq!(counter("serve.fault.slow_peer_aborts"), aborts0);
    server.shutdown();
}

/// Forced store eviction mid-session: the next request hits the
/// "unknown session" path and the client replays registration
/// idempotently, keeping the pending measurement.
fn forced_eviction_replays_registration_with_pending_measurement() {
    let server = server(ServeConfig::default());
    let evictions0 = counter("serve.fault.forced_evictions");
    let reinit0 = counter("predict.client.reinit");

    let mut predictor = RemotePredictor::new(server.addr(), 7, vec![1]);
    assert!(predictor.predict_initial().is_some(), "registration");
    assert!(!server.force_evict(99), "unknown session is not evicted");
    assert!(server.force_evict(7), "live session must evict");
    assert_eq!(counter("serve.fault.forced_evictions") - evictions0, 1);

    // The observation made while evicted must survive the replay.
    predictor.observe(5.0);
    assert!(
        predictor.predict_ahead(1).is_some(),
        "prediction after forced eviction must recover via re-register"
    );
    assert_eq!(counter("predict.client.reinit") - reinit0, 1);
    assert_eq!(server.stats().sessions_live, 1, "session re-registered");
    server.shutdown();
}

/// Forced eviction mid-batch: a `/predict_batch` frame carrying the
/// evicted session's measurement between two healthy neighbours answers
/// 200 at the frame level with a per-entry 404 for the victim only —
/// the blast radius of an eviction is one entry, not the frame. The 404
/// carries the re-register hint, `serve.batch.partial_failures` counts
/// exactly the victim, and a re-registration replay (same measurement,
/// features attached) restores the session through the batch path.
fn forced_eviction_mid_batch_answers_a_per_entry_404() {
    use cs2p_net::protocol::{BatchPredictRequest, BatchPredictResponse};

    let server = server(ServeConfig::default());
    let evictions0 = counter("serve.fault.forced_evictions");
    let partial0 = counter("serve.batch.partial_failures");

    let mut client = HttpClient::new(server.addr());
    for id in [21u64, 22, 23] {
        assert_predictions(&client.send(&register_request(id)).unwrap());
    }
    assert!(server.force_evict(22), "live session must evict");
    assert_eq!(counter("serve.fault.forced_evictions") - evictions0, 1);

    let measure = |id: u64| PredictRequest {
        session_id: id,
        features: None,
        measured_mbps: Some(4.0),
        horizon: 2,
    };
    let breq = BatchPredictRequest {
        entries: vec![measure(21), measure(22), measure(23)],
    };
    let resp = client
        .send(&cs2p_net::http::Request::new(
            "POST",
            "/predict_batch",
            breq.to_json_bytes(),
        ))
        .unwrap();
    assert_eq!(resp.status, 200, "the frame itself must succeed");
    let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(bresp.results.len(), 3);
    for healthy in [0, 2] {
        assert_eq!(
            bresp.results[healthy].status, 200,
            "neighbour entries must be unaffected by the eviction"
        );
        assert!(bresp.results[healthy].response.is_some());
    }
    assert_eq!(bresp.results[1].status, 404, "evicted entry answers 404");
    assert!(bresp.results[1].response.is_none());
    assert!(
        bresp.results[1]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("re)register"),
        "the per-entry 404 must carry the re-register hint: {:?}",
        bresp.results[1].error
    );
    assert_eq!(
        counter("serve.batch.partial_failures") - partial0,
        1,
        "exactly the victim counts as a partial failure"
    );

    // The replay: re-registration with features, still carrying the
    // measurement that hit the 404 — through the batch path itself.
    let breq = BatchPredictRequest {
        entries: vec![PredictRequest {
            features: Some(vec![1]),
            ..measure(22)
        }],
    };
    let resp = client
        .send(&cs2p_net::http::Request::new(
            "POST",
            "/predict_batch",
            breq.to_json_bytes(),
        ))
        .unwrap();
    assert_eq!(resp.status, 200);
    let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(
        bresp.results[0].status, 200,
        "re-registration replay must work mid-batch"
    );
    assert_eq!(server.stats().sessions_live, 3, "session re-registered");

    // An invalid entry is resolved before grouping and never reaches the
    // store: alone on its shard, it costs no lock. The frame below spans
    // two shards but pays for one group — the valid entry's.
    let store = cs2p_net::SessionStore::<()>::new(ServeConfig::default().n_shards, 8, None);
    let lonely = (1_000u64..)
        .find(|id| store.shard_of(*id) != store.shard_of(21))
        .unwrap();
    let groups0 = counter("serve.batch.shard_groups");
    let breq = BatchPredictRequest {
        entries: vec![
            measure(21),
            PredictRequest {
                horizon: 0,
                ..measure(lonely)
            },
        ],
    };
    let resp = client
        .send(&cs2p_net::http::Request::new(
            "POST",
            "/predict_batch",
            breq.to_json_bytes(),
        ))
        .unwrap();
    let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
    let statuses: Vec<u16> = bresp.results.iter().map(|r| r.status).collect();
    assert_eq!(statuses, [200, 400]);
    assert_eq!(
        counter("serve.batch.shard_groups") - groups0,
        1,
        "only groups of valid entries take a shard lock"
    );
    server.shutdown();
}

/// Server-side reset mid-response write: the server's own write fails
/// (`serve.fault.write_errors`), and the client's retry on a fresh
/// connection succeeds.
fn server_side_write_reset_is_counted_and_retried() {
    let plan = FaultPlan::new().fault(0, FaultAction::ResetAfterWriteBytes(20));
    let tally = plan.tally();
    let server = server(ServeConfig {
        transport_wrapper: Some(Arc::new(plan)),
        ..ServeConfig::default()
    });
    let write_errors0 = counter("serve.fault.write_errors");
    let attempts0 = counter("client.retry.attempts");

    let mut client = HttpClient::new(server.addr())
        .with_retry(RetryPolicy {
            max_attempts: 4,
            seed: 11,
            ..RetryPolicy::default()
        })
        .with_sleeper(Arc::new(|_| {}));
    let resp = client.send(&register_request(8)).unwrap();
    assert_predictions(&resp);

    assert_eq!(tally.snapshot().resets_write, 1);
    wait_counter_at_least("serve.fault.write_errors", write_errors0 + 1);
    assert_eq!(counter("client.retry.attempts") - attempts0, 1);
    server.shutdown();
}

/// A fault on every connection exhausts the retry budget: the client
/// gives up with an error (counted in `client.retry.giveups`) instead of
/// hanging.
fn unrecoverable_faults_exhaust_retries_and_give_up() {
    let server = server(ServeConfig::default());
    let giveups0 = counter("client.retry.giveups");

    let mut plan = FaultPlan::new();
    for conn in 0..8 {
        plan = plan.fault(conn, FaultAction::ResetAfterWriteBytes(5));
    }
    let mut client = patient_client(&server, plan);
    let err = client.send(&register_request(9)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    assert_eq!(counter("client.retry.giveups") - giveups0, 1);
    // back_off() runs before attempts 2..4, so three failures are charged.
    assert_eq!(client.consecutive_failures(), 3, "failures kept, not reset");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Player-facing failure injection (folded in from the former
// `failure_injection.rs`): the DASH player must degrade gracefully —
// never panic, never stall the playback loop — when the prediction
// server misbehaves or the manifest is broken. These scenarios don't
// diff obs counters, but they kill and restart servers, so they run in
// the same single-test binary to keep counter diffs above undisturbed.
// ---------------------------------------------------------------------

/// A predictor whose retry backoff never really sleeps: these scenarios
/// hammer dead servers on purpose, and real exponential backoff would
/// only stretch the wall clock without changing any outcome.
fn sleepless_predictor(addr: std::net::SocketAddr, id: u64, features: Vec<u32>) -> RemotePredictor {
    RemotePredictor::from_client(
        HttpClient::new(addr).with_sleeper(Arc::new(|_| {})),
        id,
        features,
    )
}

fn server_death_mid_session_degrades_but_playback_finishes() {
    let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut predictor = sleepless_predictor(addr, 1, vec![1]);
    // Warm up: a few successful epochs.
    assert!(predictor.predict_initial().is_some());
    predictor.observe(5.0);
    assert!(predictor.predict_next().is_some());

    // Kill the server mid-session. The open keep-alive connection may
    // drain one final request before closing.
    server.shutdown();
    predictor.observe(5.0);
    let _ = predictor.predict_next();

    // Subsequent predictions fail soft (None), observe never panics.
    predictor.observe(5.0);
    assert_eq!(predictor.predict_next(), None);
    predictor.observe(4.8);
    assert_eq!(predictor.predict_ahead(3), None);

    // The player plays the entire video anyway: MPC falls back to the
    // conservative no-prediction path.
    let player = DashPlayer::new(
        Manifest::envivio(),
        PlayerConfig {
            prediction_seeded_start: false,
            ..Default::default()
        },
    );
    let trace = vec![5.0; 120];
    let mut dead = sleepless_predictor(addr, 2, vec![1]);
    assert_eq!(
        dead.predict_initial(),
        None,
        "nobody listens: no prediction"
    );
    let log = player.play(&trace, 6.0, &mut dead, 2, "CS2P+MPC");
    assert_eq!(log.bitrates_kbps.len(), 43);
    assert!(log.qoe.is_finite());
    // Every chunk got the lowest rung — the documented no-information
    // behaviour — rather than crashing or hanging.
    assert!(log.bitrates_kbps.iter().all(|&b| b == 350.0));
}

/// Remote predictor whose server dies *during* playback: after
/// `kill_after` observed epochs it shuts the server down, deterministically
/// injecting the disconnect mid-session from inside the playback loop.
struct DisconnectingPredictor {
    inner: RemotePredictor,
    server: Option<ServerHandle>,
    kill_after: usize,
    observed: usize,
}

impl ThroughputPredictor for DisconnectingPredictor {
    fn name(&self) -> &str {
        "CS2P-disconnecting"
    }

    fn predict_initial(&mut self) -> Option<f64> {
        self.inner.predict_initial()
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        self.inner.predict_ahead(k)
    }

    fn observe(&mut self, throughput: f64) {
        self.observed += 1;
        if self.observed == self.kill_after {
            if let Some(server) = self.server.take() {
                server.shutdown();
            }
        }
        self.inner.observe(throughput);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

fn server_disconnect_during_playback_finishes_the_video() {
    let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let player = DashPlayer::new(
        Manifest::envivio(),
        PlayerConfig {
            prediction_seeded_start: false,
            ..Default::default()
        },
    );
    let trace = vec![5.0; 120];
    let mut predictor = DisconnectingPredictor {
        inner: sleepless_predictor(addr, 4, vec![1]),
        server: Some(server),
        kill_after: 10,
        observed: 0,
    };
    let log = player.play(&trace, 6.0, &mut predictor, 4, "CS2P+MPC");

    // The server died after 10 chunks but the whole video still played.
    assert!(predictor.server.is_none(), "kill switch must have fired");
    assert_eq!(log.bitrates_kbps.len(), 43);
    assert!(log.qoe.is_finite());
    assert!(log.rebuffer_seconds.is_finite());
    // Early chunks had predictions and climbed the ladder; after the
    // disconnect MPC degrades to its conservative no-prediction path
    // rather than panicking or freezing playback.
    let had_pred = log
        .throughput_pairs
        .iter()
        .filter(|(pred, _)| pred.is_some())
        .count();
    assert!(had_pred > 0, "no predictions served before the kill");
    assert!(
        had_pred < log.throughput_pairs.len(),
        "every chunk kept a prediction — the disconnect never bit"
    );
}

fn server_restart_is_picked_up_by_reconnecting_client() {
    // First server instance.
    let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let mut predictor = sleepless_predictor(addr, 9, vec![0]);
    assert!(predictor.predict_initial().is_some());
    let port = addr.port();
    server.shutdown();

    // Dead in between. The previous keep-alive connection may drain one
    // final request before closing; the one after that must fail soft.
    predictor.observe(1.0);
    let _ = predictor.predict_next();
    predictor.observe(1.0);
    assert_eq!(predictor.predict_next(), None);

    // Restart on the same port (may occasionally be taken; skip if so).
    let Ok(server2) = serve(tiny_engine(), &format!("127.0.0.1:{port}")) else {
        return;
    };
    // The keep-alive client reconnects transparently; the session state
    // was lost server-side, so the predictor re-registers via features.
    predictor.reset();
    assert!(predictor.predict_initial().is_some());
    server2.shutdown();
}

fn malformed_server_responses_do_not_panic_client() {
    // A fake "server" that answers garbage to whatever arrives.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let Ok(mut s) = stream else {
                break;
            };
            use std::io::Read;
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n{not}");
        }
    });

    let mut predictor = RemotePredictor::new(addr, 3, vec![0]);
    // Invalid JSON body -> soft failure, no panic.
    assert_eq!(predictor.predict_initial(), None);
    let _ = handle;
}

fn syntactically_malformed_manifests_are_rejected_not_panicked_on() {
    for garbage in [
        "",
        "{not json",
        "[1,2,3]",
        r#"{"title":"x"}"#,
        r#"{"title":"x","video":{"chunk_seconds":"six"}}"#,
    ] {
        let err = Manifest::from_json(garbage);
        assert!(err.is_err(), "garbage manifest {garbage:?} was accepted");
    }
}

fn semantically_broken_manifests_are_rejected_up_front() {
    let good = Manifest::envivio();
    assert!(good.validate().is_ok());

    let mut empty_ladder = good.clone();
    empty_ladder.video.bitrates_kbps.clear();
    assert!(empty_ladder.validate().is_err());
    assert!(DashPlayer::try_new(empty_ladder, PlayerConfig::default()).is_err());

    let mut zero_chunks = good.clone();
    zero_chunks.video.n_chunks = 0;
    assert!(zero_chunks.validate().is_err());

    let mut descending = good.clone();
    descending.video.bitrates_kbps.reverse();
    assert!(descending.validate().is_err());

    let mut nan_rate = good.clone();
    nan_rate.video.bitrates_kbps[0] = f64::NAN;
    assert!(nan_rate.validate().is_err());

    let mut zero_epoch = good.clone();
    zero_epoch.video.chunk_seconds = 0.0;
    assert!(zero_epoch.validate().is_err());

    let mut no_buffer = good.clone();
    no_buffer.video.buffer_capacity_seconds = -1.0;
    assert!(no_buffer.validate().is_err());

    // A round trip through JSON of a valid manifest still validates.
    let json = serde_json::to_string(&good).unwrap();
    let reparsed = Manifest::from_json(&json).unwrap();
    assert_eq!(reparsed, good);
    assert!(DashPlayer::try_new(
        reparsed,
        PlayerConfig {
            abr: AbrKind::Bb,
            ..Default::default()
        }
    )
    .is_ok());
}

/// Runs one scenario, echoing its wall time (visible with
/// `--nocapture`) so a slow CI run points at the guilty scenario.
fn timed(name: &str, scenario: fn()) {
    let start = Instant::now();
    scenario();
    println!("fault scenario {name}: {:?}", start.elapsed());
}

#[test]
fn every_fault_class_has_a_forcing_scenario() {
    cs2p_obs::set_enabled(true);
    timed(
        "reset_mid_response",
        reset_mid_response_recovers_via_client_retry,
    );
    timed(
        "reset_mid_request",
        reset_mid_request_counts_a_server_read_error,
    );
    timed(
        "truncation",
        truncation_is_reaped_by_read_timeout_and_retried,
    );
    timed(
        "corruption",
        corruption_gets_a_400_bad_frame_then_clean_resend,
    );
    timed("dribble", dribbled_request_within_budget_is_served_normally);
    timed(
        "delay_past_budget",
        delay_past_budget_forces_a_slow_peer_abort,
    );
    timed(
        "idle_keepalive",
        idle_keepalive_survives_clock_advance_past_budget,
    );
    timed(
        "forced_eviction",
        forced_eviction_replays_registration_with_pending_measurement,
    );
    timed(
        "forced_eviction_batch",
        forced_eviction_mid_batch_answers_a_per_entry_404,
    );
    timed(
        "server_write_reset",
        server_side_write_reset_is_counted_and_retried,
    );
    timed(
        "retry_exhaustion",
        unrecoverable_faults_exhaust_retries_and_give_up,
    );
    // Player-facing degradation scenarios (former failure_injection.rs).
    timed(
        "server_death",
        server_death_mid_session_degrades_but_playback_finishes,
    );
    timed(
        "disconnect_mid_playback",
        server_disconnect_during_playback_finishes_the_video,
    );
    timed(
        "server_restart",
        server_restart_is_picked_up_by_reconnecting_client,
    );
    timed(
        "malformed_responses",
        malformed_server_responses_do_not_panic_client,
    );
    timed(
        "malformed_manifests",
        syntactically_malformed_manifests_are_rejected_not_panicked_on,
    );
    timed(
        "broken_manifests",
        semantically_broken_manifests_are_rejected_up_front,
    );
    cs2p_obs::set_enabled(false);
}
