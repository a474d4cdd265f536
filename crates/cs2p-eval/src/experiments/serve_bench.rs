//! `serve-bench`: closed-loop throughput of the sharded worker-pool
//! prediction server, plus an overload probe of the 503 backpressure
//! path.
//!
//! Unlike the paper experiments this needs no materials: it trains a
//! milliseconds-scale two-ISP engine and measures requests/second at
//! several client counts. The criterion twin (`cargo bench -p cs2p-bench
//! --bench serve_throughput`) reports distribution statistics; this
//! command is the quick table for DESIGN.md and CI logs.

use cs2p_core::engine::{EngineConfig, PredictionEngine};
use cs2p_core::{Dataset, FeatureSchema, FeatureVector, Session};
use cs2p_net::http::Request;
use cs2p_net::protocol::{BatchPredictRequest, BatchPredictResponse, PredictRequest};
use cs2p_net::{serve_with, HttpClient, ServeConfig};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

const CLIENT_COUNTS: [usize; 3] = [1, 8, 64];
const EPOCHS_PER_SESSION: usize = 4;

/// A two-ISP engine (1 Mbps / 5 Mbps, constant traces) that trains in
/// milliseconds — serving throughput, not model quality, is under test.
/// Shared with `persist-bench`, which measures the same workload with
/// and without the durability layer underneath.
pub(crate) fn bench_engine() -> PredictionEngine {
    let schema = FeatureSchema::new(vec!["isp"]);
    let sessions: Vec<Session> = (0..40)
        .map(|k| {
            let isp = (k % 2) as u32;
            let tp = if isp == 0 { 1.0 } else { 5.0 };
            Session::new(k, FeatureVector(vec![isp]), k * 50, 6, vec![tp; 8])
        })
        .collect();
    let d = Dataset::new(schema, sessions);
    let mut config = EngineConfig::default();
    config.cluster.min_cluster_size = 5;
    config.hmm.n_states = 2;
    config.hmm.max_iters = 10;
    PredictionEngine::train(&d, &config)
        .expect("serve-bench engine trains")
        .0
}

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
}

/// One closed-loop run: `n_clients` threads, one keep-alive connection
/// and one session each, `EPOCHS_PER_SESSION` predict POSTs per session.
///
/// Clients are trace-seeded, so a `--metrics` run captures `serve.request`
/// spans with `trace_id`s (the CI tracing gate greps for them). Measured
/// throughputs match each session's trained regime: the APE the quality
/// monitor scores is ~0, so the drift alarm — whose firing point would
/// depend on cross-client interleaving — never contaminates a metrics
/// file that CI diffs across two runs.
fn drive(addr: SocketAddr, n_clients: usize) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients as u64)
            .map(|session_id| {
                scope.spawn(move || {
                    let mut client =
                        HttpClient::new(addr).with_trace_seed(0x5E12_BE4C ^ session_id);
                    let mut t = Tally::default();
                    let regime_mbps = if session_id % 2 == 0 { 1.0 } else { 5.0 };
                    for epoch in 0..EPOCHS_PER_SESSION {
                        let preq = PredictRequest {
                            session_id: 90_000 + session_id,
                            features: (epoch == 0).then(|| vec![(session_id % 2) as u32]),
                            measured_mbps: (epoch > 0).then_some(regime_mbps),
                            horizon: 2,
                        };
                        let body = serde_json::to_vec(&preq).expect("serialize request");
                        t.sent += 1;
                        match client.send(&Request::new("POST", "/predict", body)) {
                            Ok(resp) if resp.status == 200 => t.ok += 1,
                            Ok(resp) if resp.status == 503 => {
                                t.rejected += 1;
                                client.reset_connection();
                            }
                            _ => t.errors += 1,
                        }
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.sent += t.sent;
        total.ok += t.ok;
        total.rejected += t.rejected;
        total.errors += t.errors;
    }
    total
}

/// Warmed one-shot requests/second; panics if the run shed any load (the
/// measured configurations are sized to absorb it all).
fn measure_rps(addr: SocketAddr, n_clients: usize) -> f64 {
    for round in 0..2 {
        let start = Instant::now();
        let tally = drive(addr, n_clients);
        assert_eq!(
            tally.ok, tally.sent,
            "bench workload shed load: {tally:?} at {n_clients} clients"
        );
        if round == 1 {
            return tally.sent as f64 / start.elapsed().as_secs_f64();
        }
    }
    unreachable!("second round returns")
}

/// One closed-loop batched run: `n_clients` threads, each owning
/// `sessions_per_client` sessions and walking them through
/// [`EPOCHS_PER_SESSION`] epochs. `batch_size == 1` is the singleton
/// baseline (one `POST /predict` per entry); larger sizes chunk each
/// epoch's entries into `POST /predict_batch` frames — the amortization
/// the batch path exists for. Tallies count *entries*, so the two modes
/// compare directly as entries/second.
fn drive_batch(
    addr: SocketAddr,
    n_clients: usize,
    sessions_per_client: usize,
    batch_size: usize,
) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients as u64)
            .map(|client_id| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr).with_trace_seed(0xBA7C_4ED1 ^ client_id);
                    let mut t = Tally::default();
                    let base = 90_000 + client_id * sessions_per_client as u64;
                    let entry = |sid: u64, epoch: usize| PredictRequest {
                        session_id: sid,
                        features: (epoch == 0).then(|| vec![(sid % 2) as u32]),
                        measured_mbps: (epoch > 0).then_some(if sid.is_multiple_of(2) {
                            1.0
                        } else {
                            5.0
                        }),
                        horizon: 2,
                    };
                    for epoch in 0..EPOCHS_PER_SESSION {
                        for chunk in (0..sessions_per_client)
                            .collect::<Vec<_>>()
                            .chunks(batch_size.max(1))
                        {
                            t.sent += chunk.len() as u64;
                            if batch_size <= 1 {
                                let preq = entry(base + chunk[0] as u64, epoch);
                                let body = serde_json::to_vec(&preq).expect("serialize request");
                                match client.send(&Request::new("POST", "/predict", body)) {
                                    Ok(resp) if resp.status == 200 => t.ok += 1,
                                    Ok(resp) if resp.status == 503 => {
                                        t.rejected += 1;
                                        client.reset_connection();
                                    }
                                    _ => t.errors += 1,
                                }
                                continue;
                            }
                            let entries: Vec<PredictRequest> = chunk
                                .iter()
                                .map(|&s| entry(base + s as u64, epoch))
                                .collect();
                            let n = entries.len() as u64;
                            let body = serde_json::to_vec(&BatchPredictRequest { entries })
                                .expect("serialize batch");
                            match client.send(&Request::new("POST", "/predict_batch", body)) {
                                Ok(resp) if resp.status == 200 => {
                                    match serde_json::from_slice::<BatchPredictResponse>(&resp.body)
                                    {
                                        Ok(bresp) => {
                                            let ok = bresp
                                                .results
                                                .iter()
                                                .filter(|r| r.status == 200)
                                                .count()
                                                as u64;
                                            t.ok += ok;
                                            t.errors += n - ok;
                                        }
                                        Err(_) => t.errors += n,
                                    }
                                }
                                Ok(resp) if resp.status == 503 => {
                                    t.rejected += n;
                                    client.reset_connection();
                                }
                                _ => t.errors += n,
                            }
                        }
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.sent += t.sent;
        total.ok += t.ok;
        total.rejected += t.rejected;
        total.errors += t.errors;
    }
    total
}

/// Warmed entries/second for one (clients, batch size) cell; panics if
/// any entry failed — the measured configurations absorb the full load.
pub(crate) fn measure_eps(
    addr: SocketAddr,
    n_clients: usize,
    sessions_per_client: usize,
    batch: usize,
) -> f64 {
    for round in 0..2 {
        let start = Instant::now();
        let tally = drive_batch(addr, n_clients, sessions_per_client, batch);
        assert_eq!(
            tally.ok, tally.sent,
            "batch bench shed load: {tally:?} at {n_clients} clients, batch {batch}"
        );
        if round == 1 {
            return tally.sent as f64 / start.elapsed().as_secs_f64();
        }
    }
    unreachable!("second round returns")
}

pub(crate) fn sharded_config() -> ServeConfig {
    ServeConfig {
        n_workers: 8,
        n_shards: 8,
        queue_depth: 1024,
        max_connections: 4096,
        ..ServeConfig::default()
    }
}

/// The serve-bench table: sharded rps per client count, then the
/// overload probe.
pub fn serve_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench: closed-loop requests/second, {EPOCHS_PER_SESSION} requests per client"
    );
    let _ = writeln!(out, "{:>9} {:>12}", "clients", "sharded rps");
    for &n_clients in &CLIENT_COUNTS {
        let sharded =
            serve_with(bench_engine(), "127.0.0.1:0", sharded_config()).expect("bind sharded");
        let sharded_rps = measure_rps(sharded.addr(), n_clients);
        sharded.shutdown();
        let _ = writeln!(out, "{:>9} {:>12.0}", n_clients, sharded_rps);
    }

    // Overload probe: 1 worker, 1-deep queue, 16 clients. The server
    // must shed with 503s and keep answering — never panic or drop.
    // Telemetry is suspended here: which requests survive an overload is
    // timing-dependent by construction, and a `serve-bench --metrics`
    // file must stay reproducible run-to-run (CI diffs two of them).
    let obs_was_enabled = cs2p_obs::enabled();
    cs2p_obs::set_enabled(false);
    let server = serve_with(
        bench_engine(),
        "127.0.0.1:0",
        ServeConfig {
            n_workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind overload server");
    let tally = drive(server.addr(), 16);
    let stats = server.shutdown();
    cs2p_obs::set_enabled(obs_was_enabled);
    assert_eq!(tally.ok + tally.rejected + tally.errors, tally.sent);
    assert!(tally.ok > 0, "overloaded server made no progress");
    let _ = writeln!(
        out,
        "overload (1 worker, queue depth 1, 16 clients): {} ok, {} rejected (503), {} errors; server counted {} rejections",
        tally.ok, tally.rejected, tally.errors, stats.rejected
    );
    out
}

/// The `serve-bench --batch` table: singleton `/predict` vs
/// `/predict_batch` entries/second on the same sharded pool. Each client
/// walks 64 sessions through 4 epochs; batched modes chunk each epoch
/// into frames, amortizing HTTP round trips and shard-lock acquisitions.
pub fn serve_bench_batch() -> String {
    const SESSIONS_PER_CLIENT: usize = 64;
    const BATCH_SIZES: [usize; 2] = [8, 64];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench --batch: closed-loop predict entries/second, sharded pool \
         ({SESSIONS_PER_CLIENT} sessions x {EPOCHS_PER_SESSION} epochs per client)"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>13} {:>11} {:>12} {:>9}",
        "clients", "singleton eps", "batch-8 eps", "batch-64 eps", "64 ratio"
    );
    for &n_clients in &[1usize, 8] {
        let mut eps = Vec::new();
        for &batch in [1usize].iter().chain(BATCH_SIZES.iter()) {
            let server =
                serve_with(bench_engine(), "127.0.0.1:0", sharded_config()).expect("bind sharded");
            eps.push(measure_eps(
                server.addr(),
                n_clients,
                SESSIONS_PER_CLIENT,
                batch,
            ));
            server.shutdown();
        }
        let _ = writeln!(
            out,
            "{:>9} {:>13.0} {:>11.0} {:>12.0} {:>8.2}x",
            n_clients,
            eps[0],
            eps[1],
            eps[2],
            eps[2] / eps[0]
        );
    }
    out
}
