//! Performance claims of §5.3 and §6:
//!
//! - a midstream prediction is "two matrix multiplication operations" and
//!   takes well under 10 ms;
//! - a client model fits in <5 KB;
//! - the prediction server sustains hundreds of predictions per second
//!   (the paper's Node.js server: ~500/s).

use criterion::{criterion_group, criterion_main, Criterion};
use cs2p_bench::materials;
use cs2p_core::{ClientModel, ThroughputPredictor};
use cs2p_net::http::Request;
use cs2p_net::{serve, HttpClient, PredictRequest, PredictResponse};
use std::hint::black_box;
use std::time::Instant;

fn bench_prediction_latency(c: &mut Criterion) {
    let m = materials();
    let model = m
        .engine
        .models()
        .iter()
        .max_by_key(|mo| mo.n_sessions)
        .unwrap();

    // Model size claim.
    let cm = ClientModel {
        model: model.clone(),
    };
    println!(
        "[perf] client model wire size: {} bytes ({} HMM states) — paper bound 5120",
        cm.wire_size(),
        model.hmm.n_states()
    );
    assert!(cm.wire_size() < 5 * 1024);

    c.bench_function("predict_next_single", |b| {
        let mut p = cs2p_core::Cs2pPredictor::new(model);
        p.observe(2.0);
        b.iter(|| black_box(p.predict_next()))
    });

    c.bench_function("observe_and_predict_cycle", |b| {
        let mut p = cs2p_core::Cs2pPredictor::new(model);
        b.iter(|| {
            p.observe(black_box(2.0));
            black_box(p.predict_next())
        })
    });

    c.bench_function("predict_ahead_8", |b| {
        let mut p = cs2p_core::Cs2pPredictor::new(model);
        p.observe(2.0);
        b.iter(|| black_box(p.predict_ahead(8)))
    });
}

fn bench_fast_mpc(c: &mut Criterion) {
    use cs2p_abr::{AbrAlgorithm, AbrContext, FastMpc, FastMpcConfig, Mpc, VideoSpec};

    let video = VideoSpec::envivio();
    let start = Instant::now();
    let mut fast = FastMpc::precompute(&video, FastMpcConfig::default());
    println!(
        "[perf] FastMPC table: {} entries ({} bytes), precomputed in {:.2}s",
        fast.table_len(),
        fast.table_bytes(),
        start.elapsed().as_secs_f64()
    );

    let predictions = vec![Some(2.3); 5];
    let ctx = AbrContext {
        chunk_index: 10,
        buffer_seconds: 13.7,
        last_level: Some(2),
        predictions_mbps: &predictions,
        last_actual_mbps: Some(2.1),
        video: &video,
    };
    let mut exact = Mpc::default();
    c.bench_function("mpc_exact_decision", |b| {
        b.iter(|| black_box(exact.select_level(&ctx)))
    });
    c.bench_function("fast_mpc_table_lookup", |b| {
        b.iter(|| black_box(fast.select_level(&ctx)))
    });
}

fn bench_training(c: &mut Criterion) {
    let m = materials();
    let sequences: Vec<Vec<f64>> = m
        .train
        .sessions()
        .iter()
        .filter(|s| s.n_epochs() >= 5)
        .take(60)
        .map(|s| s.throughput.clone())
        .collect();
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    g.bench_function("baum_welch_60_sequences_5_states", |b| {
        let cfg = cs2p_ml::hmm::TrainConfig {
            n_states: 5,
            max_iters: 15,
            ..Default::default()
        };
        b.iter(|| black_box(cs2p_ml::hmm::train(&sequences, &cfg)))
    });
    g.finish();
}

/// One `POST /predict` round trip, answer decoded.
fn predict(client: &mut HttpClient, req: &PredictRequest) -> PredictResponse {
    let body = serde_json::to_vec(req).expect("encode");
    let resp = client
        .send(&Request::new("POST", "/predict", body))
        .expect("predict");
    assert_eq!(resp.status, 200);
    serde_json::from_slice(&resp.body).expect("decode")
}

fn bench_server_throughput(c: &mut Criterion) {
    let m = materials();
    let server = serve(m.engine.clone(), "127.0.0.1:0").expect("server");
    let addr = server.addr();
    let features = m.train.get(0).features.0.clone();

    // One-shot throughput measurement with 4 concurrent keep-alive
    // clients, mirroring the paper's "500 predictions per second" check.
    let threads = 4;
    let per_thread = 500u64;
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let features = features.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                for i in 0..per_thread {
                    let req = PredictRequest {
                        session_id: t * 1_000_000 + i,
                        features: Some(features.clone()),
                        measured_mbps: None,
                        horizon: 1,
                    };
                    predict(&mut client, &req);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rate = (threads * per_thread) as f64 / elapsed;
    println!(
        "[perf] server throughput: {rate:.0} predictions/s over {threads} connections \
         (paper's Node.js server: ~500/s)"
    );

    // Latency of one round trip (keep-alive, midstream prediction).
    let mut client = HttpClient::new(addr);
    let reg = PredictRequest {
        session_id: 777,
        features: Some(features.clone()),
        measured_mbps: None,
        horizon: 1,
    };
    predict(&mut client, &reg);
    let mut g = c.benchmark_group("server");
    g.sample_size(50);
    g.bench_function("http_predict_roundtrip", |b| {
        b.iter(|| {
            let req = PredictRequest {
                session_id: 777,
                features: None,
                measured_mbps: Some(2.0),
                horizon: 8,
            };
            black_box(predict(&mut client, &req))
        })
    });
    g.finish();
    server.shutdown();
}

criterion_group!(
    perf,
    bench_prediction_latency,
    bench_fast_mpc,
    bench_training,
    bench_server_throughput
);
criterion_main!(perf);
