//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. clustering vs the global model (CS2P vs GHM);
//! 2. stateful HMM vs stateless per-cluster median midstream;
//! 3. HMM state count;
//! 4. per-session calibration on/off;
//! 5. Gaussian vs log-normal emissions;
//! 6. MPC horizon;
//! 7. exact MPC enumeration vs the FastMPC table lookup (§5.3).
//!
//! Each prints its comparison once; Criterion times the headline variant.

use criterion::{criterion_group, criterion_main, Criterion};
use cs2p_bench::materials;
use cs2p_core::{Cs2pPredictor, ThroughputPredictor};
use cs2p_eval::runner::{midstream_errors, per_session_medians};
use cs2p_ml::hmm::{train, TrainConfig};
use cs2p_ml::stats;
use std::hint::black_box;

fn median_err<'a, F>(m: &'a cs2p_eval::Materials, indices: &[usize], factory: F) -> f64
where
    F: FnMut(&'a cs2p_core::Session) -> Box<dyn ThroughputPredictor + 'a>,
{
    let per_session = midstream_errors(&m.test, indices, factory);
    stats::median(&per_session_medians(&per_session)).unwrap_or(f64::NAN)
}

fn ablation_clustering_and_calibration(c: &mut Criterion) {
    let m = materials();
    let indices = m.long_test_sessions(5);
    let engine = &m.engine;

    let cs2p = median_err(m, &indices, |s| Box::new(engine.predictor(&s.features)));
    let uncal = median_err(m, &indices, |s| {
        Box::new(Cs2pPredictor::without_calibration(
            engine.lookup(&s.features),
        ))
    });
    let ghm = median_err(m, &indices, |_| Box::new(engine.global_predictor()));
    let median_only = median_err(m, &indices, |s| {
        Box::new(MedianOnly {
            value: engine.lookup(&s.features).initial_median,
        })
    });
    println!("[ablation] midstream median error:");
    println!("  CS2P (clustered, calibrated)    {cs2p:.4}");
    println!("  CS2P w/o calibration            {uncal:.4}");
    println!("  GHM (no clustering)             {ghm:.4}");
    println!("  cluster median only (stateless) {median_only:.4}");

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("midstream_eval_cs2p", |b| {
        b.iter(|| {
            black_box(median_err(m, &indices, |s| {
                Box::new(engine.predictor(&s.features))
            }))
        })
    });
    g.finish();
}

/// Stateless ablation: always predict the cluster's median.
struct MedianOnly {
    value: f64,
}

impl ThroughputPredictor for MedianOnly {
    fn name(&self) -> &str {
        "cluster-median"
    }
    fn predict_initial(&mut self) -> Option<f64> {
        Some(self.value)
    }
    fn predict_ahead(&mut self, _k: usize) -> Option<f64> {
        Some(self.value)
    }
    fn observe(&mut self, _w: f64) {}
    fn reset(&mut self) {}
}

fn ablation_state_count_and_emissions(c: &mut Criterion) {
    let m = materials();
    let sequences: Vec<Vec<f64>> = m
        .train
        .sessions()
        .iter()
        .filter(|s| s.n_epochs() >= 8)
        .take(80)
        .map(|s| s.throughput.clone())
        .collect();
    let held_out: Vec<&Vec<f64>> = m
        .test
        .sessions()
        .iter()
        .filter(|s| s.n_epochs() >= 8)
        .take(60)
        .map(|s| &s.throughput)
        .collect();

    println!("[ablation] held-out one-step error by state count (Gaussian):");
    for n in [2usize, 4, 6, 8] {
        let cfg = TrainConfig {
            n_states: n,
            max_iters: 15,
            ..Default::default()
        };
        if let Some((hmm, _)) = train(&sequences, &cfg) {
            let err = cs2p_ml::hmm::one_step_error(&hmm, &held_out).unwrap_or(f64::NAN);
            println!("  N={n}: {err:.4}");
        }
    }

    println!("[ablation] emission family at N=5:");
    for family in [
        cs2p_ml::hmm::EmissionFamily::Gaussian,
        cs2p_ml::hmm::EmissionFamily::LogNormal,
    ] {
        let cfg = TrainConfig {
            n_states: 5,
            max_iters: 15,
            family,
            ..Default::default()
        };
        if let Some((hmm, _)) = train(&sequences, &cfg) {
            let err = cs2p_ml::hmm::one_step_error(&hmm, &held_out).unwrap_or(f64::NAN);
            println!("  {family:?}: {err:.4}");
        }
    }

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("train_hmm_5_states", |b| {
        let cfg = TrainConfig {
            n_states: 5,
            max_iters: 15,
            ..Default::default()
        };
        b.iter(|| black_box(train(&sequences, &cfg)))
    });
    g.finish();
}

fn ablation_mpc_horizon(c: &mut Criterion) {
    use cs2p_abr::{simulate, Mpc, MpcConfig, QoeParams, RobustMpc, SimConfig};
    let m = materials();
    let qoe = QoeParams {
        mu_startup: 0.0,
        ..Default::default()
    };
    let cfg = SimConfig {
        qoe,
        prediction_seeded_start: false,
        ..Default::default()
    };
    let mut indices = m.long_test_sessions(20);
    indices.truncate(25);

    println!("[ablation] mean QoE by MPC horizon (CS2P predictions):");
    for h in [1usize, 3, 5, 8] {
        let mut qoes = Vec::new();
        for &i in &indices {
            let s = m.test.get(i);
            let mut p = m.engine.predictor(&s.features);
            let mut mpc = Mpc::new(MpcConfig {
                horizon: h,
                ..Default::default()
            });
            let o = simulate(&s.throughput, 6.0, &mut p, &mut mpc, &cfg);
            qoes.push(o.qoe(&qoe));
        }
        println!("  h={h}: {:.0}", stats::mean(&qoes).unwrap());
    }

    // MPC vs RobustMPC under the same predictions (the authors' own
    // robustness companion, as the extension algorithm).
    let mut plain = Vec::new();
    let mut robust = Vec::new();
    for &i in &indices {
        let s = m.test.get(i);
        let mut p = m.engine.predictor(&s.features);
        let mut mpc = Mpc::default();
        plain.push(simulate(&s.throughput, 6.0, &mut p, &mut mpc, &cfg).qoe(&qoe));
        let mut p = m.engine.predictor(&s.features);
        let mut rmpc = RobustMpc::default();
        robust.push(simulate(&s.throughput, 6.0, &mut p, &mut rmpc, &cfg).qoe(&qoe));
    }
    println!(
        "[ablation] CS2P+MPC mean QoE {:.0} vs CS2P+RobustMPC {:.0}",
        stats::mean(&plain).unwrap(),
        stats::mean(&robust).unwrap()
    );

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("simulate_session_mpc_h5", |b| {
        let s = m.test.get(indices[0]);
        b.iter(|| {
            let mut p = m.engine.predictor(&s.features);
            let mut mpc = Mpc::default();
            black_box(simulate(&s.throughput, 6.0, &mut p, &mut mpc, &cfg))
        })
    });
    g.finish();
}

/// Exact horizon enumeration vs the precomputed FastMPC table on one
/// decision — the one §5.3 figure `perf/` does not time.
fn ablation_fast_mpc(c: &mut Criterion) {
    use cs2p_abr::{AbrAlgorithm, AbrContext, FastMpc, FastMpcConfig, Mpc, VideoSpec};

    let video = VideoSpec::envivio();
    let mut fast = FastMpc::precompute(&video, FastMpcConfig::default());
    println!(
        "[ablation] FastMPC table: {} entries ({} bytes)",
        fast.table_len(),
        fast.table_bytes()
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

criterion_group!(
    ablations,
    ablation_clustering_and_calibration,
    ablation_state_count_and_emissions,
    ablation_mpc_horizon,
    ablation_fast_mpc
);
criterion_main!(ablations);
