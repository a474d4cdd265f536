//! `ablations`: the design choices DESIGN.md calls out, each switched off
//! in turn on the shared materials.
//!
//! 1. clustering vs the global model (CS2P vs GHM);
//! 2. stateful HMM vs stateless per-cluster median midstream;
//! 3. HMM state count;
//! 4. per-session calibration on/off;
//! 5. Gaussian vs log-normal emissions;
//! 6. MPC horizon, and MPC vs RobustMPC;
//! 7. exact MPC enumeration vs the FastMPC table lookup (§5.3), the one
//!    comparison here that is a timing (`[timing]` lines).

use crate::runner::{median_per_iter, midstream_errors, per_session_medians};
use crate::Materials;
use cs2p_abr::{
    simulate, AbrAlgorithm, AbrContext, FastMpc, FastMpcConfig, Mpc, MpcConfig, QoeParams,
    RobustMpc, SimConfig, VideoSpec,
};
use cs2p_core::{Cs2pPredictor, Session, ThroughputPredictor};
use cs2p_ml::hmm::{one_step_error, train, EmissionFamily, TrainConfig};
use cs2p_ml::stats;
use std::fmt::Write as _;

/// Runs every ablation and renders its `[ablation]` comparisons.
pub fn ablations(m: &Materials) -> String {
    let mut out = String::new();
    clustering_and_calibration(m, &mut out);
    state_count_and_emissions(m, &mut out);
    mpc_horizon(m, &mut out);
    fast_mpc(&mut out);
    out
}

fn median_err<'a, F>(m: &'a Materials, indices: &[usize], factory: F) -> f64
where
    F: FnMut(&'a Session) -> Box<dyn ThroughputPredictor + 'a>,
{
    let per_session = midstream_errors(&m.test, indices, factory);
    stats::median(&per_session_medians(&per_session)).unwrap_or(f64::NAN)
}

fn clustering_and_calibration(m: &Materials, out: &mut String) {
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
    out.push_str("[ablation] midstream median error:\n");
    let _ = writeln!(out, "  CS2P (clustered, calibrated)    {cs2p:.4}");
    let _ = writeln!(out, "  CS2P w/o calibration            {uncal:.4}");
    let _ = writeln!(out, "  GHM (no clustering)             {ghm:.4}");
    let _ = writeln!(out, "  cluster median only (stateless) {median_only:.4}");
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

fn state_count_and_emissions(m: &Materials, out: &mut String) {
    let long = |s: &&Session| s.n_epochs() >= 8;
    let sequences: Vec<Vec<f64>> = m
        .train
        .sessions()
        .iter()
        .filter(long)
        .take(80)
        .map(|s| s.throughput.clone())
        .collect();
    let held_out: Vec<&Vec<f64>> = m
        .test
        .sessions()
        .iter()
        .filter(long)
        .take(60)
        .map(|s| &s.throughput)
        .collect();
    let error = |cfg: &TrainConfig| {
        train(&sequences, cfg).map(|(hmm, _)| one_step_error(&hmm, &held_out).unwrap_or(f64::NAN))
    };

    out.push_str("[ablation] held-out one-step error by state count (Gaussian):\n");
    for n in [2usize, 4, 6, 8] {
        let cfg = TrainConfig {
            n_states: n,
            max_iters: 15,
            ..Default::default()
        };
        if let Some(err) = error(&cfg) {
            let _ = writeln!(out, "  N={n}: {err:.4}");
        }
    }

    out.push_str("[ablation] emission family at N=5:\n");
    for family in [EmissionFamily::Gaussian, EmissionFamily::LogNormal] {
        let cfg = TrainConfig {
            n_states: 5,
            max_iters: 15,
            family,
            ..Default::default()
        };
        if let Some(err) = error(&cfg) {
            let _ = writeln!(out, "  {family:?}: {err:.4}");
        }
    }
}

fn mpc_horizon(m: &Materials, out: &mut String) {
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
    let mean_qoe = |abr: &dyn Fn() -> Box<dyn AbrAlgorithm>| {
        let qoes: Vec<f64> = indices
            .iter()
            .map(|&i| {
                let s = m.test.get(i);
                let mut p = m.engine.predictor(&s.features);
                simulate(&s.throughput, 6.0, &mut p, abr().as_mut(), &cfg).qoe(&qoe)
            })
            .collect();
        stats::mean(&qoes).unwrap()
    };

    out.push_str("[ablation] mean QoE by MPC horizon (CS2P predictions):\n");
    for h in [1usize, 3, 5, 8] {
        let q = mean_qoe(&|| {
            Box::new(Mpc::new(MpcConfig {
                horizon: h,
                ..Default::default()
            }))
        });
        let _ = writeln!(out, "  h={h}: {q:.0}");
    }

    // MPC vs RobustMPC under the same predictions (the authors' own
    // robustness companion, as the extension algorithm).
    let plain = mean_qoe(&|| Box::new(Mpc::default()));
    let robust = mean_qoe(&|| Box::new(RobustMpc::default()));
    let _ = writeln!(
        out,
        "[ablation] CS2P+MPC mean QoE {plain:.0} vs CS2P+RobustMPC {robust:.0}"
    );
}

/// Exact horizon enumeration vs the precomputed FastMPC table on one
/// decision — the one §5.3 figure `perf/` does not time.
fn fast_mpc(out: &mut String) {
    let video = VideoSpec::envivio();
    let mut fast = FastMpc::precompute(&video, FastMpcConfig::default());
    let _ = writeln!(
        out,
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
    let exact_t = median_per_iter(10, || exact.select_level(&ctx));
    let fast_t = median_per_iter(10, || fast.select_level(&ctx));
    let _ = writeln!(
        out,
        "[timing] mpc_exact_decision    median {exact_t:>12.3?}"
    );
    let _ = writeln!(out, "[timing] fast_mpc_table_lookup median {fast_t:>12.3?}");
}
