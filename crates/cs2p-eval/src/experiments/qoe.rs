//! QoE experiments: Table 1, Figure 2, and the §7.3 QoE comparisons.

use crate::context::Materials;
use crate::runner::{render_cdf_table, NamedCdf, REPORT_QUANTILES};
use cs2p_abr::{
    normalized_qoe, offline_optimal_qoe, simulate, BufferBased, Mpc, OptimalConfig, QoeParams,
    SessionOutcome, SimConfig, VideoSpec,
};
use cs2p_core::baselines::{AutoRegressive, HarmonicMean, LastSample};
use cs2p_core::{NoisyOracle, Session, ThroughputPredictor};
use cs2p_ml::stats;
use std::fmt;

/// Sessions need at least this many epochs to be useful for QoE runs.
const MIN_EPOCHS: usize = 20;

fn qoe_sessions(materials: &Materials, max_sessions: usize) -> Vec<usize> {
    let mut idx = materials.long_test_sessions(MIN_EPOCHS);
    idx.truncate(max_sessions);
    idx
}

fn sim_config() -> SimConfig {
    SimConfig::default()
}

fn optimal_for(trace: &[f64], video: &VideoSpec, qoe: QoeParams) -> f64 {
    offline_optimal_qoe(trace, 6.0, video, &OptimalConfig { quantum: 1.0, qoe })
}

// ---------------------------------------------------------------------------
// Table 1: limitations of current initial bitrate selection
// ---------------------------------------------------------------------------

/// One player strategy's Table-1 row.
pub struct Table1Row {
    /// Strategy label.
    pub strategy: String,
    /// Mean bitrate of the first chunk, kbps.
    pub initial_bitrate_kbps: f64,
    /// Mean chunks spent below the session's sustainable level before
    /// first reaching it ("wasted probing chunks").
    pub wasted_chunks: f64,
    /// Mean average bitrate, kbps.
    pub avg_bitrate_kbps: f64,
    /// Mean rebuffer time, seconds.
    pub rebuffer_seconds: f64,
    /// Mean startup delay, seconds.
    pub startup_seconds: f64,
}

/// Table 1's quantified reproduction.
pub struct Table1Report {
    /// One row per strategy.
    pub rows: Vec<Table1Row>,
    /// Sessions evaluated.
    pub n_sessions: usize,
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1 — initial bitrate selection strategies ({} sessions)",
            self.n_sessions
        )?;
        writeln!(
            f,
            "{:<22} | {:>10} | {:>8} | {:>10} | {:>8} | {:>8}",
            "strategy", "init kbps", "wasted", "avg kbps", "rebuf s", "start s"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<22} | {:>10.0} | {:>8.2} | {:>10.0} | {:>8.2} | {:>8.2}",
                r.strategy,
                r.initial_bitrate_kbps,
                r.wasted_chunks,
                r.avg_bitrate_kbps,
                r.rebuffer_seconds,
                r.startup_seconds
            )?;
        }
        Ok(())
    }
}

/// Runs the Table-1 comparison: fixed-low, adaptive-ramp (no initial
/// prediction), and prediction-seeded players.
pub fn table1(materials: &Materials, max_sessions: usize) -> Table1Report {
    let indices = qoe_sessions(materials, max_sessions);
    let test = &materials.test;
    let video = VideoSpec::envivio();
    let engine = &materials.engine;

    let mut accumulators: Vec<(String, Vec<SessionOutcome>, Vec<f64>)> = vec![
        ("Fixed (lowest)".into(), Vec::new(), Vec::new()),
        ("Adaptive (no predict)".into(), Vec::new(), Vec::new()),
        ("CS2P-seeded MPC".into(), Vec::new(), Vec::new()),
    ];

    for &i in &indices {
        let session = test.get(i);
        let trace = &session.throughput;
        // The level a clairvoyant would call sustainable on this trace.
        let sustainable = video.highest_sustainable(stats::median(trace).unwrap_or(0.0));

        // Fixed lowest bitrate.
        let mut fixed = cs2p_abr::FixedBitrate::lowest();
        let mut no_pred = NeverPredict;
        let cfg = SimConfig {
            prediction_seeded_start: false,
            ..sim_config()
        };
        let o = simulate(trace, 6.0, &mut no_pred, &mut fixed, &cfg);
        push_outcome(&mut accumulators[0], o, sustainable, &video);

        // Adaptive without initial prediction: HM + MPC starting blind.
        let mut mpc = Mpc::default();
        let mut hm = HarmonicMean::new();
        let o = simulate(trace, 6.0, &mut hm, &mut mpc, &cfg);
        push_outcome(&mut accumulators[1], o, sustainable, &video);

        // CS2P-seeded MPC.
        let mut mpc = Mpc::default();
        let mut cs2p = engine.predictor(&session.features);
        let o = simulate(trace, 6.0, &mut cs2p, &mut mpc, &sim_config());
        push_outcome(&mut accumulators[2], o, sustainable, &video);
    }

    let rows = accumulators
        .into_iter()
        .map(|(strategy, outcomes, wasted)| Table1Row {
            strategy,
            initial_bitrate_kbps: mean_of(&outcomes, |o| o.chunks[0].bitrate_kbps),
            wasted_chunks: stats::mean(&wasted).unwrap_or(0.0),
            avg_bitrate_kbps: mean_of(&outcomes, SessionOutcome::avg_bitrate_kbps),
            rebuffer_seconds: mean_of(&outcomes, SessionOutcome::total_rebuffer_seconds),
            startup_seconds: mean_of(&outcomes, |o| o.startup_delay_seconds),
        })
        .collect();

    Table1Report {
        rows,
        n_sessions: indices.len(),
    }
}

fn push_outcome(
    acc: &mut (String, Vec<SessionOutcome>, Vec<f64>),
    outcome: SessionOutcome,
    sustainable: usize,
    video: &VideoSpec,
) {
    let target = video.bitrates_kbps[sustainable];
    let wasted = outcome
        .chunks
        .iter()
        .take_while(|c| c.bitrate_kbps < target)
        .count();
    acc.2.push(wasted as f64);
    acc.1.push(outcome);
}

fn mean_of(outcomes: &[SessionOutcome], f: impl Fn(&SessionOutcome) -> f64) -> f64 {
    let vals: Vec<f64> = outcomes.iter().map(f).collect();
    stats::mean(&vals).unwrap_or(f64::NAN)
}

/// A predictor that never predicts (for players that must start blind).
struct NeverPredict;

impl ThroughputPredictor for NeverPredict {
    fn name(&self) -> &str {
        "none"
    }
    fn predict_initial(&mut self) -> Option<f64> {
        None
    }
    fn predict_ahead(&mut self, _k: usize) -> Option<f64> {
        None
    }
    fn observe(&mut self, _w: f64) {}
    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// Figure 2: n-QoE vs prediction error
// ---------------------------------------------------------------------------

/// Figure 2's content.
pub struct Fig2Report {
    /// Error levels swept.
    pub error_levels: Vec<f64>,
    /// Median n-QoE of MPC at each error level.
    pub mpc_nqoe: Vec<f64>,
    /// Median n-QoE of BB (prediction-free baseline).
    pub bb_nqoe: f64,
    /// Traces evaluated.
    pub n_traces: usize,
}

impl fmt::Display for Fig2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — midstream n-QoE vs prediction error ({} traces)",
            self.n_traces
        )?;
        writeln!(f, "{:>8} | {:>10}", "error", "MPC n-QoE")?;
        for (e, q) in self.error_levels.iter().zip(&self.mpc_nqoe) {
            writeln!(f, "{e:>8.2} | {q:>10.3}")?;
        }
        writeln!(f, "BB (no prediction) n-QoE: {:.3}", self.bb_nqoe)?;
        Ok(())
    }
}

/// Replicates the Yin-et-al. analysis: MPC under a controlled-error oracle.
///
/// Figure 2 is about *midstream* adaptation, so the startup term is zeroed
/// on both sides of the normalization (every strategy and the offline
/// optimal alike) — otherwise initial-selection policy differences leak
/// into a figure that is meant to isolate midstream prediction quality.
pub fn fig2(materials: &Materials, error_levels: &[f64], max_traces: usize) -> Fig2Report {
    let indices = qoe_sessions(materials, max_traces);
    let test = &materials.test;
    let video = VideoSpec::envivio();
    let qoe_params = QoeParams {
        mu_startup: 0.0,
        ..QoeParams::default()
    };
    let cfg = SimConfig {
        qoe: qoe_params,
        prediction_seeded_start: false,
        ..sim_config()
    };
    let opt_cfg = OptimalConfig {
        quantum: 1.0,
        qoe: qoe_params,
    };

    // Offline optimal per trace, shared across error levels.
    let optima: Vec<f64> = indices
        .iter()
        .map(|&i| offline_optimal_qoe(&test.get(i).throughput, 6.0, &video, &opt_cfg))
        .collect();

    let mut mpc_nqoe = Vec::with_capacity(error_levels.len());
    for &err in error_levels {
        let mut nqoes = Vec::new();
        for (&i, &opt) in indices.iter().zip(&optima) {
            let trace = &test.get(i).throughput;
            // Window 2: a chunk spans epoch boundaries, so "the throughput
            // the chunk will see" covers two epochs.
            let mut oracle = NoisyOracle::with_window(trace.clone(), err, 1000 + i as u64, 2);
            let mut mpc = Mpc::default();
            let qoe = simulate(trace, 6.0, &mut oracle, &mut mpc, &cfg).qoe(&cfg.qoe);
            if let Some(n) = normalized_qoe(qoe, opt) {
                nqoes.push(n);
            }
        }
        mpc_nqoe.push(stats::median(&nqoes).unwrap_or(f64::NAN));
    }

    // BB: buffer-only, no predictions.
    let mut bb_nqoes = Vec::new();
    for (&i, &opt) in indices.iter().zip(&optima) {
        let trace = &test.get(i).throughput;
        let mut never = NeverPredict;
        let mut bb = BufferBased::default();
        let qoe = simulate(trace, 6.0, &mut never, &mut bb, &cfg).qoe(&cfg.qoe);
        if let Some(n) = normalized_qoe(qoe, opt) {
            bb_nqoes.push(n);
        }
    }

    Fig2Report {
        error_levels: error_levels.to_vec(),
        mpc_nqoe,
        bb_nqoe: stats::median(&bb_nqoes).unwrap_or(f64::NAN),
        n_traces: indices.len(),
    }
}

// ---------------------------------------------------------------------------
// §7.3: QoE with real predictors
// ---------------------------------------------------------------------------

/// §7.3's midstream-QoE comparison: each predictor feeding MPC, plus BB.
pub struct QoeMidReport {
    /// n-QoE CDF per strategy.
    pub cdfs: Vec<NamedCdf>,
    /// AvgBitrate (kbps) per strategy.
    pub avg_bitrate: Vec<(String, f64)>,
    /// GoodRatio per strategy.
    pub good_ratio: Vec<(String, f64)>,
    /// Traces evaluated.
    pub n_traces: usize,
}

impl QoeMidReport {
    /// Median n-QoE of a named strategy.
    #[cfg(test)]
    fn median_nqoe(&self, name: &str) -> Option<f64> {
        self.cdfs
            .iter()
            .find(|c| c.name == name)
            .map(NamedCdf::median)
    }

    /// Mean AvgBitrate of a named strategy.
    fn avg_bitrate_of(&self, name: &str) -> Option<f64> {
        self.avg_bitrate
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

impl fmt::Display for QoeMidReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§7.3 — n-QoE by predictor (+MPC), {} traces",
            self.n_traces
        )?;
        write!(f, "{}", render_cdf_table(&self.cdfs, &REPORT_QUANTILES))?;
        writeln!(f, "strategy      | med n-QoE | avg kbps | good ratio")?;
        for c in &self.cdfs {
            writeln!(
                f,
                "{:<13} | {:>9.3} | {:>8.0} | {:>10.3}",
                c.name,
                c.median(),
                self.avg_bitrate_of(&c.name).unwrap_or(f64::NAN),
                self.good_ratio
                    .iter()
                    .find(|(n, _)| *n == c.name)
                    .map(|(_, v)| *v)
                    .unwrap_or(f64::NAN)
            )?;
        }
        Ok(())
    }
}

/// Runs the §7.3 midstream comparison.
///
/// Like Figure 2, this isolates *midstream* adaptation ("95% of offline
/// optimal for midstream chunks"): no prediction-seeded start and no
/// startup term, identically for every strategy and for the normalizing
/// optimal. The initial-selection benefit is measured separately by
/// [`qoe_init`] and [`table1`].
pub fn qoe_mid<'a>(materials: &'a Materials, max_traces: usize) -> QoeMidReport {
    let indices = qoe_sessions(materials, max_traces);
    let test = &materials.test;
    let video = VideoSpec::envivio();
    let qoe_params = QoeParams {
        mu_startup: 0.0,
        ..QoeParams::default()
    };
    let cfg = SimConfig {
        qoe: qoe_params,
        prediction_seeded_start: false,
        ..sim_config()
    };
    let engine = &materials.engine;

    let optima: Vec<f64> = indices
        .iter()
        .map(|&i| optimal_for(&test.get(i).throughput, &video, qoe_params))
        .collect();

    let mut cdfs = Vec::new();
    let mut avg_bitrate = Vec::new();
    let mut good_ratio = Vec::new();

    /// Which controller the strategy runs.
    enum Controller {
        Mpc,
        RobustMpc,
        Bb,
    }

    let mut run = |name: &str,
                   factory: &mut dyn FnMut(&'a Session) -> Box<dyn ThroughputPredictor + 'a>,
                   controller: Controller| {
        let mut nqoes = Vec::new();
        let mut bitrates = Vec::new();
        let mut goods = Vec::new();
        for (&i, &opt) in indices.iter().zip(&optima) {
            let session = test.get(i);
            let trace = &session.throughput;
            let mut predictor = factory(session);
            let outcome = match controller {
                Controller::Mpc => {
                    let mut abr = Mpc::default();
                    simulate(trace, 6.0, predictor.as_mut(), &mut abr, &cfg)
                }
                Controller::RobustMpc => {
                    let mut abr = cs2p_abr::RobustMpc::default();
                    simulate(trace, 6.0, predictor.as_mut(), &mut abr, &cfg)
                }
                Controller::Bb => {
                    let mut abr = BufferBased::default();
                    simulate(trace, 6.0, predictor.as_mut(), &mut abr, &cfg)
                }
            };
            if let Some(n) = normalized_qoe(outcome.qoe(&cfg.qoe), opt) {
                nqoes.push(n);
            }
            bitrates.push(outcome.avg_bitrate_kbps());
            goods.push(outcome.good_ratio());
        }
        if let Some(c) = NamedCdf::new(name, &nqoes) {
            cdfs.push(c);
        }
        avg_bitrate.push((name.to_string(), stats::mean(&bitrates).unwrap_or(f64::NAN)));
        good_ratio.push((name.to_string(), stats::mean(&goods).unwrap_or(f64::NAN)));
    };

    run(
        "CS2P",
        &mut |s| Box::new(engine.predictor(&s.features)),
        Controller::Mpc,
    );
    // The extension strategy: same predictions, error-discounted control.
    run(
        "CS2P+R",
        &mut |s| Box::new(engine.predictor(&s.features)),
        Controller::RobustMpc,
    );
    run(
        "GHM",
        &mut |_| Box::new(engine.global_predictor()),
        Controller::Mpc,
    );
    run(
        "HM",
        &mut |_| Box::new(HarmonicMean::new()),
        Controller::Mpc,
    );
    run("LS", &mut |_| Box::new(LastSample::new()), Controller::Mpc);
    run(
        "AR",
        &mut |_| Box::new(AutoRegressive::new(super::prediction::AR_ORDER)),
        Controller::Mpc,
    );
    run("BB", &mut |_| Box::new(NeverPredictBox), Controller::Bb);

    QoeMidReport {
        cdfs,
        avg_bitrate,
        good_ratio,
        n_traces: indices.len(),
    }
}

struct NeverPredictBox;
impl ThroughputPredictor for NeverPredictBox {
    fn name(&self) -> &str {
        "none"
    }
    fn predict_initial(&mut self) -> Option<f64> {
        None
    }
    fn predict_ahead(&mut self, _k: usize) -> Option<f64> {
        None
    }
    fn observe(&mut self, _w: f64) {}
    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// §7.3: initial-chunk QoE
// ---------------------------------------------------------------------------

/// One strategy's initial-selection quality.
pub struct QoeInitRow {
    /// Strategy label.
    pub strategy: String,
    /// Mean initial bitrate, kbps.
    pub initial_bitrate_kbps: f64,
    /// Mean startup delay, seconds.
    pub startup_seconds: f64,
    /// Fraction of sessions whose pick was sustainable (no faster than the
    /// clairvoyant-sustainable level of the actual trace).
    pub sustainable_fraction: f64,
    /// Mean ratio of chosen bitrate to the clairvoyant-sustainable bitrate
    /// (1.0 = picked exactly the best sustainable rung).
    pub bitrate_vs_best: f64,
}

/// §7.3's initial-chunk comparison, restated in regret terms.
///
/// Under the paper's own QoE weights (`mu_s = 3000`) the first-chunk QoE
/// of *every* rung is negative on links below 18 Mbps, so a QoE *ratio*
/// is meaningless; what the initial prediction actually buys — and what
/// Table 1 motivates — is picking the **highest sustainable** rung:
/// high initial resolution without gambling on a stall.
pub struct QoeInitReport {
    /// One row per strategy.
    pub rows: Vec<QoeInitRow>,
    /// Sessions evaluated.
    pub n_sessions: usize,
}

impl QoeInitReport {
    /// Row by name.
    pub fn row(&self, name: &str) -> Option<&QoeInitRow> {
        self.rows.iter().find(|r| r.strategy == name)
    }
}

impl fmt::Display for QoeInitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§7.3 — initial-chunk selection quality ({} sessions)",
            self.n_sessions
        )?;
        writeln!(
            f,
            "{:<14} | {:>10} | {:>9} | {:>12} | {:>12}",
            "strategy", "init kbps", "startup s", "sustainable", "vs best"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} | {:>10.0} | {:>9.2} | {:>11.1}% | {:>12.3}",
                r.strategy,
                r.initial_bitrate_kbps,
                r.startup_seconds,
                r.sustainable_fraction * 100.0,
                r.bitrate_vs_best
            )?;
        }
        Ok(())
    }
}

/// Runs the initial-chunk comparison: CS2P's prediction-seeded pick vs the
/// conservative lowest-rung start vs an oblivious aggressive top-rung pick.
pub fn qoe_init(materials: &Materials, max_sessions: usize) -> QoeInitReport {
    let indices = qoe_sessions(materials, max_sessions);
    let test = &materials.test;
    let video = VideoSpec::envivio();
    let engine = &materials.engine;

    struct Acc {
        bitrates: Vec<f64>,
        startups: Vec<f64>,
        sustainable: usize,
        vs_best: Vec<f64>,
    }
    impl Acc {
        fn new() -> Self {
            Acc {
                bitrates: Vec::new(),
                startups: Vec::new(),
                sustainable: 0,
                vs_best: Vec::new(),
            }
        }
        fn push(&mut self, trace: &[f64], video: &VideoSpec, level: usize, best: usize) {
            let mut net = cs2p_abr::TraceNetwork::new(trace, 6.0);
            let d = net.download(video.chunk_kbits(level));
            self.bitrates.push(video.bitrates_kbps[level]);
            self.startups.push(d);
            if level <= best {
                self.sustainable += 1;
            }
            self.vs_best
                .push(video.bitrates_kbps[level] / video.bitrates_kbps[best]);
        }
        fn row(self, strategy: &str, n: usize) -> QoeInitRow {
            QoeInitRow {
                strategy: strategy.to_string(),
                initial_bitrate_kbps: stats::mean(&self.bitrates).unwrap_or(f64::NAN),
                startup_seconds: stats::mean(&self.startups).unwrap_or(f64::NAN),
                sustainable_fraction: self.sustainable as f64 / n.max(1) as f64,
                bitrate_vs_best: stats::mean(&self.vs_best).unwrap_or(f64::NAN),
            }
        }
    }

    let mut cs2p = Acc::new();
    let mut lowest = Acc::new();
    let mut aggressive = Acc::new();
    for &i in &indices {
        let session = test.get(i);
        let trace = &session.throughput;
        // The clairvoyant rung for the *initial* epoch — the quantity the
        // paper's rule ("highest sustainable bitrate below the predicted
        // initial throughput") is aiming at.
        let best = video.highest_sustainable(session.initial_throughput().unwrap_or(0.0));

        let mut p = engine.predictor(&session.features);
        let level = p
            .predict_initial()
            .map(|w| video.highest_sustainable(w))
            .unwrap_or(0);
        cs2p.push(trace, &video, level, best);
        lowest.push(trace, &video, 0, best);
        aggressive.push(trace, &video, video.n_levels() - 1, best);
    }

    let n = indices.len();
    QoeInitReport {
        rows: vec![
            cs2p.row("CS2P", n),
            lowest.row("Lowest-start", n),
            aggressive.row("Top-rung", n),
        ],
        n_sessions: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalConfig;
    use std::sync::OnceLock;

    fn materials() -> &'static Materials {
        static CELL: OnceLock<Materials> = OnceLock::new();
        CELL.get_or_init(|| Materials::prepare(EvalConfig::small()))
    }

    #[test]
    fn table1_prediction_seeding_raises_initial_bitrate() {
        let r = table1(materials(), 30);
        assert_eq!(r.rows.len(), 3);
        let fixed = &r.rows[0];
        let blind = &r.rows[1];
        let seeded = &r.rows[2];
        assert!(seeded.initial_bitrate_kbps > blind.initial_bitrate_kbps);
        assert!(seeded.avg_bitrate_kbps > fixed.avg_bitrate_kbps);
        assert!(seeded.wasted_chunks < blind.wasted_chunks);
    }

    #[test]
    fn fig2_qoe_degrades_with_error_and_beats_bb_when_accurate() {
        let r = fig2(materials(), &[0.0, 0.5, 1.0], 20);
        assert_eq!(r.mpc_nqoe.len(), 3);
        assert!(
            r.mpc_nqoe[0] > r.mpc_nqoe[2],
            "accurate {} !> wildly wrong {}",
            r.mpc_nqoe[0],
            r.mpc_nqoe[2]
        );
        assert!(
            r.mpc_nqoe[0] > 0.8,
            "perfect-prediction n-QoE {}",
            r.mpc_nqoe[0]
        );
        assert!(
            r.mpc_nqoe[0] > r.bb_nqoe,
            "MPC@0 {} !> BB {}",
            r.mpc_nqoe[0],
            r.bb_nqoe
        );
    }

    #[test]
    fn qoe_mid_cs2p_beats_papers_comparison_points() {
        // §7.3's claims: CS2P+MPC beats HM+MPC (the prior state of the
        // art), pure Buffer-Based, and the unclustered global HMM. (LS+MPC
        // is not one of the paper's QoE comparison points — and indeed its
        // post-dip underestimation is accidentally well-timed conservatism
        // that QoE rewards beyond its prediction accuracy.)
        let r = qoe_mid(materials(), 40);
        let cs2p = r.median_nqoe("CS2P").unwrap();
        assert!(cs2p > 0.7, "CS2P n-QoE {cs2p}");
        for name in ["HM", "BB", "GHM"] {
            let other = r.median_nqoe(name).unwrap();
            assert!(cs2p > other, "CS2P {cs2p} !> {name} {other}");
        }
        // With the robust controller, CS2P predictions lead the whole
        // field, including LS+MPC.
        let robust = r.median_nqoe("CS2P+R").unwrap();
        for name in ["CS2P", "LS", "HM", "BB", "GHM", "AR"] {
            let other = r.median_nqoe(name).unwrap();
            assert!(robust >= other - 0.02, "CS2P+R {robust} !>= {name} {other}");
        }
    }

    #[test]
    fn qoe_init_cs2p_is_high_and_sustainable() {
        let r = qoe_init(materials(), 60);
        let cs2p = r.row("CS2P").unwrap();
        let lowest = r.row("Lowest-start").unwrap();
        let top = r.row("Top-rung").unwrap();
        // Higher initial resolution than the conservative start...
        assert!(
            cs2p.initial_bitrate_kbps > 1.5 * lowest.initial_bitrate_kbps,
            "CS2P {} vs lowest {}",
            cs2p.initial_bitrate_kbps,
            lowest.initial_bitrate_kbps
        );
        // ...while staying sustainable far more often than the top rung.
        assert!(
            cs2p.sustainable_fraction > top.sustainable_fraction + 0.15,
            "CS2P {} vs top {}",
            cs2p.sustainable_fraction,
            top.sustainable_fraction
        );
        assert!(
            cs2p.sustainable_fraction > 0.6,
            "{}",
            cs2p.sustainable_fraction
        );
        // And close to the clairvoyant-sustainable rung on average.
        assert!(cs2p.bitrate_vs_best > 0.6, "{}", cs2p.bitrate_vs_best);
    }
}
