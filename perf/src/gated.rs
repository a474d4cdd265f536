//! The gated run: one workload, end-to-end metrics only, no tracing.
//!
//! A run is `rounds.count` rounds of the whole lifecycle — set-up, warm-up
//! and a share of the timed windows, verification, recovery, one warm
//! retrain — and every estimator takes its best over all rounds. This box
//! has slow episodes of five to ten seconds; sampled in one contiguous
//! phase a metric is at their mercy, sampled in five slices spread over
//! the run it is not.
//!
//! Every workload prints all seven end-to-end metrics, because the
//! benchmark contract wants one metric set on every run. The metrics a
//! workload's own layers produce are its *native* ones (`spec.json`,
//! `native_metrics`); the rest come from the same shared phases at the
//! same sizes (`spec.json`, `complement`).

use crate::check::Tally;
use crate::load::{NoTrace, PhaseStats, WindowStat};
use crate::phases::{
    bundle_round_trip, cold_once, min_secs, recover_phase, serve, snapshot_every, verify_served,
    warm_once, Ctx, Finished, Ground, Plan, Recoverable, Reference, Stage, Trained,
};
use crate::report::{peak_rss_mb, Report};
use crate::spec::{Scale, Workload};
use std::io;
use std::time::{Duration, Instant};

/// What the rounds of a run add up to.
#[derive(Default)]
struct Samples {
    setups: Vec<Duration>,
    recovers: Vec<Duration>,
    windows: Vec<WindowStat>,
    cold: Option<Trained>,
    warm: Option<Trained>,
    /// Context of the last round, for the `# key value` lines.
    info: Vec<(&'static str, String)>,
}

pub fn run(ctx: &Ctx, workload: Workload) -> io::Result<Report> {
    let spec = &ctx.spec;
    let mut report = Report::default();
    let mut tally = Tally::default();
    report.info("workload", workload.name());
    report.info("seed", ctx.seed);

    // Each round serves its share of the timed windows, after its own
    // warm-up windows.
    let rounds = ctx.scale.reps(spec.rounds.count);
    let timed = ctx.scale.timed(match workload {
        Workload::TrainRefresh => spec.workloads.train_refresh.tail_timed_windows,
        _ => spec.timed_windows,
    });
    let round_scale = Scale {
        timed_windows: Some(timed.div_ceil(rounds)),
        ..ctx.scale
    };
    let mut samples = Samples::default();
    for round in 0..rounds {
        let start = Instant::now();
        if workload == Workload::TrainRefresh {
            train_refresh_round(ctx, &round_scale, round, &mut samples, &mut tally)?;
        } else {
            serving_round(ctx, &round_scale, workload, round, &mut samples, &mut tally)?;
        }
        report.info(
            &format!("wall.round_{round}_s"),
            format!(
                "{:.2} (peak rss so far {:.1} MB)",
                start.elapsed().as_secs_f64(),
                peak_rss_mb()
            ),
        );
    }

    let Samples {
        setups,
        recovers,
        windows,
        cold,
        warm,
        info,
    } = samples;
    let (cold, warm) = (
        cold.expect("a round trains"),
        warm.expect("a round retrains"),
    );
    for (key, value) in info {
        report.info(key, value);
    }
    report.info("rounds", rounds);
    report.info("engine.n_models", cold.summary.n_models);
    report.info("baum_welch.em_iterations", cold.summary.em_iterations);
    report.info("baum_welch.em_iterations_warm", warm.summary.em_iterations);
    let stats = PhaseStats::from_windows(&windows);
    report.info("timed_windows", windows.len());
    report.info("rtt_samples_per_window", stats.samples_per_window);
    report.info("log_send_frac", stats.log_send_frac);
    report.info("best_window", stats.best_window);
    report.info("rtt_p99_us_median_window", stats.rtt_p99_us);
    report.info("recover_repetitions", recovers.len());

    report.metric("setup_s", min_secs(&setups), "s");
    report.metric("entries_per_s", stats.entries_per_s, "1/s");
    report.metric("rtt_p50_us", stats.rtt_p50_us, "us");
    report.metric("recover_ms", min_secs(&recovers) * 1e3, "ms");
    report.metric("train_cold_s", min_secs(&cold.samples), "s");
    report.metric("train_warm_s", min_secs(&warm.samples), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.tally = tally;
    Ok(report)
}

/// Serves a started stage untraced and keeps its timed windows.
fn serve_untraced(ctx: &Ctx, stage: Stage, samples: &mut Samples) -> Finished {
    let mut hooks: Vec<NoTrace> = stage
        .plan
        .traffic()
        .scripts
        .iter()
        .map(|_| NoTrace)
        .collect();
    let finished = serve(ctx, stage, &mut hooks);
    samples
        .windows
        .extend(finished.served.outcome.windows.iter().cloned());
    finished
}

/// Books a round's cold and warm training; every round must train the
/// engines the first round trained.
#[allow(clippy::too_many_arguments)]
fn book_training(
    samples: &mut Samples,
    cold: cs2p_core::PredictionEngine,
    cold_summary: cs2p_core::TrainSummary,
    cold_took: Duration,
    warm: cs2p_core::PredictionEngine,
    warm_summary: cs2p_core::TrainSummary,
    warm_took: Duration,
    tally: &mut Tally,
) {
    samples.cold = Some(Trained::push(
        samples.cold.take(),
        "train_cold",
        cold,
        cold_summary,
        cold_took,
        tally,
    ));
    samples.warm = Some(Trained::push(
        samples.warm.take(),
        "train_warm",
        warm,
        warm_summary,
        warm_took,
        tally,
    ));
}

/// One round of `predict_single`, `predict_batch64_wal` or `session_churn`.
fn serving_round(
    ctx: &Ctx,
    scale: &Scale,
    workload: Workload,
    round: usize,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let spec = &ctx.spec;

    // Set-up, from scratch.
    let (ground, synth) = Ground::synth(ctx);
    let (cold, summary, trained) = cold_once(ctx, &ground.world);
    let stage = Stage::start(
        ctx,
        scale,
        workload,
        cold.clone(),
        &ground.sources,
        &round.to_string(),
    )?;
    samples.setups.push(synth + trained + stage.elapsed);

    // Serve and verify.
    let finished = serve_untraced(ctx, stage, samples);
    let mut reference = finished.plan.reference(&cold, &ground.sources, spec);
    verify_served(ctx, &finished, &mut reference, tally);

    // Recover: the directory this round wrote, or a seeded one.
    let recoverable = match (&finished.dir, &finished.plan, reference) {
        (Some(dir), Plan::Slots { slots, traffic }, Reference::Slots(expect)) => Recoverable {
            dir: dir.clone(),
            slots: slots.clone(),
            replays: expect.replays,
            snapshot_every: snapshot_every(spec, traffic),
        },
        _ => Recoverable::seed(ctx, &cold, &ground.sources, tally)?,
    };
    samples.recovers.extend(recover_phase(
        ctx,
        &recoverable,
        &cold,
        &ground.sources,
        tally,
    )?);
    std::fs::remove_dir_all(&recoverable.dir)?;
    let recovered = recoverable.slots.len();
    drop(recoverable);

    // Refresh.
    let (warm, warm_summary, retrained) = warm_once(ctx, &ground.world, &cold);
    samples.info = vec![
        ("train_sessions_day0", ground.world.day0.len().to_string()),
        ("train_sessions_day1", ground.world.day1.len().to_string()),
        ("recovered_sessions", recovered.to_string()),
    ];
    drop(finished);
    book_training(
        samples,
        cold,
        summary,
        trained,
        warm,
        warm_summary,
        retrained,
        tally,
    );
    Ok(())
}

/// One round of `train_refresh`: cold train, bundle round trip, warm
/// retrain — and, for the serving and recovery metrics every run prints,
/// a short `predict_single`-shaped tail served from the round-tripped warm
/// engine and checked against the in-memory one.
fn train_refresh_round(
    ctx: &Ctx,
    scale: &Scale,
    round: usize,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let spec = &ctx.spec;
    let mut ground = None;
    for _ in 0..ctx
        .scale
        .reps(spec.rounds.world_setups_per_round_train_refresh)
    {
        let (g, synth) = Ground::synth(ctx);
        samples.setups.push(synth);
        ground = Some(g);
    }
    let ground = ground.expect("at least one set-up");

    let (cold, summary, trained) = cold_once(ctx, &ground.world);
    let (_, bundle_bytes) = bundle_round_trip(&cold, tally);
    let (warm, warm_summary, retrained) = warm_once(ctx, &ground.world, &cold);

    {
        let recoverable = Recoverable::seed(ctx, &warm, &ground.sources, tally)?;
        samples.recovers.extend(recover_phase(
            ctx,
            &recoverable,
            &warm,
            &ground.sources,
            tally,
        )?);
        std::fs::remove_dir_all(&recoverable.dir)?;

        let (served_engine, _) = bundle_round_trip(&warm, tally);
        let stage = Stage::start(
            ctx,
            scale,
            Workload::TrainRefresh,
            served_engine,
            &ground.sources,
            &round.to_string(),
        )?;
        let finished = serve_untraced(ctx, stage, samples);
        let mut reference = finished.plan.reference(&warm, &ground.sources, spec);
        verify_served(ctx, &finished, &mut reference, tally);

        samples.info = vec![
            ("train_sessions_day0", ground.world.day0.len().to_string()),
            ("train_sessions_day1", ground.world.day1.len().to_string()),
            ("model_io.bundle_bytes", bundle_bytes.to_string()),
            ("train.warm_started", warm_summary.warm_started.to_string()),
            ("recovered_sessions", recoverable.slots.len().to_string()),
        ];
    }
    book_training(
        samples,
        cold,
        summary,
        trained,
        warm,
        warm_summary,
        retrained,
        tally,
    );
    Ok(())
}
