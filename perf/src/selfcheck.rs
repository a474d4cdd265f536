//! Verify the verifier: each injected error must turn `correct` false and
//! raise `failed`, and the traffic must follow the seed and nothing else.
//!
//! Runs at smoke size against a real server. The injected errors:
//! one flipped bit in one reference prediction (once where responses are
//! decoded, once where they are only folded, once in set-up), one entry
//! answered from the wrong session (likewise), and one WAL record dropped
//! before recovery — a registration: a dropped measurement update is only
//! an error where it changes what the session predicts next, and a filter
//! whose posterior has collapsed onto one state forgets it.

use crate::check::Tally;
use crate::load::NoTrace;
use crate::phases::{
    cold_once, recover_phase, serve, verify_served, Ctx, Finished, Ground, Plan, Recoverable,
    Reference, Stage,
};
use crate::spec::Workload;
use cs2p_net::persist::{crc32, read_wal};
use std::io;
use std::path::{Path, PathBuf};

pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

fn check(name: &str, passed: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        passed,
        detail,
    }
}

/// An injected error is caught when the tally turns incorrect.
fn caught(name: &str, tally: &Tally) -> Check {
    check(
        name,
        !tally.correct() && tally.failed > 0,
        format!("failed {} of {}", tally.failed, tally.attempted),
    )
}

/// Rewrites the newest non-empty WAL segment of `dir` without its
/// `drop`-th record.
fn drop_wal_record(dir: &Path, drop: usize) -> io::Result<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    for path in segments.into_iter().rev() {
        let replay = read_wal(&path)?;
        if replay.records.len() > drop {
            let mut bytes = Vec::new();
            for (i, payload) in replay.records.iter().enumerate() {
                if i != drop {
                    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
                    bytes.extend_from_slice(payload);
                }
            }
            std::fs::write(&path, bytes)?;
            return Ok(path);
        }
    }
    Err(io::Error::other("no WAL segment holds enough records"))
}

/// The verdict on `finished` with `tamper` applied to the reference.
fn verdict(
    ctx: &Ctx,
    finished: &Finished,
    ground: &Ground,
    engine: &cs2p_core::PredictionEngine,
    tamper: impl FnOnce(&mut Reference<'_>),
) -> Tally {
    let mut tally = Tally::default();
    let mut reference = finished.plan.reference(engine, &ground.sources, &ctx.spec);
    tamper(&mut reference);
    verify_served(ctx, finished, &mut reference, &mut tally);
    tally
}

fn flip(reference: &mut Reference<'_>, slot: usize, step: usize) {
    let Reference::Slots(expect) = reference else {
        unreachable!("predict_single is slot traffic")
    };
    expect.replays[slot].flip_at = Some(step);
}

pub fn run(ctx: &Ctx) -> io::Result<Vec<Check>> {
    let spec = &ctx.spec;
    let mut checks = Vec::new();

    // Seed determinism, on every traffic shape.
    let (ground, _) = Ground::synth(ctx);
    let other_sources = ground.world.sources(spec.ring_epochs, ctx.seed + 1);
    for workload in Workload::ALL {
        let print = |sources| {
            Plan::build(spec, &ctx.scale, workload, sources)
                .traffic()
                .fingerprint()
        };
        let (a, again, b) = (
            print(&ground.sources),
            print(&ground.sources),
            print(&other_sources),
        );
        checks.push(check(
            &format!("{}: one seed, one traffic", workload.name()),
            a == again,
            format!("{a:016x} twice"),
        ));
        checks.push(check(
            &format!("{}: another seed, another traffic", workload.name()),
            a != b,
            format!("{a:016x} vs {b:016x}"),
        ));
    }

    // One real pass of predict_single, verified many ways.
    let (engine, _, _) = cold_once(ctx, &ground.world);
    let stage = Stage::start(
        ctx,
        &ctx.scale,
        Workload::PredictSingle,
        engine.clone(),
        &ground.sources,
        "selfcheck",
    )?;
    let mut finished = serve(ctx, stage, &mut [NoTrace]);
    let clean = verdict(ctx, &finished, &ground, &engine, |_| {});
    checks.push(check(
        "an untampered run is correct",
        clean.correct(),
        format!("failed {} of {}", clean.failed, clean.attempted),
    ));

    // At smoke size every slot is visited at most once, in slot order:
    // request k of the script is slot k's first measurement (step 1).
    let script = &finished.plan.traffic().scripts[0];
    let warm_slot = script.window(0)[3].unit as usize;
    let timed_slot = script.window(ctx.scale.warmup_windows)[3].unit as usize;
    for (name, slot, step) in [
        ("a flipped reference bit in set-up is caught", warm_slot, 0),
        (
            "a flipped reference bit in a warm-up window is caught",
            warm_slot,
            1,
        ),
        (
            "a flipped reference bit in a timed window is caught",
            timed_slot,
            1,
        ),
    ] {
        let tally = verdict(ctx, &finished, &ground, &engine, |r| flip(r, slot, step));
        checks.push(caught(name, &tally));
    }

    // An entry answered from the wrong session: two warm-up responses
    // trade places; then two timed folds do.
    let other = (3..script.window(0).len())
        .find(|&i| finished.served.outcome.kept[0][i].1 != finished.served.outcome.kept[0][3].1)
        .expect("two sessions answer differently");
    finished.served.outcome.kept[0].swap(3, other);
    checks.push(caught(
        "a warm-up entry answered from the wrong session is caught",
        &verdict(ctx, &finished, &ground, &engine, |_| {}),
    ));
    finished.served.outcome.kept[0].swap(3, other);
    let folds = &mut finished.served.outcome.folds;
    let other = (0..folds.len())
        .find(|&u| u != timed_slot && folds[u] != folds[timed_slot])
        .expect("two sessions fold differently");
    folds.swap(timed_slot, other);
    checks.push(caught(
        "a timed entry answered from the wrong session is caught",
        &verdict(ctx, &finished, &ground, &engine, |_| {}),
    ));

    // Recovery: clean first, then with one WAL record dropped.
    let mut tally = Tally::default();
    let recoverable = Recoverable::seed(ctx, &engine, &ground.sources, &mut tally)?;
    recover_phase(ctx, &recoverable, &engine, &ground.sources, &mut tally)?;
    checks.push(check(
        "an untampered recovery is correct",
        tally.correct(),
        format!("failed {} of {}", tally.failed, tally.attempted),
    ));
    let segment = drop_wal_record(&recoverable.dir, 7)?;
    let mut tally = Tally::default();
    recover_phase(ctx, &recoverable, &engine, &ground.sources, &mut tally)?;
    let mut dropped = caught("a WAL record dropped before recovery is caught", &tally);
    dropped.detail += &format!(" ({})", segment.display());
    checks.push(dropped);

    Ok(checks)
}
