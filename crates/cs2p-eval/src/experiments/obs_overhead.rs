//! `obs-overhead`: what `cs2p-obs` instrumentation costs when it is off,
//! on, and on with a sink.
//!
//! Times Baum–Welch EM (the most telemetry-dense code in the workspace:
//! one event per iteration plus run counters) in three states of the
//! global registry:
//!
//! 1. disabled — every obs call returns after one relaxed atomic load
//!    (the default for library users);
//! 2. enabled, no sink — metrics tables updated, no sink attached;
//! 3. enabled, memory sink — full record dispatch into a `MemorySink`
//!    (the `--metrics` configuration, minus the file write).
//!
//! Then `quantile_observe` (the streaming p50/p90/p99 sketch behind
//! `/ops` and the quality monitor) per 1024 values: the raw sketch as the
//! floor, then the named-registry path disabled and enabled.
//!
//! The run owns the global registry: it sets the enabled flag itself and
//! leaves the registry disabled with no sinks, so it is run without
//! `--metrics`. Nothing here times a live server: serving cost is
//! `perf/`'s job.

use crate::runner::median_per_iter;
use cs2p_ml::hmm::{train, TrainConfig};
use cs2p_obs::{quantile_observe, MemorySink, QuantileSketch, Registry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// EM samples per registry state.
const EM_SAMPLES: usize = 15;
/// Batches per quantile-sketch row.
const SKETCH_SAMPLES: usize = 10;

fn training_set() -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    (0..24)
        .map(|_| {
            let mut state = 0usize;
            (0..50)
                .map(|_| {
                    if rng.gen::<f64>() < 0.08 {
                        state = 1 - state;
                    }
                    let base = if state == 0 { 1.2 } else { 4.8 };
                    base + rng.gen_range(-0.3..0.3)
                })
                .collect()
        })
        .collect()
}

/// Runs both tables and renders their six rows.
pub fn obs_overhead() -> String {
    let registry = Registry::global();
    let sequences = training_set();
    let cfg = TrainConfig {
        n_states: 3,
        max_iters: 15,
        tol: 0.0, // run the full cap so every variant does identical work
        ..Default::default()
    };
    let em = || train(black_box(&sequences), &cfg);

    registry.set_enabled(false);
    let base = median_per_iter(EM_SAMPLES, em);
    registry.set_enabled(true);
    let no_sink = median_per_iter(EM_SAMPLES, em);
    let sink = Arc::new(MemorySink::new());
    registry.add_sink(sink.clone());
    let with_sink = median_per_iter(EM_SAMPLES, || {
        sink.clear();
        em()
    });
    registry.clear_sinks();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let pct = |d: Duration| (d.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[obs-overhead] EM training, median of {EM_SAMPLES} samples:"
    );
    let _ = writeln!(
        out,
        "  disabled            {:>10.3} ms (baseline)",
        ms(base)
    );
    for (label, d) in [
        ("enabled, no sink ", no_sink),
        ("enabled, mem sink", with_sink),
    ] {
        let _ = writeln!(out, "  {label}   {:>10.3} ms ({:+.1}%)", ms(d), pct(d));
    }

    let values: Vec<f64> = {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        (0..1024).map(|_| rng.gen_range(0.01..500.0)).collect()
    };
    let raw = median_per_iter(SKETCH_SAMPLES, || {
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.observe(black_box(v));
        }
        sketch.snapshot()
    });
    let named = |on: bool| {
        registry.set_enabled(on);
        median_per_iter(SKETCH_SAMPLES, || {
            for &v in &values {
                quantile_observe("bench.quantile", black_box(v));
            }
        })
    };
    let (disabled, enabled) = (named(false), named(true));
    registry.set_enabled(false);

    let _ = writeln!(
        out,
        "[obs-overhead] quantile_observe, 1024 values per call:"
    );
    for (label, d) in [
        ("raw sketch       ", raw),
        ("registry disabled", disabled),
        ("registry enabled ", enabled),
    ] {
        let _ = writeln!(out, "  {label}   {:>10.3} µs", d.as_secs_f64() * 1e6);
    }
    out
}
