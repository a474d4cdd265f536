//! Instrumentation overhead of `cs2p-obs` on the training hot path.
//!
//! Times Baum–Welch EM (the most telemetry-dense code in the workspace:
//! one event per iteration plus run counters) in three registry states:
//!
//! 1. `disabled` — the global registry off, every obs call returning
//!    after one relaxed atomic load (the default for library users);
//! 2. `enabled-no-sink` — metrics tables updated, no sink attached;
//! 3. `enabled-memory-sink` — full record dispatch into a `MemorySink`
//!    (the `--metrics` configuration, minus the file write).
//!
//! OBSERVABILITY.md documents the headline number: `disabled` must stay
//! within 5% of a build with no observer attached at all — which is the
//! same thing, since the registry starts disabled.
//!
//! A second group, `quantile-sketch`, times `quantile_observe` (the
//! streaming p50/p90/p99 sketch behind `/ops` and the quality monitor)
//! in each registry state. Nothing here times a live server: serving
//! cost is `perf/`'s job.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cs2p_ml::hmm::{train, TrainConfig};
use cs2p_obs::{quantile_observe, MemorySink, QuantileSketch, Registry};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

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

fn config() -> TrainConfig {
    TrainConfig {
        n_states: 3,
        max_iters: 15,
        tol: 0.0, // run the full cap so every variant does identical work
        ..Default::default()
    }
}

/// Median wall time of `reps` training runs, in nanoseconds.
fn median_train_nanos(sequences: &[Vec<f64>], cfg: &TrainConfig, reps: usize) -> u128 {
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(train(black_box(sequences), cfg));
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn obs_overhead(c: &mut Criterion) {
    let sequences = training_set();
    let cfg = config();
    let registry = Registry::global();

    let mut group = c.benchmark_group("train-em-obs");
    group.sample_size(10);

    registry.set_enabled(false);
    group.bench_function("disabled", |b| {
        b.iter(|| train(black_box(&sequences), &cfg))
    });

    registry.set_enabled(true);
    group.bench_function("enabled-no-sink", |b| {
        b.iter(|| train(black_box(&sequences), &cfg))
    });

    let sink = Arc::new(MemorySink::new());
    registry.add_sink(sink.clone());
    group.bench_function("enabled-memory-sink", |b| {
        b.iter(|| {
            sink.clear();
            train(black_box(&sequences), &cfg)
        })
    });
    registry.clear_sinks();
    group.finish();

    // Headline numbers for OBSERVABILITY.md: overhead relative to disabled.
    const REPS: usize = 15;
    registry.set_enabled(false);
    let base = median_train_nanos(&sequences, &cfg, REPS);
    registry.set_enabled(true);
    let no_sink = median_train_nanos(&sequences, &cfg, REPS);
    let sink = Arc::new(MemorySink::new());
    registry.add_sink(sink.clone());
    let with_sink = median_train_nanos(&sequences, &cfg, REPS);
    registry.clear_sinks();
    registry.set_enabled(false);

    let pct = |t: u128| (t as f64 / base as f64 - 1.0) * 100.0;
    println!("[obs-overhead] EM training, median of {REPS} runs:");
    println!(
        "  disabled            {:>10.3} ms (baseline)",
        base as f64 / 1e6
    );
    println!(
        "  enabled, no sink    {:>10.3} ms ({:+.1}%)",
        no_sink as f64 / 1e6,
        pct(no_sink)
    );
    println!(
        "  enabled, mem sink   {:>10.3} ms ({:+.1}%)",
        with_sink as f64 / 1e6,
        pct(with_sink)
    );
}

/// `quantile_observe` per call: the raw sketch as the floor, then the
/// named-registry path disabled (one atomic load) and enabled (lock +
/// bucket increment).
fn quantile_sketch(c: &mut Criterion) {
    let registry = Registry::global();
    let values: Vec<f64> = {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        (0..1024).map(|_| rng.gen_range(0.01..500.0)).collect()
    };

    let mut group = c.benchmark_group("quantile-sketch");
    group.bench_function("raw-sketch-1024", |b| {
        b.iter(|| {
            let mut sketch = QuantileSketch::new();
            for &v in &values {
                sketch.observe(black_box(v));
            }
            black_box(sketch.snapshot())
        })
    });
    registry.set_enabled(false);
    group.bench_function("registry-disabled-1024", |b| {
        b.iter(|| {
            for &v in &values {
                quantile_observe("bench.quantile", black_box(v));
            }
        })
    });
    registry.set_enabled(true);
    group.bench_function("registry-enabled-1024", |b| {
        b.iter(|| {
            for &v in &values {
                quantile_observe("bench.quantile", black_box(v));
            }
        })
    });
    registry.set_enabled(false);
    group.finish();
}

criterion_group!(obs_overhead_group, obs_overhead, quantile_sketch);
criterion_main!(obs_overhead_group);
