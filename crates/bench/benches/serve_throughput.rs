//! Serving throughput of the sharded worker-pool server.
//!
//! Drives it with the testkit's deterministic closed-loop load generator
//! at 1, 8, and 64 concurrent clients, then prints a headline
//! requests/second table and runs an overload scenario (1 worker, 1-deep
//! queue, 16 clients) that must shed load with 503s — never panic,
//! deadlock, or drop a request unaccounted.

use criterion::{criterion_group, criterion_main, Criterion};
use cs2p_net::{serve_with, ServeConfig};
use cs2p_testkit::loadgen::{run_load, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use std::net::SocketAddr;
use std::time::Instant;

const CLIENT_COUNTS: [usize; 3] = [1, 8, 64];

fn workload(n_clients: usize) -> LoadConfig {
    LoadConfig {
        n_clients,
        // One session per client keeps per-connection request streams
        // independent; 4 epochs exercises the keep-alive path.
        n_sessions: n_clients.max(4),
        epochs_per_session: 4,
        horizon: 2,
        seed: 97,
        max_gap_us: 0,
        session_id_base: 50_000,
        trace_seed: None,
        batch: None,
    }
}

fn sharded_config() -> ServeConfig {
    ServeConfig {
        n_workers: 8,
        n_shards: 8,
        queue_depth: 1024,
        max_connections: 4096,
        ..ServeConfig::default()
    }
}

fn run_and_check(addr: SocketAddr, config: &LoadConfig) {
    let report = run_load(addr, config);
    assert_eq!(
        report.ok,
        config.total_requests(),
        "bench workload must not shed load (rejected {}, errors {})",
        report.rejected,
        report.errors
    );
}

fn serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve-throughput");
    group.sample_size(10);

    for &n_clients in &CLIENT_COUNTS {
        let config = workload(n_clients);

        let sharded = serve_with(tiny_engine(), "127.0.0.1:0", sharded_config()).unwrap();
        group.bench_function(&format!("sharded/{n_clients}"), |b| {
            b.iter(|| run_and_check(sharded.addr(), &config))
        });
        sharded.shutdown();
    }
    group.finish();

    headline_table();
    overload_scenario();
}

/// One-shot rps table, printed for DESIGN.md / eval cross-checks.
fn headline_table() {
    println!("[serve-throughput] closed-loop requests/second (one-shot):");
    println!("  clients     sharded");
    for &n_clients in &CLIENT_COUNTS {
        let config = workload(n_clients);
        let sharded = serve_with(tiny_engine(), "127.0.0.1:0", sharded_config()).unwrap();
        let sharded_rps = measure_rps(sharded.addr(), &config);
        sharded.shutdown();
        println!("  {:>7} {:>11.0}", n_clients, sharded_rps);
    }
}

fn measure_rps(addr: SocketAddr, config: &LoadConfig) -> f64 {
    // Warm up connections and session state once.
    run_and_check(addr, config);
    let start = Instant::now();
    run_and_check(addr, config);
    config.total_requests() as f64 / start.elapsed().as_secs_f64()
}

/// Overload must degrade with 503s, never a panic, deadlock, or silent
/// drop — the bench doubles as a smoke test for the backpressure path.
fn overload_scenario() {
    let server = serve_with(
        tiny_engine(),
        "127.0.0.1:0",
        ServeConfig {
            n_workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = run_load(server.addr(), &workload(16));
    assert_eq!(
        report.ok + report.rejected + report.reinit + report.errors,
        report.sent
    );
    assert!(report.ok > 0, "overloaded server made no progress");
    let stats = server.shutdown();
    println!(
        "[serve-throughput] overload: {} ok, {} rejected (503), {} errors; server rejected {}",
        report.ok, report.rejected, report.errors, stats.rejected
    );
}

criterion_group!(serve_throughput_group, serve_throughput);
criterion_main!(serve_throughput_group);
