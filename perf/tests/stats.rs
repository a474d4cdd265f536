//! Window statistics on hand-built inputs.

use cs2p_perf::load::{median_f64, quantile_sorted, ConnWindow, PhaseStats, WindowStat};

fn window(start_ns: u64, end_ns: u64, rtt_ns: Vec<u32>) -> ConnWindow {
    ConnWindow {
        in_send_ns: rtt_ns.iter().map(|&r| r as u64).sum(),
        log_send_ns: 0,
        rtt_ns,
        start_ns,
        end_ns,
    }
}

#[test]
fn nearest_rank_quantiles() {
    let sample: Vec<u32> = (1..=100).collect();
    assert_eq!(quantile_sorted(&sample, 0.50), 50);
    assert_eq!(quantile_sorted(&sample, 0.99), 99);
    assert_eq!(quantile_sorted(&sample, 1.0), 100);
    assert_eq!(quantile_sorted(&[7], 0.99), 7);
    // Two hundred samples put two beyond the p99.
    let sample: Vec<u32> = (1..=200).collect();
    assert_eq!(quantile_sorted(&sample, 0.99), 198);
}

#[test]
fn medians() {
    assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn a_window_spans_its_connections() {
    // Two connections: the window runs from the first start to the last end.
    let a = window(1_000, 2_001_000, vec![100, 300, 200]);
    let b = window(2_000, 2_501_000, vec![500, 400]);
    let stat = WindowStat::from_conns(&[&a, &b], 1_000);
    assert_eq!(stat.wall_ns, 2_500_000);
    assert_eq!(stat.samples, 5);
    assert_eq!(stat.rtt_p50_ns, 300);
    assert_eq!(stat.rtt_p99_ns, 500);
    assert_eq!(stat.entries_per_s(), 1_000.0 * 1e9 / 2_500_000.0);
    // 1500 ns inside send, of 2 connections x 2.5 ms.
    assert!((stat.generator_frac - (1.0 - 1_500.0 / 5_000_000.0)).abs() < 1e-12);
}

#[test]
fn a_rate_is_the_best_window_and_a_round_trip_the_lower_quartile_window() {
    let windows: Vec<WindowStat> = [
        // (wall, median rtt): a disturbed window, the fastest, three plain
        // ones, and one that fell into a rare quick interleaving.
        (2_000_000u64, 900u32),
        (1_000_000, 500),
        (1_250_000, 520),
        (1_250_000, 510),
        (1_250_000, 530),
        (1_100_000, 300),
        (1_250_000, 540),
        (1_250_000, 550),
    ]
    .into_iter()
    .map(|(wall, rtt)| {
        WindowStat::from_conns(&[&window(0, wall, vec![rtt, rtt, rtt + 10_000])], 100)
    })
    .collect();
    let stats = PhaseStats::from_windows(&windows);
    // max_window: 100 entries in 1 ms.
    assert_eq!(stats.entries_per_s, 100_000.0);
    assert_eq!(stats.best_window, 1);
    // p25_window_median: the second of eight sorted medians — neither the
    // 0.3 us outlier nor anything the disturbed window could move.
    assert_eq!(stats.rtt_p50_us, 0.5);
    // Median over windows of the window p99 (here the largest sample).
    assert!((stats.rtt_p99_us - 10.525).abs() < 1e-9);
    assert_eq!(stats.samples_per_window, 3);
}
