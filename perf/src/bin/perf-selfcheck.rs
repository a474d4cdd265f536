//! `perf-selfcheck [--seed N]`: the verifier must catch every injected error.

use cs2p_perf::phases::Ctx;
use cs2p_perf::spec::{Scale, Spec};
use cs2p_perf::{pin, selfcheck};

fn main() {
    let spec = Spec::load();
    let mut args = std::env::args().skip(1);
    let seed = match (args.next().as_deref(), args.next()) {
        (None, _) => spec.default_seed,
        (Some("--seed"), Some(n)) => n.parse().unwrap_or_else(|e| {
            eprintln!("perf-selfcheck: --seed: {e}");
            std::process::exit(2);
        }),
        _ => {
            eprintln!("usage: perf-selfcheck [--seed N]");
            std::process::exit(2);
        }
    };
    pin::steady_allocator();
    if let Err(e) = pin::pin_to_current_cpu() {
        eprintln!("perf-selfcheck: cannot pin to one CPU ({e})");
        std::process::exit(3);
    }
    let scale = Scale::smoke(&spec);
    let checks = Ctx::new(spec, seed, scale)
        .and_then(|ctx| selfcheck::run(&ctx))
        .unwrap_or_else(|e| {
            eprintln!("perf-selfcheck: {e}");
            std::process::exit(4);
        });
    for c in &checks {
        println!(
            "{} {} ({})",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let failed = checks.iter().filter(|c| !c.passed).count();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        failed == 0,
        checks.len(),
        failed
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
