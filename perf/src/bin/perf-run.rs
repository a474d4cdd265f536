//! The gated run: `perf-run --workload <name> [--seed N] [--seconds S]`.

use cs2p_perf::cli::{main_of, Args};
use cs2p_perf::gated;

fn main() {
    main_of("perf-run", Args::gated_scale, |ctx, workload, _| {
        gated::run(ctx, workload)
    })
}
