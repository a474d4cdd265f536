//! The traced run: `perf-layers --workload <name> [--seed N] [--seconds S]`.

use cs2p_perf::cli::{main_of, Args};
use cs2p_perf::layers;

fn main() {
    main_of("perf-layers", Args::traced_scale, layers::run)
}
