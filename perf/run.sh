#!/usr/bin/env bash
# Builds perf/ in release and runs one workload in a fresh pinned process.
#
#   perf/run.sh <workload> [--seed N]     gated run: end-to-end metrics
#   perf/run.sh all [--seed N]            the four workloads in order
#   perf/run.sh layers <workload>         traced run: per-layer metrics,
#                                         spans in perf/out/trace_<workload>.jsonl
#   perf/run.sh selfcheck                 the verifier catches injected errors
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         the benchmark driver's form
#
# Every form prints each metric as `name value unit` and ends with the
# one-line result {"correct", "attempted", "failed", "metrics"}.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
workloads=(predict_single predict_batch64_wal session_churn train_refresh)

# Cargo's own progress goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

gated() { "$target/release/perf-run" "$@"; }
traced() { "$target/release/perf-layers" "$@"; }

case "${1:-}" in
  "")
    sed -n '2,12p' "${BASH_SOURCE[0]}" >&2
    exit 2
    ;;
  --*)
    # Driver form: --trace picks the binary, both take the same arguments.
    trace=0
    args=("$@")
    for ((i = 0; i < ${#args[@]}; i++)); do
      if [[ "${args[i]}" == "--trace" ]]; then trace="${args[i + 1]:-0}"; fi
    done
    if [[ "$trace" == "1" ]]; then traced "$@"; else gated "$@"; fi
    ;;
  all)
    shift
    for w in "${workloads[@]}"; do gated --workload "$w" "$@"; done
    ;;
  layers)
    w="${2:?usage: perf/run.sh layers <workload>}"
    shift 2
    traced --workload "$w" "$@"
    ;;
  selfcheck)
    shift
    "$target/release/perf-selfcheck" "$@"
    ;;
  *)
    w="$1"
    shift
    gated --workload "$w" "$@"
    ;;
esac
