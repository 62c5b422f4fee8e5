#!/usr/bin/env bash
# A/A: run the benchmark twice on this commit and hold the two against
# each other and against the bounds in BENCHMARK.json, the way the driver
# does. Called from the root of a checkout.
#
#   crates/benchmark/aa.sh [--seconds S]
#
# Each set is ten runs of every workload, every run on its own
# seed; the second set visits the workloads in reverse order. Prints both
# medians, both quartile spreads and pass/fail per (metric, workload).

set -euo pipefail

# shellcheck source=build.sh
source "$(dirname "$0")/build.sh"
exec "$TBON_BENCH_EXE" aa "$@"
