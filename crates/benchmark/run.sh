#!/usr/bin/env bash
# Build the benchmark and run it. Called from the root of a checkout.
#
#   crates/benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload, end to end and per layer, one OS process each
#   crates/benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is its JSON result
#
# Builds with plain `cargo build --release -p tbon-benchmark`, and when
# there is no registry to fetch the workspace's dependencies from, with
# dev/offline-check.sh (the std-only stubs). Which one worked is printed
# as `channel_impl` next to every number.

set -euo pipefail

# shellcheck source=build.sh
source "$(dirname "$0")/build.sh"
exec "$TBON_BENCH_EXE" "$@"
