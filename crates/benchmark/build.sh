# Sourced by run.sh and aa.sh: builds tbon-benchmark, exports what the
# binary prints in its environment block, and sets TBON_BENCH_EXE.

if [ ! -f Cargo.toml ] || [ ! -d crates/core ]; then
  echo "run this from the root of a checkout of the repository" >&2
  exit 2
fi

# The real dependencies when a registry (or a filled cargo cache) is
# there, the std-only stubs when not; tried in that order on every call,
# so the numbers never depend on what an earlier call found. Without
# retries the plain build gives up on a missing registry at once.
if CARGO_NET_RETRY=0 cargo build --release -p tbon-benchmark >&2; then
  TBON_BENCH_CHANNEL_IMPL=real
else
  echo "plain cargo build failed; building with dev/offline-check.sh (stub dependencies)" >&2
  dev/offline-check.sh build --release -p tbon-benchmark >&2
  TBON_BENCH_CHANNEL_IMPL=stub
fi

# glibc caps malloc arenas at 8 per core and hands the overlay's threads
# (22 to 100 on 2 cores) whichever are free, so which threads contend on
# an arena lock changes from launch to launch: stream_small_local then
# reads anything from 31k to 46k waves/s on unchanged code. One arena per
# thread takes that lottery out of every number (README, "Findings").
export MALLOC_ARENA_MAX=256

TBON_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
TBON_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo 'unknown (not a git checkout)')"
export TBON_BENCH_CHANNEL_IMPL TBON_BENCH_RUSTC TBON_BENCH_COMMIT
TBON_BENCH_EXE="${CARGO_TARGET_DIR:-target}/release/tbon-benchmark"
