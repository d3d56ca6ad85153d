#!/usr/bin/env bash
# One run of one workload:
#   benchmark/run.sh --workload NAME --seed S [--seconds N] [--trace 0|1] [--quick]
# Builds the benchmark package (a no-op after the first time), then runs it
# from the repository root, where it keeps its outputs under target/benchmark/.
# The last line of standard output is the result object; the exit code is
# non-zero when the build or an output check failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark-build}"
# glibc's allocator, held where a long-running process ends up: blocks under
# 32 MiB come from the heap and the heap is never trimmed. Left to itself it
# moves both thresholds with the sizes the process happened to free so far,
# and an epoch then costs anything from 1x to 2x in page faults (README,
# noise sources). The default is in the layer table (tensor.matrix.*).
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lrgcn-benchmark" "$@"
