#!/usr/bin/env bash
# Is the benchmark steady?
#   benchmark/repeat.sh N        two sets of N runs per workload, alternating,
#                                run i of both sets on seed i; prints each
#                                end-to-end metric's two medians, spreads and
#                                gap against its bound; fails when a gap or a
#                                spread exceeds the bound
#   benchmark/repeat.sh --quick  one short run per workload on small presets
#                                (and one traced), no bounds: a smoke test
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
workloads=(train_yelp serve_wire serve_scan stream_mixed)

if [[ "${1:-}" == "--quick" ]]; then
    for w in "${workloads[@]}"; do
        benchmark/run.sh --workload "$w" --seed 1 --seconds 1.2 --quick | tail -n 1
    done
    benchmark/run.sh --workload stream_mixed --seed 1 --seconds 1.2 --quick --trace 1 | tail -n 1
    exit 0
fi

n="${1:?usage: benchmark/repeat.sh N | --quick}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
out="target/benchmark/repeat"
rm -rf "$out"
mkdir -p "$out"
for ((i = 1; i <= n; i++)); do
    for w in "${workloads[@]}"; do
        for set in a b; do
            echo "run $i/$n  set $set  $w" >&2
            benchmark/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
                | tail -n 1 >>"$out/$set-$w.jsonl"
        done
    done
done
exec benchmark/run.sh --compare "$out"
