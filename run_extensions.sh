#!/bin/bash
set -u
cd "$(dirname "$0")"
BIN="cargo run -q -p lrgcn-bench --release --bin"
run() { echo "=== $* ==="; local name=$1; shift; $BIN $name -- "$@" > results/$name${SUFFIX:-}.txt 2>&1; echo "--- $name done ($(date +%T))"; }
run exp_fig3
run exp_analysis
run exp_beyond
run exp_residual
run exp_ssl --datasets games
run exp_khop
echo ALL_EXTENSIONS_DONE
