#!/bin/bash
# Regenerates every table/figure of the paper into results/.
set -u
cd "$(dirname "$0")"
BIN="cargo run -q -p lrgcn-bench --release --bin"
run() { echo "=== $* ==="; local name=$1; shift; $BIN $name -- "$@" > results/$name${SUFFIX:-}.txt 2>&1; echo "--- $name done ($(date +%T))"; }
run exp_table1
run exp_fig4
run exp_fig1
run exp_fig5
run exp_table3
run exp_fig3
SUFFIX=_curves run exp_fig3 --curves
run exp_table4
run exp_table5
run exp_fig6
run exp_fig7
run exp_table2 --tseeds 5 --datasets mooc --models light,ultra,layer
SUFFIX=_full run exp_table2
echo ALL_EXPERIMENTS_DONE
