#!/usr/bin/env bash
# Repo verification gate:
#   1. tier-1: release build + root-package tests (the seed acceptance bar)
#   2. full workspace tests, swept at LRGCN_THREADS=1 and LRGCN_THREADS=8 —
#      kernels are contractually bitwise identical across thread counts, so
#      the golden-trajectory and determinism suites must pass at both; any
#      numeric divergence prints "numeric drift detected" and fails the grep;
#      this includes the generated-input property suites of lrgcn-eval and
#      lrgcn-data (fixed splitmix64 seeds)
#   3. clippy with warnings denied
#   4. observability smoke: a seeded 2-epoch CLI run with --log-json and
#      --trace must leave a parseable JSONL log and Chrome trace, and
#      `lrgcn report` / `report --diff` must render them (exit 0, non-empty)
#   5. serving smoke: train --save a checkpoint, start `lrgcn serve` on an
#      ephemeral port, query /healthz and /recs over /dev/tcp, then stop it
#      gracefully via POST /admin/shutdown
#   6. request-observability smoke: serve the same checkpoint with
#      --access-log and --slo-* armed, drive mixed /recs + /score traffic
#      over /dev/tcp, assert the /admin/obs 300s-window request count
#      equals the driven count exactly, and `lrgcn top --once` renders a
#      non-empty dashboard naming the driven routes
#   7. fault-injection smoke: train under LRGCN_FAULT=io_error:0.7 with
#      per-epoch checkpointing — the run must survive every injected save
#      failure (emitting `recovery` records, finishing with finite
#      metrics) and every surviving checkpoint generation must still be
#      loadable by `lrgcn evaluate --load`, plus a kill-mid-save + resume
#      round-trip
#   8. kernel sweep: the golden-trajectory suite, the tensor crate's
#      kernel_equality suite, the eval crate's tests (`topk_select`: the
#      packed-key top-K select vs a full sort, ±0.0 and subnormals at the
#      threshold, ties across chunk edges, k = n - 1 and n, a mostly-zero
#      50,000-item row, NaN refusal; parallel evaluation), the ego-table
#      model tests (`egogcn::`: the training live view's SpMM rows vs the
#      full graph's, one epoch on the view vs one over every row, and the
#      evaluation cache's live-view readout and scores vs the full chain's,
#      bit for bit), the fused
#      refinement op vs the composed row_cosine → add_scalar →
#      mul_row_broadcast chain on generated inputs, values and gradients bit
#      for bit (`refine_bitwise`), the exact matmul-cell count of a LayerGCN
#      evaluation (`eval_live_cells`) and every
#      serving-engine test (`engine::`: the zero-class suite's live-row
#      scan vs a full scan, ids and score bits, plus the standby, int8
#      and IVF engine tests) re-run under
#      every LRGCN_KERNEL={naive,blocked,simd} × LRGCN_THREADS={1,8} pair —
#      the cache-blocked and AVX2 kernels are contractually bitwise
#      identical to the naive reference, so any trajectory drift fails the
#      stage; the engine serves all-zero item rows as one `+0.0` class,
#      which holds only while every mode starts its chains at `+0.0`; and
#      the one read pipeline scores a full exact `/similar` scan with
#      `matmul_nt_block` but a probed or rescored candidate with `dot`,
#      so the IVF and int8 tests that compare the two need every mode
#   9. ANN smoke: train on the yelp-like preset, serve the same checkpoint
#      behind `--exact` and `--ann`, query both over /dev/tcp and fail if
#      the IVF read path's recall@20 against the exact scan drops below
#      0.95
#  10. streaming smoke: serve with `--events-log`, POST /events bursts over
#      /dev/tcp, kill -9 the server mid-stream, restart on the same log and
#      assert the recovered fold-in serves the same recommendations with
#      every acknowledged event intact; then a serve run under
#      LRGCN_FAULT=io_error where faulted appends 503 and only acked
#      events survive; finally `lrgcn retrain --follow` folds the log into
#      a new checkpoint generation and hot-reloads the live server
#  11. overload smoke: serve with a one-slot admission gate and the
#      brownout controller armed, saturate it with concurrent /dev/tcp
#      clients — sheds must be 503-with-Retry-After while goodput stays
#      nonzero, a malformed x-lrgcn-deadline-ms must answer 400, and the
#      degradation level must read 0 again after the burst
#  12. results drift gate: re-run the quick paper experiments (exp_table2,
#      exp_table3, exp_fig1, exp_fig5, exp_fig6, exp_residual, exp_ssl at
#      --scale 0.25 --epochs 5), strip the wall-clock "(N.Ns)" column and diff each
#      against its committed copy in results/quick/ — any byte of drift in
#      a table the paper reproduction prints fails the stage
#  13. the repo's benchmark (BENCHMARK.json): `benchmark/repeat.sh --quick`
#      builds the standalone package against the pinned surface and runs
#      all four workloads plus one traced run on small presets — each must
#      print `"correct": true` (served == offline parity, nothing lost) —
#      then the package's own unit tests
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

for threads in 1 8; do
    echo "==> workspace tests (LRGCN_THREADS=$threads)"
    out=$(LRGCN_THREADS=$threads cargo test --workspace -q 2>&1) || {
        echo "$out"
        echo "verify: workspace tests FAILED at LRGCN_THREADS=$threads"
        exit 1
    }
    if grep -qi "drift" <<<"$out"; then
        echo "$out"
        echo "verify: numeric drift reported at LRGCN_THREADS=$threads"
        exit 1
    fi
done

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> building the CLI for the smoke stages"
cargo build --release -q -p lrgcn-cli

echo "==> observability smoke: train --log-json --trace, then report"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
cargo run --release -q -p lrgcn-bench --bin make_fixture -- \
    --out "$smoke/interactions.tsv" --preset games --scale 0.1 --seed 13
./target/release/lrgcn train --input "$smoke/interactions.tsv" \
    --epochs 2 --seed 5 --log-json "$smoke/run.jsonl" --trace "$smoke/trace.json"
[[ -s "$smoke/run.jsonl" ]] || { echo "verify: --log-json wrote nothing"; exit 1; }
[[ -s "$smoke/trace.json" ]] || { echo "verify: --trace wrote nothing"; exit 1; }
rep=$(./target/release/lrgcn report "$smoke/run.jsonl")
[[ -n "$rep" ]] || { echo "verify: report produced no output"; exit 1; }
diffout=$(./target/release/lrgcn report --diff "$smoke/run.jsonl" "$smoke/run.jsonl")
[[ -n "$diffout" ]] || { echo "verify: report --diff produced no output"; exit 1; }
echo "observability smoke: OK"

echo "==> serving smoke: train --save, serve, query, graceful shutdown"
./target/release/lrgcn train --input "$smoke/interactions.tsv" \
    --epochs 2 --seed 5 --save "$smoke/model.ckpt"
./target/release/lrgcn serve "$smoke/model.ckpt" \
    --input "$smoke/interactions.tsv" --port 0 >"$smoke/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 50); do
    port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$smoke/serve.log")
    [[ -n "$port" ]] && break
    sleep 0.2
done
[[ -n "$port" ]] || { echo "verify: serve never reported its port"; cat "$smoke/serve.log"; exit 1; }
# The server keeps connections alive; these helpers frame by end of
# stream, so every one of them asks for `Connection: close`.
http_req() { # method path -> full response on stdout
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '%s %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\nContent-Length: 0\r\n\r\n' "$1" "$2" >&3
    cat <&3
    exec 3<&-
}
health=$(http_req GET /healthz)
grep -q '"status":"ok"' <<<"$health" || { echo "verify: /healthz not ok: $health"; exit 1; }
recs=$(http_req GET "/recs/0?k=5")
grep -q '"items":\[' <<<"$recs" || { echo "verify: /recs returned no items: $recs"; exit 1; }
metrics=$(http_req GET /metrics)
grep -q 'lrgcn_serve_http_requests_total' <<<"$metrics" || {
    echo "verify: /metrics missing serve counters"; exit 1; }
# Keep-alive: two requests over one descriptor, the second saying close so
# `cat` sees the end; both answers must come back, in order.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'GET /recs/0?k=5 HTTP/1.1\r\nHost: verify\r\n\r\n' >&3
printf 'GET /healthz HTTP/1.1\r\nHost: verify\r\nConnection: close\r\n\r\n' >&3
pair=$(cat <&3)
exec 3<&-
# Bodies end without a newline, so the second status line is mid-line.
[[ $(grep -o 'HTTP/1\.1 200' <<<"$pair" | wc -l) == 2 ]] || {
    echo "verify: two requests on one connection got: $pair"; exit 1; }
grep -q '"items":\[.*"status":"ok"' <<<"$(tr -d '\r\n' <<<"$pair")" || {
    echo "verify: keep-alive answers missing or out of order: $pair"; exit 1; }
http_req POST /admin/shutdown >/dev/null
wait "$serve_pid" || { echo "verify: serve exited non-zero"; exit 1; }
echo "serving smoke: OK"

echo "==> request-observability smoke: windowed counts + lrgcn top"
obsdir="$smoke/obs"
mkdir -p "$obsdir"
./target/release/lrgcn serve "$smoke/model.ckpt" \
    --input "$smoke/interactions.tsv" --port 0 \
    --access-log "$obsdir/access.jsonl" --slo-p99-ms 250 --slo-err-ppm 10000 \
    >"$obsdir/serve.log" 2>&1 &
obs_pid=$!
obs_port=""
for _ in $(seq 1 50); do
    obs_port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$obsdir/serve.log")
    [[ -n "$obs_port" ]] && break
    sleep 0.2
done
[[ -n "$obs_port" ]] || { echo "verify: obs smoke serve never reported its port"; cat "$obsdir/serve.log"; exit 1; }
obs_req() { # method path [body] -> full response on stdout
    local body="${3:-}"
    exec 5<>"/dev/tcp/127.0.0.1/$obs_port"
    printf '%s %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s' \
        "$1" "$2" "${#body}" "$body" >&5
    cat <&5
    exec 5<&-
}
driven=0
for u in $(seq 0 19); do
    obs_req GET "/recs/$u?k=5" >/dev/null
    driven=$((driven + 1))
done
for _ in $(seq 1 10); do
    obs_req POST /score '{"pairs": [[0, 1], [2, 3]]}' >/dev/null
    driven=$((driven + 1))
done
obs=$(obs_req GET /admin/obs)
# First "requests" after the "300s" key is that window's total (the routes
# sub-object sorts after it). Traffic above took well under 300s, so the
# window must hold exactly what was driven — the /admin/obs request itself
# is recorded only after its response is written.
w300=$(sed 's/.*"300s"://' <<<"$obs" | grep -o '"requests":[0-9]*' | head -1 | cut -d: -f2)
[[ "$w300" == "$driven" ]] || {
    echo "verify: /admin/obs 300s window counted ${w300:-nothing}, drove $driven"
    echo "$obs"; exit 1; }
grep -q '"score":' <<<"$obs" || { echo "verify: /admin/obs missing the score route"; echo "$obs"; exit 1; }
top_out=$(./target/release/lrgcn top "http://127.0.0.1:$obs_port" --once)
[[ -n "$top_out" ]] || { echo "verify: lrgcn top --once produced no output"; exit 1; }
grep -q "recs" <<<"$top_out" || { echo "verify: lrgcn top shows no recs route"; echo "$top_out"; exit 1; }
access_lines=$(wc -l <"$obsdir/access.jsonl")
(( access_lines >= driven )) || {
    echo "verify: access log has $access_lines lines for $driven requests"; exit 1; }
obs_req POST /admin/shutdown >/dev/null
wait "$obs_pid" || { echo "verify: obs smoke serve exited non-zero"; exit 1; }
echo "request-observability smoke: OK"

echo "==> fault-injection smoke: checkpointed train under LRGCN_FAULT"
fault="$smoke/fault"
mkdir -p "$fault"
# 70% of checkpoint saves fail with a torn write (pinned seed => replayable).
# The run must shrug every failure off and still finish.
LRGCN_FAULT="io_error:0.7" LRGCN_FAULT_SEED=7 \
    ./target/release/lrgcn train --input "$smoke/interactions.tsv" \
    --epochs 6 --seed 5 --checkpoint "$fault/ckpt" \
    --log-json "$fault/run.jsonl" \
    || { echo "verify: injected io_errors killed the training run"; exit 1; }
grep -q '"event":"recovery"' "$fault/run.jsonl" || {
    echo "verify: no recovery record despite io_error:0.7"; exit 1; }
if grep -q '"loss":null' "$fault/run.jsonl"; then
    echo "verify: non-finite loss in fault-injected run"; exit 1
fi
gens=$(ls "$fault"/ckpt.e* 2>/dev/null | grep -v '\.tmp$' || true)
[[ -n "$gens" ]] || { echo "verify: no checkpoint generation survived"; exit 1; }
for gen in $gens; do
    ./target/release/lrgcn evaluate --input "$smoke/interactions.tsv" \
        --load "$gen" --ks 10 --seed 5 >/dev/null \
        || { echo "verify: surviving generation $gen is not loadable"; exit 1; }
done
# Crash mid-way through the 2nd checkpoint write, then resume past the
# torn file from the newest valid generation.
rm -f "$fault"/ckpt.e* "$fault/run.jsonl"
if LRGCN_FAULT="kill:2" ./target/release/lrgcn train \
    --input "$smoke/interactions.tsv" --epochs 4 --seed 5 \
    --checkpoint "$fault/ckpt" --log-json "$fault/run.jsonl" 2>/dev/null; then
    echo "verify: kill:2 failed to kill the run"; exit 1
fi
./target/release/lrgcn train --input "$smoke/interactions.tsv" \
    --epochs 4 --seed 5 --resume "$fault/ckpt" --log-json "$fault/run.jsonl" \
    || { echo "verify: resume after mid-save kill failed"; exit 1; }
echo "fault-injection smoke: OK"

echo "==> kernel sweep: golden trajectory, kernel equality, fused refinement, eval (topk_select packed-key select, parallel_eval), ego-table models, serving engine under every kernel x thread pair"
for kernel in naive blocked simd; do
    for threads in 1 8; do
        for suite in "-p lrgcn-train --test golden_trajectory" \
            "-p lrgcn-tensor --test kernel_equality" "-p lrgcn-tensor --test refine_bitwise" \
            "-p lrgcn-eval" \
            "-p lrgcn-models --lib egogcn::" "-p lrgcn-models --test eval_live_cells" \
            "-p lrgcn-serve --lib engine::"; do
            # shellcheck disable=SC2086  # $suite is a list of cargo arguments
            out=$(LRGCN_KERNEL=$kernel LRGCN_THREADS=$threads cargo test -q $suite 2>&1) || {
                echo "$out"
                echo "verify: cargo test $suite FAILED at LRGCN_KERNEL=$kernel LRGCN_THREADS=$threads"
                exit 1
            }
            if grep -qi "drift" <<<"$out"; then
                echo "$out"
                echo "verify: drift in cargo test $suite at LRGCN_KERNEL=$kernel LRGCN_THREADS=$threads"
                exit 1
            fi
        done
        echo "kernel sweep: $kernel x $threads threads OK"
    done
done

echo "==> ANN smoke: serve --ann vs --exact recall@20 over /dev/tcp"
ann="$smoke/ann"
mkdir -p "$ann"
# The yelp-like preset (2480 users x 1411 items) is the smallest fixture
# with a genuinely sub-linear probe regime; a few training epochs give the
# embeddings the clustered inner-product structure the coarse quantizer
# needs (random init has near-random neighborhoods).
cargo run --release -q -p lrgcn-bench --bin make_fixture -- \
    --out "$ann/interactions.tsv" --preset yelp --scale 1.0 --seed 99
./target/release/lrgcn train --input "$ann/interactions.tsv" \
    --epochs 4 --seed 7 --layers 2 --save "$ann/model.ckpt"
start_serve() { # logfile extra-args... -> port on stdout
    local logfile=$1
    shift
    ./target/release/lrgcn serve "$ann/model.ckpt" \
        --input "$ann/interactions.tsv" --layers 2 --port 0 "$@" \
        >"$logfile" 2>&1 &
    local p=""
    for _ in $(seq 1 50); do
        p=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$logfile")
        [[ -n "$p" ]] && break
        sleep 0.2
    done
    [[ -n "$p" ]] || { echo "verify: ANN smoke serve never reported its port" >&2; cat "$logfile" >&2; exit 1; }
    echo "$p"
}
ann_req() { # port method path -> full response on stdout
    exec 4<>"/dev/tcp/127.0.0.1/$1"
    printf '%s %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\nContent-Length: 0\r\n\r\n' "$2" "$3" >&4
    cat <&4
    exec 4<&-
}
exact_port=$(start_serve "$ann/exact.log" --exact)
ann_port=$(start_serve "$ann/ann.log" --ann --nprobe 16)
grep -q '^ann: ' "$ann/ann.log" || {
    echo "verify: serve --ann printed no ANN banner"; cat "$ann/ann.log"; exit 1; }
total=0
hit=0
for u in $(seq 0 100 2400); do
    exact_ids=$(ann_req "$exact_port" GET "/recs/$u?k=20" | grep -o '"item":[0-9]*' | cut -d: -f2)
    ann_ids=$(ann_req "$ann_port" GET "/recs/$u?k=20" | grep -o '"item":[0-9]*' | cut -d: -f2)
    [[ -n "$exact_ids" ]] || { echo "verify: exact /recs/$u returned no items"; exit 1; }
    total=$((total + $(wc -w <<<"$exact_ids")))
    overlap=$(grep -cFx -f <(tr ' ' '\n' <<<"$ann_ids") <(tr ' ' '\n' <<<"$exact_ids") || true)
    hit=$((hit + overlap))
done
ann_req "$exact_port" POST /admin/shutdown >/dev/null
ann_req "$ann_port" POST /admin/shutdown >/dev/null
wait
echo "ANN smoke: recall@20 = $hit/$total (bound: >= 95%)"
if (( hit * 100 < total * 95 )); then
    echo "verify: IVF recall@20 vs the exact scan fell below 0.95"
    exit 1
fi
echo "ANN smoke: OK"

echo "==> streaming smoke: ingest, kill -9, recover, retrain, hot reload"
stream="$smoke/stream"
mkdir -p "$stream"
./target/release/lrgcn train --input "$smoke/interactions.tsv" \
    --epochs 2 --seed 5 --checkpoint "$stream/gen" --save "$stream/live.ckpt"
start_stream_serve() { # logfile [env-prefix...] -> sets $sport and $stream_pid
    local logfile=$1
    shift
    env "$@" ./target/release/lrgcn serve "$stream/live.ckpt" \
        --input "$smoke/interactions.tsv" --port 0 \
        --events-log "$stream/events" >"$logfile" 2>&1 &
    stream_pid=$!
    sport=""
    for _ in $(seq 1 50); do
        sport=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$logfile")
        [[ -n "$sport" ]] && break
        sleep 0.2
    done
    [[ -n "$sport" ]] || { echo "verify: streaming serve never reported its port"; cat "$logfile"; exit 1; }
}
stream_req() { # port method path [body] -> full response on stdout
    local body="${4:-}"
    exec 6<>"/dev/tcp/127.0.0.1/$1"
    printf '%s %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s' \
        "$2" "$3" "${#body}" "$body" >&6
    cat <&6
    exec 6<&-
}
accepted_of() { grep -o '"accepted":[0-9]*' <<<"$1" | head -1 | cut -d: -f2; }
start_stream_serve "$stream/serve.log"
grep -q 'streaming ingestion on' "$stream/serve.log" || {
    echo "verify: serve --events-log printed no ingestion banner"; cat "$stream/serve.log"; exit 1; }
# Burst three JSONL batches for a user the checkpoint has never seen.
new_user=4000
acked=0
for b in 0 1 2; do
    body=""
    for i in 0 1 2 3 4; do
        n=$((b * 5 + i + 1))
        body+="{\"user\": $new_user, \"item\": $((n % 37)), \"ts\": $((1700000000 + n)), \"client\": \"smoke\", \"seq\": $n}"$'\n'
    done
    resp=$(stream_req "$sport" POST /events "$body")
    got=$(accepted_of "$resp")
    [[ -n "$got" ]] || { echo "verify: /events batch $b not acknowledged: $resp"; exit 1; }
    acked=$((acked + got))
done
(( acked == 15 )) || { echo "verify: acked $acked of 15 streamed events"; exit 1; }
# The streamed user is immediately servable via fold-in; pin the ranking.
recs_before=$(stream_req "$sport" GET "/recs/$new_user?k=5" | grep -o '"item":[0-9]*' | tr '\n' ' ')
[[ -n "$recs_before" ]] || { echo "verify: fold-in /recs/$new_user empty before crash"; exit 1; }
# SIGKILL mid-flight: no graceful shutdown, the log is all that survives.
kill -9 "$stream_pid" 2>/dev/null || true
wait "$stream_pid" 2>/dev/null || true
start_stream_serve "$stream/serve2.log"
health=$(stream_req "$sport" GET /healthz)
grep -q "\"events_total\":$acked" <<<"$health" || {
    echo "verify: recovered log lost acked events: $health"; exit 1; }
recs_after=$(stream_req "$sport" GET "/recs/$new_user?k=5" | grep -o '"item":[0-9]*' | tr '\n' ' ')
[[ "$recs_after" == "$recs_before" ]] || {
    echo "verify: fold-in state diverged across kill -9: '$recs_before' vs '$recs_after'"; exit 1; }
stream_req "$sport" POST /admin/shutdown >/dev/null
wait "$stream_pid" || { echo "verify: recovered serve exited non-zero"; exit 1; }
# Fault composition: with io_error injected, faulted appends must answer
# 503 and acknowledge nothing; a clean restart replays only acked events.
start_stream_serve "$stream/serve3.log" LRGCN_FAULT=io_error:0.5 LRGCN_FAULT_SEED=11
fault_acked=0
for n in $(seq 1 10); do
    resp=$(stream_req "$sport" POST /events \
        "{\"user\": $new_user, \"item\": $((n % 37)), \"client\": \"faulty\", \"seq\": $n}"$'\n')
    if grep -q ' 200 ' <<<"${resp%%$'\r\n'*}"; then
        fault_acked=$((fault_acked + $(accepted_of "$resp")))
    elif ! grep -q ' 503 ' <<<"${resp%%$'\r\n'*}"; then
        echo "verify: faulted append answered neither 200 nor 503: $resp"; exit 1
    fi
done
(( fault_acked < 10 )) || { echo "verify: io_error:0.5 faulted no append in 10"; exit 1; }
kill -9 "$stream_pid" 2>/dev/null || true
wait "$stream_pid" 2>/dev/null || true
start_stream_serve "$stream/serve4.log"
health=$(stream_req "$sport" GET /healthz)
want_total=$((acked + fault_acked))
grep -q "\"events_total\":$want_total" <<<"$health" || {
    echo "verify: faulted run lost acked events (want $want_total): $health"; exit 1; }
# Close the loop: fold the log into a new generation, publish it over the
# live checkpoint and hot-reload the running server.
./target/release/lrgcn retrain --input "$smoke/interactions.tsv" \
    --checkpoint "$stream/gen" --follow "$stream/events" --epochs 2 \
    --publish "$stream/live.ckpt" --reload "http://127.0.0.1:$sport" \
    || { echo "verify: lrgcn retrain failed"; exit 1; }
health=$(stream_req "$sport" GET /healthz)
grep -q "\"covered_events\":$want_total" <<<"$health" || {
    echo "verify: reload did not cover the log (want $want_total): $health"; exit 1; }
recs=$(stream_req "$sport" GET "/recs/$new_user?k=5")
grep -q '"items":\[{' <<<"$recs" || {
    echo "verify: retrained generation serves nothing for $new_user: $recs"; exit 1; }
stream_req "$sport" POST /admin/shutdown >/dev/null
wait "$stream_pid" || { echo "verify: streaming serve exited non-zero"; exit 1; }
echo "streaming smoke: OK"

echo "==> overload smoke: admission sheds + brownout recovery over /dev/tcp"
ovl="$smoke/ovl"
mkdir -p "$ovl"
./target/release/lrgcn serve "$smoke/model.ckpt" \
    --input "$smoke/interactions.tsv" --port 0 \
    --workers 8 --max-inflight 1 --max-queue 1 --ann-standby \
    --brownout --slo-p99-ms 250 --brownout-down-ticks 2 \
    >"$ovl/serve.log" 2>&1 &
ovl_pid=$!
ovl_port=""
for _ in $(seq 1 50); do
    ovl_port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$ovl/serve.log")
    [[ -n "$ovl_port" ]] && break
    sleep 0.2
done
[[ -n "$ovl_port" ]] || { echo "verify: overload smoke serve never reported its port"; cat "$ovl/serve.log"; exit 1; }
grep -q 'admission control on' "$ovl/serve.log" || {
    echo "verify: serve --max-inflight printed no admission banner"; cat "$ovl/serve.log"; exit 1; }
grep -q 'brownout control armed' "$ovl/serve.log" || {
    echo "verify: serve --brownout printed no banner"; cat "$ovl/serve.log"; exit 1; }
ovl_req() { # method path [extra-header] -> full response on stdout
    exec 7<>"/dev/tcp/127.0.0.1/$ovl_port"
    {
        printf '%s %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\n' "$1" "$2"
        if [[ -n "${3:-}" ]]; then printf '%s\r\n' "$3"; fi
        printf 'Content-Length: 0\r\n\r\n'
    } >&7
    cat <&7
    exec 7<&-
}
# Saturate the one-slot gate: 8 concurrent clients, 120 requests each.
client_pids=()
for c in $(seq 1 8); do
    (
        for i in $(seq 1 120); do
            ovl_req GET "/recs/$(((c * 37 + i) % 50))?k=20" >>"$ovl/client$c.out" 2>/dev/null || true
        done
    ) &
    client_pids+=($!)
done
# A client subshell can die of SIGPIPE when the server finishes a
# one-request connection while the client is still writing; that is fine
# under overload — the response counts below are the real assertions.
wait "${client_pids[@]}" || true
# Responses concatenate without separators, so count occurrences, not lines.
oks=$(cat "$ovl"/client*.out | grep -o 'HTTP/1\.1 200' | wc -l)
sheds=$(cat "$ovl"/client*.out | grep -o 'HTTP/1\.1 503' | wc -l)
retry=$(cat "$ovl"/client*.out | grep -io 'retry-after:' | wc -l)
(( oks > 0 )) || { echo "verify: overload burst drove goodput to zero"; exit 1; }
(( sheds > 0 )) || { echo "verify: a one-slot gate under 8 clients shed nothing ($oks oks)"; exit 1; }
(( retry >= sheds )) || { echo "verify: $sheds sheds but only $retry Retry-After headers"; exit 1; }
# A malformed client deadline is a 400, not a silently ignored header.
bad=$(ovl_req GET "/recs/0?k=5" 'x-lrgcn-deadline-ms: soon') || {
    echo "verify: deadline probe could not reach the server"; exit 1; }
grep -q 'HTTP/1.1 400' <<<"$bad" || { echo "verify: malformed deadline not rejected: $bad"; exit 1; }
# Whatever the controller did during the burst, it must settle back to
# level 0 once the load is gone.
recovered=""
for _ in $(seq 1 60); do
    if ovl_req GET /healthz | grep -q '"brownout_level":0'; then
        recovered=yes
        break
    fi
    sleep 0.5
done
[[ -n "$recovered" ]] || { echo "verify: brownout level never returned to 0 after the burst"; exit 1; }
ovl_req POST /admin/shutdown >/dev/null || {
    echo "verify: overload smoke shutdown request failed"; exit 1; }
wait "$ovl_pid" || { echo "verify: overload smoke serve exited non-zero"; exit 1; }
echo "overload smoke: OK ($oks admitted, $sheds shed)"

echo "==> results drift gate: quick exp_* outputs vs results/quick/"
# To refresh after an intentional change, rerun the loop body with
# `> "results/quick/$exp.txt"` in place of the diff.
cargo build --release -q -p lrgcn-bench
for exp in exp_table2 exp_table3 exp_fig1 exp_fig5 exp_fig6 exp_residual exp_ssl; do
    "./target/release/$exp" --scale 0.25 --epochs 5 2>/dev/null \
        | sed -E 's/\([0-9.]+s\)//g' >"$smoke/$exp.txt" \
        || { echo "verify: $exp failed"; exit 1; }
    diff -u "results/quick/$exp.txt" "$smoke/$exp.txt" || {
        echo "verify: $exp output drifted from results/quick/$exp.txt"; exit 1; }
done
echo "results drift gate: OK"

echo "==> benchmark smoke: pinned surface builds, every workload correct"
bench_out=$(benchmark/repeat.sh --quick) || {
    echo "$bench_out"
    echo "verify: benchmark/repeat.sh --quick FAILED (build or output check)"
    exit 1
}
echo "$bench_out"
bench_ok=$(grep -c '^{"correct": true' <<<"$bench_out" || true)
[[ "$bench_ok" == 5 ]] || {
    echo "verify: $bench_ok of 5 benchmark runs printed \"correct\": true"; exit 1; }
CARGO_TARGET_DIR=target/benchmark-build cargo test --offline -q --manifest-path benchmark/Cargo.toml
echo "benchmark smoke: OK"

echo "verify: OK"
