#!/usr/bin/env sh
# Smoke-test the scale axis: generate a mid-size synthetic workload
# (default: a 20k-node random DAG, seed 1 — large enough that the flow
# takes the multilevel clustered placement path), run the full cut-area
# flow over it at 1, 2, and 8 worker threads, and assert
#
#   1. every lily-check pass — including the multilevel cluster
#      hierarchy check (PL005/PL006) — is clean at every thread count,
#   2. the metrics JSON is byte-identical across thread counts once the
#      fields parallelism may change (wall times, speedups, thread
#      count) are normalized away — the determinism contract at scale —
#      with the route figures (chip_area_channeled_um2, peak_congestion)
#      present and non-zero, so the comparison covers the route
#      estimate's deposit stripes and parallel maps,
#   3. each run finishes inside a wall-clock budget (default 1800 s) —
#      the "a 100k-class flow must not quietly become quadratic" guard
#      at CI-affordable size.
#
# Usage: tools/scale_smoke.sh [path-to-lily-check]
# (defaults to `cargo run --release --bin lily-check --`).
# Env: SCALE_SMOKE_NODES (default 20000), SCALE_SMOKE_SEED (default 1),
#      SCALE_SMOKE_BUDGET_SECS (default 1800).
#
# Exit: 0 clean, 1 divergence/diagnostic/budget failure, 2 setup error.

set -eu

cd "$(dirname "$0")/.."

nodes="${SCALE_SMOKE_NODES:-20000}"
seed="${SCALE_SMOKE_SEED:-1}"
budget="${SCALE_SMOKE_BUDGET_SECS:-1800}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_check() {
    if [ "$#" -ge 3 ]; then
        "$3" --gen random-dag --gen-nodes "$nodes" --gen-seed "$seed" \
            --flow cut-area --threads "$1" --metrics-json "$2" >"$tmp/out_$1.log"
    else
        cargo run --release --quiet --bin lily-check -- \
            --gen random-dag --gen-nodes "$nodes" --gen-seed "$seed" \
            --flow cut-area --threads "$1" --metrics-json "$2" >"$tmp/out_$1.log"
    fi
}

# Strip the fields parallelism is allowed to change; everything left
# must be byte-identical across thread counts.
normalize() {
    sed -e 's/,"speedup":[^,}]*//g' \
        -e 's/"wall_ns":[0-9]*/"wall_ns":0/g' \
        -e 's/"threads_used":[0-9]*/"threads_used":0/g' "$1"
}

status=0
for t in 1 2 8; do
    echo "scale_smoke: cut-area flow over ${nodes}-node random-dag (seed ${seed}) at LILY_THREADS=$t"
    start="$(date +%s)"
    run_check "$t" "$tmp/metrics_$t.json" "$@"
    elapsed="$(( $(date +%s) - start ))"
    echo "scale_smoke: threads $t finished in ${elapsed} s (budget ${budget} s)"
    if [ "$elapsed" -gt "$budget" ]; then
        echo "scale_smoke: threads $t blew the ${budget} s wall-clock budget" >&2
        status=1
    fi
    if ! grep -q '^hierarchy: ok$' "$tmp/out_$t.log"; then
        echo "scale_smoke: threads $t: cluster-hierarchy check did not pass" >&2
        grep '^hierarchy' "$tmp/out_$t.log" >&2 || true
        status=1
    fi
    if ! grep -q '^verdict: PASS$' "$tmp/out_$t.log"; then
        echo "scale_smoke: threads $t: lily-check did not pass" >&2
        tail -20 "$tmp/out_$t.log" >&2 || true
        status=1
    fi
    normalize "$tmp/metrics_$t.json" > "$tmp/metrics_$t.norm"
done
# The route figures must be in the comparison: a missing or zero value
# in the 1-thread JSON means the writer or the normalizer dropped them.
for field in chip_area_channeled_um2 peak_congestion; do
    value="$(sed -n "s/.*\"$field\":\([^,}]*\).*/\1/p" "$tmp/metrics_1.json")"
    if ! awk -v v="$value" 'BEGIN { exit !(v + 0 != 0) }'; then
        echo "scale_smoke: 1-thread metrics JSON has no non-zero $field (got '$value')" >&2
        status=1
    fi
done
for t in 2 8; do
    if ! diff -q "$tmp/metrics_1.norm" "$tmp/metrics_$t.norm" >/dev/null; then
        echo "scale_smoke: metrics JSON diverges between 1 and $t threads" >&2
        diff "$tmp/metrics_1.norm" "$tmp/metrics_$t.norm" >&2 || true
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "scale_smoke: ${nodes}-node flow deterministic across 1/2/8 threads and within budget"
fi
exit "$status"
