#!/usr/bin/env sh
# Smoke-test the cut-enumeration mapper: run the cut-area flow over
# misex1, over a 2000-node random DAG whose many overlapping output
# cones drive the incremental covering DP through its reuse path, and
# over a 4000-node tree adder, whose deep, narrow levels give the
# level-synchronous cut enumeration a different shape than the wide
# random DAG, at 1, 2, and 8 worker threads and assert
#
#   1. every lily-check pass is clean at every thread count,
#   2. the metrics JSON is byte-identical across thread counts once the
#      fields parallelism may change (wall times, speedups, thread
#      count) are normalized away — the determinism contract, and
#   3. the map stage's wall time does not regress past 2x the
#      checked-in lily baseline for misex1 in BENCH_flow.json — the
#      cut mapper is supposed to be *faster* than the structural
#      matcher, so costing twice the baseline means the priority
#      enumeration has degenerated.
#
# Usage: tools/cut_smoke.sh [path-to-lily-check]
# (defaults to `cargo run --release --bin lily-check --`).
#
# Exit: 0 clean, 1 divergence or regression, 2 setup error.

set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

bin="${1:-}"

# run_check <threads> <metrics-json> <lily-check input args...>
run_check() {
    threads="$1"
    json="$2"
    shift 2
    if [ -n "$bin" ]; then
        "$bin" "$@" --flow cut-area --threads "$threads" \
            --metrics-json "$json" >/dev/null
    else
        cargo run --release --quiet --bin lily-check -- \
            "$@" --flow cut-area --threads "$threads" \
            --metrics-json "$json" >/dev/null
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

# check_round <file prefix> <lily-check input args...>: one input at
# 1/2/8 threads, metrics written to $tmp/<prefix>_<threads>.json.
check_round() {
    prefix="$1"
    shift
    for t in 1 2 8; do
        echo "cut_smoke: cut-area flow on $* at LILY_THREADS=$t"
        run_check "$t" "$tmp/${prefix}_$t.json" "$@"
        normalize "$tmp/${prefix}_$t.json" > "$tmp/${prefix}_$t.norm"
    done
    for t in 2 8; do
        if ! diff -q "$tmp/${prefix}_1.norm" "$tmp/${prefix}_$t.norm" >/dev/null; then
            echo "cut_smoke: metrics JSON on $* diverges between 1 and $t threads" >&2
            diff "$tmp/${prefix}_1.norm" "$tmp/${prefix}_$t.norm" >&2 || true
            status=1
        fi
    done
}

check_round metrics --circuit misex1
check_round dag_metrics --gen random-dag --gen-nodes 2000
check_round adder_metrics --gen tree-adder --gen-nodes 4000

# Map-stage wall-time guard. The baseline is the misex1 lily-mapper map
# stage recorded in the checked-in BENCH_flow.json; the single-thread
# cut run must stay under 2x that. Skipped (with a note) when either
# number cannot be extracted, so the determinism checks still gate.
baseline="$(tr ',' '\n' < BENCH_flow.json \
    | grep -A2 '"stage":"map"' | grep -m1 '"wall_ns"' \
    | sed 's/[^0-9]//g')" || baseline=""
cut_map="$(tr ',' '\n' < "$tmp/metrics_1.json" \
    | grep -A2 '"stage":"map"' | grep -m1 '"wall_ns"' \
    | sed 's/[^0-9]//g')" || cut_map=""
if [ -n "$baseline" ] && [ -n "$cut_map" ]; then
    limit=$((baseline * 2))
    echo "cut_smoke: map stage ${cut_map} ns (lily baseline ${baseline} ns, limit ${limit} ns)"
    if [ "$cut_map" -gt "$limit" ]; then
        echo "cut_smoke: cut mapper map stage regressed past 2x the baseline" >&2
        status=1
    fi
else
    echo "cut_smoke: note: could not extract map wall times; skipping the timing guard"
fi

if [ "$status" -eq 0 ]; then
    echo "cut_smoke: cut mapper deterministic across 1/2/8 threads and within the time budget"
fi
exit "$status"
