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
#   3. the 1-thread map stage on misex1 stays under 2x the lily
#      mapper's, both timed in this run (median of five interleaved
#      runs each, every sample printed). On a circuit this small the cut mapper is not faster
#      than the structural matcher (about 1.6x its map time); it wins
#      on large DAGs (random-dag-2000: ~0.15 s vs ~0.9 s map). Costing
#      more than twice Lily means the priority enumeration has
#      degenerated.
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

# run_flow <flow> <threads> <metrics-json> <lily-check input args...>
run_flow() {
    flow="$1"
    threads="$2"
    json="$3"
    shift 3
    if [ -n "$bin" ]; then
        "$bin" "$@" --flow "$flow" --threads "$threads" \
            --metrics-json "$json" >/dev/null
    else
        cargo run --release --quiet --bin lily-check -- \
            "$@" --flow "$flow" --threads "$threads" \
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
        run_flow cut-area "$t" "$tmp/${prefix}_$t.json" "$@"
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

# Map-stage wall-time guard against a lily baseline from this run:
# five interleaved 1-thread misex1 runs per mapper, median of each.
# Every sample is printed. A wall time that cannot be extracted fails
# the script.
map_ns() {
    tr ',' '\n' < "$1" | grep -A2 '"stage":"map"' | grep -m1 '"wall_ns"' \
        | sed 's/[^0-9]//g'
}
: > "$tmp/lily_times"
: > "$tmp/cut_times"
for i in 1 2 3 4 5; do
    for mapper in lily cut; do
        run_flow "$mapper-area" 1 "$tmp/time.json" --circuit misex1
        map_ns "$tmp/time.json" >> "$tmp/${mapper}_times"
    done
done
for mapper in lily cut; do
    echo "cut_smoke: misex1 $mapper map samples (ns):" $(cat "$tmp/${mapper}_times")
done
# median <times-file>: the middle of five integers, or empty.
median() {
    if [ "$(grep -c '^[0-9][0-9]*$' "$1")" -eq 5 ]; then
        sort -n "$1" | sed -n 3p
    fi
}
lily_map="$(median "$tmp/lily_times")"
cut_map="$(median "$tmp/cut_times")"
if [ -n "$lily_map" ] && [ -n "$cut_map" ]; then
    ratio="$(awk "BEGIN { printf \"%.2f\", $cut_map / $lily_map }")"
    echo "cut_smoke: misex1 map stage: cut ${cut_map} ns, lily ${lily_map} ns, ratio ${ratio}x (limit 2x)"
    if [ "$cut_map" -gt $((lily_map * 2)) ]; then
        echo "cut_smoke: cut mapper map stage regressed past 2x the lily mapper's" >&2
        status=1
    fi
else
    echo "cut_smoke: could not extract the misex1 map wall times" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "cut_smoke: cut mapper deterministic across 1/2/8 threads and within the time budget"
fi
exit "$status"
