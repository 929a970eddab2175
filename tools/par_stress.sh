#!/usr/bin/env sh
# Stress the determinism contract of the lily-par runtime: the
# stage_equiv bit-pattern goldens, the dp_reuse placed-cover hashes and
# the match_exact match-index hashes must pass unchanged at 1, 2, and 8
# threads, and the lily-check
# metrics JSON must be identical across thread counts once the fields
# that legitimately vary with parallelism (wall times, measured
# speedups, the recorded thread count) are normalized away.
#
# Usage: tools/par_stress.sh [path-to-lily-check]
# (defaults to `cargo run --release --bin lily-check --`; the golden
# tests always go through cargo).
#
# Exit: 0 clean, 1 divergence found, 2 setup error.

set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -f "$tmp"/metrics_*.json; rmdir "$tmp"' EXIT

for t in 1 2 8; do
    echo "par_stress: stage_equiv goldens at LILY_THREADS=$t"
    LILY_THREADS="$t" cargo test --release --quiet -p lily-check --test stage_equiv
    echo "par_stress: dp_reuse cover hashes at LILY_THREADS=$t"
    LILY_THREADS="$t" cargo test --release --quiet -p lily-core --test dp_reuse
    echo "par_stress: match_exact index hashes at LILY_THREADS=$t"
    LILY_THREADS="$t" cargo test --release --quiet -p lily-core --test match_exact
done

run_check() {
    if [ "$#" -ge 3 ]; then
        "$3" --circuit misex1 --flow lily-area --threads "$1" \
            --metrics-json "$2" >/dev/null
    else
        cargo run --release --quiet --bin lily-check -- \
            --circuit misex1 --flow lily-area --threads "$1" \
            --metrics-json "$2" >/dev/null
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
    run_check "$t" "$tmp/metrics_$t.json" "$@"
    normalize "$tmp/metrics_$t.json" > "$tmp/metrics_$t.norm"
done
for t in 2 8; do
    if ! diff -q "$tmp/metrics_1.norm" "$tmp/metrics_$t.norm" >/dev/null; then
        echo "par_stress: metrics JSON diverges between 1 and $t threads" >&2
        diff "$tmp/metrics_1.norm" "$tmp/metrics_$t.norm" >&2 || true
        status=1
    fi
done
rm -f "$tmp"/metrics_*.norm

if [ "$status" -eq 0 ]; then
    echo "par_stress: goldens pass and metrics agree at 1/2/8 threads"
fi
exit "$status"
