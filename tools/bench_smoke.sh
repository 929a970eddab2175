#!/usr/bin/env sh
# Smoke-test the bench_flow JSON emitter: run the CI-fast configuration
# (one small circuit, 1/2/4 threads, one sample) and assert the emitted
# BENCH_flow.json parses and carries the documented fields. Guards
# against the emitter producing malformed JSON or silently dropping the
# kernel timings / per-stage table.
#
# Usage: tools/bench_smoke.sh [path-to-bench_flow]
# (defaults to `cargo run --release -p lily-bench --bin bench_flow --`).
#
# Exit: 0 clean, 1 assertion failed, 2 setup error.

set -eu

cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

if [ "$#" -ge 1 ]; then
    LILY_BENCH_SAMPLES="${LILY_BENCH_SAMPLES:-1}" "$1" --fast --out "$out" >/dev/null
else
    LILY_BENCH_SAMPLES="${LILY_BENCH_SAMPLES:-1}" cargo run --release --quiet \
        -p lily-bench --bin bench_flow -- --fast --out "$out" >/dev/null
fi

status=0

# The JSON must parse. Prefer a real parser when one is on the host;
# otherwise fall back to structural sanity checks.
if command -v python3 >/dev/null 2>&1; then
    if ! python3 -m json.tool "$out" >/dev/null 2>&1; then
        echo "bench_smoke: BENCH_flow JSON does not parse" >&2
        status=1
    fi
elif command -v jq >/dev/null 2>&1; then
    if ! jq . "$out" >/dev/null 2>&1; then
        echo "bench_smoke: BENCH_flow JSON does not parse" >&2
        status=1
    fi
else
    case "$(head -c 1 "$out")$(tail -c 2 "$out" | head -c 1)" in
        '{}') ;;
        *) echo "bench_smoke: BENCH_flow JSON is not an object" >&2; status=1 ;;
    esac
fi

for field in '"bench":"flow"' '"generated_at":"' '"threads_available":' \
             '"samples":' '"match_build_ns":' '"cg_solve_ns":' \
             '"compare_flows_ns":' '"stages":' '"cuts":'; do
    if ! grep -q "$field" "$out"; then
        echo "bench_smoke: field $field missing from BENCH_flow JSON" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "bench_smoke: BENCH_flow JSON parses and carries the expected fields"
fi
exit "$status"
