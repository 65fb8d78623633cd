#!/usr/bin/env bash
# Blocking benchmark guard for the round hot path (CI).
#
# Two kinds of gate, read against the committed BENCH_PR15.json:
#
#  1. Machine-independent ratio: BenchmarkExtraRoundDelayed/pipelined
#     must beat /sequential by at least MIN_OVERLAP_GAIN on the same
#     box in the same run. The recorded gain is ~1.4x (DESIGN.md §14);
#     a drop below the threshold means the pipeline stopped overlapping
#     compute with the gather window. The sequential arm is the
#     test-side composition of the production round halves
#     (runSequential in internal/core/pipeline_test.go), so both arms
#     run the same send and ingest code.
#
#  2. Absolute envelope: ns/op for the guarded benchmarks must stay
#     within NS_SLACK x the committed baseline, and BenchmarkExtraRound
#     allocs/op within ALLOC_SLACK_OPS of baseline. The ns/op envelope
#     is generous because CI machines vary; the alloc gate is tight
#     because allocation counts are deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_PR15.json
MIN_OVERLAP_GAIN=1.20
NS_SLACK=2.5
ALLOC_SLACK_OPS=6

fail=0

# ---- overlap benchmark -------------------------------------------------
echo "=== BenchmarkExtraRoundDelayed (30x) ==="
delayed=$(go test -run=NONE -bench 'BenchmarkExtraRoundDelayed' -benchtime 30x ./internal/core/)
echo "$delayed"
seq_ns=$(echo "$delayed" | awk '$1 ~ /ExtraRoundDelayed\/sequential/ {print $3; exit}')
pip_ns=$(echo "$delayed" | awk '$1 ~ /ExtraRoundDelayed\/pipelined/ {print $3; exit}')
if [ -z "$seq_ns" ] || [ -z "$pip_ns" ]; then
    echo "FAIL: could not parse BenchmarkExtraRoundDelayed output" >&2
    exit 1
fi

gain=$(awk -v s="$seq_ns" -v p="$pip_ns" 'BEGIN {printf "%.3f", s / p}')
echo "overlap gain: ${gain}x (sequential ${seq_ns} ns/op / pipelined ${pip_ns} ns/op)"
if awk -v g="$gain" -v min="$MIN_OVERLAP_GAIN" 'BEGIN {exit !(g < min)}'; then
    echo "FAIL: overlap gain ${gain}x < required ${MIN_OVERLAP_GAIN}x" >&2
    fail=1
fi

pip_base=$(jq -r '.benchmarks[] | select(.name == "BenchmarkExtraRoundDelayed/pipelined") | .ns_per_op' "$BASELINE")
if awk -v v="$pip_ns" -v b="$pip_base" -v s="$NS_SLACK" 'BEGIN {exit !(v > b * s)}'; then
    echo "FAIL: pipelined ${pip_ns} ns/op > ${NS_SLACK}x committed baseline ${pip_base}" >&2
    fail=1
fi

# ---- simulated-round benchmark ----------------------------------------
echo "=== BenchmarkExtraRound (200x) ==="
round=$(go test -run=NONE -bench 'BenchmarkExtraRound$' -benchtime 200x -benchmem .)
echo "$round"
round_ns=$(echo "$round" | awk '$1 ~ /^BenchmarkExtraRound/ {print $3; exit}')
round_allocs=$(echo "$round" | awk '$1 ~ /^BenchmarkExtraRound/ {for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i; exit}')
round_ns_base=$(jq -r '.benchmarks[] | select(.name == "BenchmarkExtraRound") | .ns_per_op' "$BASELINE")
round_allocs_base=$(jq -r '.benchmarks[] | select(.name == "BenchmarkExtraRound") | .allocs_per_op' "$BASELINE")
if [ -z "$round_ns" ] || [ -z "$round_allocs" ]; then
    echo "FAIL: could not parse BenchmarkExtraRound output" >&2
    exit 1
fi
if awk -v v="$round_ns" -v b="$round_ns_base" -v s="$NS_SLACK" 'BEGIN {exit !(v > b * s)}'; then
    echo "FAIL: BenchmarkExtraRound ${round_ns} ns/op > ${NS_SLACK}x committed baseline ${round_ns_base}" >&2
    fail=1
fi
if [ "$round_allocs" -gt $((round_allocs_base + ALLOC_SLACK_OPS)) ]; then
    echo "FAIL: BenchmarkExtraRound ${round_allocs} allocs/op > baseline ${round_allocs_base} + ${ALLOC_SLACK_OPS}" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "bench guard: FAILED" >&2
    exit 1
fi
echo "bench guard: OK (gain ${gain}x, round ${round_allocs} allocs/op)"
