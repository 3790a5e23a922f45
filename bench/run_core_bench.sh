#!/usr/bin/env bash
# Runs the core microbenchmarks and emits a record: git revision plus
# events/sec and ns/event per benchmark.  Usage:
#
#   bench/run_core_bench.sh [build_dir] [out.json]
#
# Defaults: build_dir=build, out=BENCH_core.json (repo root, not tracked).
# Requires jq.
#
# Each benchmark runs 3 repetitions and the record keeps the best rep
# (highest events/sec).  items_per_second is wall-clock-based, and on the
# shared/virtualized hosts this runs on, wall time absorbs hypervisor steal
# the guest cannot see — a single shot measures the neighbours as much as
# the code.  A record describes one host at one time, so it is no baseline
# for another run: to compare two builds, run both on one host, interleaved
# (bench/compare_bench.py --interleave BINARY --base BASE_BINARY), as CI's
# speed gate does over this script's FILTER.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}
OUT=${2:-BENCH_core.json}
BIN="$BUILD_DIR/bench/microbench_core"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi
command -v jq >/dev/null || { echo "error: jq is required" >&2; exit 1; }

# The benchmarks recorded; CI lists the same filter's rows to check the
# record is complete, and gates the same rows against the comparison base.
FILTER='RollingHorizon|Bimodal|ScheduleAndRun|SelfRescheduling|IncastEndToEnd|FatTreeEndToEnd|FatTreeFullScale|TimingWheel|Incast256|AckBatchDrain'

GIT_REV=$(git rev-parse HEAD 2>/dev/null || echo unknown)
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

"$BIN" --benchmark_filter="$FILTER" \
  --benchmark_repetitions=3 \
  --benchmark_format=json >"$RAW"

jq --arg rev "$GIT_REV" '{
  git_rev: $rev,
  date: .context.date,
  host: .context.host_name,
  benchmarks: ([.benchmarks[] | select((.run_type // "iteration") == "iteration")]
    | group_by(.run_name // .name)
    | map(max_by(.items_per_second // 0))
    | map({
        name: (.run_name // .name),
        events_per_second: (.items_per_second // null),
        ns_per_event: (if .items_per_second then (1e9 / .items_per_second) else null end),
        real_time, cpu_time, time_unit
      }))
}' "$RAW" >"$OUT"

echo "wrote $OUT (rev $GIT_REV, best of 3 repetitions)"
jq -r '.benchmarks[] | "\(.name): \(.events_per_second // 0 | floor) events/s"' "$OUT"
