#!/usr/bin/env bash
# Runs the core microbenchmarks and emits BENCH_core.json: git revision plus
# events/sec and ns/event per benchmark, so successive PRs accumulate a perf
# trajectory.  Usage:
#
#   bench/run_core_bench.sh [build_dir] [out.json]
#
# Defaults: build_dir=build, out=BENCH_core.json (repo root).  Requires jq.
#
# Each benchmark runs 3 repetitions and the record keeps the best rep
# (highest events/sec).  items_per_second is wall-clock-based, and on the
# shared/virtualized hosts this runs on, wall time absorbs hypervisor steal
# the guest cannot see — a single shot measures the neighbours as much as
# the code.  Best-of-N is the standard noise-robust throughput estimator;
# it applies identically to the committed record and to CI's fresh side of
# compare_bench.py, so comparisons stay symmetric.  (For optimization work,
# prefer interleaved A/B runs within one session over record deltas.)
#
# Attributed profiling: when a working `perf` is on PATH, the suite run is
# wrapped in `perf stat -j` (instructions, cycles, LLC-misses,
# branch-misses) and a short second pass re-runs each benchmark alone under
# perf, attaching per-benchmark counter columns (ipc, instructions/event,
# LLC-misses per kilo-event, branch-miss rate) to its record.  The
# normalization divides whole-process counters by the events the measured
# loop executed, so per-event figures include benchmark setup and binary
# startup — a small, documented dilution, fine for attributing a win to
# cache behavior vs. instruction count.  Without perf (CI VMs, containers
# without perf_event access) the script emits the identical schema minus
# the counter columns and stamps perf_source: "unavailable";
# compare_bench.py warns-but-passes on the missing columns.
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

PERF_EVENTS='instructions,cycles,LLC-misses,branch-misses'
PERF_OK=0
if [[ ${FASTCC_NO_PERF:-0} == 1 ]]; then
  # Forced fallback (CI smoke-tests the counter-less path deterministically,
  # independent of whatever perf the runner image happens to ship).
  echo "note: FASTCC_NO_PERF=1 — skipping perf counters" >&2
elif command -v perf >/dev/null 2>&1 &&
    perf stat -j -e "$PERF_EVENTS" -o /dev/null -- true >/dev/null 2>&1; then
  PERF_OK=1
else
  echo "note: perf unavailable (not installed, or perf_event_paranoid/" >&2
  echo "      container policy denies counters); emitting records without" >&2
  echo "      perf-counter columns" >&2
fi

GIT_REV=$(git rev-parse HEAD 2>/dev/null || echo unknown)
RAW=$(mktemp)
PERF_RAW=$(mktemp)
trap 'rm -f "$RAW" "$PERF_RAW"' EXIT

# Wraps a command in `perf stat -j` writing counters to $1 when perf works;
# otherwise truncates $1 and runs the command bare.
perf_wrap() {
  local pfile=$1
  shift
  if [[ $PERF_OK == 1 ]]; then
    perf stat -j -e "$PERF_EVENTS" -o "$pfile" -- "$@"
  else
    : >"$pfile"
    "$@"
  fi
}

# Converts one `perf stat -j` output file (JSON lines, one counter per line)
# into a compact {instructions, cycles, llc_misses, branch_misses, ipc,
# branch_miss_rate} object on stdout, or `null` when the file is empty or a
# counter came back "<not supported>" on this machine.
perf_to_obj() {
  local pfile=$1
  if [[ ! -s "$pfile" ]]; then
    echo null
    return
  fi
  grep '^{' "$pfile" | jq -s '
    map(select(.event != null)
        | {key: (.event | sub(":[uk]+$"; "") | ascii_downcase
                 | gsub("-"; "_")),
           value: (."counter-value" | try tonumber catch null)})
    | from_entries
    | {instructions, cycles,
       llc_misses: .llc_misses, branch_misses: .branch_misses}
    | . + {ipc: (if (.cycles // 0) > 0 and .instructions != null
                 then .instructions / .cycles else null end),
           branch_miss_rate:
             (if (.instructions // 0) > 0 and .branch_misses != null
              then .branch_misses / .instructions else null end)}
  ' 2>/dev/null || echo null
}

perf_wrap "$PERF_RAW" "$BIN" \
  --benchmark_filter='RollingHorizon|CancelHeavy|Bimodal|ScheduleAndRun|SelfRescheduling|IncastEndToEnd|FatTreeEndToEnd|FatTreeFullScale|TimingWheel|Incast256|AckBatchDrain' \
  --benchmark_repetitions=3 \
  --benchmark_format=json >"$RAW"

SUITE_PERF=$(perf_to_obj "$PERF_RAW")
PERF_SOURCE=unavailable
[[ $PERF_OK == 1 ]] && PERF_SOURCE='perf stat -j'

jq --arg rev "$GIT_REV" --arg psrc "$PERF_SOURCE" \
   --argjson suite_perf "$SUITE_PERF" '{
  git_rev: $rev,
  date: .context.date,
  host: .context.host_name,
  perf_source: $psrc,
  suite_perf_counters: $suite_perf,
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

# Attribution pass: one short perf-wrapped run per benchmark, so counters
# can be pinned to a single workload instead of the whole suite.  Skipped
# entirely without perf — the timing records above are already complete.
if [[ $PERF_OK == 1 ]]; then
  ATTR_RAW=$(mktemp)
  ATTR_PERF=$(mktemp)
  trap 'rm -f "$RAW" "$PERF_RAW" "$ATTR_RAW" "$ATTR_PERF"' EXIT
  while IFS= read -r name; do
    # Anchor the filter so BM_Foo does not also re-run BM_Foo/50 variants.
    if ! perf_wrap "$ATTR_PERF" "$BIN" \
        --benchmark_filter="^$(printf '%s' "$name" | sed 's/[][\.|$(){}?+*^/]/\\&/g')\$" \
        --benchmark_min_time=0.5 \
        --benchmark_format=json >"$ATTR_RAW" 2>/dev/null; then
      echo "warning: attribution run failed for $name; leaving its perf column null" >&2
      continue
    fi
    BENCH_PERF=$(perf_to_obj "$ATTR_PERF")
    [[ "$BENCH_PERF" == null ]] && continue
    # Events the measured loop executed: items/sec x per-iteration wall
    # seconds x iterations.  real_time is per-iteration in time_unit.
    jq --arg name "$name" --argjson perf "$BENCH_PERF" \
       --slurpfile attr "$ATTR_RAW" '
      def unit_sec: {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1}[.] // 1e-9;
      ($attr[0] | [.benchmarks[]
                   | select((.run_type // "iteration") == "iteration")][0])
        as $run |
      ($run | if . and .items_per_second then
                .items_per_second * (.real_time * (.time_unit | unit_sec))
                  * .iterations
              else null end) as $events |
      .benchmarks |= map(
        if .name == $name then
          . + {perf: ($perf + {
            instructions_per_event:
              (if $events != null and $events > 0 and $perf.instructions != null
               then $perf.instructions / $events else null end),
            llc_misses_per_kevent:
              (if $events != null and $events > 0 and $perf.llc_misses != null
               then 1e3 * $perf.llc_misses / $events else null end)})}
        else . end)
    ' "$OUT" >"$OUT.tmp" && mv "$OUT.tmp" "$OUT"
  done < <(jq -r '.benchmarks[].name' "$OUT")
fi

echo "wrote $OUT (rev $GIT_REV, best of 3 repetitions, perf: $PERF_SOURCE)"
jq -r '.benchmarks[] | "\(.name): \(.events_per_second // 0 | floor) events/s"' "$OUT"
