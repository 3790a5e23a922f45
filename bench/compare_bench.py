#!/usr/bin/env python3
"""Compare a fresh benchmark run against the committed BENCH_core.json.

Guards the perf trajectory in CI: a fresh run of the core microbenchmarks
must not regress events/sec by more than the threshold on any benchmark
that both files share.  Benchmarks present in only one file (renamed,
added, retired) are reported but never fail the gate, so adding a new
benchmark does not require regenerating the baseline in the same commit.

Usage:
    bench/compare_bench.py BASELINE.json FRESH.json [--threshold 0.15]
    bench/compare_bench.py --interleave BINARY --bench-a NAME --bench-b NAME
                           [--rounds 5] [--min-ratio 1.0]

File-comparison mode: both files use the schema emitted by
bench/run_core_bench.sh:
    {"benchmarks": [{"name": ..., "events_per_second": ...}, ...]}
FRESH.json may also be raw google-benchmark JSON ({"benchmarks":
[{"name": ..., "items_per_second": ...}]}); both spellings are accepted.

Interleaved A/B mode: instead of comparing two recorded files, launch the
given google-benchmark BINARY 2 x rounds times, alternating strictly
A, B, A, B, ... (one benchmark per process via --benchmark_filter), and
report the per-round rate ratio B/A plus its median.  Pairing adjacent
runs cancels the slow drifts (thermal throttling, frequency scaling,
noisy CI neighbors) that make two widely separated measurements
incomparable — each ratio compares runs seconds apart, and the median
discards outlier rounds entirely.  --min-ratio gates the median (exit 1
below it); without the flag the mode is purely informational.

Exit status: 0 on pass, 1 on regression beyond threshold (or median ratio
below --min-ratio), 2 on bad input.  Stdlib only — no third-party
dependencies.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def load_rates(path):
    """Returns {benchmark name: events/sec}."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rates = {}
    for b in doc.get("benchmarks", []):
        rate = b.get("events_per_second", b.get("items_per_second"))
        name = b.get("name")
        # Skip aggregate rows (mean/median/stddev) and rate-less benchmarks.
        if name is None or rate is None or b.get("run_type") == "aggregate":
            continue
        rates[name] = float(rate)
    if not rates:
        print(f"error: no benchmarks with rates in {path}", file=sys.stderr)
        sys.exit(2)
    return rates


def measure_once(binary, name):
    """Runs one benchmark in its own process; returns its events/sec.

    One process per measurement is the point: google-benchmark runs
    benchmarks of one process back-to-back, so in-process "interleaving"
    would still measure A entirely before B.  A fresh process per sample
    also resets allocator and cache state, so A and B start equal.
    """
    cmd = [binary, f"--benchmark_filter=^{re.escape(name)}$",
           "--benchmark_format=json"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as e:
        print(f"error: cannot run {binary}: {e}", file=sys.stderr)
        sys.exit(2)
    if proc.returncode != 0:
        print(f"error: {binary} exited {proc.returncode} for {name}:\n"
              f"{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(f"error: {binary} emitted malformed JSON for {name}: {e}",
              file=sys.stderr)
        sys.exit(2)
    rows = [b for b in doc.get("benchmarks", [])
            if b.get("run_type") != "aggregate"
            and b.get("events_per_second", b.get("items_per_second"))
            is not None]
    exact = [b for b in rows if b.get("name") == name]
    if exact:
        rows = exact
    if len(rows) != 1:
        print(f"error: filter for {name!r} matched {len(rows)} benchmarks "
              f"in {binary} (need exactly 1)", file=sys.stderr)
        sys.exit(2)
    return float(rows[0].get("events_per_second",
                             rows[0].get("items_per_second")))


def run_interleaved(args):
    """Strict A, B, A, B process alternation; gates on the median ratio."""
    ratios = []
    for r in range(args.rounds):
        rate_a = measure_once(args.interleave, args.bench_a)
        rate_b = measure_once(args.interleave, args.bench_b)
        if rate_a <= 0.0:
            print(f"error: nonpositive rate {rate_a} for {args.bench_a}",
                  file=sys.stderr)
            return 2
        ratios.append(rate_b / rate_a)
        print(f"{'round':>10}  {r + 1}/{args.rounds}: "
              f"{args.bench_a} {rate_a:,.0f} ev/s, "
              f"{args.bench_b} {rate_b:,.0f} ev/s "
              f"(ratio {ratios[-1]:.3f})")

    med = statistics.median(ratios)
    print(f"\nmedian {args.bench_b} / {args.bench_a} rate ratio over "
          f"{args.rounds} paired round(s): {med:.3f}")
    if args.min_ratio is not None and med < args.min_ratio:
        print(f"FAIL: median ratio {med:.3f} below required "
              f"{args.min_ratio:.3f}", file=sys.stderr)
        return 1
    if args.min_ratio is not None:
        print(f"PASS: median ratio {med:.3f} >= {args.min_ratio:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?",
                        help="committed BENCH_core.json")
    parser.add_argument("fresh", nargs="?",
                        help="fresh run (run_core_bench.sh output "
                        "or raw google-benchmark JSON)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional events/sec drop "
                        "(default: 0.15)")
    parser.add_argument("--interleave", metavar="BINARY",
                        help="google-benchmark binary to launch in "
                        "alternating A/B rounds instead of comparing files")
    parser.add_argument("--bench-a", help="denominator benchmark name "
                        "(interleave mode)")
    parser.add_argument("--bench-b", help="numerator benchmark name "
                        "(interleave mode)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="paired A/B rounds in interleave mode "
                        "(default: 5)")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="fail (exit 1) when the median B/A ratio in "
                        "interleave mode falls below this")
    args = parser.parse_args()

    if args.interleave:
        if not args.bench_a or not args.bench_b:
            parser.error("--interleave requires --bench-a and --bench-b")
        if args.rounds < 1:
            parser.error("--rounds must be >= 1")
        return run_interleaved(args)
    if not args.baseline or not args.fresh:
        parser.error("baseline and fresh files are required "
                     "(or use --interleave)")

    base = load_rates(args.baseline)
    fresh = load_rates(args.fresh)
    shared = sorted(base.keys() & fresh.keys())
    if not shared:
        print("error: baseline and fresh run share no benchmark names",
              file=sys.stderr)
        return 2

    failures = []
    for name in shared:
        ratio = fresh[name] / base[name]
        verdict = "ok"
        if ratio < 1.0 - args.threshold:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"{verdict:>10}  {name}: {base[name]:,.0f} -> "
              f"{fresh[name]:,.0f} events/s ({ratio - 1.0:+.1%} vs baseline)")

    for name in sorted(base.keys() - fresh.keys()):
        print(f"{'missing':>10}  {name}: in baseline only (not compared)")
    for name in sorted(fresh.keys() - base.keys()):
        print(f"{'new':>10}  {name}: in fresh run only (not compared)")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nPASS: {len(shared)} shared benchmark(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
