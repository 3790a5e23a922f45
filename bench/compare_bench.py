#!/usr/bin/env python3
"""Paired, interleaved A/B comparison of google-benchmark rows.

Speed is only comparable between runs taken seconds apart on one host: a
record written on another machine, or on this one at another time, reads
the host as much as the code.  So every comparison here launches the
binaries itself, one benchmark per process, and reports the median of
per-round rate ratios.

Usage:
    bench/compare_bench.py --interleave BINARY --bench-a NAME --bench-b NAME
                           [--rounds 5] [--min-ratio R]
    bench/compare_bench.py --interleave BINARY --base BASE_BINARY
                           [--filter REGEX] [--rounds 5] [--min-ratio R]

Two rows of one binary (--bench-a/--bench-b): launch BINARY 2 x rounds
times, alternating strictly A, B, A, B, ..., and report the per-round rate
ratio B/A plus its median.

One binary against another (--base): every row that REGEX selects in both
binaries runs once per round in each, the two processes back to back, with
the first side alternating from round to round (base first in odd rounds)
so neither side always runs on a warmer or cooler host.  The ratio is
BINARY/BASE.  A row only one binary has is reported, never gated, so adding
or retiring a benchmark does not fail the comparison.

Pairing adjacent runs cancels the slow drifts (thermal throttling,
frequency scaling, noisy neighbours) that make two widely separated
measurements incomparable, and the median discards outlier rounds.
--min-ratio gates each median (exit 1 below it); without the flag the mode
is purely informational.

Exit status: 0 on pass, 1 on a median ratio below --min-ratio, 2 on bad
input.  Stdlib only -- no third-party dependencies.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_benchmark(binary, args):
    """Runs `binary` with `args`; exits 2 when it cannot run or fails."""
    try:
        proc = subprocess.run([binary, *args], capture_output=True, text=True)
    except OSError as e:
        print(f"error: cannot run {binary}: {e}", file=sys.stderr)
        sys.exit(2)
    if proc.returncode != 0:
        print(f"error: {binary} {' '.join(args)} exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def list_rows(binary, pattern):
    """Names of the rows of `binary` that the filter `pattern` selects."""
    out = run_benchmark(binary, ["--benchmark_list_tests",
                                 f"--benchmark_filter={pattern}"])
    return [line.strip() for line in out.splitlines() if line.strip()]


def measure_once(binary, name):
    """Runs one benchmark in its own process; returns its events/sec.

    One process per measurement is the point: google-benchmark runs
    benchmarks of one process back-to-back, so in-process "interleaving"
    would still measure A entirely before B.  A fresh process per sample
    also resets allocator and cache state, so A and B start equal.
    """
    out = run_benchmark(binary, [f"--benchmark_filter=^{re.escape(name)}$",
                                 "--benchmark_format=json"])
    try:
        doc = json.loads(out)
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
    rate = float(rows[0].get("events_per_second",
                             rows[0].get("items_per_second")))
    if rate <= 0.0:
        print(f"error: nonpositive rate {rate} for {name} in {binary}",
              file=sys.stderr)
        sys.exit(2)
    return rate


def gate(label, ratios, min_ratio):
    """Prints one row's verdict; returns True when it fails the gate."""
    med = statistics.median(ratios)
    spread = f"{min(ratios):.3f}-{max(ratios):.3f}"
    failed = min_ratio is not None and med < min_ratio
    verdict = "FAIL" if failed else ("ok" if min_ratio is not None else "")
    print(f"{verdict:>6}  {label}: median {med:.3f} "
          f"(range {spread}, {len(ratios)} round(s))")
    return failed


def run_rows(args):
    """Strict A, B, A, B process alternation of two rows of one binary."""
    ratios = []
    for r in range(args.rounds):
        rate_a = measure_once(args.interleave, args.bench_a)
        rate_b = measure_once(args.interleave, args.bench_b)
        ratios.append(rate_b / rate_a)
        print(f"{'round':>10}  {r + 1}/{args.rounds}: "
              f"{args.bench_a} {rate_a:,.0f} ev/s, "
              f"{args.bench_b} {rate_b:,.0f} ev/s "
              f"(ratio {ratios[-1]:.3f})")
    print()
    if gate(f"{args.bench_b} / {args.bench_a}", ratios, args.min_ratio):
        print(f"FAIL: median ratio below {args.min_ratio:.3f}",
              file=sys.stderr)
        return 1
    if args.min_ratio is not None:
        print(f"PASS: median ratio at or above {args.min_ratio:.3f}")
    return 0


def run_binaries(args):
    """Every shared row, BINARY against BASE, first side alternating."""
    head_rows = list_rows(args.interleave, args.filter)
    base_rows = list_rows(args.base, args.filter)
    shared = [n for n in head_rows if n in base_rows]
    for name in head_rows:
        if name not in base_rows:
            print(f"{'new':>6}  {name}: in {args.interleave} only "
                  "(not compared)")
    for name in base_rows:
        if name not in head_rows:
            print(f"{'gone':>6}  {name}: in {args.base} only "
                  "(not compared)")
    if not shared:
        print("error: the binaries share no row the filter selects",
              file=sys.stderr)
        return 2

    ratios = {name: [] for name in shared}
    for r in range(args.rounds):
        base_first = r % 2 == 0
        for name in shared:
            if base_first:
                base = measure_once(args.base, name)
                head = measure_once(args.interleave, name)
            else:
                head = measure_once(args.interleave, name)
                base = measure_once(args.base, name)
            ratios[name].append(head / base)
        print(f"{'round':>10}  {r + 1}/{args.rounds} "
              f"({'base' if base_first else 'head'} first): " +
              ", ".join(f"{n} {ratios[n][-1]:.3f}" for n in shared),
              flush=True)

    print(f"\nrate ratio {args.interleave} / {args.base}, per row:")
    failures = [n for n in shared if gate(n, ratios[n], args.min_ratio)]
    if failures:
        print(f"\nFAIL: {len(failures)} row(s) below median ratio "
              f"{args.min_ratio:.3f}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    if args.min_ratio is not None:
        print(f"\nPASS: {len(shared)} row(s) at or above median ratio "
              f"{args.min_ratio:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--interleave", metavar="BINARY", required=True,
                        help="google-benchmark binary to launch (the "
                        "numerator)")
    parser.add_argument("--bench-a", help="denominator row of BINARY")
    parser.add_argument("--bench-b", help="numerator row of BINARY")
    parser.add_argument("--base", metavar="BASE_BINARY",
                        help="binary to compare BINARY against, row by row "
                        "(the denominator)")
    parser.add_argument("--filter", default=".",
                        help="google-benchmark filter selecting the rows "
                        "compared with --base (default: every row)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="paired rounds (default: 5)")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="fail (exit 1) when a median ratio falls "
                        "below this")
    args = parser.parse_args()

    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.base:
        if args.bench_a or args.bench_b:
            parser.error("--base compares whole binaries; drop "
                         "--bench-a/--bench-b")
        return run_binaries(args)
    if not args.bench_a or not args.bench_b:
        parser.error("--interleave requires --bench-a and --bench-b, "
                     "or --base")
    return run_rows(args)


if __name__ == "__main__":
    sys.exit(main())
