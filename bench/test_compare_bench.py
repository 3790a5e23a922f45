#!/usr/bin/env python3
"""Unit tests for bench/compare_bench.py -- the CI perf-regression gate.

The gate's failure modes are exactly the ones a test must pin down: a median
ratio below --min-ratio must exit 1, a row only one binary has must be
reported but NOT gated (so adding a benchmark never fails the comparison),
the process order must pair adjacent runs, and malformed input must exit 2
rather than silently pass.

Runs the script as a subprocess -- the same way CI invokes it -- against
stand-in benchmark binaries.  Stdlib only; executed under ctest as
compare_bench_unit.  Usage: python3 bench/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")

# A stand-in google-benchmark binary: honors --benchmark_list_tests,
# --benchmark_filter and --benchmark_format=json, logs every measurement as
# "<binary> <row>" (so a test can assert the process order), and serves
# rates from the config file next to it (<binary>.json) -- per-call lists
# let a test simulate drift or an outlier round.
FAKE_BENCH = r'''#!/usr/bin/env python3
import json, os, re, sys
me = os.path.basename(sys.argv[0])
cfg = json.load(open(sys.argv[0] + ".json"))
if cfg.get("garbage"):
    print("this is not benchmark json")
    sys.exit(0)
filt = next(a.split("=", 1)[1] for a in sys.argv[1:]
            if a.startswith("--benchmark_filter="))
if "--benchmark_list_tests" in sys.argv:
    for name in cfg["rates"]:
        if re.search(filt, name):
            print(name)
    sys.exit(0)
name = filt[1:-1].replace("\\", "")  # strip ^...$ and regex escaping
prior = []
if os.path.exists(cfg["log"]):
    with open(cfg["log"]) as f:
        prior = f.read().splitlines()
with open(cfg["log"], "a") as f:
    f.write(f"{me} {name}\n")
rates = cfg["rates"].get(name)
if rates is None:
    print(json.dumps({"benchmarks": []}))
    sys.exit(0)
if isinstance(rates, list):
    call = prior.count(f"{me} {name}")
    rates = rates[min(call, len(rates) - 1)]
key = cfg.get("rate_key", "events_per_second")
rows = [{"name": name, "run_type": "iteration", key: rates}]
if cfg.get("aggregates"):
    # --benchmark_repetitions output: mean/stddev rows beside the runs.
    rows += [{"name": name + "_mean", "run_name": name,
              "run_type": "aggregate", key: rates},
             {"name": name + "_stddev", "run_name": name,
              "run_type": "aggregate", key: 1.0}]
print(json.dumps({"benchmarks": rows}))
'''


class FakeBenchTestCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="compare_bench_test_")
        self.addCleanup(self._tmp.cleanup)
        self.log = os.path.join(self._tmp.name, "calls.log")

    def fake_binary(self, name, rates, garbage=False, **extra):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(FAKE_BENCH)
        os.chmod(path, 0o755)
        with open(path + ".json", "w", encoding="utf-8") as f:
            json.dump({"rates": rates, "log": self.log, "garbage": garbage,
                       **extra}, f)
        return path

    def run_script(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True)

    def calls(self):
        with open(self.log, encoding="utf-8") as f:
            return f.read().splitlines()


class InterleaveRowsTest(FakeBenchTestCase):
    """Two rows of one binary: --bench-a / --bench-b."""

    def run_rows(self, rates, *extra, garbage=False):
        binary = self.fake_binary("bench", rates, garbage)
        return self.run_script("--interleave", binary, "--bench-a", "BM_A/8",
                               "--bench-b", "BM_B/8", *extra)

    def test_strict_alternation_and_median(self):
        # Per-round ratios 2.5, 2.4, 2.6: median must be 2.5, and the
        # process order must be A, B, A, B, A, B -- adjacent pairing is the
        # whole drift-cancellation argument.
        res = self.run_rows({"BM_A/8": 1e6, "BM_B/8": [2.5e6, 2.4e6, 2.6e6]},
                            "--rounds", "3")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("median", res.stdout)
        self.assertIn("2.500", res.stdout)
        self.assertEqual(self.calls(), ["bench BM_A/8", "bench BM_B/8"] * 3)

    def test_median_discards_outlier_round(self):
        # One round hit by a noisy neighbor (ratio 0.1) must not drag the
        # verdict down: the median of {2.5, 0.1, 2.5} is 2.5.
        res = self.run_rows({"BM_A/8": 1e6, "BM_B/8": [2.5e6, 1e5, 2.5e6]},
                            "--rounds", "3", "--min-ratio", "2.0")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("PASS", res.stdout)

    def test_min_ratio_gate_fails(self):
        res = self.run_rows({"BM_A/8": 1e6, "BM_B/8": 1e6},
                            "--rounds", "3", "--min-ratio", "2.5")
        self.assertEqual(res.returncode, 1)
        self.assertIn("FAIL", res.stderr)

    def test_without_min_ratio_is_informational(self):
        res = self.run_rows({"BM_A/8": 1e6, "BM_B/8": 1e5}, "--rounds", "1")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertNotIn("PASS", res.stdout)  # no gate, no verdict

    def test_missing_benchmark_exits_2(self):
        res = self.run_rows({"BM_A/8": 1e6}, "--rounds", "1")
        self.assertEqual(res.returncode, 2)
        self.assertIn("matched 0", res.stderr)

    def test_malformed_benchmark_output_exits_2(self):
        res = self.run_rows({}, "--rounds", "1", garbage=True)
        self.assertEqual(res.returncode, 2)
        self.assertIn("malformed", res.stderr)

    def test_nonpositive_rate_exits_2(self):
        res = self.run_rows({"BM_A/8": 0.0, "BM_B/8": 1e6}, "--rounds", "1")
        self.assertEqual(res.returncode, 2)
        self.assertIn("nonpositive", res.stderr)

    def test_interleave_requires_bench_names(self):
        binary = self.fake_binary("bench", {})
        res = self.run_script("--interleave", binary)
        self.assertEqual(res.returncode, 2)
        self.assertIn("--bench-a", res.stderr)


class InterleaveBinariesTest(FakeBenchTestCase):
    """One binary against a base binary: --base, row by row."""

    def run_pair(self, head_rates, base_rates, *extra):
        head = self.fake_binary("head", head_rates)
        base = self.fake_binary("base", base_rates)
        return self.run_script("--interleave", head, "--base", base, *extra)

    def test_rows_pair_back_to_back_and_first_side_alternates(self):
        rates = {"BM_X": 1e6, "BM_Y/16": 2e6}
        res = self.run_pair(rates, rates, "--rounds", "3")
        self.assertEqual(res.returncode, 0, res.stderr)
        base_first = ["base BM_X", "head BM_X", "base BM_Y/16", "head BM_Y/16"]
        head_first = ["head BM_X", "base BM_X", "head BM_Y/16", "base BM_Y/16"]
        self.assertEqual(self.calls(), base_first + head_first + base_first)

    def test_median_ratio_per_row_gates(self):
        # BM_X: head/base 0.8, 0.9, 0.8 -> median 0.8 < 0.85 fails;
        # BM_Y: 1.0 throughout passes.  The verdict names only BM_X.
        res = self.run_pair({"BM_X": [8e5, 9e5, 8e5], "BM_Y": 1e6},
                            {"BM_X": 1e6, "BM_Y": 1e6},
                            "--rounds", "3", "--min-ratio", "0.85")
        self.assertEqual(res.returncode, 1)
        self.assertIn("BM_X", res.stderr)
        self.assertNotIn("BM_Y", res.stderr)
        self.assertIn("median 0.800", res.stdout)

    def test_outlier_round_does_not_trip_the_gate(self):
        res = self.run_pair({"BM_X": [1e6, 1e5, 1e6]}, {"BM_X": 1e6},
                            "--rounds", "3", "--min-ratio", "0.85")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("PASS", res.stdout)

    def test_row_in_one_binary_is_reported_not_gated(self):
        # A new row with a tiny rate and a retired row must not fail the
        # gate, and neither is ever measured.
        res = self.run_pair({"BM_X": 1e6, "BM_New": 1.0},
                            {"BM_X": 1e6, "BM_Old": 1e6},
                            "--rounds", "2", "--min-ratio", "0.85")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("new", res.stdout)
        self.assertIn("BM_New", res.stdout)
        self.assertIn("gone", res.stdout)
        self.assertIn("BM_Old", res.stdout)
        self.assertEqual(sorted(set(self.calls())),
                         ["base BM_X", "head BM_X"])

    def test_filter_selects_rows(self):
        rates = {"BM_TimingWheel": 1e6, "BM_Jain": 1e6}
        res = self.run_pair(rates, rates, "--rounds", "1",
                            "--filter", "TimingWheel")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertEqual(sorted(self.calls()),
                         ["base BM_TimingWheel", "head BM_TimingWheel"])

    def test_google_benchmark_items_per_second_is_read(self):
        # google-benchmark itself spells the rate items_per_second.
        head = self.fake_binary("head", {"BM_X": 8e5},
                                rate_key="items_per_second")
        base = self.fake_binary("base", {"BM_X": 1e6},
                                rate_key="items_per_second")
        res = self.run_script("--interleave", head, "--base", base,
                              "--rounds", "1")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("median 0.800", res.stdout)

    def test_aggregate_rows_are_skipped(self):
        # A stddev row would otherwise be read as the row's rate.
        head = self.fake_binary("head", {"BM_X": 1e6}, aggregates=True)
        base = self.fake_binary("base", {"BM_X": 1e6}, aggregates=True)
        res = self.run_script("--interleave", head, "--base", base,
                              "--rounds", "1", "--min-ratio", "0.85")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("median 1.000", res.stdout)

    def test_same_binary_against_itself_passes(self):
        binary = self.fake_binary("head", {"BM_X": 1e6})
        res = self.run_script("--interleave", binary, "--base", binary,
                              "--rounds", "2", "--min-ratio", "0.85")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("PASS", res.stdout)

    def test_no_shared_row_exits_2(self):
        res = self.run_pair({"BM_New": 1e6}, {"BM_Old": 1e6}, "--rounds", "1")
        self.assertEqual(res.returncode, 2)
        self.assertIn("share no row", res.stderr)

    def test_missing_base_binary_exits_2(self):
        head = self.fake_binary("head", {"BM_X": 1e6})
        res = self.run_script("--interleave", head, "--base",
                              os.path.join(self._tmp.name, "nope"))
        self.assertEqual(res.returncode, 2)
        self.assertIn("cannot run", res.stderr)

    def test_base_with_bench_names_is_rejected(self):
        head = self.fake_binary("head", {"BM_X": 1e6})
        res = self.run_script("--interleave", head, "--base", head,
                              "--bench-a", "BM_X", "--bench-b", "BM_X")
        self.assertEqual(res.returncode, 2)
        self.assertIn("--base", res.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
