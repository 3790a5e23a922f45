#!/usr/bin/env python3
"""Unit tests for bench/compare_bench.py — the CI perf-regression gate.

The gate's failure modes are exactly the ones a test must pin down: a
regression beyond threshold must exit 1, a new/renamed benchmark must warn
but NOT fail (so adding a benchmark doesn't force a baseline regen in the
same commit), and malformed input must exit 2 rather than silently pass.

Runs the script as a subprocess — the same way CI invokes it — against
temp JSON files.  Stdlib only; executed under ctest as compare_bench_unit.
Usage: python3 bench/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def bench_doc(rates, rate_key="events_per_second", extra_rows=()):
    doc = {"benchmarks": [{"name": n, rate_key: r} for n, r in rates.items()]}
    doc["benchmarks"].extend(extra_rows)
    return doc


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="compare_bench_test_")
        self.addCleanup(self._tmp.cleanup)

    def write_json(self, name, doc):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_compare(self, baseline, fresh, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, fresh, *extra],
            capture_output=True, text=True)

    def test_identical_runs_pass(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json("fresh.json", bench_doc({"dispatch": 1e6}))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("PASS", res.stdout)

    def test_regression_beyond_threshold_fails(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        # 20% drop against the default 15% threshold.
        fresh = self.write_json("fresh.json", bench_doc({"dispatch": 8e5}))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 1)
        self.assertIn("REGRESSION", res.stdout)
        self.assertIn("dispatch", res.stderr)

    def test_drop_within_threshold_passes(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json("fresh.json", bench_doc({"dispatch": 9e5}))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_threshold_flag_tightens_the_gate(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json("fresh.json", bench_doc({"dispatch": 9e5}))
        res = self.run_compare(base, fresh, "--threshold", "0.05")
        self.assertEqual(res.returncode, 1)

    def test_new_benchmark_warns_but_does_not_fail(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json(
            "fresh.json", bench_doc({"dispatch": 1e6, "pfc_storm": 5e5}))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("new", res.stdout)
        self.assertIn("pfc_storm", res.stdout)

    def test_retired_benchmark_warns_but_does_not_fail(self):
        base = self.write_json(
            "base.json", bench_doc({"dispatch": 1e6, "legacy": 2e6}))
        fresh = self.write_json("fresh.json", bench_doc({"dispatch": 1e6}))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("missing", res.stdout)

    def test_google_benchmark_items_per_second_accepted(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json(
            "fresh.json", bench_doc({"dispatch": 1e6},
                                    rate_key="items_per_second"))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_aggregate_rows_skipped(self):
        # mean/median/stddev rows must not be compared as benchmarks: the
        # stddev row would otherwise read as a catastrophic regression.
        agg = [{"name": "dispatch_stddev", "run_type": "aggregate",
                "events_per_second": 1e3}]
        base = self.write_json(
            "base.json", bench_doc({"dispatch": 1e6}, extra_rows=agg))
        fresh = self.write_json(
            "fresh.json", bench_doc({"dispatch": 1e6}, extra_rows=agg))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertNotIn("dispatch_stddev", res.stdout)

    def test_malformed_json_exits_2(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json("fresh.json", "{not valid json")
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 2)
        self.assertIn("error", res.stderr)

    def test_missing_file_exits_2(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        res = self.run_compare(base, os.path.join(self._tmp.name, "nope.json"))
        self.assertEqual(res.returncode, 2)

    def test_empty_benchmark_list_exits_2(self):
        base = self.write_json("base.json", bench_doc({"dispatch": 1e6}))
        fresh = self.write_json("fresh.json", {"benchmarks": []})
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 2)

    def test_disjoint_benchmark_sets_exit_2(self):
        base = self.write_json("base.json", bench_doc({"old_name": 1e6}))
        fresh = self.write_json("fresh.json", bench_doc({"new_name": 1e6}))
        res = self.run_compare(base, fresh)
        self.assertEqual(res.returncode, 2)
        self.assertIn("share no benchmark", res.stderr)


# A stand-in google-benchmark binary for interleave-mode tests: honors
# --benchmark_filter / --benchmark_format=json, logs every invocation (so a
# test can assert the strict A, B, A, B process order), and serves rates
# from a config file — per-call lists let a test simulate drift or an
# outlier round.
FAKE_BENCH = r'''#!/usr/bin/env python3
import json, os, sys
cfg = json.load(open(os.environ["FAKE_BENCH_CFG"]))
if cfg.get("garbage"):
    print("this is not benchmark json")
    sys.exit(0)
filt = next(a.split("=", 1)[1] for a in sys.argv[1:]
            if a.startswith("--benchmark_filter="))
name = filt[1:-1].replace("\\", "")  # strip ^...$ and regex escaping
prior = []
if os.path.exists(cfg["log"]):
    with open(cfg["log"]) as f:
        prior = f.read().split()
with open(cfg["log"], "a") as f:
    f.write(name + "\n")
rates = cfg["rates"].get(name)
if rates is None:
    print(json.dumps({"benchmarks": []}))
    sys.exit(0)
if isinstance(rates, list):
    call = prior.count(name)
    rates = rates[min(call, len(rates) - 1)]
print(json.dumps({"benchmarks": [
    {"name": name, "run_type": "iteration", "events_per_second": rates}]}))
'''


class InterleaveModeTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="interleave_test_")
        self.addCleanup(self._tmp.cleanup)
        self.binary = os.path.join(self._tmp.name, "fake_bench")
        with open(self.binary, "w", encoding="utf-8") as f:
            f.write(FAKE_BENCH)
        os.chmod(self.binary, 0o755)
        self.log = os.path.join(self._tmp.name, "calls.log")
        self.cfg = os.path.join(self._tmp.name, "cfg.json")

    def configure(self, rates, garbage=False):
        with open(self.cfg, "w", encoding="utf-8") as f:
            json.dump({"rates": rates, "log": self.log, "garbage": garbage}, f)

    def run_interleave(self, *extra):
        env = dict(os.environ, FAKE_BENCH_CFG=self.cfg)
        return subprocess.run(
            [sys.executable, SCRIPT, "--interleave", self.binary,
             "--bench-a", "BM_A/8", "--bench-b", "BM_B/8", *extra],
            capture_output=True, text=True, env=env)

    def calls(self):
        with open(self.log, encoding="utf-8") as f:
            return f.read().split()

    def test_strict_alternation_and_median(self):
        # Per-round ratios 2.5, 2.4, 2.6: median must be 2.5, and the
        # process order must be A, B, A, B, A, B — adjacent pairing is the
        # whole drift-cancellation argument.
        self.configure({"BM_A/8": 1e6, "BM_B/8": [2.5e6, 2.4e6, 2.6e6]})
        res = self.run_interleave("--rounds", "3")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("median", res.stdout)
        self.assertIn("2.500", res.stdout)
        self.assertEqual(self.calls(),
                         ["BM_A/8", "BM_B/8"] * 3)

    def test_median_discards_outlier_round(self):
        # One round hit by a noisy neighbor (ratio 0.1) must not drag the
        # verdict down: the median of {2.5, 0.1, 2.5} is 2.5.
        self.configure({"BM_A/8": 1e6, "BM_B/8": [2.5e6, 1e5, 2.5e6]})
        res = self.run_interleave("--rounds", "3", "--min-ratio", "2.0")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("PASS", res.stdout)

    def test_min_ratio_gate_fails(self):
        self.configure({"BM_A/8": 1e6, "BM_B/8": 1e6})
        res = self.run_interleave("--rounds", "3", "--min-ratio", "2.5")
        self.assertEqual(res.returncode, 1)
        self.assertIn("FAIL", res.stderr)

    def test_without_min_ratio_is_informational(self):
        self.configure({"BM_A/8": 1e6, "BM_B/8": 1e5})
        res = self.run_interleave("--rounds", "1")
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertNotIn("PASS", res.stdout)  # no gate, no verdict

    def test_missing_benchmark_exits_2(self):
        self.configure({"BM_A/8": 1e6})  # BM_B/8 unknown to the binary
        res = self.run_interleave("--rounds", "1")
        self.assertEqual(res.returncode, 2)
        self.assertIn("matched 0", res.stderr)

    def test_malformed_benchmark_output_exits_2(self):
        self.configure({}, garbage=True)
        res = self.run_interleave("--rounds", "1")
        self.assertEqual(res.returncode, 2)
        self.assertIn("malformed", res.stderr)

    def test_interleave_requires_bench_names(self):
        env = dict(os.environ, FAKE_BENCH_CFG=self.cfg)
        res = subprocess.run(
            [sys.executable, SCRIPT, "--interleave", self.binary],
            capture_output=True, text=True, env=env)
        self.assertEqual(res.returncode, 2)
        self.assertIn("--bench-a", res.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
