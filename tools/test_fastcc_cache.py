"""Unit tests for fastcc_cache (the analyzers' per-file result cache).

Run directly (`python3 tools/test_fastcc_cache.py`) or via the
`fastcc_cache_unit` ctest.  Covers the keying contract (content, sibling
header, config digest), corrupt-entry tolerance, the disabled mode, and an
end-to-end hit/miss/invalidation pass through the real fastcc-lint CLI.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fastcc_cache  # noqa: E402

TOOLS = os.path.dirname(os.path.abspath(__file__))
FINDINGS = [(3, "mutable-global", "static counter"),
            (9, "float-usage", "double in the hot path")]


class ResultCacheTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="fastcc-cache-test-")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)

    def make(self, config="cfg-a", enabled=True):
        return fastcc_cache.ResultCache(
            self.tmp, "lint",
            fastcc_cache.ResultCache.digest_config(config), enabled=enabled)

    def test_round_trip(self):
        cache = self.make()
        key = cache.key_for("src/a.cc", "int x;")
        self.assertIsNone(cache.get(key))
        cache.put(key, FINDINGS)
        self.assertEqual(cache.get(key), FINDINGS)
        self.assertEqual(cache.hits, 1)

    def test_empty_findings_round_trip(self):
        cache = self.make()
        key = cache.key_for("src/a.cc", "int x;")
        cache.put(key, [])
        self.assertEqual(cache.get(key), [])

    def test_content_change_invalidates(self):
        cache = self.make()
        k1 = cache.key_for("src/a.cc", "int x;")
        cache.put(k1, FINDINGS)
        k2 = cache.key_for("src/a.cc", "int x;  // edited")
        self.assertNotEqual(k1, k2)
        self.assertIsNone(cache.get(k2))

    def test_sibling_header_participates(self):
        cache = self.make()
        k1 = cache.key_for("src/a.cc", "int x;", sibling_text="struct A {};")
        k2 = cache.key_for("src/a.cc", "int x;", sibling_text="struct B {};")
        self.assertNotEqual(k1, k2)

    def test_path_participates(self):
        cache = self.make()
        self.assertNotEqual(cache.key_for("src/a.cc", "int x;"),
                            cache.key_for("src/b.cc", "int x;"))

    def test_config_digest_invalidates(self):
        a = self.make(config="cfg-a")
        key_a = a.key_for("src/a.cc", "int x;")
        a.put(key_a, FINDINGS)
        b = self.make(config="cfg-b")
        self.assertIsNone(b.get(b.key_for("src/a.cc", "int x;")))

    def test_corrupt_entry_is_a_miss(self):
        cache = self.make()
        key = cache.key_for("src/a.cc", "int x;")
        cache.put(key, FINDINGS)
        with open(cache._entry_path(key), "w", encoding="utf-8") as f:
            f.write("{not json")
        self.assertIsNone(cache.get(key))

    def test_wrong_shape_is_a_miss(self):
        cache = self.make()
        key = cache.key_for("src/a.cc", "int x;")
        cache.put(key, FINDINGS)
        with open(cache._entry_path(key), "w", encoding="utf-8") as f:
            f.write('{"v": 1, "findings": "nope"}')
        self.assertIsNone(cache.get(key))

    def test_disabled_cache_never_stores(self):
        cache = self.make(enabled=False)
        key = cache.key_for("src/a.cc", "int x;")
        cache.put(key, FINDINGS)
        self.assertIsNone(cache.get(key))
        self.assertFalse(os.path.exists(os.path.join(self.tmp, "lint")))

    def test_version_salt_bump_misses_unchanged_hits(self):
        # The tools fold ANALYZER_SALT into digest_config; a salt bump must
        # invalidate every entry while an unchanged salt keeps hitting.
        def units_cache(salt):
            return fastcc_cache.ResultCache(
                self.tmp, "units",
                fastcc_cache.ResultCache.digest_config(salt, ["unit-mix"]))

        v1 = units_cache("fastcc-units-v1")
        v1.put(v1.key_for("src/a.cc", "int x;"), FINDINGS)

        same = units_cache("fastcc-units-v1")
        self.assertEqual(same.get(same.key_for("src/a.cc", "int x;")),
                         FINDINGS)

        bumped = units_cache("fastcc-units-v2")
        self.assertIsNone(bumped.get(bumped.key_for("src/a.cc", "int x;")))


class LintEndToEndTest(unittest.TestCase):
    """The real CLI: second run hits, edits invalidate, findings survive."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="fastcc-cache-e2e-")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)
        self.cache_dir = os.path.join(self.tmp, "cache")
        self.src = os.path.join(self.tmp, "probe.cc")
        with open(self.src, "w", encoding="utf-8") as f:
            f.write("static int g_probe = 0;\n")

    def run_lint(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "fastcc-lint"),
             "--mode", "tokens", "--cache-dir", self.cache_dir, self.src],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_hit_miss_invalidate(self):
        code, out = self.run_lint()
        self.assertEqual(code, 1, out)  # mutable-global fires
        self.assertIn("cache 0 hit(s) / 1 file(s)", out)
        self.assertIn("mutable-global", out)

        code, out = self.run_lint()
        self.assertEqual(code, 1, out)
        self.assertIn("cache 1 hit(s) / 1 file(s)", out)
        self.assertIn("mutable-global", out)  # findings replay from cache

        with open(self.src, "w", encoding="utf-8") as f:
            f.write("static const int k_probe = 0;\n")
        code, out = self.run_lint()
        self.assertEqual(code, 0, out)
        self.assertIn("cache 0 hit(s) / 1 file(s)", out)


class AnalyzeDriverCacheTest(unittest.TestCase):
    """fastcc-analyze shares one cache directory but each analyzer keeps
    its own namespace: wiping one tool's entries must not invalidate the
    others'."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="fastcc-analyze-cache-")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)
        self.cache_dir = os.path.join(self.tmp, "cache")
        self.src = os.path.join(self.tmp, "probe.cc")
        with open(self.src, "w", encoding="utf-8") as f:
            f.write("int fx_probe(int a, int b) { return a + b; }\n")

    def run_analyze(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "fastcc-analyze"),
             "--cache-dir", self.cache_dir, self.src],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_per_analyzer_namespaces_are_independent(self):
        code, out = self.run_analyze()
        self.assertEqual(code, 0, out)
        for tool in ("lint", "dataflow", "units"):
            self.assertTrue(
                os.path.isdir(os.path.join(self.cache_dir, tool)),
                f"missing cache namespace for {tool}: {out}")
        self.assertEqual(out.count("cache 0 hit(s) / 1 file(s)"), 3, out)

        code, out = self.run_analyze()
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("cache 1 hit(s) / 1 file(s)"), 3, out)

        # Wiping the units namespace re-analyzes only units.
        shutil.rmtree(os.path.join(self.cache_dir, "units"))
        code, out = self.run_analyze()
        self.assertEqual(code, 0, out)
        self.assertIn("fastcc-units: 1 files, 0 finding(s)", out)
        self.assertEqual(out.count("cache 1 hit(s) / 1 file(s)"), 2, out)
        self.assertEqual(out.count("cache 0 hit(s) / 1 file(s)"), 1, out)


if __name__ == "__main__":
    unittest.main()
