"""fastcc_cache: per-file content-hash result cache for the fastcc analyzers.

CI runs fastcc-lint, fastcc-dataflow, and fastcc-units over the whole tree
on every push; almost every file is unchanged from the previous run.
This cache keys each file's findings by a digest of everything that could
change the analysis verdict:

  * a tool-version salt (bump ANALYZER_SALT in the tool when check logic
    changes so stale entries self-invalidate),
  * the analysis configuration (mode, selected checks),
  * a cross-file context digest (contract/annotation tables for the
    dataflow/units tools, which read declarations tree-wide),
  * the file's own bytes, and
  * for .cc files, the sibling header's bytes (fastcc-lint's
    unordered-iter check merges the header's container declarations).

Entries store only (line, check, message) triples; the caller re-attaches
the path.  Writes are atomic (`os.replace`) so concurrent analyzer runs
sharing one cache directory can never observe a torn entry.  The cache
lives in `.fastcc-cache/<tool>/` at the repo root by default and is
disabled entirely by `--no-cache`.

Zero dependencies beyond CPython.
"""

from __future__ import annotations

import hashlib
import json
import os

FORMAT_VERSION = 2


class ResultCache:
    """Content-addressed findings store for one analyzer.

    `config_digest` folds in everything global to the invocation (tool
    salt, mode, selected checks, cross-file context); `key_for` folds in
    the per-file content.  A miss returns None; the caller analyzes and
    calls put().
    """

    def __init__(self, cache_dir, tool, config_digest, enabled=True):
        self.dir = os.path.join(cache_dir, tool)
        self.config_digest = config_digest
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # -- keying -----------------------------------------------------------

    @staticmethod
    def digest_config(*parts):
        """Stable digest of the invocation-global configuration.  Accepts
        strings and JSON-serializable values (sorted for determinism)."""
        h = hashlib.sha256()
        h.update(b"fastcc-cache-v%d" % FORMAT_VERSION)
        for p in parts:
            if not isinstance(p, str):
                p = json.dumps(p, sort_keys=True, default=sorted)
            h.update(b"\x00")
            h.update(p.encode("utf-8", "replace"))
        return h.hexdigest()

    def key_for(self, rel_path, text, sibling_text=""):
        """Cache key for one file.  `rel_path` participates because some
        checks are path-scoped (file allowlists, PFC scope); `sibling_text`
        carries the .h next to a .cc when the analyzer merges it."""
        h = hashlib.sha256()
        h.update(self.config_digest.encode("ascii"))
        h.update(b"\x00")
        h.update(rel_path.encode("utf-8", "replace"))
        h.update(b"\x00")
        h.update(text.encode("utf-8", "replace"))
        h.update(b"\x00")
        h.update(sibling_text.encode("utf-8", "replace"))
        return h.hexdigest()

    # -- storage ----------------------------------------------------------

    def _entry_path(self, key):
        # Two-level fan-out keeps directory listings short on big trees.
        return os.path.join(self.dir, key[:2], key[2:] + ".json")

    def get(self, key):
        """Returns the cached [(line, check, message), ...] or None."""
        if not self.enabled:
            return None
        try:
            with open(self._entry_path(key), encoding="utf-8") as f:
                entry = json.load(f)
        except (OSError, json.JSONDecodeError, ValueError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("v") != FORMAT_VERSION:
            self.misses += 1
            return None
        findings = entry.get("findings")
        if not isinstance(findings, list):
            self.misses += 1
            return None
        out = []
        for item in findings:
            if (not isinstance(item, list) or len(item) != 3
                    or not isinstance(item[0], int)):
                self.misses += 1
                return None
            out.append((item[0], str(item[1]), str(item[2])))
        self.hits += 1
        return out

    def put(self, key, findings):
        """Stores [(line, check, message), ...] atomically; best-effort
        (a read-only cache directory degrades to a no-op, not an error)."""
        if not self.enabled:
            return
        path = self._entry_path(key)
        tmp = path + ".tmp%d" % os.getpid()
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump({"v": FORMAT_VERSION,
                           "findings": [[ln, ck, msg]
                                        for (ln, ck, msg) in findings]}, f)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def stats_line(self):
        return f"cache {self.hits} hit(s) / {self.misses + self.hits} file(s)"


def add_cache_args(ap, default_subdir=".fastcc-cache"):
    """Registers the shared --no-cache / --cache-dir flags on an
    argparse parser.  The default directory resolves at use time relative
    to the caller's repo root."""
    ap.add_argument("--no-cache", action="store_true",
                    help="analyze every file from scratch, ignoring and "
                         "not writing the result cache")
    ap.add_argument("--cache-dir", metavar="DIR", default=None,
                    help=f"result cache directory (default: <repo>/"
                         f"{default_subdir})")


def resolve_cache_dir(args, root, default_subdir=".fastcc-cache"):
    return args.cache_dir or os.path.join(root, default_subdir)


def read_sibling_header(path):
    """The .h/.hpp sibling's text for a .cc/.cpp file, else ''.  Mirrors
    fastcc-lint's unordered-iter sibling merge so the cache key covers it."""
    base, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp"):
        return ""
    for hext in (".h", ".hpp"):
        sibling = base + hext
        if os.path.exists(sibling):
            try:
                with open(sibling, encoding="utf-8", errors="replace") as f:
                    return f.read()
            except OSError:
                return ""
    return ""
