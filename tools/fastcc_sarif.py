"""fastcc_sarif: SARIF 2.1.0 emission for fastcc-lint.

Each finding is a (path, line, check-id, message) tuple.  The output
targets GitHub code scanning via `github/codeql-action/upload-sarif`, which
renders each result as an inline annotation on the PR diff.

Zero dependencies beyond CPython.  The emitter is deliberately minimal:
one run per invocation, one rule per check id, `error` level for every
result (all fastcc checks are blocking).
"""

from __future__ import annotations

import json
import os

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def findings_to_sarif(tool_name, checks, findings, root):
    """Builds the SARIF document dict.

    `checks` maps check-id -> one-line description (the tool's CHECKS
    registry); `findings` is an iterable of objects with .path/.line/
    .check/.message attributes; `root` is the repo root used to relativize
    artifact URIs so annotations attach to checked-out files in CI.
    """
    rules = [
        {
            "id": cid,
            "name": cid.replace("-", "_"),
            "shortDescription": {"text": cid},
            "fullDescription": {"text": desc},
            "defaultConfiguration": {"level": "error"},
        }
        for cid, desc in sorted(checks.items())
    ]
    results = []
    for f in findings:
        rel = os.path.relpath(f.path, root).replace(os.sep, "/")
        results.append({
            "ruleId": f.check,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": rel,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(1, int(f.line))},
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "informationUri":
                        "https://github.com/fastcc/fastcc (tools/)",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file://" + root.rstrip("/") + "/"},
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def write_sarif(out_path, tool_name, checks, findings, root):
    """Serializes the SARIF document to `out_path` (parent dirs created).

    Written unconditionally — an empty `results` array is how code scanning
    learns that previously reported findings are resolved — and before the
    caller decides its exit status, so a failing gate still uploads."""
    doc = findings_to_sarif(tool_name, checks, findings, root)
    parent = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(parent, exist_ok=True)
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    os.replace(tmp, out_path)
