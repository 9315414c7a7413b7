#!/usr/bin/env python3
"""Print one SHA-256 per verify suite over its ``details``.

Run from the repository root on reports written by ``scenerywalk verify
--out``:

    python tools/details_digest.py before.json [after.json ...]

Each line is ``<sha256>  <suite name>``; the hash covers the suite's
``details`` as sorted-key JSON, so two runs that produced bit-identical
results print identical lines.  Timings and budgets are not hashed.

With two or more reports the exit status is the bit-identity gate: 0 when
every suite has the same digest in all of them, 1 when some suite's digest
differs (or the suite is missing from a report), with the differing suites
named on stderr.
"""

from __future__ import annotations

import hashlib
import json
import sys


def details_digests(report: dict) -> list[tuple[str, str]]:
    """(sha256, suite name) for every result of one verify report."""
    out = []
    for result in report["results"]:
        blob = json.dumps(result["details"], sort_keys=True).encode()
        out.append((hashlib.sha256(blob).hexdigest(), result["name"]))
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    per_report = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        digests = details_digests(report)
        for digest, name in digests:
            print(f"{digest}  {name}")
        per_report.append({name: digest for digest, name in digests})
    names = sorted({name for digests in per_report for name in digests})
    differ = [n for n in names if len({digests.get(n) for digests in per_report}) > 1]
    if differ:
        print("details differ: " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
