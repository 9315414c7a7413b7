#!/usr/bin/env python3
"""Print one SHA-256 per verify suite over its ``details``.

Run from the repository root on reports written by ``scenerywalk verify
--out``:

    python tools/details_digest.py before.json [after.json ...]

Each line is ``<sha256>  <suite name>``; the hash covers the suite's
``details`` as sorted-key JSON, so two runs that produced bit-identical
results print identical lines and a plain ``diff`` of the outputs checks it.
Timings and budgets are not hashed.
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
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for digest, name in details_digests(report):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
