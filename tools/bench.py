#!/usr/bin/env python3
"""Layer microbenchmark of the d = 1 replica kernels.

Run from the repository root:

    python tools/bench.py --out BENCH_<n>.json

For each horizon t it draws one sub-batch of rate-1 skeletons, sized as
``_kernels.skeletons`` sizes them, and times ``srw_paths_batch`` and then
``local_times`` on its output, each from a freshly seeded stream, so every
repeat does the same work.  A layer's figure is the minimum over the
repeats divided by the sojourns (jump count + 1, summed over the rows).
The JSON record also holds the git commit, nproc and the Python and numpy
versions; the same table goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scenerywalk import _kernels  # noqa: E402
from scenerywalk.streams import philox  # noqa: E402

HORIZONS = (100.0, 400.0, 1e4, 1e5)
REPEATS = 9


def git_commit() -> str:
    """HEAD of the checkout, with ``-dirty`` when tracked files differ from it."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def best_of(call) -> tuple[float, object]:
    """Smallest wall time of ``REPEATS`` calls, and the last result."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_horizon(t: float) -> list[dict]:
    """The record of each layer at horizon t."""
    rows = max(16, _kernels._ELEMENT_BUDGET // _kernels._jump_capacity(1.0, t))
    paths_s, (pos, live) = best_of(
        lambda: _kernels.srw_paths_batch(1, 1.0, t, rows, philox(1, int(t)))
    )
    reduce_s, _ = best_of(lambda: _kernels.local_times(pos, live, t, philox(2, int(t))))
    sojourns = int(live.sum())
    return [
        {
            "layer": layer,
            "dim": 1,
            "t": t,
            "rows": rows,
            "columns": pos.shape[1],
            "sojourns": sojourns,
            "best_s": seconds,
            "ns_per_sojourn": 1e9 * seconds / sojourns,
        }
        for layer, seconds in (("srw_paths_batch", paths_s), ("local_times", reduce_s))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    results = [row for t in HORIZONS for row in bench_horizon(t)]
    record = {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": REPEATS,
        "statistic": "minimum wall time over the repeats / sojourns",
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{'layer':<16} {'t':>8} {'rows':>6} {'sojourns':>10} {'ns/sojourn':>11}")
    for r in results:
        print(
            f"{r['layer']:<16} {r['t']:>8g} {r['rows']:>6} {r['sojourns']:>10} "
            f"{r['ns_per_sojourn']:>11.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
