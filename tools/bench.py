#!/usr/bin/env python3
"""Layer microbenchmark of the replica kernels and the layered-model paths.

Run from the repository root:

    python tools/bench.py --out BENCH_<n>.json

For each horizon t it draws one sub-batch of rate-1 d = 1 skeletons, sized
as ``_kernels.skeletons`` sizes them, and times ``srw_paths_batch`` and
then ``local_times`` on its output, each from a freshly seeded stream, so
every repeat does the same work; their figure is ns per sojourn (jump count
+ 1, summed over the rows).  It also times ``vsrw_endpoints_batch`` on the
``vsrw_fixture`` field at t = 50 with 8192 rows, in ns per simulated jump,
and ``detour_distance`` from the origin to the ``chemdist_scaling`` target
at t = 1e5 over 20 field seeds, in seconds and sites evaluated per call.
The field stage works on one sub-batch of a kernel call, whose rows are
also capped by the stream chunk size ``CHUNK``.  It times ``site_uniforms``
in sites/s on the per-row strip of a d = 1 sub-batch at t = 100 and on the
cells of a d = 2 sub-batch at t = 1e4, and takes the tracemalloc peak of
``additive_functional_batch`` per jump cell (rows times the jump capacity
that ``skeletons`` budgets) in d = 1 at t = 100 and in d = 2 and 3 at
t = 2e5.  Every time comes from the minimum over the repeats, every peak
from the smaller of two calls.  The JSON record also holds the git commit,
nproc, the Python, numpy and scipy versions and numpy's SIMD baseline,
dispatch targets and the CPU features it found; the same table goes to
standard output.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scenerywalk import _kernels, chemdist, scenery  # noqa: E402
from scenerywalk.calibration import CALIBRATION  # noqa: E402
from scenerywalk.scenery import SceneryField  # noqa: E402
from scenerywalk.streams import CHUNK, philox  # noqa: E402

HORIZONS = (100.0, 400.0, 1e4, 1e5)
REPEATS = 9
VSRW_T, VSRW_ROWS = 50.0, 8192
DETOUR_T, DETOUR_SEEDS = 1e5, range(20)
HASH_CASES = ((1, 100.0), (2, 1e4))
PEAK_CASES = ((1, 100.0), (2, 2e5), (3, 2e5))


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


def numpy_simd() -> dict:
    """numpy's compiled SIMD baseline, its dispatch targets and the CPU features it found."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "baseline": list(umath.__cpu_baseline__),
        "dispatch": list(umath.__cpu_dispatch__),
        "found": sorted(name for name, found in umath.__cpu_features__.items() if found),
    }


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


class _CountingGenerator:
    """Generator stand-in that counts the uniforms drawn, one per VSRW jump."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def random(self, size=None):
        self.uniforms += int(np.prod(size))
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def vsrw_jumps(field) -> int:
    """Jumps the benchmarked VSRW call simulates (an untimed pass that counts draws)."""
    streams = []

    def counting_philox(*key):
        streams.append(_CountingGenerator(philox(*key)))
        return streams[-1]

    _kernels.philox = counting_philox
    try:
        _kernels.vsrw_endpoints_batch(field, VSRW_T, 1, VSRW_ROWS, tag=0)
    finally:
        _kernels.philox = philox
    return sum(s.uniforms for s in streams)


def bench_vsrw() -> dict:
    fx = CALIBRATION["vsrw_fixture"]
    field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
    seconds, _ = best_of(lambda: _kernels.vsrw_endpoints_batch(field, VSRW_T, 1, VSRW_ROWS, tag=0))
    jumps = vsrw_jumps(field)
    return {
        "layer": "vsrw_endpoints_batch",
        "dim": 1,
        "t": VSRW_T,
        "rows": VSRW_ROWS,
        "jumps": jumps,
        "best_s": seconds,
        "ns_per_jump": 1e9 * seconds / jumps,
    }


class _SiteCounter:
    """Field wrapper that counts the sites evaluated."""

    def __init__(self, field):
        self.field, self.dim, self.sites = field, field.dim, 0

    def values(self, sites):
        self.sites += len(sites)
        return self.field.values(sites)


def bench_detour() -> dict:
    fields = [SceneryField(alpha=1.0, dim=1, seed=s) for s in DETOUR_SEEDS]
    origin = np.zeros(2, dtype=np.int64)
    target = chemdist.target_site(DETOUR_T, 1.0, 0.0, 1)
    seconds, _ = best_of(lambda: [chemdist.detour_distance(f, origin, target) for f in fields])
    counters = [_SiteCounter(f) for f in fields]
    for f in counters:
        chemdist.detour_distance(f, origin, target)
    return {
        "layer": "detour_distance",
        "dim": 1,
        "t": DETOUR_T,
        "calls": len(fields),
        "best_s": seconds,
        "s_per_call": seconds / len(fields),
        "sites_per_call": sum(f.sites for f in counters) / len(fields),
    }


def sub_batch_rows(t: float) -> int:
    """Rows of one rate-1 sub-batch of a kernel call: one chunk, cut as ``skeletons`` cuts it."""
    return min(CHUNK, max(16, _kernels._ELEMENT_BUDGET // _kernels._jump_capacity(1.0, t)))


def bench_site_uniforms(dim: int, t: float) -> dict:
    """``site_uniforms`` on what one sub-batch hashes: the d = 1 strip per row, or every cell."""
    rows = sub_batch_rows(t)
    pos, _ = _kernels.srw_paths_batch(dim, 1.0, t, rows, philox(3, int(t)))
    seeds = philox(4, int(t)).integers(0, 2**63, size=rows, dtype=np.uint64)[:, None]
    if dim == 1:
        pos = np.arange(pos.min(), pos.max() + 1, dtype=np.int64)[None, :, None]
    seconds, u = best_of(lambda: scenery.site_uniforms(seeds, pos))
    return {
        "layer": "site_uniforms",
        "dim": dim,
        "t": t,
        "rows": rows,
        "sites": u.size,
        "best_s": seconds,
        "sites_per_s": u.size / seconds,
    }


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc traces during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_functional_peak(dim: int, t: float) -> dict:
    rows = sub_batch_rows(t)
    cells = rows * _kernels._jump_capacity(1.0, t)
    call = lambda: _kernels.additive_functional_batch(2.0, dim, 1.0, t, 1, rows, tag=0)
    peak = min(traced_peak(call) for _ in range(2))
    return {
        "layer": "additive_functional_batch",
        "dim": dim,
        "t": t,
        "rows": rows,
        "jump_cells": cells,
        "peak_bytes": peak,
        "bytes_per_cell": peak / cells,
    }


def _figure(r: dict) -> str:
    """The per-unit figure of one result row, as printed."""
    if "ns_per_sojourn" in r:
        return f"{r['ns_per_sojourn']:.2f} ns/sojourn ({r['rows']} rows, {r['sojourns']} sojourns)"
    if "ns_per_jump" in r:
        return f"{r['ns_per_jump']:.2f} ns/jump ({r['rows']} rows, {r['jumps']} jumps)"
    if "sites_per_s" in r:
        return f"{r['sites_per_s']:.3g} sites/s ({r['rows']} rows, {r['sites']} sites)"
    if "bytes_per_cell" in r:
        return f"{r['bytes_per_cell']:.1f} B/cell peak ({r['rows']} rows, {r['jump_cells']} cells)"
    return f"{1e3 * r['s_per_call']:.3f} ms/call ({r['sites_per_call']:.0f} sites/call)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    results = [row for t in HORIZONS for row in bench_horizon(t)]
    results += [bench_vsrw(), bench_detour()]
    results += [bench_site_uniforms(dim, t) for dim, t in HASH_CASES]
    results += [bench_functional_peak(dim, t) for dim, t in PEAK_CASES]
    record = {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numpy_simd": numpy_simd(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "statistic": "minimum wall time over the repeats / sojourns, jumps or calls; "
        "sites / minimum wall time; smaller traced peak of two calls / jump cells",
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for r in results:
        print(f"{r['layer']:<25} d={r['dim']} t={r['t']:<8g} {_figure(r)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
