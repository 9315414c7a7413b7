#!/usr/bin/env python3
"""Layer microbenchmark of the replica kernels and the layered-model paths.

Run from the repository root:

    python tools/bench.py --out BENCH_<n>.json

:func:`stages` is the stage table.  Each ``yield`` is one record row: its
layer, where it runs (``dim``, ``t``, ``rows``, ``b``, ...), the call it
measures and how that call's work is counted, under a one-line comment on
what it measures.  The rules, stated once:

* :func:`timed` runs the call ``REPEATS`` times and keeps the least wall time
  (``best_s``) and the quartiles (``q1_s``, ``median_s``, ``q3_s``): single
  runs of the same code move by up to about 20% on a small host.  A call
  that draws keys a fresh stream, so every repeat does the same work.
* Work is counted outside the timed calls, from the last result or in one
  more pass with a package attribute swapped for a counting wrapper
  (:func:`swapped`).  A unit ``<time>_per_<unit>`` is the least time in ns,
  ms or s per counted ``<unit>s``; ``<units>_per_s`` is counted units per s.
* A kernel row runs one sub-batch: the rows of one stream chunk of at most
  ``CHUNK`` rate-1 skeletons, cut as ``_kernels.skeletons`` cuts it.
* :func:`traced` keeps the smaller tracemalloc peak of two calls, per jump
  cell of one sub-batch (its rows times the jump capacity it is budgeted).

The JSON record also holds the git commit, nproc, the Python, numpy and scipy
versions and numpy's SIMD baseline, dispatch targets and the CPU features it
found; the same rows go to standard output.
"""

from __future__ import annotations

import argparse
import contextlib
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

from scenerywalk import _kernels, chemdist, montecarlo, scenery  # noqa: E402
from scenerywalk.calibration import CALIBRATION  # noqa: E402
from scenerywalk.streams import CHUNK, philox  # noqa: E402

HORIZONS = (100.0, 400.0, 1e4, 1e5)
#: horizons of the occupation benchmark: chen's t and t/b at b = 11
OCC_HORIZONS = (100.0, 400.0, 400.0 / 11)
#: horizons of the d = 1 walk build: the occupation horizons and the longest suite horizon
WALK_HORIZONS = OCC_HORIZONS + (1e5,)
#: (dim, t) of each origin local time case
OCC_CASES = tuple((1, t) for t in OCC_HORIZONS) + ((2, 400.0),)
#: (t, b) of each chen_verify call of the occupation benchmark
CHEN_CASES = tuple((t, b) for t in OCC_HORIZONS[:2] for b in (3.0, 5.0, 11.0))
REPEATS = 9
VSRW_T, VSRW_ROWS = 50.0, 8192
DETOUR_T, DETOUR_SEEDS = 1e5, range(20)
HASH_CASES = ((1, 100.0), (2, 1e4))
PARETO_ALPHA = 0.8
#: field seed and box of the metric-axiom suite's first 5x5 sweep
METRIC_SEED, METRIC_BOX = 40_000, ((0, 4), (0, 4))
#: (dim, t, sub-batches) of each functional peak
PEAK_CASES = ((1, 100.0, 1), (1, 1e5, 3), (2, 2e5, 1), (3, 2e5, 1))
#: seconds to the time unit of a per-unit key, by its prefix
SCALES = {"ns": 1e9, "ms": 1e3, "s": 1.0}


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


def timed(layer: str, place: dict, call, count, unit: str | None = None) -> dict:
    """The record row of ``REPEATS`` timed calls: ``place``, the counts, the timing and the unit.

    ``count(result)`` gets the last call's result and returns the row's counts.
    """
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    counts = count(result)
    best = min(times)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    row = {"layer": layer, **place, **counts, "best_s": best, "q1_s": q1, "median_s": median, "q3_s": q3}
    if unit:
        top, bottom = unit.split("_per_")
        row[unit] = counts[top] / best if bottom == "s" else SCALES[top] * best / counts[bottom + "s"]
    return row


def traced(layer: str, place: dict, call, counts: dict) -> dict:
    """The record row of the smaller tracemalloc peak of two calls, per jump cell."""
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    peak = min(peaks)
    return {"layer": layer, **place, **counts, "peak_bytes": peak,
            "bytes_per_cell": peak / counts["jump_cells"]}


@contextlib.contextmanager
def swapped(owner, original, replacement):
    """``owner``'s attribute ``original`` replaced by ``replacement`` inside the block, restored after."""
    setattr(owner, original.__name__, replacement)
    try:
        yield
    finally:
        setattr(owner, original.__name__, original)


def tally(owner, original, count, call) -> int:
    """Sum of ``count(out)`` over the outputs of ``owner``'s attribute ``original`` as ``call()`` runs."""
    counted = []

    def counting(*args):
        out = original(*args)
        counted.append(int(count(out)))
        return out

    with swapped(owner, original, counting):
        call()
    return sum(counted)


def skeleton_sojourns(call) -> int:
    """Sojourns of the skeletons that ``call()`` draws."""
    return tally(_kernels, _kernels.srw_paths_batch, lambda out: np.count_nonzero(out[1]), call)


def vsrw_jumps(call) -> int:
    """Jumps of the VSRW that ``call()`` simulates: the uniforms its streams draw, one per jump."""
    drawn = []

    class Counting(np.random.Generator):
        def random(self, size=None):
            drawn.append(int(np.prod(size)))
            return super().random(size)

    with swapped(_kernels, _kernels.philox, lambda *key: Counting(philox(*key).bit_generator)):
        call()
    return sum(drawn)


def sub_batch_rows(t: float) -> int:
    """Rows of one rate-1 sub-batch of a kernel call: one chunk, cut as ``skeletons`` cuts it."""
    return min(CHUNK, max(16, _kernels._ELEMENT_BUDGET // _kernels._jump_capacity(1.0, t)))


def where(dim: int, t: float, rows: int | None = None, **more) -> dict:
    """Where a row runs; ``rows`` defaults to one sub-batch at horizon t."""
    return {"dim": dim, "t": t, "rows": sub_batch_rows(t) if rows is None else rows, **more}


def hashed_sites(dim: int, t: float) -> tuple:
    """Seeds and sites that one sub-batch hashes: the d = 1 strip per row, or every cell."""
    rows = sub_batch_rows(t)
    pos, _ = _kernels.srw_paths_batch(dim, 1.0, t, rows, philox(3, int(t)))
    seeds = philox(4, int(t)).integers(0, 2**63, size=rows, dtype=np.uint64)[:, None]
    if dim == 1:
        pos = np.arange(pos.min(), pos.max() + 1, dtype=np.int64)[None, :, None]
    return seeds, pos


#: run in a fresh interpreter: import the CLI, then report what that cost.
#: The peak is Linux's VmHWM of the child's own memory map; ru_maxrss would
#: also carry the RSS of the spawning process, which Linux keeps across exec.
STARTUP_PROBE = """
import json, sys
import scenerywalk.cli
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "peak_rss_mb": hwm_kb / 1024.0,
    "scipy_modules": sum(m.split(".")[0] == "scipy" for m in sys.modules),
}))
"""


def stages():
    """The stage table: each ``yield`` is one measured record row."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    reports = []

    def launch():
        proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, check=True)
        reports.append(json.loads(proc.stdout))

    # import scenerywalk.cli in a fresh interpreter: process wall time, least peak RSS, scipy modules loaded
    yield timed("import scenerywalk.cli", {}, launch, lambda _: {
        "peak_rss_mb": min(r["peak_rss_mb"] for r in reports),
        "scipy_modules": max(r["scipy_modules"] for r in reports)})
    for t in HORIZONS:
        at = where(1, t)
        draw = lambda: _kernels.srw_paths_batch(1, 1.0, t, at["rows"], philox(1, int(t)))
        pos, live = draw()
        counts = {"columns": pos.shape[1], "sojourns": int(live.sum())}
        # skeleton draw of one d = 1 sub-batch, per sojourn (jump count + 1, summed over the rows)
        yield timed("srw_paths_batch", at, draw, lambda _: counts, "ns_per_sojourn")
        # origin local times of those skeletons
        yield timed("local_times", at, lambda: _kernels.local_times(pos, live, t, philox(2, int(t))),
                    lambda _: counts, "ns_per_sojourn")
    for t in OCC_HORIZONS:
        jumps = philox(5, int(t)).poisson(t, size=sub_batch_rows(t))
        m = int(jumps.max()) + 1
        # live mask from one sub-batch's jump counts
        yield timed("live_mask", where(1, t), lambda: _kernels.live_mask(jumps, m),
                    lambda live: {"cells": live.size}, "ns_per_cell")
    for t in WALK_HORIZONS:
        rng = philox(6, int(t))
        m = int(rng.poisson(t, size=sub_batch_rows(t)).max()) + 1
        raw = rng.integers(0, 256, size=(sub_batch_rows(t), (m + 6) // 8), dtype=np.uint8)
        # d = 1 walk build from one sub-batch's drawn bytes, per position cell
        yield timed("_byte_walk", where(1, t), lambda: _kernels._byte_walk(raw),
                    lambda walk: {"cells": walk.size}, "ns_per_cell")
    for dim, t in OCC_CASES:
        call = lambda: montecarlo.local_time_samples(dim, t, CHUNK, seed=1, tag=0)
        # origin-indicator occupation over one stream chunk of replicas
        yield timed("local_time_samples", where(dim, t, CHUNK), call,
                    lambda _: {"sojourns": skeleton_sojourns(call)}, "ns_per_sojourn")
    for t, b in CHEN_CASES:
        samples = montecarlo.local_time_samples(1, t, CHUNK, seed=1)
        # one chen check on a shared l_t(0) sample, as the occupation benchmark calls it
        yield timed("chen_verify", where(1, t, CHUNK, b=b),
                    lambda: montecarlo.chen_verify(1, t, b, CHUNK, seed=1, samples=samples), lambda _: {})
    fx = CALIBRATION["vsrw_fixture"]
    field = scenery.SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
    call = lambda: _kernels.vsrw_endpoints_batch(field, VSRW_T, 1, VSRW_ROWS, tag=0)
    # VSRW on the time-change suite's field, per simulated jump
    yield timed("vsrw_endpoints_batch", where(1, VSRW_T, VSRW_ROWS), call,
                lambda _: {"jumps": vsrw_jumps(call)}, "ns_per_jump")
    call = lambda: _kernels.composed_endpoints_batch(field, VSRW_T, 1, VSRW_ROWS, tag=0)
    # composed law on the same field and rows, per jump of its transverse skeleton
    yield timed("composed_endpoints_batch", where(1, VSRW_T, VSRW_ROWS), call,
                lambda _: {"jumps": skeleton_sojourns(call) - VSRW_ROWS}, "ns_per_jump")
    fields = [scenery.SceneryField(alpha=1.0, dim=1, seed=s) for s in DETOUR_SEEDS]
    origin, target = np.zeros(2, dtype=np.int64), chemdist.target_site(DETOUR_T, 1.0, 0.0, 1)
    call = lambda: [chemdist.detour_distance(f, origin, target) for f in fields]
    evaluated = lambda: tally(scenery.SceneryField, scenery.SceneryField.values, np.size, call)
    # detour search from the origin to the chemdist_scaling target, per call over the field seeds
    yield timed("detour_distance", {"dim": 1, "t": DETOUR_T}, call,
                lambda _: {"calls": len(fields), "sites_per_call": evaluated() / len(fields)}, "s_per_call")
    for dim, t in HASH_CASES:
        seeds, sites = hashed_sites(dim, t)
        # site hash of what one sub-batch evaluates, in sites per second
        yield timed("site_uniforms", where(dim, t), lambda: scenery.site_uniforms(seeds, sites),
                    lambda u: {"sites": u.size}, "sites_per_s")
    u = scenery.site_uniforms(*hashed_sites(1, 100.0))
    # Pareto inverse CDF on the uniforms of the d = 1, t = 100 hash row, per value
    yield timed("pareto_from_uniform", where(1, 100.0, alpha=PARETO_ALPHA),
                lambda: scenery.pareto_from_uniform(u, PARETO_ALPHA),
                lambda z: {"values": z.size}, "ns_per_value")
    metric_field = scenery.SceneryField(alpha=1.0, dim=1, seed=METRIC_SEED)
    spec = chemdist.LayeredGraphSpec(field=metric_field, box=METRIC_BOX)
    sources = [(i, j) for i in range(5) for j in range(5)]
    # all-sites Dijkstra from each site of the metric-axiom box, per source
    yield timed("dijkstra_all", {"dim": 1, "field_seed": METRIC_SEED},
                lambda: [chemdist.dijkstra_all(METRIC_BOX, spec.weight, s) for s in sources],
                lambda _: {"sources": len(sources)}, "ms_per_source")
    for dim, t, sub_batches in PEAK_CASES:
        rows = sub_batch_rows(t)
        call = lambda: _kernels.additive_functional_batch(2.0, dim, 1.0, t, 1, sub_batches * rows, tag=0)
        # traced peak of the functional over its sub-batches, per jump cell of one
        yield traced("additive_functional_batch", where(dim, t, sub_batches * rows), call,
                     {"sub_batches": sub_batches, "jump_cells": rows * _kernels._jump_capacity(1.0, t)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    results = []
    for row in stages():
        results.append(row)
        shown = (f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()
                 if k not in ("layer", "q1_s", "median_s", "q3_s"))
        print(f"{row['layer']:<25}", "  ".join(shown), flush=True)
    record = {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numpy_simd": numpy_simd(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "statistic": "timed rows: minimum wall time over the repeats (best_s) per counted unit "
        "(<time>_per_<unit>: sojourns, mask or walk cells, jumps, calls, values or sources) or counted "
        "units / minimum wall time (<units>_per_s: sites), with the quartiles (q1_s, median_s, q3_s) of "
        "the repeats' wall times; smaller traced peak of two calls / jump cells of one sub-batch; "
        "start-up: minimum process wall time and least child-reported peak RSS over the repeats",
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
