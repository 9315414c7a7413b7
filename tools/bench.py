#!/usr/bin/env python3
"""Layer microbenchmark of the replica kernels and the layered-model paths.

Run from the repository root:

    python tools/bench.py --out BENCH_<n>.json

It first times ``import scenerywalk.cli`` in a fresh interpreter: the
process wall time, the peak RSS (VmHWM) the child reports and the number
of scipy modules it has loaded.  For each horizon t it draws one sub-batch
of rate-1 d = 1 skeletons, as many rows as one kernel call runs at once
(one stream chunk of at most ``CHUNK`` rows, cut as ``_kernels.skeletons``
cuts it), and times ``srw_paths_batch`` and then ``local_times`` on its
output, each from a freshly seeded stream, so every repeat does the same
work; their figure is ns per sojourn (jump count + 1, summed over the
rows).  At the horizons of the ``occupation`` benchmark it times the
build of the ``live`` mask from one sub-batch's jump counts
(``live_mask``), in ns per mask cell, and there and at t = 1e5 (24 rows)
the d = 1 walk build from one sub-batch's drawn bytes (``_byte_walk``), in
ns per position cell, and ``local_time_samples`` (the
origin-indicator ``occupation_batch``) over one stream chunk of ``CHUNK``
replicas, in ns per sojourn, in d = 1 and once in d = 2.  At the six
(t, b) points of that benchmark it times ``chen_verify`` per call on one
shared l_t(0) sample of ``CHUNK`` replicas, as the benchmark calls it.  It
also times ``vsrw_endpoints_batch`` on the ``vsrw_fixture`` field at t = 50
with 8192 rows, in ns per simulated jump, ``composed_endpoints_batch`` on
the same field and rows, in ns per jump of its transverse skeleton, and
``detour_distance`` from the origin to the ``chemdist_scaling`` target at
t = 1e5 over 20 field seeds, in seconds and sites evaluated per call.  The
field stage works on the same sub-batch rows.  It times ``site_uniforms``
in sites/s on the per-row strip of a d = 1 sub-batch at t = 100 and on the
cells of a d = 2 sub-batch at t = 1e4, and takes the tracemalloc peak of
``additive_functional_batch`` per jump cell of one sub-batch (its rows times
the jump capacity that ``skeletons`` budgets) in d = 1 at t = 100, in d = 1
at t = 1e5 over three sub-batches, so that a sub-batch still held while
the next is drawn shows, and in d = 2 and 3 at t = 2e5.  Every per-unit
figure comes from the minimum over the repeats, every peak from the smaller
of two calls; each timed row also keeps the median and quartiles of its
repeats, since single runs of the same code move by up to about 20% on a
small host.  The JSON record also holds the git commit, nproc, the Python, numpy
and scipy versions and numpy's SIMD baseline, dispatch targets and the CPU
features it found; the same table goes to standard output.
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

from scenerywalk import _kernels, chemdist, montecarlo, scenery  # noqa: E402
from scenerywalk.calibration import CALIBRATION  # noqa: E402
from scenerywalk.scenery import SceneryField  # noqa: E402
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
#: (dim, t, sub-batches) of each functional peak
PEAK_CASES = ((1, 100.0, 1), (1, 1e5, 3), (2, 2e5, 1), (3, 2e5, 1))


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


def spread(times) -> dict:
    """Least wall time of the repeats, and their quartiles."""
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"best_s": min(times), "q1_s": q1, "median_s": median, "q3_s": q3}


def best_of(call) -> tuple[dict, object]:
    """:func:`spread` of ``REPEATS`` timed calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return spread(times), result


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


def bench_startup() -> dict:
    """``import scenerywalk.cli`` in fresh interpreters: least wall time, child-reported peak RSS."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    times, reports = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], env=env, capture_output=True, text=True, check=True
        )
        times.append(time.perf_counter() - start)
        reports.append(json.loads(proc.stdout))
    return {
        "layer": "import scenerywalk.cli",
        **spread(times),
        "peak_rss_mb": min(r["peak_rss_mb"] for r in reports),
        "scipy_modules": max(r["scipy_modules"] for r in reports),
    }


def sub_batch_rows(t: float) -> int:
    """Rows of one rate-1 sub-batch of a kernel call: one chunk, cut as ``skeletons`` cuts it."""
    return min(CHUNK, max(16, _kernels._ELEMENT_BUDGET // _kernels._jump_capacity(1.0, t)))


def bench_horizon(t: float) -> list[dict]:
    """The record of each layer at horizon t."""
    rows = sub_batch_rows(t)
    paths_timing, (pos, live) = best_of(
        lambda: _kernels.srw_paths_batch(1, 1.0, t, rows, philox(1, int(t)))
    )
    reduce_timing, _ = best_of(lambda: _kernels.local_times(pos, live, t, philox(2, int(t))))
    sojourns = int(live.sum())
    return [
        {
            "layer": layer,
            "dim": 1,
            "t": t,
            "rows": rows,
            "columns": pos.shape[1],
            "sojourns": sojourns,
            **timing,
            "ns_per_sojourn": 1e9 * timing["best_s"] / sojourns,
        }
        for layer, timing in (("srw_paths_batch", paths_timing), ("local_times", reduce_timing))
    ]


def bench_live(t: float) -> dict:
    """``live_mask`` on the jump counts of one rate-1 sub-batch at horizon t."""
    rows = sub_batch_rows(t)
    jumps = philox(5, int(t)).poisson(t, size=rows)
    m = int(jumps.max()) + 1
    timing, live = best_of(lambda: _kernels.live_mask(jumps, m))
    return {
        "layer": "live_mask",
        "dim": 1,
        "t": t,
        "rows": rows,
        "cells": live.size,
        **timing,
        "ns_per_cell": 1e9 * timing["best_s"] / live.size,
    }


def bench_walk(t: float) -> dict:
    """``_byte_walk`` on the drawn bytes of one rate-1 sub-batch at horizon t."""
    rows = sub_batch_rows(t)
    rng = philox(6, int(t))
    m = int(rng.poisson(t, size=rows).max()) + 1
    raw = rng.integers(0, 256, size=(rows, (m + 6) // 8), dtype=np.uint8)
    timing, walk = best_of(lambda: _kernels._byte_walk(raw))
    return {
        "layer": "_byte_walk",
        "dim": 1,
        "t": t,
        "rows": rows,
        "cells": walk.size,
        **timing,
        "ns_per_cell": 1e9 * timing["best_s"] / walk.size,
    }


def skeleton_sojourns(call) -> int:
    """Sojourns of the skeletons that ``call()`` draws, counted in an untimed pass."""
    counted = []
    paths = _kernels.srw_paths_batch

    def counting_paths(*args):
        pos, live = paths(*args)
        counted.append(int(np.count_nonzero(live)))
        return pos, live

    _kernels.srw_paths_batch = counting_paths
    try:
        call()
    finally:
        _kernels.srw_paths_batch = paths
    return sum(counted)


def bench_occupation(dim: int, t: float) -> dict:
    call = lambda: montecarlo.local_time_samples(dim, t, CHUNK, seed=1, tag=0)
    timing, _ = best_of(call)
    sojourns = skeleton_sojourns(call)
    return {
        "layer": "local_time_samples",
        "dim": dim,
        "t": t,
        "rows": CHUNK,
        "sojourns": sojourns,
        **timing,
        "ns_per_sojourn": 1e9 * timing["best_s"] / sojourns,
    }


def bench_chen(t: float, b: float) -> dict:
    """``chen_verify`` on a shared sample of ``CHUNK`` replicas, as the occupation benchmark calls it."""
    samples = montecarlo.local_time_samples(1, t, CHUNK, seed=1)
    timing, _ = best_of(lambda: montecarlo.chen_verify(1, t, b, CHUNK, seed=1, samples=samples))
    return {
        "layer": "chen_verify",
        "dim": 1,
        "t": t,
        "b": b,
        "rows": CHUNK,
        **timing,
    }


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
    timing, _ = best_of(lambda: _kernels.vsrw_endpoints_batch(field, VSRW_T, 1, VSRW_ROWS, tag=0))
    jumps = vsrw_jumps(field)
    return {
        "layer": "vsrw_endpoints_batch",
        "dim": 1,
        "t": VSRW_T,
        "rows": VSRW_ROWS,
        "jumps": jumps,
        **timing,
        "ns_per_jump": 1e9 * timing["best_s"] / jumps,
    }


def bench_composed() -> dict:
    """``composed_endpoints_batch`` on the VSRW's field and rows, per transverse skeleton jump."""
    fx = CALIBRATION["vsrw_fixture"]
    field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
    call = lambda: _kernels.composed_endpoints_batch(field, VSRW_T, 1, VSRW_ROWS, tag=0)
    timing, _ = best_of(call)
    jumps = skeleton_sojourns(call) - VSRW_ROWS
    return {
        "layer": "composed_endpoints_batch",
        "dim": 1,
        "t": VSRW_T,
        "rows": VSRW_ROWS,
        "jumps": jumps,
        **timing,
        "ns_per_jump": 1e9 * timing["best_s"] / jumps,
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
    timing, _ = best_of(lambda: [chemdist.detour_distance(f, origin, target) for f in fields])
    counters = [_SiteCounter(f) for f in fields]
    for f in counters:
        chemdist.detour_distance(f, origin, target)
    return {
        "layer": "detour_distance",
        "dim": 1,
        "t": DETOUR_T,
        "calls": len(fields),
        **timing,
        "s_per_call": timing["best_s"] / len(fields),
        "sites_per_call": sum(f.sites for f in counters) / len(fields),
    }


def bench_site_uniforms(dim: int, t: float) -> dict:
    """``site_uniforms`` on what one sub-batch hashes: the d = 1 strip per row, or every cell."""
    rows = sub_batch_rows(t)
    pos, _ = _kernels.srw_paths_batch(dim, 1.0, t, rows, philox(3, int(t)))
    seeds = philox(4, int(t)).integers(0, 2**63, size=rows, dtype=np.uint64)[:, None]
    if dim == 1:
        pos = np.arange(pos.min(), pos.max() + 1, dtype=np.int64)[None, :, None]
    timing, u = best_of(lambda: scenery.site_uniforms(seeds, pos))
    return {
        "layer": "site_uniforms",
        "dim": dim,
        "t": t,
        "rows": rows,
        "sites": u.size,
        **timing,
        "sites_per_s": u.size / timing["best_s"],
    }


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc traces during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_functional_peak(dim: int, t: float, sub_batches: int) -> dict:
    rows = sub_batch_rows(t)
    cells = rows * _kernels._jump_capacity(1.0, t)
    call = lambda: _kernels.additive_functional_batch(2.0, dim, 1.0, t, 1, sub_batches * rows, tag=0)
    peak = min(traced_peak(call) for _ in range(2))
    return {
        "layer": "additive_functional_batch",
        "dim": dim,
        "t": t,
        "rows": sub_batches * rows,
        "sub_batches": sub_batches,
        "jump_cells": cells,
        "peak_bytes": peak,
        "bytes_per_cell": peak / cells,
    }


def _figure(r: dict) -> str:
    """The per-unit figure of one result row, as printed."""
    if "scipy_modules" in r:
        return (f"{1e3 * r['best_s']:.1f} ms, {r['peak_rss_mb']:.1f} MiB peak, "
                f"{r['scipy_modules']} scipy modules")
    if "ns_per_sojourn" in r:
        return f"{r['ns_per_sojourn']:.2f} ns/sojourn ({r['rows']} rows, {r['sojourns']} sojourns)"
    if "ns_per_cell" in r:
        return f"{r['ns_per_cell']:.3f} ns/cell ({r['rows']} rows, {r['cells']} cells)"
    if "ns_per_jump" in r:
        return f"{r['ns_per_jump']:.2f} ns/jump ({r['rows']} rows, {r['jumps']} jumps)"
    if "sites_per_s" in r:
        return f"{r['sites_per_s']:.3g} sites/s ({r['rows']} rows, {r['sites']} sites)"
    if "bytes_per_cell" in r:
        return (f"{r['bytes_per_cell']:.1f} B/cell peak ({r['rows']} rows, "
                f"{r['jump_cells']} cells per sub-batch)")
    if "b" in r:
        return f"{1e3 * r['best_s']:.3f} ms/call (b={r['b']:g}, {r['rows']} replicas)"
    return f"{1e3 * r['s_per_call']:.3f} ms/call ({r['sites_per_call']:.0f} sites/call)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    results = [bench_startup()]
    results += [row for t in HORIZONS for row in bench_horizon(t)]
    results += [bench_live(t) for t in OCC_HORIZONS]
    results += [bench_walk(t) for t in WALK_HORIZONS]
    results += [bench_occupation(*case) for case in OCC_CASES]
    results += [bench_chen(*case) for case in CHEN_CASES]
    results += [bench_vsrw(), bench_composed(), bench_detour()]
    results += [bench_site_uniforms(dim, t) for dim, t in HASH_CASES]
    results += [bench_functional_peak(*case) for case in PEAK_CASES]
    record = {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numpy_simd": numpy_simd(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "statistic": "minimum wall time over the repeats / sojourns, mask or walk cells, jumps or "
        "calls; sites / minimum wall time; smaller traced peak of two calls / jump cells of one sub-batch; "
        "start-up: minimum process wall time and least child-reported peak RSS over the repeats; "
        "every timed row also holds the minimum (best_s) and the quartiles (q1_s, median_s, q3_s) "
        "of its repeats' wall times",
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for r in results:
        where = f"d={r['dim']} t={r['t']:<8g}" if "dim" in r else ""
        print(f"{r['layer']:<25} {where:<12} {_figure(r)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
