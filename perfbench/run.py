"""Benchmark of scenerywalk: one workload, end-to-end or per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload occupation --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
of a fresh interpreter, the median wall time of one pass over the
workload's call list, and peak memory.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics, including the tracing
overhead.  Every pass is checked: each call's verdict, and each call's
output digest against the first pass's.

The last line of standard output is the result; the line before it is the
run record (environment, per-call verdicts and digests, pass times, spans).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: thread pools pinned to one thread, as in the verify suites
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: timed set-up probes per run; one more runs first and is discarded,
#: because it may compile bytecode that later interpreters reuse
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("occupation", "functional", "layered"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def git_sha(root: Path) -> str | None:
    """Commit of a checkout's .git, read without running git (None if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "workload_seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str) -> list[float]:
    """Wall seconds of fresh interpreters that import scenerywalk and warm up."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scenerywalk" / "__init__.py").is_file():
        print(f"run.py: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_runs = [] if args.trace else measure_setup(args.workload)

    def run_pass(tracer=None):
        record = workloads.Pass()
        t0 = time.perf_counter()
        if tracer is None:
            workload.run(args.seed, record)
        else:
            with tracing.traced(tracer):
                workload.run(args.seed, record)
        wall = time.perf_counter() - t0
        record.seal()
        return record, wall

    # the first pass loads lazy imports and is the digest reference; it is not timed
    reference, _ = run_pass()
    passes = [reference]
    walls = []  # (traced, seconds) per timed pass
    layers, spans = [], None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(walls) < 1 + args.trace:
        traced = bool(args.trace) and len(walls) % 2 == 0
        tracer = tracing.Tracer() if traced else None
        record, wall = run_pass(tracer)
        passes.append(record)
        walls.append((traced, wall))
        if tracer is not None:
            missing = tracing.check_coverage(tracer, workload.spans, workload.counters)
            if missing:
                print(f"run.py: traced pass recorded nothing for {missing}", file=sys.stderr)
                return 1
            layers.append(tracing.layer_metrics(tracer))
            spans = spans or tracer.summary()

    untraced = statistics.median(w for t, w in walls if not t)
    if args.trace:
        values = tracing.median_metrics(layers)
        values["trace.overhead_s"] = statistics.median(w for t, w in walls if t) - untraced
    else:
        values = {
            "wall_s": untraced,
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    section = spec["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"] for m in section}
    if set(values) != declared:
        print(f"run.py: metrics {sorted(set(values) ^ declared)} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    ref = reference.digests
    failed = sum(
        not rec.ok or rec.digest != ref_digest
        for record in passes
        for rec, ref_digest in zip(record.calls, ref)
    )
    attempted = sum(len(record.calls) for record in passes)
    run_record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "error_rate": failed / attempted,
        "digests_stable": all(record.digests == ref for record in passes),
        "calls": [dataclasses.asdict(rec) for rec in reference.calls],
        "passes": [{"traced": t, "wall_s": w} for t, w in walls],
        "setup_s_runs": setup_runs,
        "spans": spans,
    }
    print(json.dumps({"record": run_record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
