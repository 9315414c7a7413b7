"""Layer spans recorded from outside the package.

A traced pass replaces, for its duration, the module and class attributes
that callers look up (``_kernels.philox``, not ``streams.philox``) with
wrappers that time each call.  The package source is untouched, and the
originals are restored when the pass ends.

A span's self time is its duration minus the time of the spans recorded
inside it.  Counters read the returned arrays after the span's clock has
stopped, and their cost is kept out of every layer's self time.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from scenerywalk import _kernels, chemdist, montecarlo, scenery, stats


def _count_paths(counts, parent, out):
    pos, dur = out
    counts["sojourns"] += int(np.count_nonzero(dur))
    counts["path_columns"] += dur.size
    counts["path_bytes"] += pos.nbytes + dur.nbytes


def _count_hashed(counts, parent, out):
    counts["sites_hashed"] += out.size


def _count_field_values(counts, parent, out):
    if parent == "_kernels.vsrw_endpoints_batch":
        counts["vsrw_iterations"] += 1
        counts["vsrw_steps"] += out.size
    elif parent == "chemdist.detour_distance":
        counts["detour_sites"] += out.size


_MONTECARLO_ENTRIES = (
    "local_time_samples",
    "chen_verify",
    "khasminskii_verify",
    "scaling_exponent_estimate",
    "tail_prob_scan",
    "lln_check",
    "time_change_distribution_check",
)

#: (owner, attribute, layer, counter hook); the span is named owner.attribute
TARGETS = (
    (_kernels, "srw_paths_batch", "kernels.paths", _count_paths),
    (_kernels, "pareto_values_at", "kernels.field", None),
    (_kernels, "field_values_at", "kernels.field", None),
    (_kernels, "additive_functional_batch", "kernels.reduce", None),
    (_kernels, "occupation_batch", "kernels.reduce", None),
    (_kernels, "srw_endpoints_batch", "kernels.reduce", None),
    (_kernels, "vsrw_endpoints_batch", "kernels.vsrw", None),
    (_kernels, "composed_endpoints_batch", "kernels.composed", None),
    (_kernels, "philox", "streams", None),
    (scenery, "site_uniforms", "scenery.hash", _count_hashed),
    (scenery.SceneryField, "values", "scenery.values", _count_field_values),
    (chemdist, "dijkstra_all", "chemdist.dijkstra", None),
    (chemdist, "dijkstra_distance", "chemdist.dijkstra", None),
    (chemdist.LayeredGraphSpec, "weight", "chemdist.weight", None),
    (chemdist, "detour_distance", "chemdist.detour", None),
    (chemdist, "brute_force_distance", "chemdist.bruteforce", None),
    *((montecarlo, name, "montecarlo", None) for name in _MONTECARLO_ENTRIES),
    (montecarlo, "loglog_slope", "stats", None),
    (montecarlo, "tail_estimate", "stats", None),
    (montecarlo, "two_sample_chisquare", "stats", None),
    (chemdist, "loglog_slope", "stats", None),
    (stats, "wilson_ci", "stats", None),
    (stats, "ols_slope", "stats", None),
)


def span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Spans aggregated by name, and by (parent, name) edge."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self._stack = []  # [name, seconds covered by child spans] per open span

    def wrap(self, name: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += t1 - t0
                self.self_s[name] += t1 - t0 - frame[1]
                self.edges[(parent, name)] += 1
            if hook is not None:
                hook(self.counts, parent, out)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return out

        return wrapper

    def summary(self) -> dict:
        """Per-span calls, inclusive and self seconds, and callers, for the run record."""
        callers = defaultdict(dict)
        for (parent, name), n in self.edges.items():
            callers[name][parent or "workload"] = n
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
                "callers": callers[name],
            }
            for name in sorted(self.calls)
        }


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers of every target for the duration of the block.

    A target attribute that no longer exists raises here: a wrapper table
    that names a stale attribute must fail, not report 0 s.
    """
    originals = []
    try:
        for owner, attr, _, hook in TARGETS:
            try:
                fn = vars(owner)[attr]
            except KeyError:
                raise LookupError(f"trace target {span_name(owner, attr)} does not exist") from None
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(span_name(owner, attr), fn, hook))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def check_coverage(tracer: Tracer, spans, counters) -> list[str]:
    """Expected spans or counters that recorded nothing (empty when all did)."""
    missing = [s for s in spans if tracer.calls[s] == 0]
    missing += [f"counter {c}" for c in counters if tracer.counts[c] == 0]
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (self times in seconds)."""
    layer_self = defaultdict(float)
    layer_calls = Counter()
    for owner, attr, layer, _ in TARGETS:
        name = span_name(owner, attr)
        layer_self[layer] += tracer.self_s.get(name, 0.0)
        layer_calls[layer] += tracer.calls[name]
    c = tracer.counts
    return {
        "kernels.paths_s": layer_self["kernels.paths"],
        "kernels.paths_calls": layer_calls["kernels.paths"],
        "kernels.path_columns": c["path_columns"],
        "kernels.capacity_use": _ratio(c["sojourns"], c["path_columns"]),
        "kernels.path_bytes": c["path_bytes"],
        "kernels.ns_per_sojourn": _ratio(1e9 * layer_self["kernels.paths"], c["sojourns"]),
        "kernels.field_s": layer_self["kernels.field"],
        "kernels.reduce_s": layer_self["kernels.reduce"],
        "kernels.vsrw_s": layer_self["kernels.vsrw"],
        "kernels.vsrw_steps": c["vsrw_steps"],
        "kernels.vsrw_iterations": c["vsrw_iterations"],
        "kernels.vsrw_width": _ratio(c["vsrw_steps"], c["vsrw_iterations"]),
        "kernels.composed_s": layer_self["kernels.composed"],
        "scenery.hash_s": layer_self["scenery.hash"],
        "scenery.hash_calls": layer_calls["scenery.hash"],
        "scenery.sites_hashed": c["sites_hashed"],
        "scenery.sites_per_call": _ratio(c["sites_hashed"], layer_calls["scenery.hash"]),
        "scenery.values_s": layer_self["scenery.values"],
        "streams.keys": layer_calls["streams"],
        "chemdist.dijkstra_s": layer_self["chemdist.dijkstra"],
        "chemdist.relaxations": layer_calls["chemdist.weight"],
        "chemdist.weight_s": layer_self["chemdist.weight"],
        "chemdist.detour_s": layer_self["chemdist.detour"],
        "chemdist.detour_sites": c["detour_sites"],
        "chemdist.bruteforce_s": layer_self["chemdist.bruteforce"],
        "montecarlo.self_s": layer_self["montecarlo"],
        "stats.self_s": layer_self["stats"],
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Lower median of each metric over the traced passes (a measured value)."""
    return {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
