"""The benchmark's workloads: scaled mirrors of the verify suites.

Each workload is a fixed list of calls into the package's public functions.
It keeps the parameters and verdicts of the suites it mirrors and lowers
only the replica counts, so one pass takes seconds instead of minutes.
Master seeds derive from the workload seed; everything else is fixed.

A call fails if it raises or if its verdict is false.  Each run draws a new
seed, so statistical verdicts are set for a false-alarm rate of about one
seed in 10^4 rather than the suites' fixed-seed levels; the LLN band is set
from a seed study instead (NOTES.md, "Checks").
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from scenerywalk import chemdist, montecarlo, scenery
from scenerywalk.calibration import CALIBRATION

#: replicas per Monte Carlo call (the suites use 1e3 to 1e6)
OCC_REPLICAS = 8192
SCALING_REPLICAS = 200
TAIL_REPLICAS = 1000
LLN_REPLICAS = 1000
TIMECHANGE_REPLICAS = 8192
#: quenched fields per chemdist check (the suites use 100 each)
METRIC_FIELDS = 10
ORACLE_FIELDS = 20
CHEMDIST_SEEDS = 20

DECADE_GRID = [10**k for k in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]

#: false-alarm level of every statistical verdict, per call and seed
SIGNIFICANCE = 1e-4
#: two-sided normal quantile for SIGNIFICANCE
Z_SIGNIFICANCE = 3.890591886413094
#: LLN band in standard errors: at alpha=2 the scenery variance is infinite
#: and the sample standard error undercovers (NOTES.md, "Checks")
LLN_SIGMAS = 5.0


def master_seed(seed: int, call: int) -> int:
    """Master seed of the call-th seeded call of a workload."""
    return 1000 * seed + call


def digest(obj) -> str:
    """SHA-256 over the arrays and numbers of a call's output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"array{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


@dataclass
class CallRecord:
    name: str
    ok: bool
    details: dict
    error: str | None = None
    digest: str | None = None


class Pass:
    """One pass over a workload's call list; records each call's verdict."""

    def __init__(self):
        self.calls: list[CallRecord] = []
        self._outputs: list = []

    def __call__(self, name: str, fn: Callable[[], object], verdict: Callable[[object], tuple]):
        """Run ``fn``, judge its output with ``verdict`` -> (ok, details)."""
        try:
            out = fn()
            ok, details = verdict(out)
            self.calls.append(CallRecord(name, bool(ok), details))
        except Exception as exc:  # a failed call is counted; the pass goes on
            out = None
            self.calls.append(CallRecord(name, False, {}, f"{type(exc).__name__}: {exc}"))
        self._outputs.append(out)
        return out

    def seal(self) -> None:
        """Digest the outputs (outside the timed region) and drop them."""
        for rec, out in zip(self.calls, self._outputs):
            rec.digest = digest(out)
        self._outputs = []

    @property
    def digests(self) -> list[str]:
        return [rec.digest for rec in self.calls]



def _expected_origin_local_time(t: float) -> float:
    """Exact E l_t(0) = int_0^t P(S_s = 0) ds with P(S_s = 0) = e^-s I_0(s)."""
    from scipy.integrate import quad
    from scipy.special import ive

    value, _ = quad(lambda s: ive(0, s), 0.0, t, limit=200)
    return value


def _mean_within(samples: np.ndarray, target: float, sigmas: float) -> tuple:
    se = float(samples.std(ddof=1) / np.sqrt(samples.size))
    z = (float(samples.mean()) - target) / se
    return abs(z) <= sigmas, {"z": z}


def occupation(seed: int, call: Pass) -> None:
    """Mirror of ``appendix``: origin local time l_t(0), d=1, rate 1."""
    lt_seed, khas_seed = master_seed(seed, 0), master_seed(seed, 1)
    for t in (100.0, 400.0):
        samples = call(
            f"local_time_samples t={t:g}",
            lambda: montecarlo.local_time_samples(1, t, OCC_REPLICAS, seed=lt_seed, tag=3000 + int(t)),
            lambda x: _mean_within(x, _expected_origin_local_time(t), Z_SIGNIFICANCE),
        )
        for b in (3.0, 5.0, 11.0):
            call(
                f"chen_verify t={t:g} b={b:g}",
                lambda: montecarlo.chen_verify(1, t, b, OCC_REPLICAS, seed=lt_seed, samples=samples),
                lambda rep: (rep.n_violations == 0, {"violations": rep.n_violations}),
            )
    for t in (100.0, 400.0):
        for m in (2, 3):
            call(
                f"khasminskii_verify t={t:g} m={m}",
                lambda: montecarlo.khasminskii_verify(1, t, m, OCC_REPLICAS, seed=khas_seed),
                lambda rep: (not rep.violated, {"lhs": rep.lhs, "rhs": rep.rhs}),
            )


def functional(seed: int, call: Pass) -> None:
    """Mirror of ``ks-scaling``, ``polynomial`` and ``lln``: A_t over fresh fields, d=1."""
    alpha = 0.8
    reference = (alpha + 1) / (2 * alpha)
    call(
        "scaling_exponent_estimate alpha=0.8",
        lambda: montecarlo.scaling_exponent_estimate(
            alpha, 1, DECADE_GRID, SCALING_REPLICAS, 0.5, seed=master_seed(seed, 0)
        ),
        lambda est: (abs(est.slope - reference) <= 0.1, {"slope": est.slope}),
    )
    call(
        "tail_prob_scan rwrs alpha=0.5 rho=1.2",
        lambda: montecarlo.tail_prob_scan(
            "rwrs", 0.5, 1, [1e2, 1e3, 1e4], TAIL_REPLICAS, seed=master_seed(seed, 1), rho=1.2
        ),
        lambda scan: (scan.floor_ok, {"probabilities": [e.probability for e in scan.estimates]}),
    )
    call(
        "lln_check alpha=2",
        lambda: montecarlo.lln_check(2.0, 1, 1e4, LLN_REPLICAS, seed=master_seed(seed, 2)),
        lambda r: (
            abs(r.mean - 2.0) <= LLN_SIGMAS * r.stderr,
            {"z": (r.mean - 2.0) / r.stderr, "within_3_sigma": r.within_3_sigma},
        ),
    )
    call(
        "lln_check law_override=3",
        lambda: montecarlo.lln_check(
            2.0, 1, 1e4, LLN_REPLICAS, seed=master_seed(seed, 3), law_override=3.0
        ),
        lambda r: (abs(r.mean - 3.0) <= 1e-9 * 3.0, {"mean": r.mean}),
    )


def _vsrw_fixture() -> scenery.SceneryField:
    fx = CALIBRATION["vsrw_fixture"]
    return scenery.SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])


def _metric_axiom_violations(field_seed: int) -> tuple:
    """All-pairs distances on the 5x5 box and the suite's axiom violation count."""
    box = ((0, 4), (0, 4))
    sites = [(i, j) for i in range(5) for j in range(5)]
    spec = chemdist.LayeredGraphSpec(field=scenery.SceneryField(alpha=1.0, dim=1, seed=field_seed), box=box)
    dmat = np.zeros((25, 25))
    for i, s in enumerate(sites):
        row = chemdist.dijkstra_all(box, spec.weight, s)
        for j, u in enumerate(sites):
            dmat[i, j] = row[u]
    violations = int(np.abs(dmat - dmat.T).max() > 1e-12)
    l1d = np.array([[abs(s[0] - u[0]) + abs(s[1] - u[1]) for u in sites] for s in sites])
    off = ~np.eye(25, dtype=bool)
    violations += int((np.diag(dmat) != 0).sum() + (dmat[off] <= 0).sum())
    violations += int((dmat > l1d + 1e-12).sum())
    tri = dmat[:, :, None] + dmat[None, :, :] - dmat[:, None, :]
    violations += int((tri < -1e-12).sum())
    return dmat, violations


def _oracle_distances(field_seed: int) -> tuple:
    """Brute force vs Dijkstra on a 12-site box, Dijkstra vs detour on a sufficient box."""
    f = scenery.SceneryField(alpha=1.0, dim=1, seed=field_seed)
    spec = chemdist.LayeredGraphSpec(field=f, box=((0, 3), (0, 2)))
    d_dij = chemdist.chemical_distance(spec, (0, 0), (3, 2)).value
    d_bf = chemdist.brute_force_distance(spec, (0, 0), (3, 2))
    x2, y2 = (0, 0), (4, 1)
    spec2 = chemdist.LayeredGraphSpec(field=f, box=chemdist.sufficient_box(x2, y2))
    d_dij2 = chemdist.chemical_distance(spec2, x2, y2)
    d_fast = chemdist.detour_distance(f, x2, y2)
    mismatches = int(abs(d_dij - d_bf) > 1e-9)
    mismatches += int(not d_dij2.box_sufficient or abs(d_dij2.value - d_fast) > 1e-9)
    return (d_dij, d_bf, d_dij2.value, d_fast), mismatches


def layered(seed: int, call: Pass) -> None:
    """Mirror of ``timechange``, ``metric`` and ``chemdist`` on the layered model.

    The time-change field stays the calibrated ``vsrw_fixture`` for every
    seed: the VSRW has no cost guard, and another field can run without
    bound.  Only the walk streams and the chemdist field seeds follow the seed.
    """
    call(
        "time_change_distribution_check t=50",
        lambda: montecarlo.time_change_distribution_check(
            _vsrw_fixture(), 50.0, TIMECHANGE_REPLICAS, seed=master_seed(seed, 0),
            significance=SIGNIFICANCE,
        ),
        lambda cmp_: (cmp_.chi2.passed, {"chi2": cmp_.chi2.statistic, "dof": cmp_.chi2.dof}),
    )
    base = CHEMDIST_SEEDS * seed
    call(
        "chemdist_scaling alpha=1 delta=1 gamma=0",
        lambda: chemdist.chemdist_scaling(
            1.0, 1, 1.0, 0.0, DECADE_GRID, seeds=range(base, base + CHEMDIST_SEEDS)
        ),
        # growth exponent 2/3 at alpha=1, delta=1, gamma=0, d=1 (the chemdist suite's target)
        lambda fit: (abs(fit.slope - 2.0 / 3.0) <= 0.1, {"slope": fit.slope}),
    )
    for k in range(METRIC_FIELDS):
        field_seed = 40_000 + METRIC_FIELDS * seed + k
        call(
            f"metric axioms field={field_seed}",
            lambda: _metric_axiom_violations(field_seed),
            lambda out: (out[1] == 0, {"violations": out[1]}),
        )
    for k in range(ORACLE_FIELDS):
        field_seed = 9_000 + ORACLE_FIELDS * seed + k
        call(
            f"chemdist oracles field={field_seed}",
            lambda: _oracle_distances(field_seed),
            lambda out: (out[1] == 0, {"mismatches": out[1]}),
        )


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, Pass], None]
    #: tiny call made after a fresh import, timed as part of set-up
    warm_up: Callable[[], object]
    #: layer spans that must record calls when this workload is traced
    spans: tuple
    #: trace counters that must be positive when this workload is traced
    counters: tuple = ()


_SRW_SPANS = ("_kernels.srw_paths_batch", "_kernels.philox")

WORKLOADS = {
    "occupation": Workload(
        run=occupation,
        warm_up=lambda: montecarlo.local_time_samples(1, 10.0, 64, seed=0),
        spans=_SRW_SPANS + (
            "_kernels.occupation_batch",
            "montecarlo.local_time_samples",
            "montecarlo.chen_verify",
            "montecarlo.khasminskii_verify",
            "montecarlo.tail_estimate",
            "stats.wilson_ci",
        ),
    ),
    "functional": Workload(
        run=functional,
        warm_up=lambda: montecarlo.lln_check(2.0, 1, 100.0, 64, seed=0),
        spans=_SRW_SPANS + (
            "_kernels.additive_functional_batch",
            "_kernels.pareto_values_at",
            "scenery.site_uniforms",
            "montecarlo.scaling_exponent_estimate",
            "montecarlo.tail_prob_scan",
            "montecarlo.lln_check",
            "montecarlo.loglog_slope",
            "montecarlo.tail_estimate",
            "stats.ols_slope",
            "stats.wilson_ci",
        ),
    ),
    "layered": Workload(
        run=layered,
        warm_up=lambda: montecarlo.time_change_distribution_check(_vsrw_fixture(), 2.0, 64, seed=0),
        spans=_SRW_SPANS + (
            "_kernels.vsrw_endpoints_batch",
            "_kernels.composed_endpoints_batch",
            "_kernels.field_values_at",
            "scenery.SceneryField.values",
            "scenery.site_uniforms",
            "chemdist.dijkstra_all",
            "chemdist.dijkstra_distance",
            "chemdist.LayeredGraphSpec.weight",
            "chemdist.detour_distance",
            "chemdist.brute_force_distance",
            "chemdist.loglog_slope",
            "montecarlo.time_change_distribution_check",
            "montecarlo.two_sample_chisquare",
            "stats.ols_slope",
        ),
        counters=("vsrw_iterations", "detour_sites"),
    ),
}
