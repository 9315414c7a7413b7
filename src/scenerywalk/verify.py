"""Acceptance-suite checkers with pinned parameters and tolerances.

Each checker runs one acceptance criterion end to end at its stated scale
and returns ``(passed, details)``; its ``@_suite(name, budget_s)`` line
holds the criterion's name and wall-clock budget, and turns the call into a
timed :class:`VerifyResult`.  The pytest acceptance module and the
``verify`` CLI subcommand both dispatch through :data:`SUITES`, the one
key -> checker table.  Master seeds are fixed here so reruns are
bit-reproducible.  The regime formulas that the continuity suite compares
are the shipped ones, ``exponents.p_branches`` and ``exponents.q_formula``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import chemdist, exponents, montecarlo, scenery, stats
from .calibration import CALIBRATION
from .streams import philox


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one criterion: the statistical verdict and the wall-clock budget.

    The two are reported separately; the criterion passes only when both hold.
    """

    name: str
    statistic_passed: bool
    within_budget: bool
    runtime_s: float
    budget_s: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.statistic_passed and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        notes = "" if self.within_budget else ", over budget"
        notes += "" if self.statistic_passed else ", statistic failed"
        return f"{status} {self.name} ({self.runtime_s:.1f}s/{self.budget_s:.0f}s budget{notes})"


def _suite(name: str, budget_s: float):
    """Decorate a checker returning (passed, details) into a timed VerifyResult."""

    def wrap(check):
        @functools.wraps(check)
        def run() -> VerifyResult:
            t0 = time.perf_counter()
            passed, details = check()
            runtime = time.perf_counter() - t0
            return VerifyResult(name, bool(passed), runtime < budget_s, runtime, budget_s, details)

        return run

    return wrap


@_suite("variational identity", 10.0)
def check_variational_identity():
    """|q_variational_grid - q_closed_form| <= 1e-9 on a 200x200 grid, d in {1,2,3}."""
    alphas = np.linspace(0.2, 4.0, 200)
    deltas = np.linspace(0.0, 3.0, 200)
    worst = 0.0
    for dim in (1, 2, 3):
        qv = exponents.q_variational_grid(alphas, deltas, dim)
        qc = np.empty_like(qv)
        for i, a in enumerate(alphas):
            qc[i] = [exponents.q_value(a, d, dim) for d in deltas]
        worst = max(worst, float(np.abs(qv - qc).max()))
    return worst <= 1e-9, {"max_abs_deviation": worst}


@_suite("regime continuity", 1.0)
def check_regime_continuity():
    """p and q continuous across interior regime boundaries, tol 1e-12."""
    rng = philox(31337, 2)
    worst = 0.0
    n_points = 0
    while n_points < 1000:
        alpha = float(rng.uniform(0.2, 4.0))
        dim = int(rng.integers(1, 4))
        # p: both branches must give 1 at the first/second boundary
        rho_lo, rho_mid = exponents.p_thresholds(alpha, dim)
        first, second = exponents.p_branches(alpha, rho_mid, dim)
        worst = max(worst, abs(first - 1.0), abs(second - 1.0))
        n_points += 1
        # p: continuity of the clamped version at the polynomial threshold
        if alpha <= exponents.finite_mean_threshold(dim):
            worst = max(worst, abs(exponents.p_value_clamped(alpha, rho_lo, dim)))
            n_points += 1
        # q: adjacent case formulas at every interior boundary
        th = exponents.q_thresholds(alpha, dim)

        def gap(lower, upper, x):
            q_lower = exponents.q_formula(lower, alpha, x, dim)
            return abs(q_lower - exponents.q_formula(upper, alpha, x, dim))

        heavy = alpha < exponents.finite_mean_threshold(dim)
        if heavy:
            worst = max(worst, gap("third", "first", th["third_lo"]))
        else:
            worst = max(worst, gap("second", "first", 0.5))
            if th["second_hi"] > 0.5:
                worst = max(worst, gap("second", "third", th["second_hi"]))
            n_points += 1
        worst = max(worst, gap("third", "fourth", th["third_hi"]))
        if np.isfinite(th["fifth_lo"]):
            worst = max(worst, gap("fourth", "fifth", th["fifth_lo"]))
            n_points += 1
        n_points += 2
    return worst <= 1e-12, {"max_abs_gap": worst, "points": n_points}


@_suite("law of large numbers", 120.0)
def check_lln():
    """Mean A_t/t within 3 sigma of alpha/(alpha-1) at alpha=2, d=1, t=1e4."""
    r = montecarlo.lln_check(alpha=2.0, dim=1, t=1e4, replicas=1000, seed=101)
    return r.within_3_sigma, {"mean": r.mean, "stderr": r.stderr, "target": r.target}


@_suite("self-similar scaling", 600.0)
def check_ks_scaling():
    """Median log A_t / log t slope at alpha=0.8, d=1: 1.125 +- 0.1."""
    grid = [10**k for k in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    est = montecarlo.scaling_exponent_estimate(
        alpha=0.8, dim=1, t_grid=grid, replicas=10_000, quantile=0.5, seed=202
    )
    ok = abs(est.slope - est.reference) <= 0.1
    return ok, {"slope": est.slope, "stderr": est.stderr, "reference": est.reference}


@_suite("polynomial regime", 600.0)
def check_polynomial_regime():
    """Polynomial-regime tail scan: floor holds, slope stable under doubling."""
    grid = [100.0, 1000.0, 10_000.0]
    scan1 = montecarlo.tail_prob_scan(
        "rwrs", alpha=0.5, dim=1, t_grid=grid, replicas=10_000, seed=303, rho=1.2
    )
    scan2 = montecarlo.tail_prob_scan(
        "rwrs", alpha=0.5, dim=1, t_grid=grid, replicas=20_000, seed=404, rho=1.2
    )
    stable = (
        scan1.slope is not None
        and scan2.slope is not None
        and abs(scan1.slope.slope - scan2.slope.slope)
        < 2 * np.hypot(scan1.slope.stderr, scan2.slope.stderr) + 1e-12
    )
    ok = scan1.floor_ok and scan2.floor_ok and stable
    return ok, {
        "floor_ok": scan1.floor_ok and scan2.floor_ok,
        "slope_10k": None if scan1.slope is None else scan1.slope.slope,
        "slope_20k": None if scan2.slope is None else scan2.slope.slope,
        "probabilities": [e.probability for e in scan1.estimates],
    }


@_suite("chemical distance exponent", 300.0)
def check_chemdist_exponent():
    """Distance growth slope 2/3 +- 0.1, plus exact oracle equivalence."""
    grid = [10**k for k in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    fit = chemdist.chemdist_scaling(
        alpha=1.0, dim=1, delta=1.0, gamma=0.0, t_grid=grid, seeds=range(20)
    )
    target = exponents.chemdist_exponent(1.0, 1.0, 0.0, 1)
    slope_ok = abs(fit.slope - target) <= 0.1
    # oracle equivalence: Dijkstra == brute force on <= 12-site boxes,
    # detour reduction == Dijkstra on sufficient boxes
    mismatches = 0
    for seed in range(100):
        f = scenery.SceneryField(alpha=1.0, dim=1, seed=9000 + seed)
        spec = chemdist.LayeredGraphSpec(field=f, box=((0, 3), (0, 2)))
        x, y = (0, 0), (3, 2)
        d_dij = chemdist.chemical_distance(spec, x, y).value
        d_bf = chemdist.brute_force_distance(spec, x, y)
        if abs(d_dij - d_bf) > 1e-9:
            mismatches += 1
        x2, y2 = (0, 0), (4, 1)
        spec2 = chemdist.LayeredGraphSpec(field=f, box=chemdist.sufficient_box(x2, y2))
        d_dij2 = chemdist.chemical_distance(spec2, x2, y2)
        d_fast = chemdist.detour_distance(f, x2, y2)
        if not d_dij2.box_sufficient or abs(d_dij2.value - d_fast) > 1e-9:
            mismatches += 1
    ok = slope_ok and mismatches == 0
    return ok, {"slope": fit.slope, "target": target, "oracle_mismatches": mismatches}


@_suite("metric axioms", 60.0)
def check_metric_axioms():
    """Metric axioms and d <= l1 on 5x5 boxes over 100 seeds, zero violations."""
    violations = 0
    box = ((0, 4), (0, 4))
    sites = [(i, j) for i in range(5) for j in range(5)]
    coords = np.array(sites)
    l1d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=-1)
    off = ~np.eye(25, dtype=bool)
    for seed in range(100):
        f = scenery.SceneryField(alpha=1.0, dim=1, seed=40_000 + seed)
        spec = chemdist.LayeredGraphSpec(field=f, box=box)
        dmat = np.zeros((25, 25))
        for i, s in enumerate(sites):
            row = chemdist.dijkstra_all(box, spec.weight, s)
            for j, u in enumerate(sites):
                dmat[i, j] = row[u]
        violations += int(np.abs(dmat - dmat.T).max() > 1e-12)  # symmetry
        violations += int((np.diag(dmat) != 0).sum() + (dmat[off] <= 0).sum())
        violations += int((dmat > l1d + 1e-12).sum())
        tri = dmat[:, :, None] + dmat[None, :, :] - dmat[:, None, :]
        violations += int((tri < -1e-12).sum())
    return violations == 0, {"violations": violations}


@_suite("time-change representation", 300.0)
def check_time_change():
    """Two-sample chi-square direct VSRW vs composed law at t=50, 1e5 each."""
    fx = CALIBRATION["vsrw_fixture"]
    f = scenery.SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
    cmp_ = montecarlo.time_change_distribution_check(f, 50.0, 100_000, seed=505)
    return cmp_.chi2.passed, {
        "chi2": cmp_.chi2.statistic,
        "dof": cmp_.chi2.dof,
        "critical_0.01": cmp_.chi2.critical,
        "support_sites": cmp_.n_support,
    }


@_suite("appendix bounds", 900.0)
def check_appendix_bounds():
    """Chen-type tail and factorial moment bound: zero violations on the grid."""
    violations = 0
    details = {}
    for t in (100.0, 400.0):
        samples = montecarlo.local_time_samples(1, t, 1_000_000, seed=606)
        for b in (3.0, 5.0, 11.0):
            rep = montecarlo.chen_verify(1, t, b, 1_000_000, seed=606, samples=samples)
            violations += rep.n_violations
            details[f"chen_t{int(t)}_b{int(b)}"] = rep.n_violations
    for t in (100.0, 400.0):
        for m in (2, 3):
            rep = montecarlo.khasminskii_verify(1, t, m, 1_000_000, seed=707)
            violations += int(rep.violated)
            details[f"khas_t{int(t)}_m{m}"] = {"lhs": rep.lhs, "rhs": rep.rhs}
    return violations == 0, details


@_suite("field law", 60.0)
def check_field_law():
    """KS <= 0.002 at alpha in {0.5, 1, 2}; exceedance matches MC within 3 SE."""
    worst_ks = 0.0
    for alpha in (0.5, 1.0, 2.0):
        f = scenery.SceneryField(alpha=alpha, dim=1, seed=2024)
        vals = f.values(np.arange(1_000_000, dtype=np.int64)[:, None])
        worst_ks = max(worst_ks, stats.ks_statistic(vals, lambda r: 1 - r ** (-alpha)))
    seeds = np.arange(100_000, dtype=np.uint64)
    sites = scenery.box_sites(1, 1)
    vals = scenery.pareto_from_uniform(
        scenery.site_uniforms(seeds[:, None], sites[None, :, :]), 1.0
    )
    freq = float((vals.max(axis=1) >= 2.0).mean())
    p = scenery.exceedance_prob(1.0, 1, 1, 2.0)
    se = float(np.sqrt(p * (1 - p) / seeds.size))
    ok = worst_ks <= 0.002 and abs(freq - p) <= 3 * se
    return ok, {"worst_ks": worst_ks, "exceed_mc": freq, "exceed_exact": p, "se": se}


@_suite("level occupation scaling", 600.0)
def check_level_occupation():
    """Mean level-set occupation grows no faster than t^(eta/2 + 0.1) (d=1)."""
    rep = montecarlo.level_mean_occupation(
        alpha=1.0,
        dim=1,
        eta=1.0,
        k_eps=0.75,
        box_radius=1,
        t_grid=[100.0, 1000.0, 10_000.0],
        seeds=range(200),
        replicas=25,
        master_seed=808,
    )
    bound = rep.reference_exponent + 0.1
    return rep.within_bound, {"slope": rep.slope.slope, "bound": bound, "means": rep.means}


@_suite("determinism", 60.0)
def check_determinism():
    """Reruns with the same master seed produce byte-identical outputs."""
    from . import reporting

    r1 = montecarlo.lln_check(alpha=2.0, dim=1, t=100.0, replicas=512, seed=909)
    r2 = montecarlo.lln_check(alpha=2.0, dim=1, t=100.0, replicas=512, seed=909)
    rows = exponents.phase_diagram([1.0], [1.5], "p", 1)
    csv1 = reporting.render_csv(("alpha", "x", "value", "regime"), rows)
    csv2 = reporting.render_csv(
        ("alpha", "x", "value", "regime"), exponents.phase_diagram([1.0], [1.5], "p", 1)
    )
    payload = {"mean": r1.mean, "stderr": r1.stderr, "seed": 909}
    json1 = reporting.render_json(payload)
    json2 = reporting.render_json({"seed": 909, "stderr": r2.stderr, "mean": r2.mean})
    ok = r1 == r2 and csv1 == csv2 and json1 == json2
    return ok, {"lln_equal": r1 == r2}


SUITES = {
    "variational": check_variational_identity,
    "continuity": check_regime_continuity,
    "lln": check_lln,
    "ks-scaling": check_ks_scaling,
    "polynomial": check_polynomial_regime,
    "chemdist": check_chemdist_exponent,
    "metric": check_metric_axioms,
    "timechange": check_time_change,
    "appendix": check_appendix_bounds,
    "fieldlaw": check_field_law,
    "leveloccupation": check_level_occupation,
    "determinism": check_determinism,
}


def run_suites(names) -> list[VerifyResult]:
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {unknown}; available: {sorted(SUITES)}")
    return [SUITES[n]() for n in names]
