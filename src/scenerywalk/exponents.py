"""Closed-form tail and displacement exponents, plus the variational solver.

Exponent conventions
--------------------
``p_exponent`` gives the stretched-exponential cost of the upper deviation
{A_t >= t^rho} of the additive functional, ``q_closed_form`` the displacement
cost of the layered conductance walk hitting t^delta e_1 + t^gamma e, and
``q_variational_grid`` recovers the latter from the former through

    q(alpha, delta) = delta  AND  inf over rho in [delta, M] of
                      max( p(alpha, rho), 2 delta - rho )

with p clamped to zero on its polynomial range.  The two routes are kept
independent so they can cross-check each other numerically.

Each regime formula exists once: the two p branches in :func:`p_branches`,
the five q cases in :func:`q_formula`; the callers only pick one.

Regimes are reported as labels; the "polynomial" label marks parameter
points where the deviation probability decays only polynomially (no
stretched-exponential exponent exists), and "critical" marks the linear
deviation point rho = 1 where the tail depends on the deviation constant
rather than on a universal exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: regime labels carrying a marker instead of a plain numeric exponent
POLYNOMIAL = "polynomial"
CRITICAL = "critical"
BOUNDARY_ZERO = "boundary_zero"

#: bisection tolerance of :func:`q_variational_grid`
_BISECTION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ExponentResult:
    """Exponent value with the regime that produced it.

    ``value`` is None exactly for the marker regimes: "polynomial" (the
    probability decays like a negative power of t) and "critical" (rho = 1
    with finite-mean scenery, where the tail depends on the constant c in
    A_t >= c t).
    """

    value: Optional[float]
    regime: str


def _check_alpha_dim(alpha: float, dim: int) -> None:
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")


def finite_mean_threshold(dim: int) -> float:
    """Finite-mean threshold of alpha: 1 for d = 1, d/2 for d >= 2 (callers pick < or <=)."""
    return 1.0 if dim == 1 else dim / 2.0


def p_thresholds(alpha: float, dim: int) -> tuple[float, float]:
    """(lower threshold, first/second boundary) of the p regimes."""
    lo = (alpha + 1) / (2 * alpha) if dim == 1 else dim / (2 * alpha)
    return max(lo, 1.0), (alpha + dim) / alpha


def p_branches(alpha, rho, dim: int):
    """(first, second) p branch formulas, elementwise in ``rho``, whatever its regime.

    first 2*alpha*rho/(alpha+1) - 1 (d = 1), (2*alpha*rho - d)/(2*alpha + d) (d >= 2);
    second alpha*(rho-1)/d.
    """
    if dim == 1:
        first = 2 * alpha * rho / (alpha + 1) - 1
    else:
        first = (2 * alpha * rho - dim) / (2 * alpha + dim)
    return first, alpha * (rho - 1) / dim


def p_exponent(alpha: float, rho: float, dim: int) -> ExponentResult:
    """Upper-deviation exponent of P(A_t >= t^rho).

    The "first" branch of :func:`p_branches` holds on
    ((d/(2 alpha)) v 1, (alpha+d)/alpha] ((alpha+1)/(2 alpha) v 1 for d = 1),
    the "second" beyond.

    Below the lower threshold the decay is polynomial (marker regime).  At
    the lower threshold the exponent is 0 by monotonicity when alpha is in
    the infinite-mean range, and a "critical" marker otherwise (rho = 1).
    """
    _check_alpha_dim(alpha, dim)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    rho_lo, rho_mid = p_thresholds(alpha, dim)
    heavy = alpha <= finite_mean_threshold(dim)
    if rho < rho_lo:
        return ExponentResult(None, POLYNOMIAL)
    if rho == rho_lo:
        if heavy:
            return ExponentResult(0.0, BOUNDARY_ZERO)
        return ExponentResult(None, CRITICAL)
    first, second = p_branches(alpha, rho, dim)
    if rho <= rho_mid:
        return ExponentResult(first, "first")
    return ExponentResult(second, "second")


def p_value_clamped(alpha, rho, dim: int):
    """p(alpha, rho) with the polynomial range (and rho <= threshold) set to 0.

    Vectorised over ``rho``; this is the version entering the variational
    formula for q.
    """
    rho = np.asarray(rho, dtype=np.float64)
    rho_lo, rho_mid = p_thresholds(alpha, dim)
    first, second = p_branches(alpha, rho, dim)
    out = np.where(rho <= rho_mid, first, second)
    return np.where(rho <= rho_lo, 0.0, out)


def ldp_exponent(alpha: float, dim: int) -> float:
    """Exponent of P(A_t >= c t) for c above the scenery mean, the first p branch at rho = 1.

    Requires alpha > 1 for d = 1 and alpha > d/2 for d >= 2 (finite-mean
    hypothesis of the linear large deviation result).
    """
    _check_alpha_dim(alpha, dim)
    if alpha <= finite_mean_threshold(dim):
        needs = "1 when dim == 1" if dim == 1 else "dim/2 when dim >= 2"
        raise ValueError(f"ldp_exponent requires alpha > {needs}")
    return p_branches(alpha, 1.0, dim)[0]


def q_thresholds(alpha: float, dim: int) -> dict:
    """Interval endpoints of the five q regimes (inf marks a void endpoint)."""
    if dim == 1:
        second_hi = alpha / (alpha + 1)
        quarter = (alpha + 1) / (4 * alpha)
    else:
        second_hi = 2 * alpha / (2 * alpha + dim)
        quarter = dim / (4 * alpha)
    return {
        "first_hi": max(0.5, quarter),
        "second_hi": second_hi,
        "third_lo": max(second_hi, quarter),
        "third_hi": (2 * alpha + dim) / (2 * alpha),
        "fifth_lo": alpha / (alpha - dim) if alpha > dim else np.inf,
    }


def q_formula(regime: str, alpha, delta, dim: int):
    """The case formula of q named by ``regime``, whatever regime delta is in.

    first 0; second 2 delta - 1; third (4 alpha delta - d)/(4 alpha + d)
    ((4 alpha delta - alpha - 1)/(3 alpha + 1) for d = 1); fourth
    alpha (2 delta - 1)/(alpha + d); fifth delta.
    """
    if regime == "first":
        return 0.0
    if regime == "second":
        return 2 * delta - 1
    if regime == "third":
        if dim == 1:
            return (4 * alpha * delta - alpha - 1) / (3 * alpha + 1)
        return (4 * alpha * delta - dim) / (4 * alpha + dim)
    if regime == "fourth":
        return alpha * (2 * delta - 1) / (alpha + dim)
    if regime == "fifth":
        return float(delta)
    raise ValueError(f"unknown q regime {regime!r}")


def q_closed_form(alpha: float, delta: float, dim: int) -> ExponentResult:
    """Five-case displacement exponent q(alpha, delta).

    The second case (2 delta - 1) is void in the infinite-mean range
    (alpha < 1 for d = 1, alpha < d/2 for d >= 2); the fifth case (delta)
    only exists when alpha exceeds d.  Interval punctuation follows the
    piecewise definition exactly: the third case is closed on both ends.
    """
    _check_alpha_dim(alpha, dim)
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    th = q_thresholds(alpha, dim)
    if delta >= th["fifth_lo"]:
        regime = "fifth"
    elif delta > th["third_hi"]:
        regime = "fourth"
    elif delta >= th["third_lo"]:
        regime = "third"
    elif 0.5 <= delta < th["second_hi"]:
        regime = "second"
    else:
        regime = "first"
    return ExponentResult(q_formula(regime, alpha, delta, dim), regime)


def q_value(alpha: float, delta: float, dim: int) -> float:
    """Plain numeric q(alpha, delta); every regime has a finite value."""
    return float(q_closed_form(alpha, delta, dim).value)


def variational_upper_limit(alpha: float, delta: float, dim: int) -> float:
    """Right end M of the rho range in the variational formula.

    Chosen as 2*delta + (alpha+d)/alpha + 1: beyond the first/second
    boundary p grows at slope >= alpha/d, so p(alpha, M) >= 2*delta - delta
    and the infimum has stabilised.
    """
    return 2 * delta + (alpha + dim) / alpha + 1


def q_variational_grid(alphas, deltas, dim: int) -> np.ndarray:
    """Vectorised q over an (alpha, delta) grid via bisection on the crossing.

    ``p_value_clamped(alpha, .)`` is nondecreasing and ``2 delta - rho`` is
    strictly decreasing, so ``g = p - (2 delta - rho)`` has a single sign
    change on [delta, M]; the infimum of their max sits at that crossing
    (possibly at the jump rho = 1 when alpha > 1, which bisection pins down
    because g jumps through zero there).  The bisection halves the brackets
    until the widest is below :data:`_BISECTION_TOLERANCE`, then 5 more
    times, and at least 60 times.  Returns min(delta, crossing value).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    out = np.empty((alphas.size, deltas.size))
    for i, a in enumerate(alphas.ravel()):
        d_ = deltas.ravel()
        lo = d_.copy()
        hi = variational_upper_limit(a, d_, dim) * np.ones_like(d_)
        g_lo = p_value_clamped(a, lo, dim) - (2 * d_ - lo)
        # crossing below delta: infimum over [delta, M] is at rho = delta
        at_left = g_lo >= 0
        n_iter = max(60, int(np.ceil(np.log2((hi - lo).max() / _BISECTION_TOLERANCE))) + 5)
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            g_mid = p_value_clamped(a, mid, dim) - (2 * d_ - mid)
            take_lo = g_mid < 0
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
        # evaluate the max at both bracket ends and keep the smaller one
        h_lo = np.maximum(p_value_clamped(a, lo, dim), 2 * d_ - lo)
        h_hi = np.maximum(p_value_clamped(a, hi, dim), 2 * d_ - hi)
        inf_val = np.minimum(h_lo, h_hi)
        inf_val = np.where(at_left, np.maximum(p_value_clamped(a, d_, dim), d_), inf_val)
        out[i] = np.minimum(d_, inf_val)
    return out


def displacement_exponent(alpha: float, delta: float, gamma: float, dim: int) -> float:
    """Full displacement exponent q(alpha, delta) v ((2 gamma - 1) ^ gamma)."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return max(q_value(alpha, delta, dim), min(2 * gamma - 1, gamma))


def chemdist_exponent(alpha: float, delta: float, gamma: float, dim: int) -> float:
    """Growth exponent of the chemical distance to t^delta e_1 + t^gamma e.

    Valid for super-diffusive vertical displacement delta > 1/2; the value is
    (2 delta alpha / (2 alpha + d)) v gamma.
    """
    _check_alpha_dim(alpha, dim)
    if delta <= 0.5:
        raise ValueError(f"chemdist_exponent requires delta > 1/2, got {delta}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return max(2 * delta * alpha / (2 * alpha + dim), gamma)


def optimal_mu(alpha: float, rho: float, dim: int) -> float:
    """Optimal spatial range exponent mu for the first-regime strategy.

    mu = alpha*rho/(alpha+1) for d = 1 and alpha*(rho+1)/(2 alpha + d) for
    d >= 2; only defined on the closed first-regime rho interval.
    """
    _check_alpha_dim(alpha, dim)
    rho_lo, rho_mid = p_thresholds(alpha, dim)
    if not rho_lo <= rho <= rho_mid:
        raise ValueError(
            f"rho={rho} outside the first regime [{rho_lo}, {rho_mid}]; "
            "optimal_mu applies to the first regime only"
        )
    if dim == 1:
        return alpha * rho / (alpha + 1)
    return alpha * (rho + 1) / (2 * alpha + dim)


def optimal_rho(alpha: float, delta: float, dim: int) -> float:
    """The rho achieving the variational infimum in the third/fourth regimes.

    d = 1: (2 delta + 1)(alpha + 1)/(3 alpha + 1) below delta = (2a+1)/(2a),
    (2 delta + alpha)/(alpha + 1) at or above it.  For d >= 2 the analogous
    crossing points of p with 2 delta - rho are returned.
    """
    regime = q_closed_form(alpha, delta, dim).regime
    if regime not in ("third", "fourth"):
        raise ValueError(
            f"optimal_rho needs (alpha, delta) in the third or fourth regime, "
            f"got regime {regime!r}"
        )
    if delta >= q_thresholds(alpha, dim)["third_hi"]:
        return (2 * dim * delta + alpha) / (alpha + dim)
    if dim == 1:
        return (2 * delta + 1) * (alpha + 1) / (3 * alpha + 1)
    return (2 * delta * (2 * alpha + dim) + dim) / (4 * alpha + dim)


def range_tail_exponent(alpha: float, delta: float, dim: int, r: float) -> float:
    """Decay exponent e in P(tau_r >= t) >= t^(-e): violation-time tails.

    Third regime: e = r * C1 with C1 = (alpha+1)/2 (d = 1) or alpha + d/2
    (d >= 2); fourth regime: C1 = d.  Second regime:
    e = alpha + delta*(alpha-1) + (r/2)(3 alpha + 1) for d = 1 and
    e = 2 alpha - delta*(2 alpha + d) + (r/2)(4 alpha + d) for d >= 2.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    regime = q_closed_form(alpha, delta, dim).regime
    if regime == "third":
        c1 = (alpha + 1) / 2 if dim == 1 else alpha + dim / 2
        return r * c1
    if regime == "fourth":
        return r * dim
    if regime == "second":
        if dim == 1:
            return alpha + delta * (alpha - 1) + (r / 2) * (3 * alpha + 1)
        return 2 * alpha - delta * (2 * alpha + dim) + (r / 2) * (4 * alpha + dim)
    raise ValueError(
        f"range_tail_exponent needs the second, third or fourth regime, got {regime!r}"
    )


def _p_boundaries(alpha: float, dim: int) -> list[float]:
    rho_lo, rho_mid = p_thresholds(alpha, dim)
    return sorted({rho_lo, rho_mid})


def _q_boundaries(alpha: float, dim: int) -> list[float]:
    th = q_thresholds(alpha, dim)
    pts = {th["first_hi"], th["third_lo"], th["third_hi"]}
    if np.isfinite(th["fifth_lo"]):
        pts.add(th["fifth_lo"])
    heavy = alpha < finite_mean_threshold(dim)
    if not heavy:
        pts.add(0.5)
    return sorted(pts)


def phase_diagram(alpha_grid, x_grid, which: str, dim: int, gamma: float = 0.0) -> list[tuple]:
    """Tabulate an exponent over (alpha, x) grids for plotting.

    ``which`` is one of "p" (x = rho), "q" (x = delta) or "displacement"
    (x = delta at fixed gamma), the table kinds of the CLI.  Rows are
    (alpha, x, value, regime) with value None on marker regimes; for each
    alpha the regime boundary points are appended as extra rows labelled
    "boundary:...".
    """
    if which not in ("p", "q", "displacement"):
        raise ValueError(f"unknown phase diagram kind {which!r}")
    alpha_grid = [float(a) for a in alpha_grid]
    x_grid = [float(x) for x in x_grid]
    if not alpha_grid or not x_grid:
        raise ValueError("phase_diagram needs non-empty grids")
    rows = []
    for a in alpha_grid:
        for x in x_grid:
            rows.append(_phase_row(a, x, which, dim, gamma))
        bounds = _p_boundaries(a, dim) if which == "p" else _q_boundaries(a, dim)
        for b in bounds:
            alpha_, x_, value, regime = _phase_row(a, b, which, dim, gamma)
            rows.append((alpha_, x_, value, f"boundary:{regime}"))
    return rows


def _phase_row(alpha: float, x: float, which: str, dim: int, gamma: float) -> tuple:
    r = p_exponent(alpha, x, dim) if which == "p" else q_closed_form(alpha, x, dim)
    value = displacement_exponent(alpha, x, gamma, dim) if which == "displacement" else r.value
    return (alpha, x, value, r.regime)
