"""Exact values and independent samplers: the oracles the package is checked against.

No estimator needs this module, so it lives with the tests.  Each oracle
here is compared with package output by at least one test, and
``tests/test_oracles_used.py`` fails when one is not.

``simulate_vsrw`` runs one layered VSRW at a time, jump by jump, the
independent event-driven check of ``_kernels.vsrw_endpoints_batch``.
``transition_prob_mc`` estimates p_t(0, x) by endpoint frequencies of the
kernels' jump skeletons, the Monte Carlo check of the Bessel series
``montecarlo.log_transition_prob``.

``layered_second_moment`` is the exact E[X1(t)^2] of the layered walk and
``functional_second_moment`` the exact E[(A_t - mu t)^2] of the scenery
walk over fresh Pareto sceneries.  ``TableField`` is the explicit-table
scenery of the hand-computed examples, ``box_max`` the maximum of a field
over a ball, and ``detour_full_margin`` the single-detour search over its
whole margin box.  ``site_uniform_reference`` is the documented scenery
hash in Python integers, the check of ``scenery.site_uniforms``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import integrate
from scipy.special import gammaln, ive

from scenerywalk import _kernels
from scenerywalk.scenery import box_sites, grid_sites
from scenerywalk.stats import TailEstimate, tail_estimate


@dataclass(frozen=True)
class TableField:
    """Scenery backed by an explicit site -> value table (default elsewhere).

    Test double for enumeration examples; sites are coordinate tuples.
    """

    table: Mapping[tuple, float]
    dim: int
    default: float = 1.0

    def values(self, sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.int64)
        flat = sites.reshape(-1, sites.shape[-1])
        out = np.array([self.table.get(tuple(int(c) for c in s), self.default) for s in flat])
        return out.reshape(sites.shape[:-1])


_MASK64 = 2**64 - 1


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def site_uniform_reference(seed: int, site) -> float:
    """The uniform u of one site by steps 1-3 of the ``scenery`` docstring, one int at a time."""
    h = _splitmix64(int(seed))
    for c in site:
        c = int(c)
        h = _splitmix64(h ^ (((c << 1) ^ (c >> 63)) & _MASK64))
    return ((h >> 11) + 1) * 2.0**-53


def box_max(field, radius: int) -> tuple[float, tuple]:
    """Maximum of z over the sup-norm ball of given radius.

    Ties are broken towards the lexicographically smallest site, so the
    argmax is deterministic.
    """
    sites = box_sites(radius, field.dim)
    vals = field.values(sites)
    best = np.flatnonzero(vals == vals.max())[0]  # sites are in lex order
    return float(vals[best]), tuple(int(c) for c in sites[best])


def detour_full_margin(field, x, y) -> float:
    """Single-detour distance minimised over the whole margin box at once.

    Every transverse site within ``|x1 - y1| // 2 + 1`` of the bounding box
    of x2 and y2 is evaluated; ``chemdist.detour_distance`` must return the
    same float from the nested boxes it stops at.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    dx1 = abs(int(x[0] - y[0]))
    x2, y2 = x[1:], y[1:]
    base = int(np.abs(x2 - y2).sum())
    if dx1 == 0:
        return float(base)
    margin = dx1 // 2 + 1
    w = grid_sites(zip(np.minimum(x2, y2) - margin, np.maximum(x2, y2) + margin))
    z = field.values(w)
    excess = np.abs(w - x2).sum(axis=-1) + np.abs(w - y2).sum(axis=-1)
    cost = excess + dx1 / np.sqrt(z)
    return float(cost.min())


def layered_second_moment(field, t: float) -> float:
    """Exact E[X1(t)^2] of the layered VSRW started at the origin.

    X1 jumps +1 and -1 at rate z(x2) each, so X1(t)^2 has mean 2 E[A2_t],
    with A2_t the integral of z along the transverse walk (per-edge rate 1):

        E[X1(t)^2] = 2 sum_x z(x) int_0^t e^(-2ds) prod_i I_(x_i)(2s) ds.

    The sum runs over the sup-norm ball of radius ceil(15 sqrt(2dt)), 15
    standard deviations of the transverse walk at time t.
    """
    radius = int(np.ceil(15.0 * np.sqrt(2.0 * field.dim * t)))
    sites = box_sites(radius, field.dim)
    z = field.values(sites)
    density = lambda s: float(z @ np.prod(ive(sites, 2.0 * s), axis=-1))
    return 2.0 * integrate.quad(density, 0.0, t, limit=200)[0]


def functional_second_moment(alpha: float, dim: int, t: float) -> float:
    """Exact E[(A_t - mu t)^2] of the rate-1 walk over fresh Pareto(alpha) sceneries.

    Given the walk, A_t - mu t = sum_x (z(x) - mu) l_t(x) with i.i.d. z of
    variance sigma^2 (alpha > 2), so the mean square is sigma^2 E sum_x l_t(x)^2,
    and by the Markov property

        E sum_x l_t(x)^2 = 2 int_0^t (t - s) p_s(0, 0) ds,  p_s(0, 0) = (e^(-s/d) I_0(s/d))^d.
    """
    if alpha <= 2:
        raise ValueError("the scenery variance is finite only for alpha > 2")
    mu = alpha / (alpha - 1.0)
    sigma2 = alpha / (alpha - 2.0) - mu * mu
    density = lambda s: (t - s) * ive(0, s / dim) ** dim
    return sigma2 * 2.0 * integrate.quad(density, 0.0, t, limit=200)[0]


def origin_local_time_law(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact law of l_t(0) of the rate-1 walk on Z: weights w of t Beta(a, b) components.

    Given N ~ Poisson(t) jumps the N + 1 sojourns split t uniformly, and the
    walk visits 0 on 1 + R of them, R being the returns by epoch 2n,
    n = N // 2, with P(R = r) = C(2n - r, n) 2^-(2n - r) for r = 0 ... n
    (Feller, vol. I, ch. III).  So l_t(0) = t Beta(1 + R, N - R), which is t
    itself at N = 0 (b = 0).  N runs to t + 20 sqrt(t) + 20, past which the
    Poisson mass is far below 1e-12.
    """
    jumps = np.arange(int(t + 20.0 * np.sqrt(t) + 20.0) + 1)
    width = jumps // 2 + 1  # components r = 0 ... n of each N
    big_n = np.repeat(jumps, width)
    n = big_n // 2
    r = np.arange(big_n.size) - np.repeat(np.cumsum(width) - width, width)
    log_poisson = big_n * np.log(t) - t - gammaln(big_n + 1)
    log_returns = (
        gammaln(2 * n - r + 1) - gammaln(n + 1) - gammaln(n - r + 1) - (2 * n - r) * np.log(2.0)
    )
    weights = np.exp(log_poisson + log_returns)
    return weights, (1 + r).astype(np.float64), (big_n - r).astype(np.float64)


def origin_local_time_moment(t: float, m: int) -> float:
    """Exact E[l_t(0)^m] from :func:`origin_local_time_law` and the Beta moments."""
    w, a, b = origin_local_time_law(t)
    beta_moment = np.prod([(a + j) / (a + b + j) for j in range(m)], axis=0)
    return float(t**m * (w @ beta_moment))


def transition_prob_mc(
    dim: int, total_rate: float, t: float, x, replicas: int, rng: np.random.Generator
) -> TailEstimate:
    """Unbiased frequency estimate of p_t(0, x) with a Wilson interval.

    Simulates the jump skeleton (Poisson jump count, uniform neighbour
    choices) and counts endpoint hits, so it is an independent check of
    :func:`log_transition_prob`.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if x.size != dim:
        raise ValueError(f"x must have {dim} coordinates")
    hit = _kernels.skeletons(
        dim, total_rate, t, replicas, rng,
        lambda rows, rng, pos, live: np.all(_kernels.endpoints(pos, live) == x, axis=-1),
        np.empty(replicas, dtype=bool),
    )
    return tail_estimate(int(hit.sum()), replicas)


@functools.cache
def _layer_value(field, x2: tuple) -> float:
    """z(x2), cached per (field, transverse site).

    Exact, since field values are pure functions of both and fields are
    frozen.  The cache is shared across walks: 2000 walks on the fixture
    visit a few dozen sites between them, and a cache per walk made them
    about 1.5 times slower.
    """
    return float(field.values(np.array(x2, dtype=np.int64)))


def simulate_vsrw(field, horizon: float, rng: np.random.Generator) -> tuple[np.ndarray, int, int]:
    """Endpoint and (vertical, transverse) jump counts of one layered VSRW.

    At (x1, x2) the exit rate is 2 z(x2) + 2 d: each vertical edge carries
    rate z(x2), each transverse edge rate 1.  Simulated one jump at a time by
    exponential holding times (no uniformisation; the rates are unbounded),
    after the expected cost has passed ``_kernels.check_vsrw_budget``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    _kernels.check_vsrw_budget(field, horizon, 1)
    d = field.dim
    x1, x2 = 0, (0,) * d
    t = 0.0
    vertical = transverse = 0
    while True:
        z = _layer_value(field, x2)
        rate = 2.0 * z + 2.0 * d
        # a vertical jump leaves x2, and so z and the rate, as they are
        while True:
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                return np.array((x1, *x2), dtype=np.int64), vertical, transverse
            u = rng.random() * rate
            if u >= 2.0 * z:
                break
            x1 += 1 if u < z else -1
            vertical += 1
        k = min(int((u - 2.0 * z) // 2.0), d - 1)
        step = 1 if (u - 2.0 * z - 2.0 * k) < 1.0 else -1
        x2 = x2[:k] + (x2[k] + step,) + x2[k + 1:]
        transverse += 1
