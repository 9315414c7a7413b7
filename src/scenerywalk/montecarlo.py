"""Monte Carlo estimators and verifiers for the desk-checkable claims.

Covers the strong law for A_t/t, the heavy-tail scaling exponent of A_t,
polynomial-regime tail scans, the quenched lower-bound strategy, the
non-asymptotic occupation bounds (Chen-type tail and the factorial moment
bound), and the level-set occupation growth.

Tail scans are not run where the paper's quenched classification puts the
tail in a stretched-exponential regime (a quenched probability of order
exp(-t^p) is out of reach of direct frequency estimation); such requests
raise :class:`StretchedRegimeError`.  Every estimator is
reproducible bit-exactly from (master seed, parameters): randomness flows
through keyed Philox streams only.

Each law has one sampler.  ``local_time_samples`` (the origin local time
l_t(0) of the walk started at the origin) serves chen_verify,
khasminskii_verify and strategy_lower_bound, so an exact d = 1 origin local
time (ROADMAP item 7) changes only it.  ``_functional`` (A_t) serves
lln_check, scaling_exponent_estimate and the rwrs tail scan; both tail-scan
models share one grid loop, and the rcm target is ``chemdist.target_site``.

Stream keys are tuples whose head is the estimator's own ``_KEY_*`` constant
below, followed by its grid indices (or, where there is none, the float64
bits of a parameter such as the horizon), so keys of different estimators
or grid points never coincide however large the grids grow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, exponents
from .chemdist import target_site
from .scenery import ConstantField, SceneryField, box_sites
from .stats import (
    SlopeFit,
    TailEstimate,
    loglog_slope,
    standard_error,
    tail_estimate,
    two_sample_chisquare,
    wilson_ci,
    ChiSquareResult,
)

#: total jump rate of the scenery walk (generator (2d)^-1 Delta convention)
RWRS_RATE = 1.0

_KEY_LLN = 1
_KEY_SCALING = 1000
_KEY_TAIL_RWRS = 2000
_KEY_TAIL_RCM = 2500
_KEY_LOCAL_TIME = 3000
_KEY_KHASMINSKII = 4000
_KEY_LEVEL = 5000
_KEY_VSRW = 6000
_KEY_COMPOSED = 6001
_KEY_LOCAL_TIME_TAIL = 7100


def _float_part(x: float) -> int:
    """Key part of a float parameter: its float64 bit pattern (distinct x, distinct part)."""
    return int(np.float64(x).view(np.uint64))


class StretchedRegimeError(RuntimeError):
    """Raised when a tail scan is asked for parameters outside the polynomial regime.

    The refusal follows the paper's classification of the quenched
    probability P^z, for one fixed scenery z: outside the polynomial regime
    it decays like exp(-t^p), which no frequency estimate reaches.  It says
    nothing about the annealed frequency E[P^z] that the ``rwrs`` scan
    samples (see :func:`tail_prob_scan`), which there can decay only
    polynomially.  Use the exponent algebra and :func:`strategy_lower_bound`
    for the quenched tail instead.
    """


def _functional(alpha: float, dim: int, t: float, replicas: int, seed: int, tag, law_override=None):
    """A_t = int_0^t z(S_u) du of the rate-1 walk, fresh Pareto scenery per replica or z == law_override."""
    weight = None if law_override is None else ConstantField(law_override, dim).values
    return _kernels.additive_functional_batch(alpha, dim, RWRS_RATE, t, seed, replicas, tag, weight)


# ---------------------------------------------------------------------------
# law of large numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LLNResult:
    mean: float
    stderr: float
    target: float
    replicas: int
    t: float
    alpha: float
    dim: int

    @property
    def within_3_sigma(self) -> bool:
        return abs(self.mean - self.target) <= 3 * self.stderr


def lln_check(
    alpha: float,
    dim: int,
    t: float,
    replicas: int,
    seed: int,
    law_override: Optional[float] = None,
) -> LLNResult:
    """Sample mean of A_t/t over fresh fields against the scenery mean.

    For the exact Pareto law the target is E[z] = alpha/(alpha-1), which
    requires alpha > 1.  ``law_override`` replaces the scenery by z == c
    (degenerate oracle with A_t/t == c exactly).
    """
    if law_override is None and alpha <= 1:
        raise ValueError("lln_check requires alpha > 1 (scenery mean must be finite)")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    ratios = _functional(alpha, dim, t, replicas, seed, _KEY_LLN, law_override) / t
    target = float(law_override) if law_override is not None else alpha / (alpha - 1)
    return LLNResult(
        mean=float(ratios.mean()),
        stderr=standard_error(ratios),
        target=target,
        replicas=replicas,
        t=t,
        alpha=alpha,
        dim=dim,
    )


# ---------------------------------------------------------------------------
# heavy-tail scaling of A_t
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingEstimate:
    slope: float
    stderr: float
    quantiles: tuple  # (t, quantile of A_t) pairs
    reference: float
    one_sided: bool  # True: reference is only an upper bound on the slope


def _map_indexed(fn, n: int, jobs: Optional[int]):
    """Evaluate fn(0..n-1) possibly thread-parallel; results in index order.

    Safe because every task derives its randomness from its own keyed
    streams, so the output is identical for any jobs value.
    """
    if not jobs or jobs <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(jobs, n)) as pool:
        return list(pool.map(fn, range(n)))


def scaling_exponent_estimate(
    alpha: float,
    dim: int,
    t_grid: Sequence[float],
    replicas: int,
    quantile: float,
    seed: int,
    jobs: Optional[int] = None,
) -> ScalingEstimate:
    """Log-log slope of a quantile of A_t over a geometric t grid.

    For d = 1 the reference slope is the self-similar exponent
    (alpha+1)/(2 alpha); for d >= 2 the reference d/(2 alpha) is an upper
    bound only (reported one-sided).  Needs alpha <= 1.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 5:
        raise ValueError("t_grid must be geometric with at least 5 points")
    if not 0 < alpha <= 1:
        raise ValueError("scaling_exponent_estimate covers the 0 < alpha <= 1 range")
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")

    def one(i: int):
        a_vals = _functional(alpha, dim, t_grid[i], replicas, seed, (_KEY_SCALING, i))
        return (t_grid[i], float(np.quantile(a_vals, quantile)))

    qs = _map_indexed(one, len(t_grid), jobs)
    fit = loglog_slope([q[0] for q in qs], [q[1] for q in qs])
    reference = exponents.p_thresholds(alpha, dim)[0]
    return ScalingEstimate(fit.slope, fit.stderr, tuple(qs), reference, dim >= 2)


# ---------------------------------------------------------------------------
# polynomial-regime tail scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailScan:
    model: str
    estimates: tuple  # TailEstimate per grid point
    t_grid: tuple
    slope: Optional[SlopeFit]
    floor_exponent: float
    floor_ok: bool


def tail_prob_scan(
    model: str,
    alpha: float,
    dim: int,
    t_grid: Sequence[float],
    replicas: int,
    seed: int,
    rho: Optional[float] = None,
    delta: Optional[float] = None,
    gamma: Optional[float] = None,
    jobs: Optional[int] = None,
) -> TailScan:
    """Direct MC frequencies of the polynomial-regime events.

    ``model="rwrs"`` draws a fresh scenery z per replica, so its frequency of
    A_t >= t^rho estimates the annealed probability E[P^z(A_t >= t^rho)],
    the quenched probability averaged over sceneries, not P^z for one z.
    ``model="rcm"`` scans the quenched P^z(X_t = t^delta e_1 + t^gamma e)
    of one fixed environment derived from the master seed.  Both refuse, with
    :class:`StretchedRegimeError`, the parameters that the paper's quenched
    classification puts in a stretched-exponential regime, even where the
    annealed rwrs frequency decays only polynomially (above the typical
    scale t^((alpha+1)/(2 alpha)) in d = 1 one large scenery value carries
    the event).  Frequencies are checked against the calibrated polynomial
    floor t^(-floor_exponent) of ``CALIBRATION``.

    What that check detects is narrow.  At the polynomial suite's alpha =
    0.5, rho = 1.2, d = 1, rho lies below the typical scale t^1.5, so the
    event is typical: its frequencies read close to 1, many decades above
    the floor t^-6, and the log-log slope close to 0.  The suite therefore
    checks that a typical event stays typical.  It cannot detect a sampler
    error that keeps the event typical, such as A_t scaled by 2.
    """
    from .calibration import CALIBRATION

    t_grid = [float(t) for t in t_grid]
    if not t_grid or replicas < 1:
        raise ValueError("need a non-empty t grid and replicas >= 1")
    floor_exponent = CALIBRATION["polynomial_floor_exponent"]["value"]
    if model == "rwrs":
        if rho is None:
            raise ValueError("rwrs scan needs rho")
        regime = exponents.p_exponent(alpha, rho, dim).regime
        if rho > 1 and regime not in (exponents.POLYNOMIAL,):
            raise StretchedRegimeError(
                f"(alpha={alpha}, rho={rho}, d={dim}) is in the {regime!r} regime, where the "
                "paper's quenched tail P^z(A_t >= t^rho) decays stretched-exponentially; "
                "this scan samples the annealed frequency E[P^z(A_t >= t^rho)] and, for rho > 1, "
                "runs only in the polynomial regime; run `scenerywalk exponents --which p` instead"
            )

        def hits(i: int, t: float) -> int:
            a_vals = _functional(alpha, dim, t, replicas, seed, (_KEY_TAIL_RWRS, i))
            return int(np.sum(a_vals >= t**rho))

    elif model == "rcm":
        if delta is None or gamma is None:
            raise ValueError("rcm scan needs delta and gamma")
        q_regime = exponents.q_closed_form(alpha, delta, dim).regime
        if not (q_regime == "first" and gamma <= 0.5):
            raise StretchedRegimeError(
                f"(alpha={alpha}, delta={delta}, gamma={gamma}, d={dim}) is outside the scan's "
                "range (first q regime, gamma <= 0.5), where the paper's quenched "
                "P^z(X_t = t^delta e_1 + t^gamma e) decays stretched-exponentially; "
                "run `scenerywalk exponents --which q` instead"
            )
        field = SceneryField(alpha=alpha, dim=dim, seed=seed)

        def hits(i: int, t: float) -> int:
            ends = _kernels.composed_endpoints_batch(field, t, seed, replicas, (_KEY_TAIL_RCM, i))
            return int(np.sum(np.all(ends == target_site(t, delta, gamma, dim), axis=1)))

    else:
        raise ValueError(f"unknown tail scan model {model!r}")
    estimates = _map_indexed(
        lambda i: tail_estimate(hits(i, t_grid[i]), replicas), len(t_grid), jobs
    )

    floor_ok = all(
        est.ci_low > t ** (-floor_exponent) for est, t in zip(estimates, t_grid)
    )
    positive = [(t, e.probability) for t, e in zip(t_grid, estimates) if e.probability > 0]
    slope = None
    if len(positive) >= 2:
        slope = loglog_slope([p[0] for p in positive], [p[1] for p in positive])
    return TailScan(
        model=model,
        estimates=tuple(estimates),
        t_grid=tuple(t_grid),
        slope=slope,
        floor_exponent=float(floor_exponent),
        floor_ok=bool(floor_ok),
    )


# ---------------------------------------------------------------------------
# transition law of the continuous-time simple random walk
# ---------------------------------------------------------------------------


def log_transition_prob(dim: int, rate: float, t: float, sites: np.ndarray) -> np.ndarray:
    """log p_t(0, x) of the total-rate-``rate`` walk for an array of sites (Bessel series).

    Coordinates of a total-rate-R walk are independent rate-R/d walks on Z,
    and a rate-r walk at time t sits at k with probability e^(-rt) I_k(rt).
    Sites beyond the reachable range underflow to -inf, which simply removes
    them from the bound maximisation of :func:`strategy_lower_bound`.
    """
    from scipy.special import ive

    u = rate * t / dim
    out = np.zeros(sites.shape[0])
    with np.errstate(divide="ignore"):
        for i in range(dim):
            out += np.log(ive(np.abs(sites[:, i]).astype(np.float64), u))
    return out


# ---------------------------------------------------------------------------
# quenched lower-bound strategy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyBound:
    """Certified log-probability lower bound for P_0(A_t >= t^rho, S_t = 0)."""

    log_probability: float
    travel: float
    stay: float
    ret: float
    site: Optional[tuple]
    regime: str
    t: float
    rho: float

    @property
    def exponent(self) -> float:
        """log(-log bound)/log t: the measured decay exponent of the bound."""
        if not np.isfinite(self.log_probability):
            return float("inf")
        return float(np.log(-self.log_probability) / np.log(self.t))


_LT_TAIL_SEED = 0x10CA17
_LT_TAIL_REPLICAS = 200_000


@functools.lru_cache(maxsize=8)
def _local_time_tail(dim: int, window: float) -> np.ndarray:
    """Sorted MC sample of the origin local time over one window.

    Cached, at most 8 entries of ``_LT_TAIL_REPLICAS`` float64 each; callers
    must not modify the returned array.
    """
    tag = _KEY_LOCAL_TIME_TAIL
    return np.sort(local_time_samples(dim, window, _LT_TAIL_REPLICAS, _LT_TAIL_SEED, tag))


def _log_stay_prob(dim: int, window: float, amounts: np.ndarray) -> np.ndarray:
    """Certified log lower bound for P(l_window(0) >= amount).

    Combines the exact continuous-stay bound exp(-rate * amount) with the
    Wilson 95% lower confidence bound of a cached MC sample of the local
    time; the larger of the two is used per amount.
    """
    samples = _local_time_tail(dim, window)
    n = samples.size
    counts = n - np.searchsorted(samples, amounts, side="left")
    with np.errstate(divide="ignore"):
        log_mc = np.log(wilson_ci(counts, n)[0])
    log_exact = -RWRS_RATE * np.asarray(amounts)
    return np.maximum(log_mc, log_exact)


def strategy_lower_bound(
    alpha: float,
    dim: int,
    rho: float,
    t: float,
    field_seed: int,
    field=None,
) -> StrategyBound:
    """Computable lower bound for the bridge probability P(A_t >= t^rho, S_t = 0).

    Follows the peak strategy: travel to a high site x within t/4, leave
    local time t^rho/z(x) there inside the next t/4 window (second regime:
    hold x through the whole window), and return to the origin by t.  Travel
    and return legs use :func:`log_transition_prob`; the stay
    factor is the certified bound of :func:`_log_stay_prob`.  The bound is
    maximised over the candidate sites of the t^mu search box, which at
    finite t can beat the plain box argmax.
    """
    regime = exponents.p_exponent(alpha, rho, dim).regime
    if regime not in ("first", "second"):
        raise ValueError(
            f"strategy_lower_bound needs the first or second regime, got {regime!r}"
        )
    if field is None:
        field = SceneryField(alpha=alpha, dim=dim, seed=field_seed)
    if regime == "first":
        mu = exponents.optimal_mu(alpha, rho, dim)
    else:
        mu = exponents.p_branches(alpha, rho, dim)[1]
    radius = max(1, int(np.ceil(t ** min(mu, 1.0) if regime == "first" else t**mu)))
    sites = box_sites(radius, dim)
    z = field.values(sites)

    log_travel = log_transition_prob(dim, RWRS_RATE, t / 4, sites)
    if regime == "first":
        lstar = t**rho / z
        feasible = lstar <= t / 4
        stay = _log_stay_prob(dim, t / 4, lstar)
        log_ret = np.minimum(
            log_transition_prob(dim, RWRS_RATE, t / 2, sites),
            log_transition_prob(dim, RWRS_RATE, 3 * t / 4, sites),
        )
    else:
        feasible = z * (t / 4) >= t**rho
        stay = np.full(sites.shape[0], -RWRS_RATE * t / 4)
        log_ret = log_transition_prob(dim, RWRS_RATE, t / 2, sites)
    total = np.where(feasible, log_travel + stay + log_ret, -np.inf)
    best = int(np.argmax(total))
    if not np.isfinite(total[best]):
        return StrategyBound(-np.inf, -np.inf, -np.inf, -np.inf, None, regime, t, rho)
    return StrategyBound(
        log_probability=float(total[best]),
        travel=float(log_travel[best]),
        stay=float(stay[best]),
        ret=float(log_ret[best]),
        site=tuple(int(c) for c in sites[best]),
        regime=regime,
        t=t,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# appendix bounds: Chen-type tail and factorial moment bound
# ---------------------------------------------------------------------------


def chen_bound(lam: float, a_value: float, b_value: float) -> float:
    """Non-asymptotic occupation tail bound 2^(1/2) e^(1/(24(b-1))) (lambda e / 4)^(-b+1)."""
    if b_value <= 1:
        raise ValueError("b_value must exceed 1")
    if lam <= 0 or a_value <= 0:
        raise ValueError("lambda and a_value must be positive")
    b = b_value
    return float(np.sqrt(2.0) * np.exp(1.0 / (24.0 * (b - 1.0))) * (lam * np.e / 4.0) ** (-b + 1.0))


def _at_origin(pos: np.ndarray) -> np.ndarray:
    """Bool mask of the cells of ``pos (rows, m, dim)`` at the origin.

    Equal to ``np.all(pos == 0, axis=-1)``; ANDing one coordinate column at
    a time is several times cheaper in d >= 2 than reducing over the short
    last axis.
    """
    hit = pos[..., 0] == 0
    for k in range(1, pos.shape[-1]):
        hit &= pos[..., k] == 0
    return hit


def local_time_samples(dim: int, t: float, replicas: int, seed: int, tag=None) -> np.ndarray:
    """MC sample of the origin local time l_t(0) of the rate-1 walk started at the origin.

    ``tag`` (int or tuple) overrides the default stream key, which is
    (local-time key, t) and is the one :func:`chen_verify` uses itself.
    """
    if tag is None:
        tag = (_KEY_LOCAL_TIME, _float_part(t))
    return _kernels.occupation_batch(dim, RWRS_RATE, t, seed, replicas, tag, _at_origin)


def origin_local_time_mean(dim: int, t: float) -> float:
    """Exact E_0 l_t(0) of the rate-1 walk on Z^d started at the origin.

    Each coordinate is an independent rate-1/d walk on Z, at 0 at time u
    with probability e^(-u/d) I_0(u/d), so E_0 l_t(0) is the integral of
    (e^(-u/d) I_0(u/d))^d over [0, t].
    """
    from scipy.integrate import quad
    from scipy.special import ive

    return float(quad(lambda u: ive(0, RWRS_RATE * u / dim) ** dim, 0.0, t, limit=200)[0])


@dataclass(frozen=True)
class ChenCheckRow:
    lam: float
    threshold: float
    estimate: TailEstimate
    bound: float

    @property
    def violated(self) -> bool:
        return self.estimate.probability > self.bound


@dataclass(frozen=True)
class ChenReport:
    t: float
    b_value: float
    a_value: float
    rows: tuple

    @property
    def n_violations(self) -> int:
        return sum(r.violated for r in self.rows)


_CHEN_LAMBDAS = (1.0, 2.0, 4.0, 6.0)


def chen_verify(
    dim: int,
    t: float,
    b_value: float,
    replicas: int,
    seed: int,
    samples: Optional[np.ndarray] = None,
) -> ChenReport:
    """Check MC tail frequencies of l_t(0) against the Chen-type bound.

    One row per lambda of ``_CHEN_LAMBDAS``, at the threshold lambda a(t/b) b.
    The hypothesis value a(t/b) is the exact E_0[l_{t/b}(0)] of
    :func:`origin_local_time_mean` (f is the origin indicator, so the sup
    over the support is that single expectation); only l_t(0) is sampled.
    ``samples`` lets callers reuse one l_t(0) batch across several b values;
    it must come from :func:`local_time_samples` with the same (dim, t,
    replicas, seed).
    """
    if b_value <= 1:
        raise ValueError("b_value must exceed 1")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    a_value = origin_local_time_mean(dim, t / b_value)
    if samples is None:
        samples = local_time_samples(dim, t, replicas, seed)
    rows = []
    for lam in _CHEN_LAMBDAS:
        thr = lam * a_value * b_value
        est = tail_estimate(int(np.sum(samples >= thr)), samples.size)
        rows.append(
            ChenCheckRow(
                lam=float(lam),
                threshold=float(thr),
                estimate=est,
                bound=chen_bound(float(lam), a_value, float(b_value)),
            )
        )
    return ChenReport(t=t, b_value=float(b_value), a_value=a_value, rows=tuple(rows))


@dataclass(frozen=True)
class KhasminskiiReport:
    t: float
    m: int
    lhs: float
    rhs: float
    base_moment: float
    slack: float

    @property
    def violated(self) -> bool:
        return self.lhs > self.rhs


def khasminskii_verify(dim: int, t: float, m: int, replicas: int, seed: int) -> KhasminskiiReport:
    """Check the factorial moment bound E_0[l_t(0)^m] <= m! (E_0 l_t(0))^m.

    This is the bound E_x[(int f)^m] <= m! (sup_x E_x int f)^m for f the
    origin indicator, whose support is the origin alone, so the sup is the
    one expectation E_0 l_t(0).  The right-hand side carries a 3 sigma
    statistical slack factor so sampling noise cannot flag a spurious
    violation of a true inequality.
    """
    if not 1 <= m <= 4:
        raise ValueError("moment order m must be in 1..4")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    occ = local_time_samples(dim, t, replicas, seed, (_KEY_KHASMINSKII, _float_part(t), m, 0))
    occ_m = occ**m
    base = occ.mean()
    lhs = occ_m.mean()
    slack = 3.0 * (standard_error(occ_m) / lhs + m * (standard_error(occ) / base))
    rhs = math.factorial(m) * base**m * (1.0 + slack)
    return KhasminskiiReport(
        t=t, m=m, lhs=float(lhs), rhs=float(rhs), base_moment=float(base), slack=float(slack)
    )


# ---------------------------------------------------------------------------
# level-set occupation growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelOccupationReport:
    means: tuple  # (t, mean over seeds of sup over starts of E_x[l_{t^eta}(H_k)])
    slope: SlopeFit
    reference_exponent: Optional[float]  # one-sided bound on the slope (d = 1)

    @property
    def within_bound(self) -> bool:
        if self.reference_exponent is None:
            return True
        return self.slope.slope <= self.reference_exponent + 0.1


def level_mean_occupation(
    alpha: float,
    dim: int,
    eta: float,
    k_eps: float,
    box_radius: int,
    t_grid: Sequence[float],
    seeds: Sequence[int],
    replicas: int,
    master_seed: int,
) -> LevelOccupationReport:
    """Growth in t of sup_x E_x[l_{t^eta}(H_k)] with H_k = {z >= t^(k eps)}.

    Hypothesis range: k_eps > eta/(2 alpha) for d = 1 and k_eps > eta/alpha
    for d >= 2 (k_eps = 0 is allowed as the trivial whole-lattice slice).
    The sup is approximated by the max over the starting sites of the
    ``box_radius`` box; means are taken per seed and averaged.  Reports the
    log-log slope against the one-sided reference eta/2 (d = 1).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if k_eps != 0:
        if dim == 1 and not k_eps > eta / (2 * alpha):
            raise ValueError(f"d=1 hypothesis needs k_eps > eta/(2 alpha) = {eta / (2 * alpha)}")
        if dim >= 2 and not k_eps > eta / alpha:
            raise ValueError(f"d>=2 hypothesis needs k_eps > eta/alpha = {eta / alpha}")
    t_grid = [float(t) for t in t_grid]
    starts = box_sites(box_radius, dim).astype(np.int32)
    means = []
    for ti, t in enumerate(t_grid):
        horizon = t**eta
        thr = t**k_eps
        per_seed = []
        for si, fseed in enumerate(seeds):
            fld = SceneryField(alpha=alpha, dim=dim, seed=int(fseed))
            best = -np.inf
            for xi, x in enumerate(starts):
                occ = _kernels.occupation_batch(
                    dim,
                    RWRS_RATE,
                    horizon,
                    master_seed,
                    replicas,
                    tag=(_KEY_LEVEL, ti, si, xi),
                    indicator=lambda pos: _kernels.field_values_at(fld, pos + x) >= thr,
                )
                best = max(best, float(occ.mean()))
            per_seed.append(best)
        means.append((t, float(np.mean(per_seed))))
    positive = [(t, v) for t, v in means if v > 0]
    if len(positive) >= 2:
        slope = loglog_slope([p[0] for p in positive], [p[1] for p in positive])
    else:
        slope = SlopeFit(float("nan"), float("nan"), float("nan"), len(positive))
    reference = eta / 2 if dim == 1 else None
    return LevelOccupationReport(means=tuple(means), slope=slope, reference_exponent=reference)


# ---------------------------------------------------------------------------
# time-change distribution comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeChangeComparison:
    chi2: ChiSquareResult
    n_support: int
    replicas: int


_TIMECHANGE_MASS = 0.99


def time_change_distribution_check(
    field,
    t: float,
    replicas: int,
    seed: int,
    significance: float = 0.01,
) -> TimeChangeComparison:
    """Two-sample chi-square between direct VSRW endpoints and the composed law.

    Endpoint samples of X_t from the event-driven VSRW and from the
    time-change representation (S1 at clock A2_t, S2_t) are binned on the
    sites carrying ``_TIMECHANGE_MASS`` of the combined distribution
    (remainder pooled into one bin) and compared at the given significance.
    """
    direct = _kernels.vsrw_endpoints_batch(field, t, seed, replicas, tag=_KEY_VSRW)
    composed = _kernels.composed_endpoints_batch(field, t, seed, replicas, tag=_KEY_COMPOSED)
    both = np.concatenate([direct, composed], axis=0)
    uniq, inverse, counts = np.unique(both, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(counts)[::-1]
    cum = np.cumsum(counts[order])
    n_support = int(np.searchsorted(cum, _TIMECHANGE_MASS * both.shape[0]) + 1)
    support = order[:n_support]
    bin_of = np.full(uniq.shape[0], n_support, dtype=np.int64)
    bin_of[support] = np.arange(n_support)
    labels = bin_of[inverse]
    c1 = np.bincount(labels[:replicas], minlength=n_support + 1)
    c2 = np.bincount(labels[replicas:], minlength=n_support + 1)
    chi = two_sample_chisquare(c1, c2, significance=significance)
    return TimeChangeComparison(chi2=chi, n_support=n_support, replicas=replicas)
