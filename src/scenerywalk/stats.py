"""Small estimation helpers shared across modules.

Wilson intervals for Bernoulli frequencies, log-log least squares with
standard errors, the Kolmogorov-Smirnov statistic against an analytic CDF,
and a two-sample chi-square on a common support.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

#: two-sided 95% normal quantile used by every Wilson interval in the package
Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo probability with a Wilson 95% confidence interval."""

    probability: float
    ci_low: float
    ci_high: float
    replicas: int

    def __post_init__(self):
        if not self.ci_low <= self.probability <= self.ci_high:
            raise ValueError("Wilson interval must bracket the point estimate")


def wilson_ci(successes, trials: int):
    """Wilson 95% score interval (normal quantile :data:`Z95`) for a binomial proportion.

    ``successes`` may be an int, giving two floats, or an array, giving two
    arrays computed elementwise with the same arithmetic.  The bounds are
    exactly 0 at no success and exactly 1 at all successes.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    k = np.asarray(successes)
    z = Z95
    p = k / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = np.where(k == 0, 0.0, np.maximum(0.0, centre - half))
    hi = np.where(k == trials, 1.0, np.minimum(1.0, centre + half))
    if k.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def standard_error(x, sigmas: float = 1) -> float:
    """``sigmas`` standard errors of a sample mean, rounded as (sigmas std(ddof=1)) / sqrt(size)."""
    return float(sigmas * x.std(ddof=1) / np.sqrt(x.size))


def tail_estimate(successes: int, trials: int) -> TailEstimate:
    lo, hi = wilson_ci(successes, trials)
    p = successes / trials
    # guard the bracket against the last-ulp rounding at p in {0, 1}
    return TailEstimate(p, min(lo, p), max(hi, p), trials)


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares fit of y on x with slope standard error."""

    slope: float
    intercept: float
    stderr: float
    n_points: int


def ols_slope(x, y) -> SlopeFit:
    """Least squares slope with its standard error (two-parameter fit)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (x, y) points")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise ValueError("x values are all equal")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    if x.size > 2:
        resid = y - intercept - slope * x
        s2 = np.sum(resid**2) / (x.size - 2)
        stderr = float(np.sqrt(s2 / sxx))
    else:
        stderr = float("nan")
    return SlopeFit(slope, intercept, stderr, int(x.size))


def loglog_slope(t_values, y_values) -> SlopeFit:
    """Slope of log y against log t; y must be positive."""
    t = np.asarray(t_values, dtype=np.float64)
    y = np.asarray(y_values, dtype=np.float64)
    if np.any(y <= 0) or np.any(t <= 0):
        raise ValueError("log-log fit needs positive values")
    return ols_slope(np.log(t), np.log(y))


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    f = cdf(x)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    critical: float
    passed: bool


def two_sample_chisquare(counts1, counts2, significance: float = 0.01) -> ChiSquareResult:
    """Two-sample chi-square homogeneity test on pre-binned counts.

    Bins where both samples are empty are dropped.  Uses the unequal-size
    statistic sum (sqrt(N2/N1) O1 - sqrt(N1/N2) O2)^2 / (O1 + O2) with
    nbins - 1 degrees of freedom.  The critical value is the chi-square
    quantile 2 P^-1(dof/2, 1 - significance), scipy's own ``chi2.ppf``;
    scipy is imported here, at its one use, so importing the package does
    not load it.  One non-empty bin (0 dof, the point mass at 0) passes with
    statistic and critical value 0; an empty sample raises ``ValueError``.
    """
    o1 = np.asarray(counts1, dtype=np.float64)
    o2 = np.asarray(counts2, dtype=np.float64)
    keep = (o1 + o2) > 0
    o1, o2 = o1[keep], o2[keep]
    n1, n2 = o1.sum(), o2.sum()
    if n1 == 0 or n2 == 0:
        raise ValueError("each sample needs a positive count")
    dof = int(o1.size - 1)
    if dof == 0:
        return ChiSquareResult(0.0, 0, 0.0, True)
    from scipy.special import gammaincinv
    stat = float(np.sum((np.sqrt(n2 / n1) * o1 - np.sqrt(n1 / n2) * o2) ** 2 / (o1 + o2)))
    crit = float(2.0 * gammaincinv(dof / 2, 1 - significance))
    return ChiSquareResult(stat, dof, crit, stat <= crit)
