"""The skeleton kernels against the explicit-sojourn kernel and exact values.

``oracle_paths`` below is the explicit-sojourn kernel: it draws one
exponential holding time per jump and clips the cumulative jump times at
the horizon, so every sojourn duration is explicit.  The package kernels
draw only the jump skeleton and the time spent per site; both must give the
same laws, which the two-sample KS tests check at fixed seeds.
"""

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ive

from scenerywalk import _kernels, montecarlo
from scenerywalk.streams import philox


def oracle_paths(dim, rate, t, count, rng):
    """Sites ``pos (count, m, dim)`` and clipped sojourn durations ``dur`` (rows sum to t)."""
    m = _kernels._jump_capacity(rate, t)
    holds = rng.exponential(1.0 / rate, size=(count, m))
    assert np.all(holds.sum(axis=1) >= t)
    jump_times = np.minimum(np.cumsum(holds, axis=1), t)
    dur = np.diff(jump_times, axis=1, prepend=0.0)
    coords = rng.integers(0, dim, size=(count, m - 1))
    signs = rng.integers(0, 2, size=(count, m - 1)) * 2 - 1
    steps = np.zeros((count, m - 1, dim), dtype=np.int64)
    np.put_along_axis(steps, coords[:, :, None], signs[:, :, None], axis=2)
    pos = np.zeros((count, m, dim), dtype=np.int64)
    np.cumsum(steps, axis=1, out=pos[:, 1:, :])
    return pos, dur


def oracle_origin_time(dim, t, count, seed, batch=2000):
    out = []
    rng = philox(seed, 0)
    for lo in range(0, count, batch):
        pos, dur = oracle_paths(dim, 1.0, t, min(batch, count - lo), rng)
        out.append((np.all(pos == 0, axis=-1) * dur).sum(axis=1))
    return np.concatenate(out)


def oracle_additive_functional(alpha, dim, t, count, seed, batch=100):
    out = []
    rng = philox(seed, 0)
    for lo in range(0, count, batch):
        rows = min(batch, count - lo)
        pos, dur = oracle_paths(dim, 1.0, t, rows, rng)
        field_seeds = rng.integers(0, 2**63, size=rows, dtype=np.uint64)
        z = _kernels.pareto_values_at(field_seeds, pos, alpha)
        out.append((z * dur).sum(axis=1))
    return np.concatenate(out)


def origin(pos):
    return np.all(pos == 0, axis=-1)


class TestAgainstSojournOracle:
    @pytest.mark.parametrize("dim,t", [(1, 100.0), (1, 400.0), (2, 100.0)])
    def test_origin_occupation(self, dim, t):
        # the Beta draw of occupation_batch, and the per-site local times of
        # additive_functional_batch read at the origin
        slow = oracle_origin_time(dim, t, 20_000, seed=32)
        beta = _kernels.occupation_batch(dim, 1.0, t, 31, 20_000, tag=(7, dim), indicator=origin)
        at_origin = lambda sites: origin(sites).astype(np.float64)
        local = _kernels.additive_functional_batch(
            1.0, dim, 1.0, t, 31, 20_000, tag=(7, dim), site_weight=at_origin
        )
        assert stats.ks_2samp(beta, slow).pvalue > 1e-3
        assert stats.ks_2samp(local, slow).pvalue > 1e-3

    @pytest.mark.parametrize("dim,t,count", [(1, 1e4, 1000), (2, 1e3, 2000)])
    def test_additive_functional(self, dim, t, count):
        fast = _kernels.additive_functional_batch(0.8, dim, 1.0, t, 33, count, tag=(8, dim))
        slow = oracle_additive_functional(0.8, dim, t, count, seed=34)
        assert stats.ks_2samp(fast, slow).pvalue > 1e-3


class TestExactValues:
    def test_all_zero_indicator_gives_zero(self):
        never = lambda pos: np.zeros(pos.shape[:-1], dtype=bool)
        for dim in (1, 2):
            occ = _kernels.occupation_batch(dim, 1.0, 30.0, 35, 512, tag=9, indicator=never)
            assert np.array_equal(occ, np.zeros(512))

    def test_origin_local_time_mean_is_exact(self):
        # E l_t(0) = int_0^t p_s(0, 0) ds = int_0^t e^-s I_0(s) ds for the rate-1 walk on Z
        t = 100.0
        exact = integrate.quad(lambda s: ive(0, s), 0.0, t, limit=200)[0]
        occ = montecarlo.local_time_samples(1, t, 100_000, seed=36)
        se = occ.std(ddof=1) / np.sqrt(occ.size)
        assert abs(occ.mean() - exact) <= 4 * se
