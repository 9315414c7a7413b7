"""The skeleton kernels against the explicit-sojourn kernel and exact values.

``oracle_paths`` below is the explicit-sojourn kernel: it draws one
exponential holding time per jump and clips the cumulative jump times at
the horizon, so every sojourn duration is explicit.  The package kernels
draw only the jump skeleton and the time spent per site; both must give the
same laws, which the two-sample KS tests check at fixed seeds.

``reference_vsrw_endpoints`` is the per-step VSRW loop that evaluates the
field on every active row at every iteration; the package kernel makes the
same draws in the same order and must return the same endpoints exactly.
"""

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ive

from scenerywalk import _kernels, montecarlo
from scenerywalk.calibration import CALIBRATION
from scenerywalk.scenery import ConstantField, JumpBudgetError, SceneryField
from scenerywalk.streams import chunk_ranges, philox


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


def reference_vsrw_endpoints(field, t, master_seed, count, tag):
    """VSRW endpoints with z(x2) re-evaluated on every row at every step."""
    d = field.dim
    out = np.empty((count, 1 + d), dtype=np.int64)
    for c, (lo, hi) in enumerate(chunk_ranges(count, 16384)):
        rng = philox(master_seed, *_kernels._key(tag), c)
        n = hi - lo
        pos = np.zeros((n, 1 + d), dtype=np.int64)
        clock = np.zeros(n)
        idx = np.arange(n)
        final = np.empty((n, 1 + d), dtype=np.int64)
        while idx.size:
            z = field.values(pos[:, 1:])
            rate = 2.0 * z + 2.0 * d
            clock = clock + rng.exponential(1.0, size=idx.size) / rate
            done = clock > t
            if np.any(done):
                final[idx[done]] = pos[done]
                keep = ~done
                pos, clock, idx = pos[keep], clock[keep], idx[keep]
                z, rate = z[keep], rate[keep]
                if not idx.size:
                    break
            u = rng.random(idx.size) * rate
            vertical = u < 2.0 * z
            if np.any(vertical):
                rows = np.flatnonzero(vertical)
                pos[rows, 0] += np.where(u[rows] < z[rows], 1, -1)
            trans = np.flatnonzero(~vertical)
            if trans.size:
                v = u[trans] - 2.0 * z[trans]
                k = np.minimum((v // 2.0).astype(np.int64), d - 1)
                sign = np.where(v - 2.0 * k < 1.0, 1, -1)
                pos[trans, 1 + k] += sign
        out[lo:hi] = final
    return out


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


class TestVsrwKernel:
    @pytest.mark.parametrize(
        "field,t,count",
        [
            (SceneryField(alpha=CALIBRATION["vsrw_fixture"]["alpha"], dim=1,
                          seed=CALIBRATION["vsrw_fixture"]["seed"]), 50.0, 4000),
            (SceneryField(alpha=1.5, dim=2, seed=3), 10.0, 3000),
        ],
    )
    def test_matches_per_step_reference(self, field, t, count):
        fast = _kernels.vsrw_endpoints_batch(field, t, 41, count, tag=(5, field.dim))
        slow = reference_vsrw_endpoints(field, t, 41, count, tag=(5, field.dim))
        assert np.array_equal(fast, slow)

    def test_budget_refuses_before_any_draw(self, monkeypatch):
        def no_stream(*key):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(_kernels, "philox", no_stream)
        with pytest.raises(JumpBudgetError, match="jumps"):
            _kernels.vsrw_endpoints_batch(ConstantField(1e9, 1), 50.0, 1, 1, tag=0)

    def test_budget_admits_timechange_suite(self):
        # 1e5 replicas at t=50 on the fixture expect about 1.1e9 jumps
        fx = CALIBRATION["vsrw_fixture"]
        field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        _kernels.check_vsrw_budget(field, 50.0, 100_000)
