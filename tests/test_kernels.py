"""The skeleton kernels against the explicit-sojourn kernel and exact values.

``oracle_paths`` below is the explicit-sojourn kernel: it draws one
exponential holding time per jump and clips the cumulative jump times at
the horizon, so every sojourn duration is explicit.  The package kernels
draw only the jump skeleton and the time spent per site; both must give the
same laws, which the two-sample KS tests check at fixed seeds.

``reference_paths_d1`` and ``reference_local_times_d1`` build the d = 1
skeleton step by step (unpacked bits, +-1 steps, cumsum) and count visits by
compressing the live sojourns before ``bincount``; the package kernels read
positions from a byte table and count visits in row blocks with dead
sojourns sent to a trash bin, and must return the same arrays from the same
draws.  ``strip_pareto_values`` is the d = 1 field lookup that hashes each
row's field over the whole strip and gathers from it; the package kernel
hashes only the cells with time and must give the same z and the same A_t
bits.  ``strip_field_values`` is the same gather for a fixed field, by
``take_along_axis``; ``field_values_at`` must return the same values in the
same memory layout, which fixes the composed kernel's einsum bits.

``reference_vsrw_endpoints`` is the per-step VSRW loop that evaluates the
field on every active row at every iteration; the package kernel makes the
same draws in the same order and must return the same endpoints exactly.
The event-driven ``oracles.simulate_vsrw`` shares no code with it past the
budget check, and its endpoints must follow the same law.

``oracles.functional_second_moment`` and ``oracles.layered_second_moment``
are exact second moments that the sampled laws must reproduce, and
``oracles.origin_local_time_law`` is the exact law of the d = 1 origin local
time, whose moments ``local_time_samples`` must reproduce.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ive

from scenerywalk import _kernels, montecarlo, scenery
from scenerywalk.calibration import CALIBRATION
from scenerywalk.scenery import ConstantField, JumpBudgetError, SceneryField
from scenerywalk.stats import two_sample_chisquare
from scenerywalk.streams import CHUNK, philox

from oracles import (
    functional_second_moment,
    layered_second_moment,
    origin_local_time_law,
    origin_local_time_moment,
    simulate_vsrw,
)


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


def reference_paths_d1(rate, t, count, rng):
    """d = 1 skeletons ``(pos, live)`` from the same draws as ``srw_paths_batch``."""
    jumps = rng.poisson(rate * t, size=count)
    m = int(jumps.max(initial=0)) + 1
    live = np.arange(m) <= jumps[:, None]
    pos = np.zeros((count, m, 1), dtype=np.int32)
    raw = rng.integers(0, 256, size=(count, (m + 6) // 8), dtype=np.uint8)
    steps = np.unpackbits(raw, axis=1, count=m - 1).view(np.int8)
    steps *= 2
    steps -= 1
    np.cumsum(steps, axis=1, dtype=np.int32, out=pos[:, 1:, 0])
    return pos, live


def reference_local_times_d1(pos, live, t, rng):
    """d = 1 ``(sites, times)`` from the same draws as ``local_times``."""
    rows = pos.shape[0]
    lo = int(pos.min())
    width = int(pos.max()) - lo + 1
    cells = pos[..., 0] - lo
    cells += (width * np.arange(rows, dtype=np.int32))[:, None]
    visits = np.bincount(cells[live], minlength=rows * width).reshape(rows, width)
    times = np.zeros((rows, width))
    visited = visits > 0
    times[visited] = rng.standard_gamma(visits[visited])
    times *= t / times.sum(axis=1, keepdims=True)
    strip = np.arange(lo, lo + width, dtype=np.int32)
    return np.broadcast_to(strip[None, :, None], (rows, width, 1)), times


def strip_pareto_values(seeds, sites, alpha):
    """d = 1 Pareto values ``(rows, w)``: each row's field hashed on the strip and gathered."""
    pos = sites[..., 0].astype(np.int64)
    lo = int(pos.min())
    strip = np.arange(lo, int(pos.max()) + 1, dtype=np.int64)[None, :, None]
    u = scenery.site_uniforms(np.asarray(seeds, dtype=np.uint64)[:, None], strip)
    return np.take_along_axis(scenery.pareto_from_uniform(u, alpha), pos - lo, axis=1)


def strip_field_values(field, sites):
    """d = 1 fixed-field values ``(rows, k)`` gathered from the strip by ``take_along_axis``."""
    pos = sites[..., 0].astype(np.int64)
    lo = int(pos.min())
    strip = field.values(np.arange(lo, int(pos.max()) + 1, dtype=np.int64)[None, :, None])
    return np.take_along_axis(strip, pos - lo, axis=1)


def reference_functional_d1(alpha, t, master_seed, count, tag):
    """d = 1 A_t from the same draws as ``additive_functional_batch``, z by strip gather."""
    field_seeds = np.empty(count, dtype=np.uint64)
    for lo, hi, rng in _kernels._chunks(master_seed, tag, count, CHUNK, 0xF1E1D):
        field_seeds[lo:hi] = rng.integers(0, 2**63, size=hi - lo, dtype=np.uint64)

    def reduce(rows, rng, pos, live):
        sites, times = _kernels.local_times(pos, live, t, rng)
        return np.einsum("ij,ij->i", strip_pareto_values(field_seeds[rows], sites, alpha), times)

    return _kernels._skeletons(1, 1.0, t, master_seed, tag, reduce, np.empty(count))


class PresetJumps:
    """A generator whose Poisson draw returns preset jump counts; other draws pass through."""

    def __init__(self, rng, jumps):
        self.rng, self.jumps = rng, np.asarray(jumps)

    def poisson(self, lam, size=None):
        return self.jumps.copy()

    def __getattr__(self, name):
        return getattr(self.rng, name)


def reference_vsrw_endpoints(field, t, master_seed, count, tag):
    """VSRW endpoints with z(x2) re-evaluated on every row at every step."""
    d = field.dim
    out = np.empty((count, 1 + d), dtype=np.int64)
    for lo, hi, rng in _kernels._chunks(master_seed, tag, count, _kernels._VSRW_CHUNK):
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

    def test_origin_local_time_law_is_exact(self):
        # the return-count mixture has mass 1, the mean int_0^t e^-s I_0(s) ds
        # and E l^2 = 99.5 at t = 100
        t = 100.0
        w, _, _ = origin_local_time_law(t)
        assert abs(w.sum() - 1.0) <= 1e-12
        mean = integrate.quad(lambda s: ive(0, s), 0.0, t, limit=200)[0]
        assert origin_local_time_moment(t, 1) == pytest.approx(mean, rel=1e-12)
        assert origin_local_time_moment(t, 2) == pytest.approx(99.5, abs=1e-9)

    def test_origin_local_time_moments_are_exact(self):
        # E l_100(0)^m for m = 1..3 from the exact law; Beta(k, N + 2 - k) local
        # times, 1% low in the mean, read -8.8, -9.5 and -9.2 SE at this seed
        t, count = 100.0, 400_000
        occ = montecarlo.local_time_samples(1, t, count, seed=41)
        for m in (1, 2, 3):
            x = occ**m
            se = x.std(ddof=1) / np.sqrt(count)
            assert abs(x.mean() - origin_local_time_moment(t, m)) <= 4 * se

    def test_jump_count_poisson_mean(self):
        # jumps by time t form a Poisson(rate * t) count
        counts = []
        for chunk in range(3):
            _, live = _kernels.srw_paths_batch(1, 1.0, 100.0, 3000, philox(3, chunk))
            counts.append(live.sum(axis=1) - 1)
        counts = np.concatenate(counts)
        stderr = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 100.0) <= 3 * stderr
        assert abs(counts.mean() - 100.0) <= 3.0

    @pytest.mark.parametrize("dim,count,seed", [(1, 100_000, 37), (2, 30_000, 38)])
    def test_functional_second_moment_is_exact(self, dim, count, seed):
        # E[(A_t - mu t)^2] = sigma^2 E sum_x l_t(x)^2 sees the split of time
        # across sites (110.403 for d = 1 and 41.318 for d = 2 at alpha = 5,
        # mu = 1.25, t = 100); Gamma(k + 1/2) local times read -7.2 and -6.2 SE
        a_t = _kernels.additive_functional_batch(5.0, dim, 1.0, 100.0, seed, count, tag=(10, dim))
        squares = (a_t - 1.25 * 100.0) ** 2
        se = squares.std(ddof=1) / np.sqrt(count)
        assert abs(squares.mean() - functional_second_moment(5.0, dim, 100.0)) <= 4 * se

    def test_variance_linear_growth(self):
        ends = _kernels.srw_endpoints_batch(1, 1.0, 10_000.0, 4, 8000, tag=40)
        assert abs(ends[:, 0].var() / 10_000.0 - 1.0) <= 0.05

    def test_darling_kac_sqrt_t_selfconsistency(self):
        n = 4000
        l1 = montecarlo.local_time_samples(1, 10_000.0, n, seed=21, tag=901)
        l2 = montecarlo.local_time_samples(1, 40_000.0, n, seed=22, tag=902)
        diff = abs(l2.mean() - 2 * l1.mean())
        sig = np.hypot(l2.std(ddof=1), 2 * l1.std(ddof=1)) / np.sqrt(n)
        assert diff <= 3 * sig


class TestSkeletonD1:
    @pytest.mark.parametrize("longest", [0, 1, 7, 8, 9, 63, 64, 65])
    def test_matches_step_by_step_reference(self, longest):
        # rows of several lengths, so dead cells follow the shorter ones
        jumps = [longest, 0, longest // 2, max(longest - 1, 0), longest]
        fast_rng, slow_rng = philox(51, longest), philox(51, longest)
        pos, live = _kernels.srw_paths_batch(1, 1.0, 1.0, 5, PresetJumps(fast_rng, jumps))
        ref_pos, ref_live = reference_paths_d1(1.0, 1.0, 5, PresetJumps(slow_rng, jumps))
        assert pos.dtype == np.int32 and pos.shape == (5, longest + 1, 1)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(live, ref_live)
        assert fast_rng.random() == slow_rng.random()

    # mixed lengths (m = 61, 8 bytes per row) and one batch with no jump (m = 1, no byte)
    @pytest.mark.parametrize("jumps", [[0, 3, 60, 5, 1, 60, 12], [0, 0, 0, 0, 0]])
    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_row_blocks_match_reference(self, jumps, block_rows, monkeypatch):
        # blocks of 1, 2 or 3 rows: at least two blocks, the last one short
        # for 2 and 3 rows; a row of no byte counts as one cell
        cells = max(1, 8 * ((max(jumps) + 7) // 8))
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_rows * cells + cells - 1)
        fast_rng, slow_rng = philox(62, block_rows), philox(62, block_rows)
        n = len(jumps)
        pos, live = _kernels.srw_paths_batch(1, 1.0, 1.0, n, PresetJumps(fast_rng, jumps))
        ref_pos, ref_live = reference_paths_d1(1.0, 1.0, n, PresetJumps(slow_rng, jumps))
        assert pos.shape == ref_pos.shape == (n, max(jumps) + 1, 1)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(live, ref_live)
        assert fast_rng.random() == slow_rng.random()

    def test_long_paths_match_reference(self):
        fast_rng, slow_rng = philox(52, 0), philox(52, 0)
        pos, live = _kernels.srw_paths_batch(1, 1.0, 2e4, 24, fast_rng)
        ref_pos, ref_live = reference_paths_d1(1.0, 2e4, 24, slow_rng)
        assert pos.shape == ref_pos.shape
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(live, ref_live)
        assert fast_rng.random() == slow_rng.random()


class TestLiveMask:
    # one row of N = 0 (m = 1), one row of N = 5, every row at the batch's
    # maximum N (no dead cell anywhere), and mixed rows
    CASES = [[0], [5], [0, 0, 0], [7, 7, 7], [0, 3, 9, 1, 9, 4], [9, 0, 8, 2]]

    @pytest.mark.parametrize("jumps", CASES)
    def test_mask_and_counts_match_broadcast(self, jumps):
        jumps = np.array(jumps)
        m = int(jumps.max()) + 1
        live = _kernels.live_mask(jumps, m)
        ref = np.arange(m) <= jumps[:, None]
        assert live.dtype == bool and live.shape == ref.shape
        assert np.array_equal(live, ref)
        assert np.array_equal(_kernels.sojourn_counts(live), ref.sum(1))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("jumps", CASES)
    def test_skeleton_endpoints_match_summed_mask(self, dim, jumps):
        pos, live = _kernels.srw_paths_batch(dim, 1.0, 1.0, len(jumps),
                                             PresetJumps(philox(60, dim), jumps))
        assert np.array_equal(live, np.arange(pos.shape[1]) <= np.array(jumps)[:, None])
        ends = pos[np.arange(len(jumps)), live.sum(1) - 1]
        assert np.array_equal(_kernels.endpoints(pos, live), ends)

    def test_poisson_batch_counts_match_summed_mask(self):
        pos, live = _kernels.srw_paths_batch(1, 1.0, 3.0, 2000, philox(61, 0))
        assert np.any(live[:, -1]) and not np.all(live[:, -1])
        assert np.array_equal(_kernels.sojourn_counts(live), live.sum(1))


class TestSkeletonBudget:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_refuses_before_any_draw(self, dim):
        # two rows of 1e12 jumps would take terabytes of positions
        rng, ref = philox(56, dim), philox(56, dim)
        with pytest.raises(JumpBudgetError, match="cells"):
            _kernels.skeletons(dim, 1.0, 1e12, 2, rng, lambda *skeleton: 0.0, np.empty(2))
        assert rng.random() == ref.random()

    def test_admits_largest_suite_sub_batch(self):
        # ks-scaling at t = 1e5 draws sub-batches of 24 rows x 103825 jump cells
        cut = []
        _kernels.skeletons(1, 1.0, 1e5, 48, philox(57, 0),
                           lambda rows, rng, pos, live: cut.append(rows) or 0.0, np.empty(48))
        assert cut == [slice(0, 24), slice(24, 48)]

    @pytest.mark.parametrize("kernel", ["functional", "occupation", "endpoints", "composed"])
    def test_call_over_jump_budget_refused_before_any_draw(self, monkeypatch, kernel):
        # 1e7 walks of 1e5 jumps are about 1e12 sojourns, far over 2^32
        def no_stream(*key):
            raise AssertionError(f"stream {key} opened by a refused call")

        monkeypatch.setattr(_kernels, "philox", no_stream)
        call = {
            "functional": lambda: _kernels.additive_functional_batch(2.0, 1, 1.0, 1e5, 0, 10**7, 0),
            "occupation": lambda: _kernels.occupation_batch(1, 1.0, 1e5, 0, 10**7, 0, origin),
            "endpoints": lambda: _kernels.srw_endpoints_batch(1, 1.0, 1e5, 0, 10**7, 0),
            "composed": lambda: _kernels.composed_endpoints_batch(
                ConstantField(1.0, 1), 5e4, 0, 10**7, 0),
        }[kernel]
        with pytest.raises(JumpBudgetError, match="budget 4294967296"):
            call()

    def test_admits_largest_suite_call(self):
        # ks-scaling's t = 1e5 point runs 10^4 walks: about 1e9 sojourns
        _kernels.check_skeleton_budget(1.0, 1e5, 10**4)
        with pytest.raises(JumpBudgetError):
            _kernels.check_skeleton_budget(1.0, 1e5, 5 * 10**4)


class TestLocalTimesD1:
    def check(self, pos, live, seed):
        fast_rng, slow_rng = philox(seed, 1), philox(seed, 1)
        sites, times = _kernels.local_times(pos, live, 7.5, fast_rng)
        ref_sites, ref_times = reference_local_times_d1(pos, live, 7.5, slow_rng)
        assert sites.shape == ref_sites.shape and np.array_equal(sites, ref_sites)
        assert times.shape == ref_times.shape and np.array_equal(times, ref_times)
        assert fast_rng.random() == slow_rng.random()

    @pytest.mark.parametrize("t,count", [(1.0, 500), (0.0, 40), (400.0, 300), (1e4, 40)])
    def test_skeleton_batches_match_reference(self, t, count):
        # at t = 1 about a third of the rows make no jump; at t = 0 all do
        pos, live = _kernels.srw_paths_batch(1, 1.0, t, count, philox(53, int(t)))
        assert t > 1 or np.any(live.sum(axis=1) == 1)
        self.check(pos, live, seed=54)

    def test_last_row_at_trash_boundary(self):
        # the last row's last live sojourn is the batch's largest site, the
        # cell just before the trash bin; the dead cells -3, -4 of row 1 lie
        # outside every live range, so the strip is wider than the live sites
        pos = np.array([[0, 1, 2, 3, 4], [0, -1, -2, -3, -4], [0, 1, 2, 3, 4]], np.int32)
        live = np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], bool)
        self.check(pos[..., None], live, seed=55)

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_row_blocks_match_reference(self, block_rows, monkeypatch):
        # 7 rows in blocks of 1, 2 or 3: at least three blocks, the last one
        # short for 2 and 3, and rows whose horizon ends far before m = 61
        jumps = [0, 3, 60, 5, 1, 60, 12]
        pos, live = _kernels.srw_paths_batch(1, 1.0, 1.0, 7, PresetJumps(philox(58, 0), jumps))
        m = pos.shape[1]
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_rows * m + m - 1)
        self.check(pos, live, seed=59)


class TestVisitedFieldD1:
    # 1e4 and 1e5 only at small counts: the reference hashes every strip cell
    CASES = [(c, t) for c in (1, 2, 7, 300) for t in (0.5, 3.0, 100.0, 1e3)]
    CASES += [(1, 1e4), (7, 1e4), (2, 1e5)]

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0])
    @pytest.mark.parametrize("count,t", CASES)
    def test_functional_matches_strip_gather(self, count, t, alpha):
        tag = (11, count)
        fast = _kernels.additive_functional_batch(alpha, 1, 1.0, t, 63, count, tag)
        assert np.array_equal(fast, reference_functional_d1(alpha, t, 63, count, tag))

    @pytest.mark.parametrize("t,count", [(0.5, 40), (100.0, 300), (1e4, 7)])
    def test_values_match_strip_gather(self, t, count):
        pos, live = _kernels.srw_paths_batch(1, 1.0, t, count, philox(64, int(t)))
        sites, times = _kernels.local_times(pos, live, t, philox(65, int(t)))
        seeds = philox(66, 0).integers(0, 2**63, size=count, dtype=np.uint64)
        z = _kernels.visited_pareto_values(seeds, sites, times, 0.8)
        ref = strip_pareto_values(seeds, sites, 0.8)
        assert z.flags.f_contiguous and z.shape == ref.shape
        assert np.array_equal(z[times > 0], ref[times > 0])
        assert np.all(z[times == 0] == 0.0)
        assert np.array_equal(np.einsum("ij,ij->i", z, times), np.einsum("ij,ij->i", ref, times))


class TestFixedFieldD1:
    @pytest.mark.parametrize("t,count", [(0.5, 40), (50.0, 8192), (1e3, 7)])
    def test_gather_matches_take_along_axis(self, t, count):
        # the composed kernel's sites and times on the fixture; its einsum sums
        # in z's stride order, so a C-ordered z with equal values moves A2 by
        # up to 8e-16 relative at t = 50
        fx = CALIBRATION["vsrw_fixture"]
        field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        pos, live = _kernels.srw_paths_batch(1, 2.0, t, count, philox(67, int(t)))
        sites, times = _kernels.local_times(pos, live, t, philox(68, int(t)))
        z = _kernels.field_values_at(field, sites)
        ref = strip_field_values(field, sites)
        assert z.flags.f_contiguous == ref.flags.f_contiguous and np.array_equal(z, ref)
        assert np.array_equal(np.einsum("ij,ij->i", z, times), np.einsum("ij,ij->i", ref, times))


class TestSubBatchMemory:
    def test_functional_holds_one_sub_batch(self):
        # 72 rows at t = 1e5 make three sub-batches of 24; keeping the previous
        # sub-batch alive while the next is drawn, or an 8-byte visit index
        # per sojourn, takes the traced peak past 8.5 bytes per jump cell of
        # one sub-batch (14.0 with the index, 11.6 with the held sub-batch
        # alone, 6.8 with neither)
        cells = 24 * _kernels._jump_capacity(1.0, 1e5)
        tracemalloc.start()
        try:
            _kernels.additive_functional_batch(2.0, 1, 1.0, 1e5, 1, 72, tag=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * cells

    def test_occupation_holds_one_sub_batch(self):
        # one sub-batch of 3725 rows at t = 400, the smaller peak of two calls
        # (the first call in a process allocates 0.3 bytes per cell more).
        # The reducer's masks set it at 4.93 bytes per jump cell, and the walk
        # build must stay under that: building the live mask before the walk
        # reads 5.13, adding the repeated bases in one block 6.83
        rows = _kernels._ELEMENT_BUDGET // _kernels._jump_capacity(1.0, 400.0)
        cells = rows * _kernels._jump_capacity(1.0, 400.0)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                _kernels.occupation_batch(1, 1.0, 400.0, 1, rows, 0, origin)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert min(peaks) < 5.0 * cells


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

    @pytest.mark.parametrize(
        "field,t,count",
        [
            (SceneryField(alpha=CALIBRATION["vsrw_fixture"]["alpha"], dim=1,
                          seed=CALIBRATION["vsrw_fixture"]["seed"]), 50.0, 2000),
            # two chunks: the second starts on the ball the first regrew
            (SceneryField(alpha=1.5, dim=2, seed=3), 4.0, 16_500),
        ],
    )
    def test_ball_escape_matches_per_step_reference(self, monkeypatch, field, t, count):
        # a radius-1 ball is left by most rows, so the kernel regrows it
        # (radius 1 -> 3 -> 7 -> ...) in the middle of the walk
        balls = []

        def ball(field, radius):
            balls.append(radius)
            return real_ball(field, radius)

        real_ball = _kernels._ball
        monkeypatch.setattr(_kernels, "_vsrw_radius", lambda dim, t: 1)
        monkeypatch.setattr(_kernels, "_ball", ball)
        fast = _kernels.vsrw_endpoints_batch(field, t, 43, count, tag=(6, field.dim))
        slow = reference_vsrw_endpoints(field, t, 43, count, tag=(6, field.dim))
        assert np.array_equal(fast, slow)
        assert balls[:3] == [1, 3, 7]
        assert np.abs(fast[:, 1:]).max() > 3

    def test_budget_refuses_before_any_draw(self, monkeypatch):
        def no_stream(*key):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(_kernels, "philox", no_stream)
        with pytest.raises(JumpBudgetError, match="jumps"):
            _kernels.vsrw_endpoints_batch(ConstantField(1e9, 1), 50.0, 1, 1, tag=0)

    @pytest.mark.parametrize(
        "kernel,count,seed",
        [
            (_kernels.composed_endpoints_batch, 400_000, 61),
            (_kernels.vsrw_endpoints_batch, 50_000, 62),
        ],
    )
    def test_second_moment_is_exact(self, kernel, count, seed):
        # E[X1(t)^2] = 2 E[A2_t] on the fixture (533.396 at t = 50); a composed
        # clock running 2% fast reads 7.1 SE high at these seeds
        fx = CALIBRATION["vsrw_fixture"]
        field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        squares = kernel(field, 50.0, seed, count, tag=(9, 1))[:, 0].astype(np.float64) ** 2
        se = squares.std(ddof=1) / np.sqrt(count)
        assert abs(squares.mean() - layered_second_moment(field, 50.0)) <= 4 * se

    def test_matches_event_driven_oracle(self):
        # the x1 and x2 marginals of 2000 event-driven walks against 20000
        # kernel walks on the fixture at t = 5, each tail pooled from the
        # last value seen 10 times in both samples together; it catches a
        # kernel clock running 30% fast, not one running 5% fast
        fx = CALIBRATION["vsrw_fixture"]
        field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        rng = philox(63, 0)
        slow = np.array([simulate_vsrw(field, 5.0, rng)[0] for _ in range(2000)])
        fast = _kernels.vsrw_endpoints_batch(field, 5.0, 64, 20_000, tag=(10, 1))
        for axis in (0, 1):
            both = np.concatenate([fast[:, axis], slow[:, axis]])
            values, counts = np.unique(both, return_counts=True)
            lo, hi = values[counts >= 10][[0, -1]]
            bins = np.clip(both, lo, hi) - lo
            c_fast, c_slow = (np.bincount(b, minlength=hi - lo + 1) for b in np.split(bins, [fast.shape[0]]))
            assert two_sample_chisquare(c_fast, c_slow).passed

    def test_budget_admits_timechange_suite(self):
        # 1e5 replicas at t=50 on the fixture expect about 1.1e9 jumps
        fx = CALIBRATION["vsrw_fixture"]
        field = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        _kernels.check_vsrw_budget(field, 50.0, 100_000)
