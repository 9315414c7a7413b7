import math

import numpy as np
import pytest

import oracles
from oracles import TableField, WalkPath, simulate_srw
from scenerywalk.scenery import ConstantField, SceneryField
from scenerywalk.streams import philox


def _two_site_path(s=1.7, horizon=5.0):
    return WalkPath(dim=1, start=(0,), jump_times=[s], sites=[[1]], horizon=horizon)


class TestClock:
    def test_constant_field_is_linear(self):
        path = simulate_srw(1, 1.0, 30.0, philox(1, 1))
        ck = oracles.clock(ConstantField(2.5, 1), path)
        for u in (0.0, 3.3, 17.2, 30.0):
            assert ck.value(u) == pytest.approx(2.5 * u, rel=1e-12)

    def test_two_piece_hand_integral(self):
        f = TableField(table={(0,): 3.0, (1,): 7.0}, dim=1)
        ck = oracles.clock(f, _two_site_path(s=1.7, horizon=5.0))
        assert ck.value(5.0) == pytest.approx(3.0 * 1.7 + 7.0 * 3.3, rel=1e-12)
        assert ck.value(1.0) == pytest.approx(3.0, rel=1e-12)

    def test_inverse_roundtrip(self):
        f = SceneryField(alpha=1.0, dim=1, seed=5)
        path = simulate_srw(1, 1.0, 40.0, philox(2, 2))
        ck = oracles.clock(f, path)
        for u in np.linspace(0.0, 40.0, 23):
            assert ck.inverse(ck.value(u)) == pytest.approx(u, abs=1e-9)

    def test_breakpoints_and_validation(self):
        f = ConstantField(1.0, 1)
        ck = oracles.clock(f, _two_site_path())
        ck.validate()
        assert ck.breakpoints[0] == (0.0, 0.0)


class TestLocalTimes:
    def test_no_jump_path(self):
        path = WalkPath(dim=1, start=(0,), jump_times=[], sites=np.empty((0, 1)), horizon=4.0)
        rec = oracles.local_times(path, 4.0)
        assert rec.local_times == {(0,): 4.0}
        assert rec.max_range == 0

    def test_partition_of_time_fuzzed(self):
        # conservation pair: sum of local times is t, A_t is the z-weighted sum
        fields = {1: SceneryField(alpha=0.7, dim=1, seed=9), 2: SceneryField(alpha=0.7, dim=2, seed=9)}
        for k in range(1000):
            dim = (k % 2) + 1
            path = simulate_srw(dim, 2.0, 6.0, philox(3, k))
            t = 6.0 * (k % 10 + 1) / 10.0
            rec = oracles.local_times(path, t, field=fields[dim])
            assert rec.total_local_time() == pytest.approx(t, rel=1e-9)
            recon = math.fsum(
                fields[dim].values(site) * ell for site, ell in rec.local_times.items()
            )
            assert rec.a_value == pytest.approx(recon, rel=1e-9)

    def test_a_equals_weighted_local_times(self):
        f = SceneryField(alpha=0.7, dim=1, seed=9)
        for k in range(30):
            path = simulate_srw(1, 1.0, 25.0, philox(4, k))
            rec = oracles.local_times(path, 25.0, field=f)
            recon = math.fsum(
                f.values(site) * ell for site, ell in rec.local_times.items()
            )
            assert rec.a_value == pytest.approx(recon, rel=1e-9)

    def test_additivity_under_splicing(self):
        # A_{s+t} = A_s + A_t of the path restarted at S_s, exactly
        f = SceneryField(alpha=1.0, dim=1, seed=31)
        path = simulate_srw(1, 1.0, 20.0, philox(5, 5))
        s = 8.0
        full = oracles.local_times(path, 20.0, field=f).a_value
        first = oracles.local_times(path, s, field=f).a_value
        k = int(np.searchsorted(path.jump_times, s, side="right"))
        shifted_times = np.concatenate([[0.0], path.jump_times[k:] - s])[1:]
        shifted_sites = path.sites[k:]
        rest = WalkPath(
            dim=1,
            start=path.position(s),
            jump_times=shifted_times,
            sites=shifted_sites,
            horizon=20.0 - s,
        )
        second = oracles.local_times(rest, 20.0 - s, field=f).a_value
        assert full == pytest.approx(first + second, rel=1e-12)

    def test_monotone_coupling_in_field(self):
        path = simulate_srw(1, 1.0, 15.0, philox(6, 6))
        lo = oracles.local_times(path, 15.0, field=ConstantField(1.0, 1)).a_value
        hi = oracles.local_times(path, 15.0, field=ConstantField(1.5, 1)).a_value
        assert hi >= lo

    def test_darling_kac_sqrt_t_selfconsistency(self):
        from scenerywalk import montecarlo

        n = 4000
        l1 = montecarlo.local_time_samples(1, 10_000.0, n, seed=21, tag=901)
        l2 = montecarlo.local_time_samples(1, 40_000.0, n, seed=22, tag=902)
        diff = abs(l2.mean() - 2 * l1.mean())
        sig = np.hypot(l2.std(ddof=1), 2 * l1.std(ddof=1)) / np.sqrt(n)
        assert diff <= 3 * sig


class TestLevelOccupations:
    def test_constant_field_all_in_slice_zero(self):
        path = simulate_srw(1, 1.0, 12.0, philox(7, 7))
        occ = oracles.level_occupations(ConstantField(1.0, 1), path, 12.0, 0.4, 4)
        assert occ[0] == pytest.approx(12.0, rel=1e-12)
        assert np.all(occ[1:] == 0)

    def test_partition_fuzzed(self):
        f = SceneryField(alpha=0.6, dim=1, seed=13)
        for k in range(40):
            path = simulate_srw(1, 1.0, 9.0, philox(8, k))
            occ = oracles.level_occupations(f, path, 9.0, 0.3, 6)
            assert occ.sum() == pytest.approx(9.0, rel=1e-12)

    def test_reconstruction_sandwich(self):
        f = SceneryField(alpha=0.5, dim=1, seed=17)
        eps = 0.25
        for k in range(25):
            path = simulate_srw(1, 1.0, 14.0, philox(9, k))
            t = 14.0
            rec = oracles.local_times(path, t, field=f)
            zmax = max(f.values(s) for s in rec.local_times)
            K = int(np.ceil(np.log(zmax) / (eps * np.log(t)))) + 1
            occ = oracles.level_occupations(f, path, t, eps, K)
            k_arr = np.arange(K + 1)
            lower = float(np.sum(t ** (eps * k_arr) * occ))
            upper = float(np.sum(t ** (eps * (k_arr + 1)) * occ))
            assert lower <= rec.a_value * (1 + 1e-12)
            assert upper >= rec.a_value * (1 - 1e-12)

    def test_default_level_count(self):
        assert oracles.default_level_count(1.0, 1, 0.75, 0.25) == 3
        assert oracles.default_level_count(0.5, 2, 0.9, 0.3) == 12

    def test_validation(self):
        path = _two_site_path()
        with pytest.raises(ValueError):
            oracles.level_occupations(ConstantField(1.0, 1), path, 5.0, -0.1, 3)
        with pytest.raises(ValueError):
            oracles.level_occupations(ConstantField(1.0, 1), path, 0.5, 0.3, 3)


class TestPathGuards:
    def test_t_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            oracles.local_times(_two_site_path(horizon=5.0), 6.0)
