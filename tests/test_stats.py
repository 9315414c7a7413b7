import numpy as np
import pytest

from scenerywalk import stats
from scenerywalk.streams import CHUNK, chunk_ranges, philox


class TestWilson:
    def test_bracket_and_range(self):
        lo, hi = stats.wilson_ci(3, 10)
        assert 0.0 <= lo <= 0.3 <= hi <= 1.0

    def test_zero_and_full(self):
        lo, hi = stats.wilson_ci(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = stats.wilson_ci(50, 50)
        assert hi <= 1.0 and lo < 1.0

    def test_coverage_on_synthetic_bernoulli(self):
        # the 95% interval must contain p = 0.01 in at least 93% of batches
        rng = philox(99, 1)
        p = 0.01
        n = 1000
        hits = 0
        batches = 1000
        ks = rng.binomial(n, p, size=batches)
        for k in ks:
            lo, hi = stats.wilson_ci(int(k), n)
            hits += lo <= p <= hi
        assert hits / batches >= 0.93

    def test_array_matches_scalar_calls(self):
        # elementwise on an array, bit for bit the scalar interval, at every k
        n = 200_000
        lo, hi = stats.wilson_ci(np.arange(n + 1), n)
        scalar = np.array([stats.wilson_ci(k, n) for k in range(n + 1)])
        assert np.array_equal(lo, scalar[:, 0]) and np.array_equal(hi, scalar[:, 1])
        assert lo[0] == 0.0 and hi[n] == 1.0
        assert all(type(v) is float for v in stats.wilson_ci(7, n))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            stats.wilson_ci(0, 0)


class TestSlopes:
    def test_exact_line(self):
        fit = stats.ols_slope([1, 2, 3, 4], [2.5, 4.5, 6.5, 8.5])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.5)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_known_noise_slope(self):
        rng = philox(98, 2)
        x = np.linspace(0, 10, 200)
        y = 3.0 * x + 1.0 + rng.normal(0, 0.5, size=200)
        fit = stats.ols_slope(x, y)
        assert abs(fit.slope - 3.0) <= 4 * fit.stderr

    def test_loglog_requires_positive(self):
        with pytest.raises(ValueError):
            stats.loglog_slope([1.0, 2.0], [1.0, -2.0])

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            stats.ols_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            stats.ols_slope([2.0, 2.0], [1.0, 3.0])


class TestStandardError:
    def test_multiple_applied_before_division(self):
        x = philox(5, 1).exponential(size=1001)
        assert stats.standard_error(x) == x.std(ddof=1) / np.sqrt(1001)


class TestKsStatistic:
    def test_exact_uniform_grid(self):
        # empirical CDF of {0.5/n ...} vs U(0,1): distance is 0.5/n
        n = 10
        samples = (np.arange(n) + 0.5) / n
        d = stats.ks_statistic(samples, lambda x: x)
        assert d == pytest.approx(0.5 / n, abs=1e-12)

    def test_detects_wrong_law(self):
        rng = philox(97, 3)
        samples = rng.uniform(0, 1, 10_000) ** 2
        assert stats.ks_statistic(samples, lambda x: np.clip(x, 0, 1)) > 0.1


class TestChiSquare:
    def test_identical_counts_pass(self):
        r = stats.two_sample_chisquare([100, 50, 25], [100, 50, 25])
        assert r.statistic == pytest.approx(0.0)
        assert r.passed

    def test_disjoint_counts_fail(self):
        r = stats.two_sample_chisquare([1000, 0, 0], [0, 0, 1000])
        assert not r.passed

    def test_empty_bins_dropped(self):
        r = stats.two_sample_chisquare([10, 0, 5], [12, 0, 4])
        assert r.dof == 1

    @pytest.mark.parametrize("counts1,counts2", [([5, 0], [0, 0]), ([0, 0], [3, 4]), ([], [])])
    def test_empty_sample_refused(self, counts1, counts2):
        with pytest.raises(ValueError, match="positive count"):
            stats.two_sample_chisquare(counts1, counts2)

    @pytest.mark.parametrize("counts1,counts2", [([5], [5]), ([0, 7, 0], [0, 3, 0])])
    def test_one_bin_is_point_mass_at_zero(self, counts1, counts2, monkeypatch):
        # chi-square with 0 dof is the point mass at 0; no quantile is needed
        import scipy.special

        def no_quantile(*args):
            raise AssertionError("gammaincinv called at dof 0")

        monkeypatch.setattr(scipy.special, "gammaincinv", no_quantile)
        r = stats.two_sample_chisquare(counts1, counts2)
        assert (r.statistic, r.dof, r.critical, r.passed) == (0.0, 0, 0.0, True)

    @pytest.mark.parametrize("significance", [0.01, 0.05, 1e-4])
    def test_critical_value_is_chi2_ppf(self, significance):
        # the critical value is scipy's chi2.ppf bit for bit: its quantile
        # formula at every dof up to 19,999, and the test's own value on a spread
        from scipy.special import gammaincinv
        from scipy.stats import chi2

        dof = np.arange(1, 20_000)
        ppf = chi2.ppf(1 - significance, dof)
        assert np.array_equal(2.0 * gammaincinv(dof / 2, 1 - significance), ppf)
        for d in [*range(1, 100), *range(100, 20_000, 97)]:
            counts = np.ones(d + 1)
            assert stats.two_sample_chisquare(counts, counts, significance).critical == ppf[d - 1]


class TestStreams:
    def test_distinct_keys_distinct_streams(self):
        a = philox(1, 2, 3).integers(0, 2**63, 8)
        b = philox(1, 2, 4).integers(0, 2**63, 8)
        c = philox(2, 2, 3).integers(0, 2**63, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_same_key_reproduces(self):
        assert np.array_equal(
            philox(7, 8, 9).integers(0, 2**63, 16), philox(7, 8, 9).integers(0, 2**63, 16)
        )

    def test_chunk_ranges_partition(self):
        rngs = chunk_ranges(2 * CHUNK + 17)
        assert rngs[0] == (0, CHUNK)
        assert rngs[-1][1] == 2 * CHUNK + 17
        total = sum(hi - lo for lo, hi in rngs)
        assert total == 2 * CHUNK + 17
