import numpy as np
import pytest

from oracles import TableField, box_max
from scenerywalk import scenery
from scenerywalk.scenery import (
    ConstantField,
    SceneryField,
    SiteBudgetError,
    box_sites,
    exceedance_prob,
    pareto_from_uniform,
)
from scenerywalk.stats import ks_statistic


class TestInverseCdf:
    def test_lower_endpoint_clamps_to_one(self):
        assert pareto_from_uniform(1.0, 0.5) == 1.0
        assert pareto_from_uniform(1.0, 3.0) == 1.0

    def test_hand_inverse_cdf(self):
        # P(z > 4) = 1/4 at alpha = 1, so u = 0.25 maps to exactly 4
        assert pareto_from_uniform(0.25, 1.0) == pytest.approx(4.0, abs=1e-15)

    def test_values_at_least_one_and_finite(self):
        f = SceneryField(alpha=0.5, dim=2, seed=1)
        vals = f.values(box_sites(8, 2))
        assert np.all(vals >= 1.0)
        assert np.all(np.isfinite(vals))


class TestDeterminism:
    def test_repeated_queries_bit_exact(self):
        f = SceneryField(alpha=1.0, dim=1, seed=99)
        assert f.values((5,)) == f.values((5,))

    def test_out_of_order_queries_agree(self):
        f = SceneryField(alpha=2.0, dim=2, seed=7)
        sites = box_sites(5, 2)
        forward = f.values(sites)
        backward = f.values(sites[::-1])[::-1]
        assert np.array_equal(forward, backward)


class TestBoxMax:
    def test_radius_zero_is_origin(self):
        f = SceneryField(alpha=1.0, dim=2, seed=3)
        value, site = box_max(f, 0)
        assert site == (0, 0)
        assert value == f.values((0, 0))

    def test_fixed_table_enumeration(self):
        f = TableField(table={(-1,): 4.0, (0,): 2.0, (1,): 9.0}, dim=1)
        value, site = box_max(f, 1)
        assert (value, site) == (9.0, (1,))

    def test_tie_break_lexicographic(self):
        f = TableField(table={(-1,): 9.0, (1,): 9.0}, dim=1)
        assert box_max(f, 1)[1] == (-1,)

    def test_extreme_value_growth_rate(self):
        # Pareto extreme oracle: max over N sites grows like N^(1/alpha),
        # so log(box max)/log(2n+1) has median near 1 for alpha = 1
        for n in (10**3, 10**4, 10**5, 10**6):
            ratios = []
            for s in range(51):
                f = SceneryField(alpha=1.0, dim=1, seed=5000 + s)
                v, _ = box_max(f, n)
                ratios.append(np.log(v) / np.log(2 * n + 1))
            assert abs(float(np.median(ratios)) - 1.0) <= 0.1


class TestExceedance:
    def test_single_site_alpha_one(self):
        assert exceedance_prob(1.0, 1, 0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_threshold_one_is_certain(self):
        assert exceedance_prob(0.7, 3, 2, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_three_site_hand_value(self):
        # alpha=2, radius 1, d=1: 1 - (1 - 10^-2)^3 = 0.029701
        assert exceedance_prob(2.0, 1, 1, 10.0) == pytest.approx(0.029701, abs=1e-12)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            exceedance_prob(1.0, 1, 1, 0.5)

    def test_matches_monte_carlo(self):
        seeds = np.arange(20_000, dtype=np.uint64)
        sites = box_sites(1, 1)
        vals = pareto_from_uniform(
            scenery.site_uniforms(seeds[:, None], sites[None, :, :]), 1.5
        )
        freq = (vals.max(axis=1) >= 3.0).mean()
        p = exceedance_prob(1.5, 1, 1, 3.0)
        se = np.sqrt(p * (1 - p) / seeds.size)
        assert abs(freq - p) <= 3 * se


class TestBoxSites:
    def test_site_budget_guard(self):
        with pytest.raises(SiteBudgetError):
            box_sites(2000, 3)


class TestMarginalLaw:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_ks_against_exact_pareto(self, alpha):
        f = SceneryField(alpha=alpha, dim=1, seed=77)
        vals = f.values(np.arange(200_000, dtype=np.int64)[:, None])
        assert ks_statistic(vals, lambda r: 1 - r ** (-alpha)) <= 0.004

    def test_distinct_seeds_decorrelate(self):
        sites = box_sites(200, 1)
        a = SceneryField(alpha=1.0, dim=1, seed=0).values(sites)
        b = SceneryField(alpha=1.0, dim=1, seed=1).values(sites)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(np.log(a), np.log(b))[0, 1]) < 0.15


class TestOverrideFields:
    def test_constant_field(self):
        f = ConstantField(3.0, 2)
        assert f.values((4, -1)) == 3.0
        assert np.all(f.values(box_sites(2, 2)) == 3.0)

    def test_table_field_default(self):
        f = TableField(table={(0,): 5.0}, dim=1)
        assert f.values((3,)) == 1.0
