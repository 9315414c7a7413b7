import itertools

import numpy as np
import pytest

from oracles import TableField, detour_full_margin
from scenerywalk import chemdist
from scenerywalk.chemdist import (
    ChemDistance,
    LayeredGraphSpec,
    brute_force_distance,
    chemical_distance,
    chemdist_scaling,
    detour_distance,
    dijkstra_distance,
    edge_weight,
    round_half_away,
    sufficient_box,
)
from scenerywalk.scenery import ConstantField, SceneryField, SiteBudgetError


class TestEdgeWeight:
    def test_values(self):
        assert edge_weight(4.0) == pytest.approx(0.5)
        assert edge_weight(1.0) == 1.0
        assert edge_weight(0.25) == 1.0  # clamped: sqrt(w) v 1

    def test_domain(self):
        with pytest.raises(ValueError):
            edge_weight(0.0)


class TestChemicalDistance:
    def test_zero_at_identical_points(self):
        f = SceneryField(alpha=1.0, dim=1, seed=1)
        spec = LayeredGraphSpec(field=f, box=((-2, 2), (-2, 2)))
        assert chemical_distance(spec, (1, 1), (1, 1)).value == 0.0

    def test_transverse_segment_costs_its_length(self):
        f = SceneryField(alpha=1.0, dim=1, seed=2)
        spec = LayeredGraphSpec(field=f, box=((0, 0), (0, 6)))
        r = chemical_distance(spec, (0, 0), (0, 5))
        assert r.value == pytest.approx(5.0)

    def test_never_exceeds_l1(self):
        f = SceneryField(alpha=0.7, dim=1, seed=3)
        spec = LayeredGraphSpec(field=f, box=sufficient_box((0, 0), (3, 2)))
        assert chemical_distance(spec, (0, 0), (3, 2)).value <= 5.0 + 1e-12

    def test_three_site_line_hand_value(self):
        # explicit two-edge chain with conductances 4 then 1: 0.5 + 1 = 1.5
        cond = {((0,), (1,)): 4.0, ((1,), (2,)): 1.0}

        def weight(a, b):
            key = (a, b) if (a, b) in cond else (b, a)
            return edge_weight(cond[key])

        assert dijkstra_distance(((0, 2),), weight, (0,), (2,)) == pytest.approx(1.5)

    def test_high_conductance_shortcut(self):
        # a huge-z layer next door makes the detour cheaper than the direct line
        f = TableField(table={(0,): 1.0, (1,): 10_000.0}, dim=1)
        spec = LayeredGraphSpec(field=f, box=((0, 10), (0, 1)))
        direct = 10.0
        r = chemical_distance(spec, (0, 0), (10, 0))
        assert r.value == pytest.approx(2.0 + 10.0 / 100.0)
        assert r.value < direct

    def test_box_membership_required(self):
        f = ConstantField(1.0, 1)
        spec = LayeredGraphSpec(field=f, box=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            chemical_distance(spec, (0, 0), (5, 0))

    def test_sufficiency_flag(self):
        f = ConstantField(1.0, 1)
        small = LayeredGraphSpec(field=f, box=((0, 3), (0, 2)))
        assert not chemical_distance(small, (0, 0), (3, 2)).box_sufficient
        big = LayeredGraphSpec(field=f, box=sufficient_box((0, 0), (3, 2)))
        assert chemical_distance(big, (0, 0), (3, 2)).box_sufficient


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_dijkstra_equals_brute_force(self, seed):
        f = SceneryField(alpha=1.0, dim=1, seed=900 + seed)
        spec = LayeredGraphSpec(field=f, box=((0, 3), (0, 2)))
        x, y = (0, 0), (3, 2)
        assert chemical_distance(spec, x, y).value == pytest.approx(
            brute_force_distance(spec, x, y), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_detour_reduction_equals_dijkstra(self, seed):
        f = SceneryField(alpha=0.8, dim=1, seed=500 + seed)
        x, y = (0, 0), (6, 2)
        spec = LayeredGraphSpec(field=f, box=sufficient_box(x, y))
        assert detour_distance(f, x, y) == pytest.approx(
            chemical_distance(spec, x, y).value, abs=1e-12
        )

    def test_detour_reduction_d2(self):
        f = SceneryField(alpha=1.0, dim=2, seed=44)
        x, y = (0, 0, 0), (4, 1, -1)
        spec = LayeredGraphSpec(field=f, box=sufficient_box(x, y))
        assert detour_distance(f, x, y) == pytest.approx(
            chemical_distance(spec, x, y).value, abs=1e-12
        )

    def test_brute_force_guard(self):
        f = ConstantField(1.0, 1)
        spec = LayeredGraphSpec(field=f, box=((0, 5), (0, 5)))
        with pytest.raises(ValueError):
            brute_force_distance(spec, (0, 0), (5, 5))

    @pytest.mark.parametrize(
        "dim, target",
        # 4e9 + 3 transverse sites in d = 1; in d = 3, 2^22 per axis and 2^66
        # in all, a count that wraps to 0 in int64 arithmetic
        [(1, (4 * 10**9, 0)), (3, (2, 2**22 - 5, 2**22 - 5, 2**22 - 5))],
        ids=["wide", "int64-wrap"],
    )
    def test_detour_site_budget(self, dim, target):
        with pytest.raises(SiteBudgetError):
            detour_distance(ConstantField(1.0, dim), (0,) * (1 + dim), target)

    def test_dijkstra_site_budget(self):
        # 4097^2 sites, just over SITE_BUDGET = 2^24; refused before any search
        spec = LayeredGraphSpec(field=ConstantField(1.0, 1), box=((0, 4096), (0, 4096)))
        with pytest.raises(SiteBudgetError):
            chemical_distance(spec, (0, 0), (1, 1))


#: largest |x1 - y1| drawn per transverse dimension: the full margin box
#: stays small, while many draws pass the first searched margin of 16
_DETOUR_DX1_MAX = {1: 120, 2: 80, 3: 45}


class TestDetourPruning:
    """``detour_distance`` returns the full-margin search's float exactly."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_full_margin_search(self, dim, alpha):
        rng = np.random.default_rng(7_000 + 10 * dim + int(2 * alpha))
        early = 0
        for _ in range(34):
            field = CountingField(
                SceneryField(alpha=alpha, dim=dim, seed=int(rng.integers(2**32)))
            )
            x = rng.integers(-50, 51, size=1 + dim)
            y = x + np.concatenate(
                [rng.integers(0, _DETOUR_DX1_MAX[dim] + 1, size=1), rng.integers(-6, 7, size=dim)]
            )
            if rng.random() < 0.5:
                x, y = y, x
            assert detour_distance(field, x, y) == detour_full_margin(field.field, x, y)
            margin = abs(int(x[0] - y[0])) // 2 + 1
            full = np.prod(np.abs(x[1:] - y[1:]) + 2 * margin + 1)
            early += field.sites < full
        assert early >= 5

    @pytest.mark.parametrize("value", [1.0, 3.0, 1e6])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_field(self, dim, value):
        field = ConstantField(value, dim)
        for dx1 in (0, 1, 2, 31, 32, 33, 34, 35, 64, 65, 66, 67, 150):
            x = (0,) * (1 + dim)
            y = (dx1, 3) + (-2,) * (dim - 1)
            assert detour_distance(field, x, y) == detour_full_margin(field, x, y)

    # x = (0, 0), y = (200, 0): the straight path costs 200 and the search
    # margin is 101.  Site 16 on the edge of the first box (m = 16, bound
    # 2 (m + 1) = 34) costs 32 + 200 / sqrt(z), and site 17 just outside it
    # costs 34 + 2e-13.
    @pytest.mark.parametrize(
        "z16, expected, sites",
        [(1e4, 34.0, 33), (9999.0, 34.0 + 2e-13, 33 + 65)],
        ids=["at-bound", "past-bound"],
    )
    def test_minimum_at_stopping_bound(self, z16, expected, sites):
        field = CountingField(TableField({(16,): z16, (17,): 1e30}, dim=1))
        x, y = (0, 0), (200, 0)
        value = detour_distance(field, x, y)
        assert value == detour_full_margin(field.field, x, y)
        assert value == pytest.approx(expected, rel=0, abs=1e-15)
        assert field.sites == sites


class TestDijkstraAll:
    def test_matches_pairwise(self):
        from scenerywalk.chemdist import dijkstra_all

        f = SceneryField(alpha=1.0, dim=1, seed=321)
        box = ((0, 2), (0, 2))
        spec = LayeredGraphSpec(field=f, box=box)
        rows = dijkstra_all(box, spec.weight, (0, 0))
        for target, d in rows.items():
            assert d == pytest.approx(dijkstra_distance(box, spec.weight, (0, 0), target))


class CountingField:
    """Field double that counts its ``values`` calls and the sites they evaluate."""

    def __init__(self, field):
        self.field = field
        self.dim = field.dim
        self.values_calls = 0
        self.sites = 0

    def values(self, sites):
        self.values_calls += 1
        self.sites += np.shape(sites)[0]
        return self.field.values(sites)


class TestVerticalWeightTable:
    @pytest.mark.parametrize(
        "field",
        [
            SceneryField(alpha=0.7, dim=1, seed=11),
            SceneryField(alpha=1.0, dim=2, seed=12),
            TableField({(1,): 9.0, (2,): 0.5, (-1,): 2.0}, dim=1),
            ConstantField(3.0, 1),
        ],
        ids=["scenery-d1", "scenery-d2", "table", "constant"],
    )
    def test_weight_equals_field_lookup(self, field):
        box = ((-2, 2),) + ((-2, 3),) * field.dim
        spec = LayeredGraphSpec(field=field, box=box)
        edges = 0
        for a in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
            for b in chemdist._neighbours(a, box):
                expected = edge_weight(field.values(a[1:])) if a[0] != b[0] else 1.0
                assert spec.weight(a, b) == expected
                edges += 1
        assert edges > 0

    def test_zero_conductance_raises(self):
        spec = LayeredGraphSpec(field=TableField({(1,): 0.0}, dim=1), box=((0, 2), (0, 2)))
        with pytest.raises(ValueError):
            chemical_distance(spec, (0, 0), (2, 2))

    def test_one_values_call_per_sweep(self):
        field = CountingField(SceneryField(alpha=1.0, dim=1, seed=40_000))
        box = ((0, 4), (0, 4))
        spec = LayeredGraphSpec(field=field, box=box)
        for s in itertools.product(range(5), range(5)):
            chemdist.dijkstra_all(box, spec.weight, s)
        assert field.values_calls == 1


class TestMetricAxioms:
    @pytest.mark.parametrize("seed", range(10))
    def test_axioms_on_small_boxes(self, seed):
        f = SceneryField(alpha=1.0, dim=1, seed=7000 + seed)
        box = ((0, 3), (0, 3))
        spec = LayeredGraphSpec(field=f, box=box)
        sites = list(itertools.product(range(4), range(4)))
        d = {}
        for a in sites:
            for b in sites:
                d[a, b] = dijkstra_distance(box, spec.weight, a, b)
        for a in sites:
            assert d[a, a] == 0.0
            for b in sites:
                assert d[a, b] == pytest.approx(d[b, a], abs=1e-12)
                assert d[a, b] <= abs(a[0] - b[0]) + abs(a[1] - b[1]) + 1e-12
                for c in sites:
                    assert d[a, c] <= d[a, b] + d[b, c] + 1e-12


@pytest.fixture
def unit_field(monkeypatch):
    """Make chemdist_scaling build the degenerate field z == 1 for every seed."""
    monkeypatch.setattr(chemdist, "SceneryField", lambda alpha, dim, seed: ConstantField(1.0, dim))


class TestScaling:
    def test_unit_field_balanced_slope_exact(self, unit_field):
        # gamma = delta = 1 on z == 1: distance is exactly 2t, slope exactly 1
        fit = chemdist_scaling(
            alpha=1.0,
            dim=1,
            delta=1.0,
            gamma=1.0,
            t_grid=[100, 300, 1000, 3000, 10_000],
            seeds=[0],
        )
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_unit_field_gamma_zero(self, unit_field):
        fit = chemdist_scaling(
            alpha=1.0,
            dim=1,
            delta=1.0,
            gamma=0.0,
            t_grid=[100, 300, 1000, 3000, 10_000],
            seeds=[0],
        )
        assert fit.slope == pytest.approx(1.0, abs=0.02)

    def test_pareto_vertical_exponent_quick(self):
        fit = chemdist_scaling(
            alpha=1.0,
            dim=1,
            delta=1.0,
            gamma=0.0,
            t_grid=[100, 316, 1000, 3162, 10_000],
            seeds=range(8),
        )
        assert abs(fit.slope - 2.0 / 3.0) <= 0.15

    def test_gamma_dominates(self):
        fit = chemdist_scaling(
            alpha=1.0,
            dim=1,
            delta=1.0,
            gamma=1.0,
            t_grid=[100, 316, 1000, 3162, 10_000],
            seeds=range(5),
        )
        assert abs(fit.slope - 1.0) <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            chemdist_scaling(1.0, 1, 0.4, 0.0, [10, 20, 40, 80, 160], [0])
        with pytest.raises(ValueError):
            chemdist_scaling(1.0, 1, 1.0, 0.0, [10, 20], [0])


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(-0.5) == -1
        assert round_half_away(1.4) == 1
        assert round_half_away(-2.6) == -3
        assert round_half_away(0.0) == 0


class TestSpecValidation:
    def test_box_arity(self):
        f = ConstantField(1.0, 2)
        with pytest.raises(ValueError):
            LayeredGraphSpec(field=f, box=((0, 1), (0, 1)))

    def test_empty_range(self):
        f = ConstantField(1.0, 1)
        with pytest.raises(ValueError):
            LayeredGraphSpec(field=f, box=((2, 1), (0, 1)))
