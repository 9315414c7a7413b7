import numpy as np
import pytest

from oracles import simulate_vsrw
from scenerywalk.scenery import ConstantField, JumpBudgetError, SceneryField
from scenerywalk.streams import philox


class TestSimulateVsrw:
    def test_tiny_horizon(self):
        f = SceneryField(alpha=1.0, dim=1, seed=0)
        _, vertical, transverse = simulate_vsrw(f, 1e-9, philox(4, 0))
        assert vertical + transverse == 0

    def test_unit_field_jump_rate(self):
        # z == 1 makes the VSRW a rate-(2+2d) walk: Poisson(4t) jumps for d=1
        f = ConstantField(1.0, 1)
        counts = [sum(simulate_vsrw(f, 100.0, philox(5, k))[1:]) for k in range(300)]
        counts = np.asarray(counts, dtype=float)
        stderr = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 400.0) <= 3 * stderr

    def test_constant_field_vertical_fraction(self):
        # vertical probability per jump is c/(c+d)
        c, d = 3.0, 1
        f = ConstantField(c, d)
        vertical = total = 0
        for k in range(200):
            _, v, h = simulate_vsrw(f, 50.0, philox(6, k))
            vertical += v
            total += v + h
        frac = vertical / total
        se = np.sqrt(0.75 * 0.25 / total)
        assert abs(frac - c / (c + d)) <= 3 * se

    def test_budget_refuses_before_any_draw(self):
        rng = philox(7, 2)
        with pytest.raises(JumpBudgetError, match="jumps"):
            simulate_vsrw(ConstantField(1e9, 1), 50.0, rng)
        assert rng.random() == philox(7, 2).random()

    def test_path_invariants(self):
        # each jump moves one coordinate by one, vertical ones x1 and the rest x2
        f = SceneryField(alpha=1.0, dim=2, seed=8)
        end, vertical, transverse = simulate_vsrw(f, 10.0, philox(7, 1))
        assert end.shape == (3,) and vertical > 0 and transverse > 0
        assert abs(end[0]) <= vertical and (end[0] - vertical) % 2 == 0
        assert np.abs(end[1:]).sum() <= transverse and (end[1:].sum() - transverse) % 2 == 0
