import math

import numpy as np
import pytest

from oracles import (
    HK_CONSTANTS,
    HKConstants,
    InsufficientHorizonError,
    WalkPath,
    clock,
    hk_envelope,
    simulate_srw,
    simulate_vsrw,
    time_change_compose,
    transition_prob_mc,
)
from scenerywalk.calibration import CALIBRATION
from scenerywalk.montecarlo import log_transition_prob
from scenerywalk.scenery import ConstantField, JumpBudgetError, SceneryField
from scenerywalk.streams import philox


def _bessel_series_p0(t: float, terms: int = 60) -> float:
    # independent oracle for p_t(0,0) on Z at rate 1: e^-t sum (t/2)^2k / (k!)^2
    return math.fsum(
        math.exp(-t) * (t / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms)
    )


class TestSimulateSrw:
    def test_tiny_horizon_has_no_jumps(self):
        p = simulate_srw(2, 1.0, 1e-9, philox(1, 0))
        assert p.n_jumps == 0
        assert p.position(0.0) == (0, 0)

    def test_path_invariants_fuzzed(self):
        for k in range(50):
            p = simulate_srw((k % 3) + 1, 0.5 + k / 25.0, 20.0, philox(2, k))
            p.validate()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            simulate_srw(1, 1.0, 0.0, philox(1, 1))
        with pytest.raises(ValueError):
            simulate_srw(1, -1.0, 5.0, philox(1, 1))


class TestSimulateVsrw:
    def test_tiny_horizon(self):
        f = SceneryField(alpha=1.0, dim=1, seed=0)
        p = simulate_vsrw(f, 1e-9, philox(4, 0))
        assert p.n_jumps == 0

    def test_unit_field_jump_rate(self):
        # z == 1 makes the VSRW a rate-(2+2d) walk: Poisson(4t) jumps for d=1
        f = ConstantField(1.0, 1)
        counts = [simulate_vsrw(f, 100.0, philox(5, k)).n_jumps for k in range(300)]
        counts = np.asarray(counts, dtype=float)
        stderr = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 400.0) <= 3 * stderr

    def test_constant_field_vertical_fraction(self):
        # vertical probability per jump is c/(c+d)
        c, d = 3.0, 1
        f = ConstantField(c, d)
        vertical = total = 0
        for k in range(200):
            p = simulate_vsrw(f, 50.0, philox(6, k))
            seq = p.site_sequence()
            steps = np.diff(seq, axis=0)
            vertical += int(np.sum(steps[:, 0] != 0))
            total += steps.shape[0]
        frac = vertical / total
        se = np.sqrt(0.75 * 0.25 / total)
        assert abs(frac - c / (c + d)) <= 3 * se

    def test_budget_refuses_before_any_draw(self):
        rng = philox(7, 2)
        with pytest.raises(JumpBudgetError, match="jumps"):
            simulate_vsrw(ConstantField(1e9, 1), 50.0, rng)
        assert rng.random() == philox(7, 2).random()

    def test_path_invariants(self):
        f = SceneryField(alpha=1.0, dim=2, seed=8)
        p = simulate_vsrw(f, 10.0, philox(7, 1))
        p.validate()
        assert p.dim == 3


class TestTimeChange:
    def test_unit_field_identity_clock(self):
        f = ConstantField(1.0, 1)
        rng = philox(8, 0)
        transverse = simulate_srw(1, 2.0, 30.0, rng)
        vertical = simulate_srw(1, 2.0, 40.0, rng)
        ck = clock(f, transverse)
        t = 22.5
        assert ck.value(t) == pytest.approx(t, rel=1e-12)
        out = time_change_compose(vertical, ck, transverse, t)
        assert out == vertical.position(t) + transverse.position(t)

    def test_frozen_transverse_constant_clock(self):
        f = ConstantField(5.0, 1)
        frozen = WalkPath(dim=1, start=(0,), jump_times=[], sites=np.empty((0, 1)), horizon=3.0)
        ck = clock(f, frozen)
        assert ck.value(2.0) == pytest.approx(10.0, rel=1e-15)
        vertical = simulate_srw(1, 2.0, 12.0, philox(9, 0))
        out = time_change_compose(vertical, ck, frozen, 2.0)
        assert out == vertical.position(10.0) + (0,)

    def test_insufficient_horizon(self):
        f = ConstantField(5.0, 1)
        frozen = WalkPath(dim=1, start=(0,), jump_times=[], sites=np.empty((0, 1)), horizon=3.0)
        ck = clock(f, frozen)
        vertical = simulate_srw(1, 2.0, 9.0, philox(9, 1))
        with pytest.raises(InsufficientHorizonError):
            time_change_compose(vertical, ck, frozen, 2.5)

    def test_distribution_matches_vsrw_small(self):
        from scenerywalk import montecarlo

        fx = CALIBRATION["vsrw_fixture"]
        f = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        cmp_ = montecarlo.time_change_distribution_check(f, 25.0, 20_000, seed=77)
        assert cmp_.chi2.passed


class TestHkEnvelope:
    def test_origin_values(self):
        c = HKConstants(0.5, 1.0, 2.0, 0.25)
        lower, upper = hk_envelope(100.0, [0], c, 1)
        assert lower == pytest.approx(np.log(0.5) - 0.5 * np.log(100.0))
        assert upper == pytest.approx(np.log(2.0) - 0.5 * np.log(100.0))

    def test_boundary_uses_gaussian_branch(self):
        c = HKConstants(1.0, 1.0, 1.0, 1.0)
        lower, upper = hk_envelope(10.0, [10], c, 1)
        expected = -0.5 * np.log(10.0) - 100.0 / 10.0
        assert lower == pytest.approx(expected)
        assert upper == pytest.approx(expected)

    def test_hand_value(self):
        c = HKConstants(1.0, 1.0, 1.0, 1.0)
        lower, upper = hk_envelope(100.0, [20], c, 1)
        expected = -0.5 * np.log(100.0) - 4.0
        assert lower == pytest.approx(expected, abs=1e-12)
        assert upper == pytest.approx(expected, abs=1e-12)

    def test_poissonian_branch(self):
        c = HKConstants(1.0, 2.0, 1.0, 0.5)
        lower, upper = hk_envelope(10.0, [30], c, 1)
        drift = 30.0 * max(1.0, np.log(3.0))
        assert lower == pytest.approx(-2.0 * drift)
        assert upper == pytest.approx(-0.5 * drift)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hk_envelope(0.5, [0], HKConstants(1, 1, 1, 1), 1)

    def test_positive_constants_required(self):
        with pytest.raises(ValueError):
            HKConstants(1.0, 0.0, 1.0, 1.0)

    def test_sandwich_on_calibrated_constants(self):
        hk = HK_CONSTANTS
        consts = HKConstants(hk["c1"], hk["c2"], hk["c3"], hk["c4"])
        rng = philox(123456, 9)
        for t in (10.0, 100.0):
            for x in range(0, int(2 * t) + 1, max(1, int(t) // 5)):
                est = transition_prob_mc(1, 1.0, t, [x], 100_000, rng)
                if est.ci_low <= 0:
                    continue
                lower, upper = hk_envelope(t, [x], consts, 1)
                assert np.log(est.ci_high) >= lower
                assert np.log(est.ci_low) <= upper


class TestTransitionProb:
    def test_exact_matches_series_oracle(self):
        p0 = np.exp(log_transition_prob(1, 1.0, 1.0, np.array([[0]])))[0]
        assert p0 == pytest.approx(_bessel_series_p0(1.0), abs=1e-12)
        assert p0 == pytest.approx(0.4657596, abs=1e-6)

    def test_exact_product_across_dims(self):
        # coordinates are independent rate-R/d walks
        p2 = np.exp(log_transition_prob(2, 1.0, 3.0, np.array([[1, -2]])))[0]
        p1a, p1b = np.exp(log_transition_prob(1, 0.5, 3.0, np.array([[1], [-2]])))
        assert p2 == pytest.approx(p1a * p1b, rel=1e-12)

    def test_mc_small_t_degenerate(self):
        est0 = transition_prob_mc(1, 1.0, 1e-6, [0], 2000, philox(11, 0))
        assert est0.probability >= 0.999
        est1 = transition_prob_mc(1, 1.0, 1e-6, [1], 2000, philox(11, 1))
        assert est1.probability == 0.0

    def test_mc_matches_exact_within_3_sigma(self):
        t, x = 1.0, 0
        est = transition_prob_mc(1, 1.0, t, [x], 100_000, philox(11, 2))
        p = np.exp(log_transition_prob(1, 1.0, t, np.array([[x]])))[0]
        se = np.sqrt(p * (1 - p) / est.replicas)
        assert abs(est.probability - p) <= 3 * se

    def test_symmetry_plus_minus(self):
        est_p = transition_prob_mc(1, 1.0, 4.0, [2], 50_000, philox(11, 3))
        est_m = transition_prob_mc(1, 1.0, 4.0, [-2], 50_000, philox(11, 4))
        p = np.exp(log_transition_prob(1, 1.0, 4.0, np.array([[2]])))[0]
        se = np.sqrt(2 * p * (1 - p) / 50_000)
        assert abs(est_p.probability - est_m.probability) <= 3 * se

    def test_replica_validation(self):
        with pytest.raises(ValueError):
            transition_prob_mc(1, 1.0, 1.0, [0], 0, philox(11, 5))


class TestWalkPath:
    def test_position_lookup(self):
        p = WalkPath(dim=1, start=(0,), jump_times=[1.0, 2.5], sites=[[1], [2]], horizon=4.0)
        assert p.position(0.5) == (0,)
        assert p.position(1.0) == (1,)
        assert p.position(3.9) == (2,)
        with pytest.raises(ValueError):
            p.position(5.0)

    def test_invalid_paths_rejected(self):
        bad_order = WalkPath(dim=1, start=(0,), jump_times=[2.0, 1.0], sites=[[1], [0]], horizon=4.0)
        with pytest.raises(ValueError):
            bad_order.validate()
        bad_step = WalkPath(dim=1, start=(0,), jump_times=[1.0], sites=[[2]], horizon=4.0)
        with pytest.raises(ValueError):
            bad_step.validate()
