import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenerywalk import exponents as E


class TestPExponent:
    def test_first_regime_substitution(self):
        r = E.p_exponent(1.0, 1.5, 1)
        assert r.value == pytest.approx(0.5, abs=1e-15)
        assert r.regime == "first"

    def test_second_regime_substitution(self):
        r = E.p_exponent(1.0, 3.0, 1)
        assert r.value == pytest.approx(2.0, abs=1e-15)
        assert r.regime == "second"

    def test_higher_dim_first_regime(self):
        r = E.p_exponent(2.0, 1.5, 2)
        assert r.value == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.regime == "first"

    def test_polynomial_marker_below_threshold(self):
        # threshold (alpha+1)/(2 alpha) = 1.5 for alpha = 0.5
        r = E.p_exponent(0.5, 1.4, 1)
        assert r.regime == E.POLYNOMIAL and r.value is None

    def test_boundary_zero_by_monotonicity(self):
        r = E.p_exponent(0.5, 1.5, 1)
        assert r.value == 0.0 and r.regime == E.BOUNDARY_ZERO
        r2 = E.p_exponent(1.0, 1.0, 2)  # d=2, alpha <= d/2, rho = d/(2 alpha)
        assert r2.value == 0.0

    def test_critical_marker_at_linear_deviation(self):
        r = E.p_exponent(2.0, 1.0, 1)
        assert r.value is None and r.regime == E.CRITICAL

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            E.p_exponent(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            E.p_exponent(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            E.p_exponent(1.0, 1.0, 0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.7, 3.2])
    def test_continuous_at_mid_boundary(self, alpha, dim):
        _, rho_mid = E.p_thresholds(alpha, dim)
        left = E.p_exponent(alpha, rho_mid, dim).value
        right = E.p_exponent(alpha, rho_mid * (1 + 1e-12), dim).value
        assert left == pytest.approx(1.0, abs=1e-9)
        assert right == pytest.approx(1.0, abs=1e-9)

    @given(
        alpha=st.floats(0.2, 4.0),
        dim=st.integers(1, 3),
        rho1=st.floats(0.1, 5.0),
        rho2=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_rho(self, alpha, dim, rho1, rho2):
        lo, hi = sorted((rho1, rho2))
        assert E.p_value_clamped(alpha, lo, dim) <= E.p_value_clamped(alpha, hi, dim) + 1e-12


class TestLdpExponent:
    def test_one_dimensional(self):
        assert E.ldp_exponent(3.0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_two_dimensional(self):
        assert E.ldp_exponent(2.0, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_hypothesis_boundary(self):
        with pytest.raises(ValueError):
            E.ldp_exponent(1.0, 1)
        with pytest.raises(ValueError):
            E.ldp_exponent(1.0, 2)


class TestQClosedForm:
    @pytest.mark.parametrize(
        "alpha, delta, value, regime",
        [
            (1.0, 1.0, 0.5, "third"),
            (2.0, 0.6, 0.2, "second"),
            (2.0, 2.0, 2.0, "fifth"),
            (0.5, 0.7, 0.0, "first"),
        ],
    )
    def test_spec_points(self, alpha, delta, value, regime):
        r = E.q_closed_form(alpha, delta, 1)
        assert r.value == pytest.approx(value, abs=1e-12)
        assert r.regime == regime

    def test_second_case_void_for_heavy_tail(self):
        # alpha < 1 (d=1): delta slightly above 1/2 must not hit case two
        assert E.q_closed_form(0.8, 0.55, 1).regime == "first"

    @given(
        alpha=st.floats(0.2, 4.0),
        dim=st.integers(1, 3),
        d1=st.floats(0.0, 3.0),
        d2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_delta(self, alpha, dim, d1, d2):
        lo, hi = sorted((d1, d2))
        assert E.q_value(alpha, lo, dim) <= E.q_value(alpha, hi, dim) + 1e-12

    @given(alpha=st.floats(0.2, 4.0), dim=st.integers(1, 3), delta=st.floats(0.0, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_regime_fires(self, alpha, dim, delta):
        r = E.q_closed_form(alpha, delta, dim)
        th = E.q_thresholds(alpha, dim)
        memberships = {
            "first": delta < th["first_hi"] and not 0.5 <= delta < th["second_hi"],
            "second": 0.5 <= delta < th["second_hi"],
            "third": th["third_lo"] <= delta <= th["third_hi"],
            "fourth": th["third_hi"] < delta < th["fifth_lo"],
            "fifth": delta >= th["fifth_lo"],
        }
        assert memberships[r.regime]


class TestQVariational:
    @pytest.mark.parametrize(
        "alpha, delta, expected",
        [(2.0, 1.5, 4.0 / 3.0), (1.0, 1.0, 0.5), (1.0, 0.4, 0.0)],
    )
    def test_hand_crossings(self, alpha, delta, expected):
        assert E.q_variational_grid([alpha], [delta], 1)[0, 0] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_closed_form_on_subgrid(self, dim):
        alphas = np.linspace(0.25, 3.9, 40)
        deltas = np.linspace(0.0, 2.9, 40)
        qv = E.q_variational_grid(alphas, deltas, dim)
        for i, a in enumerate(alphas):
            qc = np.array([E.q_value(a, d, dim) for d in deltas])
            assert np.abs(qv[i] - qc).max() <= 1e-9


class TestDisplacement:
    def test_gamma_zero_reduces_to_q(self):
        assert E.displacement_exponent(1.3, 0.9, 0.0, 1) == E.q_value(1.3, 0.9, 1)

    def test_balanced_point(self):
        assert E.displacement_exponent(1.0, 1.0, 0.75, 1) == pytest.approx(0.5)

    def test_transverse_dominates(self):
        assert E.displacement_exponent(1.0, 1.0, 2.0, 1) == pytest.approx(2.0)

    @given(
        alpha=st.floats(0.3, 3.0),
        delta=st.floats(0.0, 2.0),
        g1=st.floats(0.0, 3.0),
        g2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_gamma(self, alpha, delta, g1, g2):
        lo, hi = sorted((g1, g2))
        assert E.displacement_exponent(alpha, delta, lo, 1) <= E.displacement_exponent(
            alpha, delta, hi, 1
        ) + 1e-12


class TestChemdistExponent:
    def test_substitution(self):
        assert E.chemdist_exponent(1.0, 1.0, 0.0, 1) == pytest.approx(2.0 / 3.0)

    def test_gamma_dominates(self):
        assert E.chemdist_exponent(1.0, 1.0, 1.7, 1) == pytest.approx(1.7)

    def test_sharpness_point(self):
        alpha, dim = 1.4, 1
        delta = (2 * alpha + dim) / (2 * alpha)
        assert E.chemdist_exponent(alpha, delta, 0.8, dim) == pytest.approx(1.0)

    def test_requires_superdiffusive_delta(self):
        with pytest.raises(ValueError):
            E.chemdist_exponent(1.0, 0.5, 0.0, 1)


class TestOptimisers:
    def test_optimal_mu_substitution(self):
        assert E.optimal_mu(1.0, 1.5, 1) == pytest.approx(0.75)

    def test_optimal_mu_out_of_regime(self):
        with pytest.raises(ValueError, match="first regime"):
            E.optimal_mu(1.0, 3.0, 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_optimal_mu_range(self, dim):
        # the optimal range exponent sits in (1/2, 1] on the open-left regime
        # interval (exactly 1/2 at the closed boundary point)
        for alpha in np.linspace(0.3, 3.5, 20):
            lo, hi = E.p_thresholds(alpha, dim)
            assert E.optimal_mu(alpha, lo, dim) >= 0.5 - 1e-12
            for rho in np.linspace(lo, hi, 9)[1:]:
                assert 0.5 < E.optimal_mu(alpha, rho, dim) <= 1.0 + 1e-12

    def test_optimal_rho_substitution(self):
        assert E.optimal_rho(1.0, 1.0, 1) == pytest.approx(1.5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_optimal_rho_attains_variational_value(self, dim):
        for alpha in np.linspace(0.3, 3.5, 15):
            th = E.q_thresholds(alpha, dim)
            hi = min(th["fifth_lo"], 3.0)
            for delta in np.linspace(th["third_lo"] + 1e-6, hi - 1e-6, 9):
                regime = E.q_closed_form(alpha, delta, dim).regime
                if regime not in ("third", "fourth"):
                    continue
                rho = E.optimal_rho(alpha, delta, dim)
                assert 2 * delta - rho == pytest.approx(E.q_value(alpha, delta, dim), abs=1e-9)

    def test_optimal_rho_regime_error(self):
        with pytest.raises(ValueError, match="regime"):
            E.optimal_rho(1.0, 0.1, 1)


class TestRangeTail:
    def test_third_regime_d1(self):
        # alpha = 3: third regime, C1 = (alpha+1)/2 = 2
        assert E.range_tail_exponent(3.0, 1.0, 1, 0.05) == pytest.approx(0.1)

    def test_third_regime_d2(self):
        # alpha = 2, d = 2: C1 = alpha + d/2 = 3
        delta = 1.0  # inside [2a/(2a+d) v d/(4a), (2a+d)/(2a)] = [2/3, 1.5]
        assert E.range_tail_exponent(2.0, delta, 2, 0.1) == pytest.approx(0.3)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fourth_regime_is_dim(self, dim):
        alpha = 2.0 * dim  # keeps the fourth regime wide
        th = E.q_thresholds(alpha, dim)
        delta = (th["third_hi"] + min(th["fifth_lo"], th["third_hi"] + 1)) / 2
        assert E.range_tail_exponent(alpha, delta, dim, 0.2) == pytest.approx(0.2 * dim)

    def test_second_regime_formula(self):
        # d=1: alpha + delta (alpha - 1) + (r/2)(3 alpha + 1)
        alpha, delta, r = 2.0, 0.6, 0.1
        expected = alpha + delta * (alpha - 1) + (r / 2) * (3 * alpha + 1)
        assert E.range_tail_exponent(alpha, delta, 1, r) == pytest.approx(expected)

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            E.range_tail_exponent(1.0, 0.1, 1, 0.1)


class TestPhaseDiagram:
    def test_single_point_rows(self):
        rows = E.phase_diagram([1.0], [1.5], "p", 1)
        assert (1.0, 1.5, 0.5, "first") in rows

    def test_q_boundary_rows_present(self):
        alpha = 1.0
        rows = E.phase_diagram([alpha], [0.6, 1.0], "q", 1)
        boundary_xs = {r[1] for r in rows if r[3].startswith("boundary:")}
        assert (2 * alpha + 1) / (2 * alpha) in boundary_xs

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            E.phase_diagram([], [1.0], "p", 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            E.phase_diagram([1.0], [1.0], "Z", 1)


class TestShippedFormulas:
    """The continuity suite checks the formulas the package ships, not a copy."""

    def test_continuity_sees_perturbed_q_case(self, monkeypatch):
        from scenerywalk import verify

        q_formula = E.q_formula

        def perturbed(regime, alpha, delta, dim):
            bump = 1e-9 if regime == "fourth" else 0.0
            return q_formula(regime, alpha, delta, dim) + bump

        assert verify.check_regime_continuity().statistic_passed
        monkeypatch.setattr(E, "q_formula", perturbed)
        assert not verify.check_regime_continuity().statistic_passed

    def test_continuity_sees_perturbed_p_branch(self, monkeypatch):
        from scenerywalk import verify

        p_branches = E.p_branches

        def perturbed(alpha, rho, dim):
            first, second = p_branches(alpha, rho, dim)
            return first, second + 1e-9

        monkeypatch.setattr(E, "p_branches", perturbed)
        assert not verify.check_regime_continuity().statistic_passed

    def test_q_formula_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            E.q_formula("sixth", 1.0, 1.0, 1)
