import math

import numpy as np
import pytest

from oracles import TableField, origin_local_time_moment, transition_prob_mc
from scenerywalk import _kernels, exponents, montecarlo, verify
from scenerywalk.calibration import CALIBRATION
from scenerywalk.montecarlo import (
    StretchedRegimeError,
    chen_bound,
    chen_verify,
    khasminskii_verify,
    level_mean_occupation,
    lln_check,
    local_time_samples,
    log_transition_prob,
    origin_local_time_mean,
    scaling_exponent_estimate,
    strategy_lower_bound,
    tail_prob_scan,
)
from scenerywalk.scenery import ConstantField, SceneryField
from scenerywalk.streams import key_word, philox


class TestLln:
    def test_pareto_mean_small_run(self):
        r = lln_check(alpha=2.0, dim=1, t=1000.0, replicas=600, seed=1)
        assert r.target == pytest.approx(2.0)
        assert r.within_3_sigma

    def test_unit_override_is_exact(self):
        r = lln_check(alpha=2.0, dim=1, t=500.0, replicas=64, seed=2, law_override=1.0)
        assert r.mean == pytest.approx(1.0, abs=1e-14)
        assert r.stderr <= 1e-14

    def test_requires_finite_mean(self):
        with pytest.raises(ValueError):
            lln_check(alpha=1.0, dim=1, t=100.0, replicas=10, seed=3)

    def test_reproducible(self):
        a = lln_check(alpha=2.0, dim=1, t=200.0, replicas=256, seed=4)
        b = lln_check(alpha=2.0, dim=1, t=200.0, replicas=256, seed=4)
        assert a == b


class TestScaling:
    def test_one_sided_bound_d2(self):
        r = scaling_exponent_estimate(
            alpha=0.8,
            dim=2,
            t_grid=[100, 316, 1000, 3162, 10_000],
            replicas=1500,
            quantile=0.5,
            seed=6,
        )
        assert r.one_sided
        assert r.reference == pytest.approx(1.25)
        assert r.slope <= r.reference + 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_exponent_estimate(0.8, 1, [10, 20], 10, 0.5, 0)
        with pytest.raises(ValueError):
            scaling_exponent_estimate(2.0, 1, [10, 20, 40, 80, 160], 10, 0.5, 0)
        with pytest.raises(ValueError):
            scaling_exponent_estimate(0.8, 1, [10, 20, 40, 80, 160], 10, 1.5, 0)

    def test_jobs_do_not_change_results(self):
        kw = dict(alpha=0.8, dim=1, t_grid=[10, 30, 100, 300, 1000], replicas=256, quantile=0.5, seed=7)
        assert scaling_exponent_estimate(**kw) == scaling_exponent_estimate(**kw, jobs=4)


class TestTailScan:
    def test_trivial_certain_event(self):
        scan = tail_prob_scan("rwrs", 0.5, 1, [2.0, 4.0, 8.0], 200, seed=8, rho=0.9)
        assert all(e.probability == 1.0 for e in scan.estimates)

    def test_polynomial_scan_floor(self):
        scan = tail_prob_scan("rwrs", 0.5, 1, [100.0, 1000.0], 2000, seed=9, rho=1.2)
        assert scan.floor_ok
        assert scan.slope is not None

    def test_stretched_regime_refused(self):
        with pytest.raises(StretchedRegimeError):
            tail_prob_scan("rwrs", 0.5, 1, [100.0], 100, seed=10, rho=2.0)

    def test_rcm_guard(self):
        with pytest.raises(StretchedRegimeError):
            tail_prob_scan("rcm", 1.0, 1, [100.0], 100, seed=11, delta=1.0, gamma=0.0)

    def test_rcm_polynomial_point(self):
        scan = tail_prob_scan(
            "rcm", 1.0, 1, [50.0, 100.0], 20_000, seed=12, delta=0.45, gamma=0.3
        )
        assert all(e.probability > 0 for e in scan.estimates)
        assert scan.floor_ok

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            tail_prob_scan("brownian", 1.0, 1, [10.0], 10, seed=0, rho=1.0)


#: pilot-calibrated slack of the strategy bound (a measurement artifact, not
#: theory); ``tools/pilot_calibration.py`` prints the ``measure_strategy_slack``
#: values to paste here
STRATEGY_SLACK = {
    # measured exponent distribution of the certified single-site bound:
    # median 0.5824, 90th percentile 0.772 against p = 0.5; epsilon_tol
    # covers the q90 with margin.  The bound is single-site and its stay
    # factor is Wilson-certified, so it cannot reach the ideal p + 0.15
    # at t = 1e3 (the limiting environments have no affordable high site).
    "epsilon_tol": 0.30,
    "quantile": 0.9,
    "pilot": {"p": 0.5, "median_exponent": 0.5824, "q90_exponent": 0.772},
    "provenance": (
        "tools/pilot_calibration.py measure_strategy_slack: d=1, alpha=1, "
        "rho=1.5, t=1e3, field seeds 0..49, local-time tail 2e5 replicas"
    ),
}


class TestStrategyBound:
    def test_second_regime_stay_factor_exact(self):
        # second regime: the walk holds the peak through the whole window,
        # so the stay factor is exactly -(t/4) * rate
        sb = strategy_lower_bound(1.0, 1, 3.0, 40.0, field_seed=3)
        assert sb.regime == "second"
        assert sb.stay == pytest.approx(-10.0)
        assert sb.log_probability == pytest.approx(sb.travel + sb.stay + sb.ret)

    def test_peak_at_origin_no_travel(self):
        f = TableField(table={(0,): 500.0}, dim=1)
        sb = strategy_lower_bound(1.0, 1, 1.2, 8.0, field_seed=0, field=f)
        assert sb.site == (0,)
        assert sb.travel == pytest.approx(log_transition_prob(1, 1.0, 2.0, np.array([[0]]))[0])
        assert sb.log_probability == pytest.approx(sb.travel + sb.stay + sb.ret)

    def test_pilot_quantile_slack(self):
        slack = STRATEGY_SLACK
        p = exponents.p_exponent(1.0, 1.5, 1).value
        exps = np.array(
            [strategy_lower_bound(1.0, 1, 1.5, 1000.0, field_seed=s).exponent for s in range(50)]
        )
        share = float(np.mean(exps <= p + slack["epsilon_tol"]))
        assert share >= slack["quantile"]

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            strategy_lower_bound(0.5, 1, 1.2, 100.0, field_seed=0)  # polynomial regime

    def test_bound_is_valid_log_probability(self):
        sb = strategy_lower_bound(1.0, 1, 1.5, 200.0, field_seed=1)
        assert sb.log_probability < 0
        assert np.isfinite(sb.log_probability)


def _bessel_series_p0(t: float, terms: int = 60) -> float:
    # independent oracle for p_t(0,0) on Z at rate 1: e^-t sum (t/2)^2k / (k!)^2
    return math.fsum(
        math.exp(-t) * (t / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms)
    )


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


def _no_draw(*args, **kwargs):
    raise AssertionError("an occupation batch was drawn")


class TestOriginIndicator:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_all_coordinates_zero(self, dim):
        # short horizons put many cells at the origin, and rows of unequal
        # length leave dead cells, which the indicator also reads
        pos, live = _kernels.srw_paths_batch(dim, 1.0, 4.0, 500, philox(62, dim))
        assert not np.all(live)
        hit = montecarlo._at_origin(pos)
        assert hit.dtype == bool and np.any(hit[~live]) and not np.all(hit)
        assert np.array_equal(hit, np.all(pos == 0, axis=-1))


class TestChen:
    def test_hand_values(self):
        assert chen_bound(4 / np.e, 1.0, 2.0) == pytest.approx(1.4744, abs=2e-4)
        assert chen_bound(4.0, 1.0, 11.0) == pytest.approx(6.4e-5, abs=5e-6)

    def test_large_lambda_limit(self):
        assert chen_bound(1e9, 1.0, 3.0) < 1e-15

    def test_b_above_one_required(self):
        with pytest.raises(ValueError):
            chen_bound(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            chen_verify(1, 100.0, 1.0, 100, seed=0)

    def test_small_lambda_vacuous(self):
        # bound >= 1 whenever lambda <= 4/e
        assert chen_bound(4 / np.e, 1.0, 5.0) >= 1.0

    def test_single_replica_refused_before_any_draw(self, monkeypatch):
        # refused before any draw, as khasminskii_verify refuses it
        monkeypatch.setattr(_kernels, "occupation_batch", _no_draw)
        with pytest.raises(ValueError, match="replicas must be >= 2"):
            chen_verify(1, 100.0, 3.0, 1, seed=0)

    def test_verify_no_violations_small(self):
        rep = chen_verify(1, 100.0, 5.0, 100_000, seed=13)
        assert rep.n_violations == 0
        assert rep.a_value > 0

    @pytest.mark.parametrize("dim,t,b", [(1, 100.0, 5.0), (2, 100.0, 3.0), (3, 400.0, 11.0)])
    def test_a_value_is_exact_mean_without_draws(self, monkeypatch, dim, t, b):
        monkeypatch.setattr(_kernels, "occupation_batch", _no_draw)
        rep = chen_verify(dim, t, b, 4, seed=0, samples=np.array([0.0, 1.0, 5.0, 40.0]))
        assert rep.a_value == origin_local_time_mean(dim, t / b)


class TestOriginLocalTimeMean:
    # the appendix horizons t and t/b, b in {3, 5, 11}
    HORIZONS = [100.0, 400.0] + [t / b for t in (100.0, 400.0) for b in (3.0, 5.0, 11.0)]

    @pytest.mark.parametrize("t", HORIZONS)
    def test_d1_matches_exact_law(self, t):
        assert origin_local_time_mean(1, t) == pytest.approx(origin_local_time_moment(t, 1), rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_higher_dims_match_samples(self, dim):
        # z reads +0.16 in d = 2 and +1.66 in d = 3 at this seed
        occ = local_time_samples(dim, 100.0, 100_000, seed=44, tag=(50, dim))
        se = occ.std(ddof=1) / np.sqrt(occ.size)
        assert abs(occ.mean() - origin_local_time_mean(dim, 100.0)) <= 4 * se


class TestKhasminskii:
    def test_first_moment_equality(self):
        rep = khasminskii_verify(1, 50.0, 1, 20_000, seed=14)
        assert rep.lhs == pytest.approx(rep.base_moment, rel=1e-12)
        assert not rep.violated

    def test_constant_integrand_is_deterministic(self):
        # f == 1 everywhere: the integral is exactly t, so moments are t^m
        occ = _kernels.occupation_batch(
            1, 1.0, 25.0, 0, 256, tag=4999, indicator=lambda pos: np.ones(pos.shape[:-1])
        )
        assert np.allclose(occ, 25.0, rtol=1e-12)
        m = 3
        assert (occ**m).mean() <= math.factorial(m) * occ.mean() ** m

    def test_third_moment_holds(self):
        rep = khasminskii_verify(1, 100.0, 3, 100_000, seed=15)
        assert not rep.violated
        assert rep.lhs <= rep.rhs

    def test_moment_order_validation(self):
        with pytest.raises(ValueError):
            khasminskii_verify(1, 10.0, 5, 100, seed=0)

    def test_single_replica_refused_before_any_draw(self, monkeypatch):
        # one replica has no standard error: the slack, and so rhs, would be nan
        monkeypatch.setattr(_kernels, "occupation_batch", _no_draw)
        with pytest.raises(ValueError, match="replicas must be >= 2"):
            khasminskii_verify(1, 100.0, 2, 1, seed=0)


class TestLevelOccupation:
    def test_empty_level_set_gives_zero(self):
        rep = level_mean_occupation(
            alpha=1.0,
            dim=1,
            eta=1.0,
            k_eps=3.0,  # threshold t^3: far above any site the walk can see
            box_radius=0,
            t_grid=[16.0, 64.0],
            seeds=[SceneryField(1.0, 1, 0).seed],
            replicas=16,
            master_seed=17,
        )
        assert all(v == 0.0 for _, v in rep.means)

    def test_whole_lattice_threshold_one(self):
        rep = level_mean_occupation(
            alpha=1.0,
            dim=1,
            eta=1.0,
            k_eps=0.0,
            box_radius=0,
            t_grid=[9.0, 81.0],
            seeds=[3],
            replicas=16,
            master_seed=18,
        )
        assert [v for _, v in rep.means] == pytest.approx([9.0, 81.0], rel=1e-9)

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            level_mean_occupation(1.0, 1, 1.0, 0.4, 0, [10.0], [0], 8, 0)
        with pytest.raises(ValueError):
            level_mean_occupation(1.0, 2, 1.0, 0.9, 0, [10.0], [0], 8, 0)

    def test_growth_bound_small(self):
        rep = level_mean_occupation(
            alpha=1.0,
            dim=1,
            eta=1.0,
            k_eps=0.75,
            box_radius=1,
            t_grid=[100.0, 1000.0],
            seeds=range(60),
            replicas=12,
            master_seed=19,
        )
        assert rep.slope.slope <= 0.5 + 0.25


class TestTimeChangeComparison:
    def test_constant_field_passes(self):
        f = ConstantField(1.0, 1)
        cmp_ = montecarlo.time_change_distribution_check(f, 20.0, 15_000, seed=20)
        assert cmp_.chi2.passed

    def test_reproducible(self):
        f = ConstantField(2.0, 1)
        a = montecarlo.time_change_distribution_check(f, 10.0, 5_000, seed=21)
        b = montecarlo.time_change_distribution_check(f, 10.0, 5_000, seed=21)
        assert a == b

    def test_distribution_matches_vsrw_small(self):
        fx = CALIBRATION["vsrw_fixture"]
        f = SceneryField(alpha=fx["alpha"], dim=1, seed=fx["seed"])
        cmp_ = montecarlo.time_change_distribution_check(f, 25.0, 20_000, seed=77)
        assert cmp_.chi2.passed


class TestKernels:
    def test_partition_of_time(self):
        # the live mask holds N+1 sojourns, N the row's Poisson jump count
        # (the first draw of the stream), and the drawn times sum to t
        for dim in (1, 2):
            jumps = philox(22, dim).poisson(50.0, size=256)
            rng = philox(22, dim)
            pos, live = _kernels.srw_paths_batch(dim, 1.0, 50.0, 256, rng)
            assert np.array_equal(live.sum(axis=1) - 1, jumps)
            sites, times = _kernels.local_times(pos, live, 50.0, rng)
            assert sites.shape[:2] == times.shape
            assert np.all(times >= 0)
            assert np.allclose(times.sum(axis=1), 50.0, rtol=1e-12)

    def test_pareto_strip_matches_direct_hash(self):
        seeds = np.arange(8, dtype=np.uint64)
        pos = np.array([[[k] for k in range(-3, 4)]] * 8, dtype=np.int32)
        strip = _kernels.pareto_values_at(seeds, pos, 1.0)
        for i, s in enumerate(seeds):
            f = SceneryField(alpha=1.0, dim=1, seed=int(s))
            direct = f.values(pos[i].astype(np.int64))
            assert np.array_equal(strip[i], direct)

    @pytest.mark.parametrize(
        "field",
        [
            TableField({(-2,): 7.0, (0,): 3.0, (1,): 0.5}, 1, default=1.5),
            ConstantField(2.5, 1),
            SceneryField(alpha=1.0, dim=1, seed=4),
        ],
    )
    def test_field_strip_matches_values(self, field):
        pos, _ = _kernels.srw_paths_batch(1, 1.0, 30.0, 64, philox(24, 0))
        assert np.array_equal(_kernels.field_values_at(field, pos), field.values(pos))

    def test_vsrw_batch_matches_event_driven_moments(self):
        f = ConstantField(1.0, 1)
        ends = _kernels.vsrw_endpoints_batch(f, 30.0, 23, 20_000, tag=90)
        # z == 1: each coordinate jumps at rate 2 -> variance 2t
        assert abs(ends[:, 0].var() / 60.0 - 1.0) <= 0.07
        assert abs(ends[:, 1].var() / 60.0 - 1.0) <= 0.07


def _record_occupation_tags(monkeypatch, value):
    """Replace the occupation kernel by a stub returning ``value``; return its tag log."""
    tags = []

    def stub(dim, rate, t, master_seed, count, tag, indicator):
        tags.append(tag if isinstance(tag, tuple) else (tag,))
        return np.full(count, value)

    monkeypatch.setattr(montecarlo._kernels, "occupation_batch", stub)
    return tags


class TestStreamKeys:
    def test_estimator_key_heads_distinct(self):
        heads = [v for k, v in vars(montecarlo).items() if k.startswith("_KEY_")]
        assert len(heads) == len(set(heads)) >= 10

    def test_chen_default_sample_differs_from_khasminskii(self, monkeypatch):
        # t = 1016, m = 1, i = 0 is where 3000 + t and 4000 + 16 m + i once coincided
        tags = _record_occupation_tags(monkeypatch, 1.0)
        chen_verify(1, 1016.0, 5.0, 16, seed=0)
        khasminskii_verify(1, 1016.0, 1, 16, seed=0)
        sample, khas = tags
        assert key_word(*sample, 0) != key_word(*khas, 0)

    def test_level_keys_distinct_for_many_starts_and_seeds(self, monkeypatch):
        tags = _record_occupation_tags(monkeypatch, 0.0)
        level_mean_occupation(1.0, 1, 1.0, 0.0, 50, [10.0], range(1000), 1, master_seed=0)
        assert len(tags) == 101 * 1000
        assert len({key_word(*tag, 0) for tag in tags}) == len(tags)

    def test_verify_suite_keys_distinct(self, monkeypatch):
        # every (master seed, key) the verify suites open, in the kernels and in
        # verify itself (regime continuity's stream); a zero-jump skeleton
        # replaces the draws, since which keys a suite opens depends on its
        # grids and replica counts only.  determinism reruns a seed on purpose.
        opened = {}
        real_philox = _kernels.philox

        def recording_philox(seed, *key):
            opened[suite].append((seed, key))
            return real_philox(seed, *key)

        def still(dim, rate, t, count, rng):
            return np.zeros((count, 1, dim), dtype=np.int32), np.ones((count, 1), dtype=bool)

        monkeypatch.setattr(_kernels, "philox", recording_philox)
        monkeypatch.setattr(verify, "philox", recording_philox)
        monkeypatch.setattr(_kernels, "srw_paths_batch", still)
        montecarlo._local_time_tail.cache_clear()
        try:
            for suite, check in verify.SUITES.items():
                opened[suite] = []
                check()
        finally:
            montecarlo._local_time_tail.cache_clear()
        opened["determinism"] = set(opened["determinism"])
        keys = [key for suite_keys in opened.values() for key in suite_keys]
        assert (31337, (2,)) in keys
        assert len(keys) == len(set(keys))

    def test_local_time_cache_is_bounded(self):
        assert montecarlo._local_time_tail.cache_info().maxsize == 8
