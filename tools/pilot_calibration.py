#!/usr/bin/env python3
"""Regenerate the pilot-calibrated constants.

Run from the repository root:

    python tools/pilot_calibration.py

Prints the ``vsrw_fixture`` block to paste into
``src/scenerywalk/calibration.py``, the ``fit_hk_constants`` values to
paste into ``HK_CONSTANTS`` in ``tests/oracles.py``, next to the test
oracle ``hk_envelope`` they feed, and the ``measure_strategy_slack``
values to paste into ``STRATEGY_SLACK`` in ``tests/test_montecarlo.py``,
next to ``test_pilot_quantile_slack``, the one test that reads them.
Everything is seeded, so reruns reproduce the same numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from scenerywalk import montecarlo
from scenerywalk.streams import philox

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import transition_prob_mc  # noqa: E402  the test oracle of p_t(0, x)

MASTER = 20240617


def fit_hk_constants() -> dict:
    """Fit c1..c4 so the envelope sandwiches MC p_t(0, x) on the pilot grid.

    Grid: d=1, t in {10, 100}, |x| <= 2t.  Points whose Wilson interval
    touches zero are not informative and are skipped.  A least-squares line
    through log p + (1/2) log t against |x|^2/t anchors the Gaussian decay
    rate; the constants are then pushed out by 35% so the envelope clears
    every estimable pilot point with margin.
    """
    rows = []
    for t in (10.0, 100.0):
        for x in range(0, int(2 * t) + 1, max(1, int(t) // 10)):
            rng = philox(MASTER, 17, int(t), x)
            est = transition_prob_mc(1, 1.0, t, [x], 400_000, rng)
            if est.ci_low > 0:
                rows.append((t, x, est))
    gauss = [(t, x, e) for t, x, e in rows if x <= t]
    pois = [(t, x, e) for t, x, e in rows if x > t]
    u = np.array([x * x / t for t, x, _ in gauss])
    y = np.array([np.log(e.probability) + 0.5 * np.log(t) for t, x, e in gauss])
    slope = -np.polyfit(u, y, 1)[0]
    c2 = slope * 1.35
    c4 = slope / 1.35
    lo = np.array([np.log(e.ci_low) + 0.5 * np.log(t) for t, x, e in gauss])
    hi = np.array([np.log(e.ci_high) + 0.5 * np.log(t) for t, x, e in gauss])
    c1 = float(np.exp((lo + c2 * u).min())) * 0.8
    c3 = float(np.exp((hi + c4 * u).max())) * 1.25
    # Poissonian branch: make sure the same c2/c4 clear the far tail points
    for t, x, e in pois:
        drift = x * max(1.0, np.log(x / t))
        c2 = max(c2, -np.log(e.ci_low) / drift * 1.05)
        c4 = min(c4, -np.log(e.ci_high) / drift * 0.95)
    return {
        "c1": round(c1, 6),
        "c2": round(float(c2), 6),
        "c3": round(c3, 6),
        "c4": round(float(c4), 6),
        "n_points": len(rows),
    }


def measure_strategy_slack() -> dict:
    """Distribution of the strategy-bound exponent over field seeds.

    Pilot point of the examples: d=1, alpha=1, rho=1.5, t=1e3, 50 seeds.
    Returns the 90th percentile exponent minus p(alpha, rho).
    """
    exps = np.array(
        [
            montecarlo.strategy_lower_bound(1.0, 1, 1.5, 1000.0, field_seed=s).exponent
            for s in range(50)
        ]
    )
    return {
        "p": 0.5,
        "median_exponent": round(float(np.median(exps)), 4),
        "q90_exponent": round(float(np.percentile(exps, 90)), 4),
    }


def choose_vsrw_fixture() -> dict:
    """First seed whose scenery near the origin keeps the VSRW desk-simulable."""
    from scenerywalk.scenery import SceneryField, box_sites

    for seed in range(64):
        f = SceneryField(alpha=1.0, dim=1, seed=seed)
        zmax = float(f.values(box_sites(40, 1)).max())
        if zmax <= 500.0:
            return {"alpha": 1.0, "seed": seed, "zmax_radius40": round(zmax, 1)}
    raise RuntimeError("no suitable fixture seed in range")


def main() -> None:
    print("tests/oracles.py HK_CONSTANTS =", fit_hk_constants())
    print("tests/test_montecarlo.py STRATEGY_SLACK pilot =", measure_strategy_slack())
    print("vsrw_fixture =", choose_vsrw_fixture())


if __name__ == "__main__":
    main()
