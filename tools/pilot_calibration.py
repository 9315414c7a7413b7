#!/usr/bin/env python3
"""Regenerate the pilot-calibrated constants.

Run from the repository root:

    python tools/pilot_calibration.py

Prints the ``vsrw_fixture`` block to paste into
``src/scenerywalk/calibration.py`` and the ``measure_strategy_slack``
values to paste into ``STRATEGY_SLACK`` in ``tests/test_montecarlo.py``,
next to ``test_pilot_quantile_slack``, the one test that reads them.
Everything is seeded, so reruns reproduce the same numbers.
"""

from __future__ import annotations

import numpy as np

from scenerywalk import montecarlo


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
    print("tests/test_montecarlo.py STRATEGY_SLACK pilot =", measure_strategy_slack())
    print("vsrw_fixture =", choose_vsrw_fixture())


if __name__ == "__main__":
    main()
