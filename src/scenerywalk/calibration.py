"""Pilot-calibrated artifact constants, with provenance.

None of these numbers come from the theory: finite-t slacks, regime
floors and fixture seeds are measurement artifacts.  Each entry records
how it was produced so it can be regenerated with
``tools/pilot_calibration.py`` (master seed 20240617); they are inputs to
property tests, never ground truth.
"""

from __future__ import annotations

CALIBRATION = {
    "polynomial_floor_exponent": {
        "value": 6.0,
        "provenance": (
            "floor for tail_prob_scan lower CIs; pilot scan of P(A_t >= t^1.2) at "
            "alpha=0.5, d=1, t in {1e2..1e4} keeps frequencies above 1e-2, far over t^-6"
        ),
    },
    "strategy_slack": {
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
    },
    "vsrw_fixture": {
        # quenched environment for the time-change comparison: seed chosen so
        # the scenery near the origin keeps the event-driven VSRW desk-simulable
        "alpha": 1.0,
        "seed": 0,
        "provenance": (
            "tools/pilot_calibration.py choose_vsrw_fixture: first seed with "
            "max z over |x| <= 40 below 500 (measured 110.5)"
        ),
    },
}
