"""Acceptance suite: one test per criterion, run at the stated scale.

Each test executes the corresponding checker from ``scenerywalk.verify``
(the same functions the ``verify`` CLI subcommand uses), prints its
PASS/FAIL line with the runtime, and asserts the criterion including its
runtime budget.  Expect the full module to take about a minute; the slow
Monte Carlo criteria dominate.

Every result's ``details`` must also hash to its pinned SHA-256 in
:data:`DETAILS_SHA256`, taken over the sorted-key JSON that ``verify --out``
writes for it; runtime and budget stay out of the hash.  A refactor must
leave every digest unchanged.  A declared stream change re-records the
digests of exactly the suites it changes, next to its statistical
validation.
"""

import hashlib
import json

from scenerywalk import reporting, verify

#: SHA-256 of each suite's ``details`` as sorted-key JSON
DETAILS_SHA256 = {
    "variational identity": "2a57050a5b0579fe25a6b94eb454b579a45eb960bf79849d4c5cd4b72e72333b",
    "regime continuity": "5d813c579b0959d09d5c7258925b3116ddf5802a9a476c906fd6cc97fa441ee0",
    "law of large numbers": "4940f295eea73efa5b5ad1a98c46f115c556607bc17dbb3ff49d9841953b9bed",
    "self-similar scaling": "1eecdad9519cb02242fbe59f0962daace8eee50625aa390d5321b8d8b96c50ef",
    "polynomial regime": "42d8b65886d6f295dbefba758ba839c6e6f77461018424d332fd061009e9716e",
    "chemical distance exponent": "fc7ef1d1c28cca05a631e1221ed9cbf2b06fb0cb66fdc679fb7fc7c52f31f5fc",
    "metric axioms": "610e8910d9ddc7af8840f60fab9e846f218c198013819d8affc72e6274321afd",
    "time-change representation": "bd5404d6a3dd199ea6a243f561377405525cbe9977aec813fd112c922a40c18c",
    "appendix bounds": "b17228f43132e8782c65d5da427921fbe77ce84eb112a9c046520c7613acba1e",
    "field law": "04b932f80d15b73051d08964e9d910a8f8ec9556856a0fe13afbd93dc14e6b45",
    "level occupation scaling": "6332a3736eff8348db82b51b157771b26b854ce96e003a96ce805ab56898a773",
    "determinism": "e16cb493cca5d7e8cc5ec9d66c715c3e8e522a03559ea3371156c5b3faf89351",
}


def details_digest(details: dict) -> str:
    """SHA-256 of ``details`` as the sorted-key JSON of a ``verify --out`` report."""
    written = json.loads(reporting.render_json(details))
    return hashlib.sha256(json.dumps(written, sort_keys=True).encode()).hexdigest()


def _run(checker):
    result = checker()
    print(result.line())
    for key, value in result.details.items():
        print(f"    {key}: {value}")
    assert result.passed, f"{result.name} failed: {result.details}"
    assert details_digest(result.details) == DETAILS_SHA256[result.name], (
        f"{result.name} details changed"
    )
    return result


def test_criterion_01_variational_identity():
    r = _run(verify.check_variational_identity)
    assert r.details["max_abs_deviation"] <= 1e-9


def test_criterion_02_regime_continuity():
    r = _run(verify.check_regime_continuity)
    assert r.details["max_abs_gap"] <= 1e-12
    assert r.details["points"] >= 1000


def test_criterion_03_law_of_large_numbers():
    r = _run(verify.check_lln)
    assert abs(r.details["mean"] - r.details["target"]) <= 3 * r.details["stderr"]


def test_criterion_04_self_similar_scaling():
    r = _run(verify.check_ks_scaling)
    assert abs(r.details["slope"] - 1.125) <= 0.1


def test_criterion_05_polynomial_regime():
    r = _run(verify.check_polynomial_regime)
    assert r.details["floor_ok"]


def test_criterion_06_chemical_distance_exponent():
    r = _run(verify.check_chemdist_exponent)
    assert abs(r.details["slope"] - 2 / 3) <= 0.1
    assert r.details["oracle_mismatches"] == 0


def test_criterion_07_metric_axioms():
    r = _run(verify.check_metric_axioms)
    assert r.details["violations"] == 0


def test_criterion_08_time_change_representation():
    r = _run(verify.check_time_change)
    assert r.details["chi2"] <= r.details["critical_0.01"]


def test_criterion_09_appendix_bounds():
    r = _run(verify.check_appendix_bounds)
    assert all(v == 0 for k, v in r.details.items() if k.startswith("chen_"))


def test_criterion_10_field_law():
    r = _run(verify.check_field_law)
    assert r.details["worst_ks"] <= 0.002


def test_criterion_11_level_occupation_scaling():
    r = _run(verify.check_level_occupation)
    assert r.details["slope"] <= 0.5 + 0.1


def test_criterion_12_determinism():
    _run(verify.check_determinism)
