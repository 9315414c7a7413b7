"""SHA-256 pins of the estimator outputs at d = 1 and d = 2.

Each case runs one estimator at a small fixed seed; its result is reduced
to a canonical form (float bits in hex, arrays by dtype, shape and bytes)
and hashed.  The digests were recorded before the estimators were routed
through the shared samplers of ``montecarlo``, so any change in a random
stream, a summation order or a reported field shows up here.

Every digest rests on the Generator methods the kernels draw from, whose
streams numpy may change between versions (NEP 19).  ``_DRAWS`` pins each
method on its own at one Philox key, so a numpy stream change fails
``test_generator_streams_pinned`` with the methods named, before it fails
the estimator digests without a reason.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from scenerywalk import chemdist, montecarlo
from scenerywalk.scenery import ConstantField, SceneryField
from scenerywalk.streams import philox

_GRID5 = [100.0, 200.0, 400.0, 800.0, 1600.0]

_CASES = {
    "lln d1": lambda: montecarlo.lln_check(2.0, 1, 100.0, 300, seed=11),
    "lln d2": lambda: montecarlo.lln_check(2.0, 2, 100.0, 300, seed=11),
    "lln override d1": lambda: montecarlo.lln_check(0.5, 1, 100.0, 300, seed=12, law_override=3.0),
    "lln override d2": lambda: montecarlo.lln_check(0.5, 2, 100.0, 300, seed=12, law_override=3.0),
    "scaling d1": lambda: montecarlo.scaling_exponent_estimate(0.8, 1, _GRID5, 200, 0.5, seed=13),
    "scaling d2": lambda: montecarlo.scaling_exponent_estimate(0.8, 2, _GRID5, 200, 0.5, seed=13),
    "rwrs scan d1": lambda: montecarlo.tail_prob_scan(
        "rwrs", 0.5, 1, [100.0, 400.0], 500, seed=15, rho=1.2
    ),
    "rwrs scan d2": lambda: montecarlo.tail_prob_scan(
        "rwrs", 0.5, 2, [100.0, 400.0], 500, seed=15, rho=1.5
    ),
    "rcm scan d1": lambda: montecarlo.tail_prob_scan(
        "rcm", 1.0, 1, [50.0, 100.0], 2000, seed=16, delta=0.45, gamma=0.3
    ),
    "rcm scan d2": lambda: montecarlo.tail_prob_scan(
        "rcm", 0.5, 2, [3.0, 6.0], 10_000, seed=16, delta=0.3, gamma=0.2
    ),
    "chen d1": lambda: montecarlo.chen_verify(1, 100.0, 5.0, 5000, seed=17),
    "chen d2": lambda: montecarlo.chen_verify(2, 100.0, 3.0, 5000, seed=17),
    "khasminskii d1": lambda: montecarlo.khasminskii_verify(1, 50.0, 2, 3000, seed=18),
    "khasminskii d2": lambda: montecarlo.khasminskii_verify(2, 50.0, 3, 3000, seed=18),
    "local time d1": lambda: montecarlo.local_time_samples(1, 100.0, 3000, seed=20),
    "local time d2": lambda: montecarlo.local_time_samples(2, 100.0, 3000, seed=20, tag=(9, 2)),
    "level occupation d1": lambda: montecarlo.level_mean_occupation(
        1.0, 1, 1.0, 0.75, 1, [100.0, 400.0], range(5), 10, master_seed=21
    ),
    "level occupation d2": lambda: montecarlo.level_mean_occupation(
        1.0, 2, 1.0, 1.05, 1, [100.0, 400.0], range(3), 10, master_seed=21
    ),
    "strategy first d1": lambda: montecarlo.strategy_lower_bound(1.0, 1, 1.5, 200.0, field_seed=22),
    "strategy second d1": lambda: montecarlo.strategy_lower_bound(1.0, 1, 3.0, 40.0, field_seed=3),
    "strategy first d2": lambda: montecarlo.strategy_lower_bound(1.0, 2, 2.0, 40.0, field_seed=22),
    "strategy second d2": lambda: montecarlo.strategy_lower_bound(1.0, 2, 4.0, 16.0, field_seed=22),
    "timechange d1": lambda: montecarlo.time_change_distribution_check(
        SceneryField(1.0, 1, 0), 10.0, 3000, seed=23
    ),
    "timechange d2": lambda: montecarlo.time_change_distribution_check(
        ConstantField(1.0, 2), 10.0, 3000, seed=23
    ),
    "chemdist d1": lambda: chemdist.chemdist_scaling(1.0, 1, 1.0, 0.0, _GRID5, range(3)),
    "chemdist d2": lambda: chemdist.chemdist_scaling(1.0, 2, 0.8, 0.5, _GRID5, range(3)),
}

_SHA256 = {
    "chemdist d1": "c36f3a73b0bd5e73b3703a8f84929fd1b7adc989d8bb48c85bfa5b2d2d734ce5",
    "chemdist d2": "8e0482433ff99ee47fdca77e2bb11dd5449891884c0d1a738359c1a5902e2f6a",
    "chen d1": "a704854b4bd52f4d26c9bfb2c3c69c4b5cd66a3a938c8a960242b3bae733f08b",
    "chen d2": "5a615765a65050f0cf22a8b9b8f67e6321c3e2c8f9b9d1f8b1a7b3249fd2cfa6",
    "khasminskii d1": "7a07be1ad53a1dcba072be14bc0dfa42bf0de214c9c2809d0bc5d6f5652f6dd5",
    "khasminskii d2": "16e09379556a7f5eaec9a44fef01b0898fa03ad4b3abf367ab7d2e57d4d1e2fe",
    "level occupation d1": "4b4060d92f8fed98fca555e23d6b203d8caac243459190b1d45ae2f776606735",
    "level occupation d2": "959b6bb5202bf8e65f17e3b240d6ab13ddcffb96a1f54033f9006b8dc993c6cb",
    "lln d1": "45235f07a543750c5daf24f504d145c86d470a7c1f4c2fa7a0255d99a9acb5f2",
    "lln d2": "681ecc8707eca29e860d4b743ffa0850a3eae7b3873e5826726d65e10b4cd96c",
    "lln override d1": "e397193d5462d7880c7383a6596197488439a8f80f766612a4c3d1c0e88c3f1b",
    "lln override d2": "abdc72dfb53f4cf829683b6d18ed158619fa5e205f353417514d86fb0ab870e9",
    "local time d1": "3340e081ee11cc33d7001c27543709e979429578cb04ea8148e5a895e582408b",
    "local time d2": "6f828cb41b497fc25230321bcd63635979769c7f3537a3a13f5b942b2d006ed8",
    "rcm scan d1": "caf8ec46ab0abc13c6aa040644ddd634656c9e202fc84e2986e4cee6f9f57be7",
    "rcm scan d2": "f147648f2635407b9512a7d085b449553864290c846aaadc026cdc1d98995126",
    "rwrs scan d1": "9864770ded76c1efb2e21427a90c96cba5cbd39326debb8054432556761fa4bd",
    "rwrs scan d2": "8499c6080493992d9df68db973aa6ceeab79cce60d3bb50e3e1cd5342a3e6ace",
    "scaling d1": "6b32cfb4c2c619f7c994ace85bde312b3075c82a3254dfc28e66887aa5de928c",
    "scaling d2": "aa775c4bb80694817144cdef569ae4672de173f1a866f4926878492a0fbbb096",
    "strategy first d1": "5afe824150fe6cb168cb0b7196dbed97281af98b94968a633d269229d2ce6779",
    "strategy first d2": "80e7ee99027a6adb2f346c997a975479ee24d45f3fbe9a7854419003206c5928",
    "strategy second d1": "7d98cd33abc3143290a6de9ba4ea3651feaba896ff2e2f8a38bd694869385ed8",
    "strategy second d2": "7306fe09ee705f45acbd92c94ef20ba4fbabfe8eee91e714e7485de1b9e5a364",
    "timechange d1": "7b3d42c51de898a2270e280ffb7fe536394a3fa976efd94bbd69ffccfe90b167",
    "timechange d2": "fe94c0d8376662aa1b4db94f3ee5c77fc6aa9e96a03074e5ca8b65c2d5718c31",
}


#: each Generator method the package and its oracles draw from, with the
#: parameters on both sides of numpy's small/large-parameter switches
_DRAWS = {
    "poisson": lambda rng: [rng.poisson(np.repeat([0.5, 8.0, 12.0, 1e4], 16))],
    "beta": lambda rng: [rng.beta(np.repeat([0.5, 1.0, 3.0, 40.0], 16), np.tile([0.5, 1.0, 3.0, 40.0], 16))],
    "standard_gamma": lambda rng: [rng.standard_gamma(np.repeat([0.5, 1.0, 3.0, 40.0], 16))],
    "standard_exponential": lambda rng: [rng.standard_exponential((8, 8))],
    "exponential": lambda rng: [rng.exponential(0.25, size=64)],
    "integers": lambda rng: [
        rng.integers(0, 256, size=64, dtype=np.uint8),
        rng.integers(0, 3, size=64),
        rng.integers(0, 2, size=64, dtype=np.int8),
        rng.integers(0, 2**63, size=64, dtype=np.uint64),
    ],
    "random": lambda rng: [rng.random(64)],
    "uniform": lambda rng: [rng.uniform(0.2, 4.0, size=64)],
}

_STREAM_SHA256 = {
    "poisson": "192d8994b8b302fe",
    "beta": "0308e9f84af55c75",
    "standard_gamma": "8148df07fdf720f4",
    "standard_exponential": "05dd0a9d31765f00",
    "exponential": "19a54f1fba43fe88",
    "integers": "13ddab1a6e902ff0",
    "random": "43a5cf5f128834e3",
    "uniform": "1f2707b8caf52409",
}


def test_generator_streams_pinned():
    drawn = {
        name: hashlib.sha256(b"".join(a.tobytes() for a in draw(philox(99, 0)))).hexdigest()[:16]
        for name, draw in _DRAWS.items()
    }
    changed = sorted(name for name in _DRAWS if drawn[name] != _STREAM_SHA256[name])
    assert not changed, f"numpy Generator streams changed: {', '.join(changed)}"


def _canon(x):
    """JSON-ready form of a result in which equal forms mean bit-identical results."""
    if dataclasses.is_dataclass(x):
        return [type(x).__name__, {f.name: _canon(getattr(x, f.name)) for f in dataclasses.fields(x)}]
    if isinstance(x, np.ndarray):
        return [str(x.dtype), list(x.shape), hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()]
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(name: str) -> str:
    form = json.dumps(_canon(_CASES[name]()), sort_keys=True)
    return hashlib.sha256(form.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_estimator_output_pinned(name):
    assert digest(name) == _SHA256[name]
