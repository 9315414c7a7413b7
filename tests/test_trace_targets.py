"""The benchmark's trace targets still name attributes of the package.

``perfbench/run.py --trace 1`` wraps every ``(owner, attribute)`` of
``perfbench/tracing.TARGETS`` and refuses to run when one is missing, so a
rename in the package must show up here first.  The benchmark files are
only read.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        tracing.span_name(owner, attr)
        for owner, attr, _, _ in tracing.TARGETS
        if attr not in vars(owner)
    ]
    assert not missing
