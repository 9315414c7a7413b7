"""The benchmark's view of the package still matches the package.

``perfbench/run.py --trace 1`` wraps every ``(owner, attribute)`` of
``perfbench/tracing.TARGETS`` and refuses to run when one is missing, and
each workload of ``perfbench/workloads.py`` calls the package's public
functions by name and keyword.  So a rename or a signature change in the
package must show up here first.  The benchmark files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, module: str):
    spec = importlib.util.spec_from_file_location(module, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[module] = mod  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_exists():
    tracing = _load("tracing", "perfbench_tracing")
    missing = [
        tracing.span_name(owner, attr)
        for owner, attr, _, _ in tracing.TARGETS
        if attr not in vars(owner)
    ]
    assert not missing


@pytest.mark.parametrize("name", ["occupation", "functional", "layered"])
def test_every_workload_call_runs(name):
    # verdicts are statistical and not asserted; a call that raises is a broken call
    workloads = _load("workloads", "perfbench_workloads")
    record = workloads.Pass()
    workloads.WORKLOADS[name].run(1, record)
    assert record.calls
    assert [(c.name, c.error) for c in record.calls if c.error] == []
