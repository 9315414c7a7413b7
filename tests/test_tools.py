"""The scripts under ``tools/`` still match the package.

Each script is loaded by path, which runs its imports but not its
``main``, and every ``_kernels.X``, ``chemdist.X``, ``montecarlo.X`` and
``scenery.X`` it names must exist in the module it imported under that
name.  So a rename in
the package shows up here, not the next time someone runs the tool.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
MODULES = ("_kernels", "chemdist", "montecarlo", "scenery")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["bench", "pilot_calibration"])
def test_every_package_reference_exists(name):
    tool = _load(name)
    tree = ast.parse((TOOLS / f"{name}.py").read_text(encoding="utf-8"))
    refs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }
    assert refs
    missing = [f"{owner}.{attr}" for owner, attr in sorted(refs)
               if not hasattr(getattr(tool, owner), attr)]
    assert not missing


def test_timed_row_carries_timing_and_unit(monkeypatch):
    bench = _load("bench")
    monkeypatch.setattr(bench, "REPEATS", 2)
    row = bench.timed("noop", {"dim": 1}, lambda: [0] * 10, lambda out: {"values": len(out)}, "ns_per_value")
    assert {"layer", "dim", "values", "best_s", "q1_s", "median_s", "q3_s", "ns_per_value"} == row.keys()
    assert row["ns_per_value"] == 1e9 * row["best_s"] / 10
    rate = bench.timed("noop", {}, lambda: None, lambda _: {"sites": 10}, "sites_per_s")
    assert rate["sites_per_s"] == 10 / rate["best_s"]
