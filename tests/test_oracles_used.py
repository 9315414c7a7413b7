"""Every oracle in ``tests/oracles.py`` is read by a test module.

An oracle that no test compares with package output checks nothing, so a
public top-level name of ``oracles.py`` that no ``test_*.py`` module imports
or reads as ``oracles.<name>`` fails here.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_oracle_is_referenced():
    defined = set()
    for node in _tree(TESTS / "oracles.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    used = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "oracles":
                used.add(node.attr)
    assert public
    assert not public - used, f"oracles no test reads: {', '.join(sorted(public - used))}"
