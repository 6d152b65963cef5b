"""The benchmark in perfbench/ wraps library functions by name; a rename or
deletion there would only show in a traced benchmark run, so check the
names here. The benchmark script is parsed, not imported or run."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_names():
    """The (module, attribute) pairs of run.py's TRACED table."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TRACED table in {RUN_PY}")


def test_every_traced_name_exists():
    names = traced_names()
    assert len(names) > 10
    missing = [
        f"tenhash.{module}.{attr}" for module, attr in names
        if not hasattr(importlib.import_module(f"tenhash.{module}"), attr)
    ]
    assert missing == []
