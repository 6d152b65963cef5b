"""The benchmark in perfbench/ wraps library functions by name and calls
the CLI's pipeline; a rename, deletion or change of parameters there would
only show in a benchmark run, so check the names and the call here. The
benchmark script is parsed, not imported or run."""

import ast
import importlib
import inspect
from pathlib import Path

from tenhash import cli

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


def test_pipeline_call_binds_to_signature():
    calls = [
        node for node in ast.walk(ast.parse(RUN_PY.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_pipeline"
    ]
    assert len(calls) == 1
    call = calls[0]
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(kw.arg is not None for kw in call.keywords)
    # raises TypeError on a missing, extra or unknown argument
    bound = inspect.signature(cli._pipeline).bind(
        *(ast.unparse(arg) for arg in call.args),
        **{kw.arg: ast.unparse(kw.value) for kw in call.keywords},
    )
    # a dropped or reordered parameter can still bind by count, so each
    # argument must also be named after its parameter: `w.bits` for bits,
    # `CLUSTER_SEED` for seed
    misnamed = {
        name: source for name, source in bound.arguments.items()
        if not source.split(".")[-1].lower().endswith(name)
    }
    assert misnamed == {}
