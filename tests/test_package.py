import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import hyperwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(hyperwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a stale __all__ entry (a deleted or renamed name) fails here
    exec(f"from hyperwave.{name} import *", {})


def test_cli_import_leaves_scipy_interpolate_and_integrate_unloaded():
    # both are slow to import; the functions that need them import them
    code = (
        "import sys, hyperwave.cli; "
        "print(sorted(m for m in ('scipy.interpolate', 'scipy.integrate') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(hyperwave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_traced_spans_resolve():
    # the benchmark tracer skips a target the package no longer defines, so a
    # rename would silently zero a per-layer metric; SPANS is read, not run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    [spans] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    ]
    targets = [t for ts in spans.values() for t in ts if t.startswith("hyperwave")]
    assert targets
    for target in targets:
        module_name, qualname = target.split(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        assert inspect.isfunction(obj), target
