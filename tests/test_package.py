import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyperwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(hyperwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a stale __all__ entry (a deleted or renamed name) fails here
    exec(f"from hyperwave.{name} import *", {})


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SLOW_SCIPY = ("scipy.interpolate", "scipy.integrate", "scipy.fft", "scipy.optimize", "scipy.special")
# what importing any scipy subpackage loads first: scipy's array-API shim,
# which in turn loads numpy's lazy submodules, numpy.f2py among them
SCIPY_SHIM = ("scipy._lib._util", "numpy.f2py")


def _run_fresh(code):
    """The last line `code` prints, run in a fresh interpreter, as a value."""
    src = os.path.dirname(os.path.dirname(hyperwave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def _scipy_loaded_after(code, modules=SLOW_SCIPY):
    """The modules of `modules` in sys.modules after `code` runs in a fresh
    interpreter."""
    return _run_fresh(
        f"{code}; import sys; print(sorted(m for m in {modules!r} if m in sys.modules))"
    )


@pytest.mark.parametrize(
    "code",
    [
        "import hyperwave.cli",
        "import hyperwave.cli; hyperwave.cli.main(['identities', '--dims', '3,7', '--out', OUT])",
        "import hyperwave.cli; assert hyperwave.cli.main(['blowup', '--eps', '-1']) == 2",
    ],
    ids=["import", "identities", "config-error"],
)
def test_runs_without_scipy_leave_its_array_api_shim_unloaded(code, tmp_path):
    # scipy.linalg and scipy.sparse load on first use, so a run that calls
    # neither pays for neither
    out = str(tmp_path / "out")
    assert _scipy_loaded_after(f"OUT = {out!r}; {code}", SCIPY_SHIM) == []


def test_cli_import_leaves_scipy_interpolate_integrate_and_fft_unloaded():
    # all five are slow to import; the functions that need them import them
    assert _scipy_loaded_after("import hyperwave.cli") == []


def test_freewave_leaves_scipy_interpolate_and_fft_unloaded(tmp_path):
    # the pipeline needs numpy, scipy.sparse and scipy.linalg only
    out = str(tmp_path / "freewave")
    argv = ["freewave", "--d", "7", "--N", "24", "--s-end", "1", "--out", out]
    loaded = _scipy_loaded_after(f"import hyperwave.cli; hyperwave.cli.main({argv!r})")
    assert not {"scipy.interpolate", "scipy.fft"} & set(loaded)


def test_blowup_leaves_scipy_interpolate_optimize_special_and_fft_unloaded(tmp_path):
    # the Cauchy spline is built on the package's own B-spline basis; the
    # pipeline needs numpy, scipy.sparse (with its gcrotmk) and scipy.linalg
    out = str(tmp_path / "blowup")
    argv = ["blowup", "--d", "7", "--N", "48", "--out", out]
    loaded = _scipy_loaded_after(f"import hyperwave.cli; hyperwave.cli.main({argv!r})")
    assert not {"scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.fft"} & set(loaded)


def test_tracer_wraps_scipy_eigensolvers_after_cli_import():
    # the benchmark tracer installs after `import hyperwave.cli` and skips a
    # module that is not in sys.modules; linstab's lazy scipy.linalg is there,
    # so the `linstab.eig` span still sees every eigen-decomposition
    bench = os.path.join(ROOT, "bench")
    assert _run_fresh(
        "import sys; import hyperwave.cli; from hyperwave import linstab; "
        f"sys.path.insert(0, {bench!r}); import tracer; tracer.install(tracer.Tracer()); "
        "import scipy.linalg; "
        "print([linstab.linalg is scipy.linalg, hasattr(scipy.linalg.eig, '__wrapped__'), "
        "hasattr(scipy.linalg.eigvals, '__wrapped__')])"
    ) == [True, True, True]


def test_traced_spans_resolve():
    # the benchmark tracer skips a target the package no longer defines, so a
    # rename would silently zero a per-layer metric; SPANS is read, not run
    with open(os.path.join(ROOT, "bench", "tracer.py")) as fh:
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


# roots of the walk: the CLI entry point and the tables it dispatches through
CLI_ROOTS = ("main", "_OPTIONS", "_COMMANDS", "_NEGATIVE_NUMBER")


def _package_definitions():
    """Every top-level function, class, method and module constant of the
    package: (module, qualname) -> (node, names the module imports from
    outside the package)."""
    defs = {}
    for path in sorted(Path(hyperwave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        external = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
            for alias in node.names
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node, external
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[path.stem, f"{node.name}.{item.name}"] = item, external
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs[path.stem, target.id] = node, external
    return defs


def _names_used(node, external):
    """What the code of a definition refers to: ("name", x) for a bare name,
    which can only mean a module-level definition, and ("attr", x) for an
    attribute, except one read off a module imported from outside the package
    (`np.exp` does not reach `Taylor.exp`).  A docstring is a constant, so a
    name it mentions does not count."""
    if isinstance(node, ast.ClassDef):
        body = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
        parts = [*node.bases, *node.decorator_list, *body]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        parts = [node.value] if node.value is not None else []
    else:
        parts = [node]
    used = set()
    for part in parts:
        for n in ast.walk(part):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(("name", n.id))
            elif isinstance(n, ast.Attribute):
                if not (isinstance(n.value, ast.Name) and n.value.id in external):
                    used.add(("attr", n.attr))
    return used


def _unreached():
    defs = _package_definitions()
    todo = [("cli", root) for root in CLI_ROOTS]
    reached = set(todo)
    while todo:
        module, qualname = todo.pop()
        node, external = defs[module, qualname]
        used = _names_used(node, external)
        for key in defs:
            *owner, name = key[1].split(".")
            dunder = name.startswith("__") and name.endswith("__")
            if (
                ("attr", name) in used
                or (not owner and ("name", name) in used)
                # a class reaches its dunder methods: Python calls them
                or (owner == [qualname] and key[0] == module and dunder)
            ) and key not in reached:
                reached.add(key)
                todo.append(key)
    return sorted(".".join(key) for key in set(defs) - reached)


def test_every_definition_reached_from_cli_main():
    # the package is what the five pipelines run; test-only references live
    # in tests/oracles.py or in the one test module that uses them
    assert _unreached() == []
