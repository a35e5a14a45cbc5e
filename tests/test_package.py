import ast
import importlib
import inspect
import json
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


def _run_fresh(code):
    """The last line `code` prints, run in a fresh interpreter, as a value."""
    src = os.path.dirname(os.path.dirname(hyperwave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def _scipy_loaded_after(code):
    """The scipy modules in sys.modules after `code` runs in a fresh
    interpreter."""
    return _run_fresh(
        f"{code}; import sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )


def _main(*argv):
    """Code that runs the CLI on argv, writing to the path OUT."""
    return f"import hyperwave.cli; hyperwave.cli.main({list(argv)!r} + ['--out', OUT])"


@pytest.mark.parametrize(
    "code",
    [
        "import hyperwave.cli",
        _main("identities", "--dims", "3,7"),
        "import hyperwave.cli; assert hyperwave.cli.main(['blowup', '--eps', '-1']) == 2",
        _main("norms", "--dims", "3,7", "--N", "16"),
        _main("spectrum", "--d", "7", "--N", "48"),
        _main("blowup", "--d", "7", "--N", "48"),
    ],
    ids=["import", "identities", "config-error", "norms", "spectrum", "blowup"],
)
def test_runs_without_scipy_leave_its_array_api_shim_unloaded(code, tmp_path):
    # no command needs scipy (`blowup`'s matrix exponential and Cauchy fit
    # are numpy ports), so no run loads any scipy module, not even scipy's
    # array-API shim, whose import alone costs about 0.2 s
    out = str(tmp_path / "out")
    assert _scipy_loaded_after(f"OUT = {out!r}; {code}") == []


def test_blowup_runs_where_scipy_cannot_be_imported(tmp_path):
    # with scipy blocked, any import of it raises ImportError
    argv = ["blowup", "--d", "7", "--N", "48", "--out", str(tmp_path / "blowup")]
    assert _run_fresh(
        f"import sys; sys.modules['scipy'] = None; import hyperwave.cli; "
        f"print(hyperwave.cli.main({argv!r}))"
    ) == 0


def test_cli_import_leaves_scipy_interpolate_integrate_and_fft_unloaded():
    # all three are slow to import, and no command needs them
    loaded = set(_scipy_loaded_after("import hyperwave.cli"))
    assert not {"scipy.interpolate", "scipy.integrate", "scipy.fft"} & loaded


@pytest.fixture(scope="module")
def freewave_loaded(tmp_path_factory):
    """The scipy modules in sys.modules after one freewave run."""
    out = str(tmp_path_factory.mktemp("freewave") / "freewave")
    code = _main("freewave", "--d", "7", "--N", "24", "--s-end", "1")
    return set(_scipy_loaded_after(f"OUT = {out!r}; {code}"))


def test_freewave_leaves_scipy_interpolate_and_fft_unloaded(freewave_loaded):
    assert not {"scipy.interpolate", "scipy.fft"} & freewave_loaded


def test_freewave_leaves_scipy_linalg_unexecuted(freewave_loaded):
    # the FD oracle interpolates its cells without a solve, and no module
    # holds a lazy scipy.linalg any more, so the name is not even registered
    assert "scipy.linalg" not in freewave_loaded


def test_freewave_loads_no_scipy_subpackage(freewave_loaded):
    # the FD oracle steps its band and interpolates its cells in numpy, so the
    # run loads no scipy module at all, nor scipy's array-API shim
    assert freewave_loaded == set()


def test_blowup_leaves_scipy_interpolate_optimize_special_and_fft_unloaded(tmp_path):
    # the Cauchy spline is built on the package's own B-spline basis, and the
    # pipeline needs numpy alone
    out = str(tmp_path / "blowup")
    argv = ["blowup", "--d", "7", "--N", "48", "--out", out]
    loaded = _scipy_loaded_after(f"import hyperwave.cli; hyperwave.cli.main({argv!r})")
    assert not {"scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.fft"} & set(loaded)


def test_tracer_wraps_eigensolvers_after_cli_import(tmp_path):
    # the benchmark tracer installs after `import hyperwave.cli`; its
    # `linstab.eig` span sees the eig of L and the eig of L^H for the left
    # eigenvector
    bench = os.path.join(ROOT, "bench")
    argv = ["spectrum", "--d", "7", "--N", "48", "--out", str(tmp_path / "spectrum")]
    assert _run_fresh(
        f"import sys; import hyperwave.cli; sys.path.insert(0, {bench!r}); import tracer; "
        f"t = tracer.Tracer(); tracer.install(t); hyperwave.cli.main({argv!r}); "
        "print(tracer.summarize(t.spans)['linstab.eig']['calls'])"
    ) == 2


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


def _python(args, cwd, threads="1", preexec_fn=None):
    """A fresh interpreter run on args in cwd, with this package on its path
    and the given BLAS thread count."""
    src = os.path.dirname(os.path.dirname(hyperwave.__file__))
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        preexec_fn=preexec_fn,
    )


def test_readme_commands_but_blowup_write_the_same_bytes_at_one_and_two_blas_threads(
    tmp_path,
):
    # `blowup`'s artifacts depend on the BLAS thread count (its `omega0`
    # moves by about 3e-11 at two threads); every other README command's do not
    readme = Path(ROOT, "README.md").read_text()
    argvs = [
        line.split()[1:]
        for line in readme.splitlines()
        if line.startswith("hyperwave ") and line.split()[1] != "blowup"
    ]
    assert {argv[0] for argv in argvs} == {"identities", "freewave", "spectrum", "norms"}
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        code = f"import hyperwave.cli; print([hyperwave.cli.main(a) for a in {argvs!r}])"
        run = _python(["-c", code], out, threads)
        assert run.returncode == 0, run.stderr
        assert ast.literal_eval(run.stdout.strip().splitlines()[-1]) == [0] * len(argvs)
        # a run that passes writes nothing to stderr
        assert run.stderr == ""
        files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    # a CSV and a JSON per command, but spectrum's JSON alone
    assert len(files["1"]) == 9
    assert files["1"] == files["2"]


def test_spectrum_roots_do_not_depend_on_the_blas_thread_count(tmp_path):
    # from N = 108 on the dense eigs, and with them the collocation
    # diagnostics, change with the thread count; the connection function's
    # count, roots and gap do not
    argv = ["-m", "hyperwave.cli", "spectrum", "--d", "7", "--N", "128", "--out", "s"]
    docs = []
    for threads in ("1", "2"):
        run = _python(argv, tmp_path, threads)
        assert run.returncode == 0, run.stderr
        docs.append(json.loads((tmp_path / "s.json").read_text()))
    keys = ("gap", "ssc_count", "ssc_roots")
    assert [docs[0][k] for k in keys] == [docs[1][k] for k in keys]


def test_run_too_large_to_allocate_exits_2(tmp_path):
    # --s-end 1e12 asks for a time axis of 14.6 TiB; the address-space limit
    # makes that allocation fail on any host, before any memory is used
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    argv = ["-m", "hyperwave.cli", "freewave", "--d", "7", "--N", "24", "--s-end", "1e12"]
    run = _python([*argv, "--out", "fw"], tmp_path, preexec_fn=limit)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("configuration error: the run is too large to allocate: ")
    assert run.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())
