"""In-memory span tracer for the traced benchmark run.

`install` wraps the functions listed in SPANS and COUNTERS after
`hyperwave.cli` has been imported. It replaces the attribute on the owning
module or class and every name another `hyperwave` module bound to the same
function object, so calls through `from x import f` are traced as well.
Nothing in the package changes.

A span records (name, parent span index, start, end, outcome); spans stay in
memory until `Tracer.dump`. Functions called hundreds of thousands of times
get a counter instead of a span: a call count and the summed busy time,
which stays inside the self time of the enclosing span.

`summarize` turns the span list into per-name calls, busy time (outermost
spans of that name only) and self time (busy time minus the time covered by
child spans). Stdlib only: the benchmark parent imports this module too.
"""

import functools
import json
import os
import sys
import time

# metric prefix -> functions wrapped by a span, as "module:qualname"
SPANS = {
    "cli.main": ["hyperwave.cli:main"],
    "nonlinear.adjust_blowup_time": ["hyperwave.nonlinear:adjust_blowup_time"],
    "nonlinear.cauchy_tr_solver": ["hyperwave.nonlinear:cauchy_tr_solver"],
    "nonlinear.initial_data_operator": ["hyperwave.nonlinear:initial_data_operator"],
    "nonlinear.evolve_nonlinear": ["hyperwave.nonlinear:evolve_nonlinear"],
    "linstab.assemble_L": ["hyperwave.linstab:assemble_L"],
    "linstab.spectrum": ["hyperwave.linstab:spectrum"],
    "linstab.mode_angle": ["hyperwave.linstab:mode_angle"],
    "linstab.riesz_projection": ["hyperwave.linstab:riesz_projection"],
    "linstab.ssc_scan_roots": ["hyperwave.linstab:ssc_scan_roots"],
    "linstab.ssc_mode_scan": ["hyperwave.linstab:ssc_mode_scan"],
    # dense eigen-decompositions called from hyperwave code
    "linstab.eig": [
        "numpy.linalg:eig",
        "numpy.linalg:eigvals",
        "scipy.linalg:eig",
        "scipy.linalg:eigvals",
    ],
    "descent.fd_oracle_series": ["hyperwave.descent:fd_oracle_series"],
    "descent.direct_fd_oracle": ["hyperwave.descent:direct_fd_oracle"],
    "descent.descent_full": ["hyperwave.descent:descent_full"],
    "descent.descent_full_inverse": ["hyperwave.descent:descent_full_inverse"],
    "descent.evolve_free_wave": ["hyperwave.descent:evolve_free_wave"],
    "halfwave.evolve_S1": ["hyperwave.halfwave:evolve_S1"],
    "grids.make_grid": ["hyperwave.grids:make_grid"],
    "grids.weighted_sobolev_norm": ["hyperwave.grids:weighted_sobolev_norm"],
    "grids.Grid.interp_matrix": ["hyperwave.grids:Grid.interp_matrix"],
    "output.write": ["hyperwave.output:write_csv", "hyperwave.output:write_json"],
}

# metric prefix -> (functions counted without a span, span the call must be
# directly inside, or None for anywhere)
COUNTERS = {
    "model.nonlinearity_scalar": (["hyperwave.model:nonlinearity_scalar"], None),
    "linstab.resolvent_solves": (
        ["numpy.linalg:solve", "scipy.linalg:solve"],
        "linstab.riesz_projection",
    ),
}


def _outcome_unstable(args, result):
    return 1.0 if getattr(result, "unstable", False) else 0.0


def _outcome_bytes(args, result):
    return float(os.path.getsize(args[0]))


# span name -> f(args, result) -> number summed into the span's outcome
OUTCOMES = {
    "nonlinear.evolve_nonlinear": _outcome_unstable,
    "output.write": _outcome_bytes,
}


def _called_from_hyperwave(frame):
    return frame.f_globals.get("__name__", "").startswith("hyperwave")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, outcome]
        self.counters = {}  # name -> [calls, busy seconds]
        self._stack = []

    def span(self, name, fn, foreign=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if foreign and not _called_from_hyperwave(sys._getframe(1)):
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    rec[4] = outcome(args, result)
                return result
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def counter(self, name, fn, foreign=False, inside=None):
        cell = self.counters.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (foreign and not _called_from_hyperwave(sys._getframe(1))) or (
                inside is not None and not (stack and spans[stack[-1]][0] == inside)
            ):
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - t0

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _patch(target, make):
    """Replace `module:qualname` and every hyperwave alias of it by
    make(original, foreign). Targets whose module is not loaded, or that the
    module no longer defines, are skipped."""
    module_name, qualname = target.split(":")
    owner = sys.modules.get(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    if original is None:
        return
    wrapped = make(original, not module_name.startswith("hyperwave"))
    setattr(owner, attr, wrapped)
    for name, module in list(sys.modules.items()):
        if name.startswith("hyperwave") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def install(tracer):
    for name, targets in SPANS.items():
        for target in targets:
            _patch(target, lambda fn, foreign, name=name: tracer.span(name, fn, foreign))
    for name, (targets, inside) in COUNTERS.items():
        for target in targets:
            _patch(
                target,
                lambda fn, foreign, name=name, inside=inside: tracer.counter(
                    name, fn, foreign, inside
                ),
            )


def summarize(spans):
    """Per span name: calls, busy_s, self_s and the summed outcome.

    busy_s counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice; self_s is each span's duration minus
    the durations of its direct children.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, parent, start, end, outcome) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "outcome": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - covered[i]
        s["outcome"] += outcome
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            s["busy_s"] += end - start
    return out
