"""Command-line front end: orchestrates the verification and experiment
pipelines and emits CSV/JSON artifacts.

Subcommands: identities | freewave | spectrum | blowup | norms.  Each
command returns its summary and its checks against GATES; `main` alone
writes them to `<out>.json`, names each failed check on stderr and sets the
exit code: 0 every check passed; 1 a failed check, or a run that cannot
produce its numbers (RunError: `{error, parameters}`); 2 configuration error.
"""

import argparse
import json
import math
import operator
import os
import re
import sys
from functools import partial

import numpy as np

from . import coeffs
from .descent import direct_fd_oracle, evolve_free_wave
from .geometry import contracted_christoffel_residual
from .grids import (
    hardy_check,
    integral_op_T,
    make_grid,
    odd_state_norm,
    radial_sobolev_norm_oracle,
    weighted_sobolev_norm,
    weighted_state_norm,
)
from .halfwave import evolve_S1
from .linstab import SSC_WINDOW, assemble_L, mode_angle, riesz_projection, spectrum
from .model import make_params, symmetry_mode
from .nonlinear import (
    DEFAULT_STEP,
    NORM_ORDER,
    PerturbationSpec,
    adjust_blowup_time,
    smooth_bump,
)
from .output import format_float, write_csv, write_json


class ConfigError(Exception):
    pass


class RunError(Exception):
    """A run that cannot produce its numbers."""


# every numeric gate: check name -> (comparison, bound).  A check passes when
# `value <comparison> bound` holds, so a NaN or None value fails it; where a
# command gives a scale, the bound is relative to it.
GATES = {
    "identity": ("<", 1e-10),  # the worst coefficient identity residual
    "contracted_christoffel": ("<", 1e-8),
    "parity_table": ("<", 1e-12),
    "exponent_fit": ("<=", 0.55),  # the norms' growth exponent, d > 1
    "exponent_fit_d1": ("<=", -0.45),
    "cross_check_error": ("<", 1e-4),  # against the FD oracle at s = 1
    "mode_stable": ("==", True),  # two zeros counted and located in the window, one with Re >= 0
    "unstable_root_offset": ("<", 1e-6),  # |z - 1| of the zero with Re z >= 0
    "idempotency_defect": ("<", 1e-8),
    "mode_angle": ("<", 1e-5),
    "T_star_offset": ("<=", 0.1),  # |T* - 1|
    "omega0_fit": (">", 0.0),
    "omega0_gap_offset": ("<=", 0.2),  # |omega0 - gap|, scaled by the gap
    "control_T_star": ("==", 1.0),  # the zero-amplitude control
    "control_floor_limited": ("==", True),
    "drift": ("<", 0.1),  # the worst N-versus-2N norm-ratio drift
    "hardy": ("<=", 2.0),  # the Hardy inequality's lhs, scaled by its rhs
    "integral_op_T": ("<", 1e-10),
}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq, "odd >=": lambda value, bound: value % 2 == 1 and value >= bound}


def _check(name, value, scale=None):
    """The check {name, value, gate, passed} of `value` against its GATES entry."""
    comparison, bound = GATES[name]
    if scale is not None:
        bound = float(bound * scale)
    if isinstance(value, float):  # a numpy float prints with its type
        value = float(value)
    passed = value is not None and bool(_COMPARE[comparison](value, bound))
    return {"name": name, "value": value, "gate": f"{comparison} {bound!r}", "passed": passed}


def _load_config(path, command):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int of over 4300 digits
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    keys = _COMMANDS[command][1]
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"{command} reads no config key {key!r}; it reads {', '.join(keys)}")
        want = _OPTIONS[key][0]
        # JSON true/false load as bool, a subclass of int, and no key takes them
        fits = isinstance(value, want) or (want is float and isinstance(value, int))
        if not fits or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be {want.__name__}")
        try:  # an int for a float key is stored as the float its flag gives
            raw[key] = want(value)
        except OverflowError as exc:
            raise ConfigError(f"config key {key!r} must be {want.__name__}: {exc}") from exc
    return raw


def _merge(args):
    """Explicit CLI flags win, config file values come next, then the
    built-in defaults.  The options parse with SUPPRESS defaults, so only
    the flags given on the command line are set on `args`."""
    cfg = _load_config(args.config, args.command) if args.config else {}
    given = set(vars(args))
    defaults = {key: _OPTIONS[key][1] for key in _COMMANDS[args.command][1]}
    for key, value in {**defaults, "out": args.command, **cfg}.items():
        if key not in given:
            setattr(args, key, value)
    return args


def _check_out(prefix):
    """The nearest existing ancestor of the outputs' directory must be a
    writable directory, so that the writers can make the rest."""
    path = os.path.dirname(os.path.abspath(prefix + ".csv"))
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(f"output prefix {prefix!r}: {path} is not a writable directory")


def _dims_list(text):
    try:
        return list(dict.fromkeys(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"--dims must be a comma list of integers: {text!r}") from exc


# an overflowing R makes residuals NaN, which their checks name
@np.errstate(all="ignore")
def cmd_identities(args):
    dims = _dims_list(args.dims)
    eta = np.linspace(0.02, args.R, 100)
    rows = []
    for d in dict.fromkeys([*dims, 1]):
        res = coeffs.identity_residuals(d, eta)
        for i, r in enumerate(res):
            rows.append((d, f"identity_{i}", float(np.max(np.abs(r)))))
    # np.max, unlike max, carries a NaN residual through
    worst = float(np.max([r[2] for r in rows]))
    chris = max(
        contracted_christoffel_residual(0.1, np.array([0.8] + [0.0] * (max(dims) - 1))),
        contracted_christoffel_residual(-0.5, np.array([1.4] + [0.0] * (max(dims) - 1))),
    )
    rows.append((max(dims), "contracted_christoffel", float(chris)))
    parity_defects = []
    sample = np.linspace(0.05, args.R, 17)
    for d in dims:
        dd = max(d, 3)
        for fn, sign in (
            (coeffs.c21_fn, -1),
            (coeffs.c12_fn, +1),
            (lambda x: coeffs.c20_fn(dd, x), +1),
            (lambda x: x * coeffs.c11_fn(dd, x), +1),
            (coeffs.c1_fn, -1),
            (coeffs.c2_fn, +1),
        ):
            parity_defects.append(float(np.max(np.abs(fn(-sample) - sign * fn(sample)))))
    parity = float(np.max(parity_defects))
    rows.append((0, "parity_table", parity))
    write_csv(args.out + ".csv", ["d", "check", "max_residual"], rows)
    print(f"identities: {len(rows)} checks, worst identity residual {format_float(worst)}")
    return {}, [_check("identity", worst), _check("contracted_christoffel", float(chris)),
                _check("parity_table", parity)]


def cmd_freewave(args):
    # the weighted norms resolve the order k = (d - 1) / 2 only from N >= 8k
    n_min = 8 * ((args.d - 1) // 2)
    if args.N < n_min:
        raise ConfigError(f"freewave at d={args.d} needs N >= {n_min}, got N={args.N}")
    grid = make_grid(args.R, args.N)
    if 2 * args.s_end + 1 > np.iinfo(np.intp).max / 8:
        raise MemoryError(f"freewave at s_end={args.s_end}: more samples than an array holds")
    s_values = np.linspace(0.0, args.s_end, max(int(2 * args.s_end) + 1, 6))
    if args.d == 1:
        state = np.concatenate([grid.eta * smooth_bump(grid.eta / 0.5), np.zeros(grid.N)])
        norm, evolve = partial(odd_state_norm, grid, k=2), partial(evolve_S1, grid)
        cross_err = None
    else:
        # cross-check first, so that an R the FD oracle refuses stops the run at once;
        # on analytic data: the bump's high derivatives are not collocation-resolvable
        try:
            o1 = direct_fd_oracle(
                args.d, lambda r: np.exp(-2 * r * r), np.zeros_like, 1.0, args.R, grid.eta
            )
        except ValueError as exc:  # an FD stencil past eta = R (R too close to 1/2)
            raise ConfigError(f"{args.command}: {exc}") from exc
        eta = grid.eta
        gauss = np.concatenate([np.exp(-2 * eta * eta), np.zeros(grid.N)])
        ev = evolve_free_wave(args.d, grid, gauss, 1.0)[: grid.N]
        wgt = grid.radial_weights(args.d)
        cross_err = float(np.sqrt(np.sum((ev - o1) ** 2 * wgt) / np.sum(ev**2 * wgt)))
        state = np.concatenate([smooth_bump(eta / 0.5), -0.3 * smooth_bump(eta / 0.6)])
        norm = partial(weighted_state_norm, grid, k=(args.d - 1) // 2, d=args.d)
        evolve = partial(evolve_free_wave, args.d, grid)
    norms = [norm(state), *(norm(evolve(state, s)) for s in s_values[1:])]
    rows = [(float(s), float(nv)) for s, nv in zip(s_values, norms)]
    write_csv(args.out + ".csv", ["s", "norm"], rows)
    if np.all(np.asarray(norms) > 0.0):
        slope = float(np.polyfit(s_values, np.log(norms), 1)[0])
    else:
        slope = math.nan
        print(f"{args.command}: a norm is 0, the data vanish on the grid: no fit", file=sys.stderr)
    fit = "exponent_fit" if args.d > 1 else "exponent_fit_d1"
    checks = [_check(fit, slope)]
    if cross_err is not None:
        checks.append(_check("cross_check_error", cross_err))
    summary = {"d": args.d, "R": args.R, "N": args.N, "exponent_fit": slope,
               "bound": GATES[fit][1], "cross_check_error": cross_err}
    print(f"freewave d={args.d}: fitted exponent {format_float(slope)}, cross-check "
          f"{'n/a' if cross_err is None else format_float(cross_err)}")
    return summary, checks


def _spectrum(args):
    """(op, doc, checks) of `spectrum` and `blowup`: the linearized generator,
    its spectrum document, whose gap is minus the real part of the rightmost
    zero with Re < 0, and the two spectral checks.  A grid too coarse for
    `assemble_L` (N below the spectral minimum, or an under-resolved symmetry
    mode) is a configuration error."""
    try:
        op = assemble_L(make_params(args.d), make_grid(args.R, args.N))
    except ValueError as exc:
        raise ConfigError(f"{args.command}: {exc}") from exc
    try:
        count, roots, eigenvalues = spectrum(op)
    except ValueError as exc:
        raise RunError(f"similarity-coordinate scan failed: {exc}") from exc
    unstable = [z for z in roots if z.real >= 0.0]
    gap = next(((z, e) for z, e in zip(roots, eigenvalues) if z.real < 0.0), None)
    doc = {
        "d": op.params.d,
        "R": op.grid.R,
        "N": op.grid.N,
        "eigenvalues": [
            {"re": float(z.real), "im": float(z.imag), "stable": bool(z.real < 0.0)}
            for z in eigenvalues
        ],
        "gap": None if gap is None else float(-gap[0].real),
        "gap_collocation_error": None if gap is None else float(abs(gap[1] - gap[0])),
        "window": SSC_WINDOW,
        "ssc_count": count,
        "ssc_roots": [{"re": float(z.real), "im": float(z.imag)} for z in roots],
        # two zeros in the window, both located, and exactly one with Re >= 0
        "mode_stable": count == len(roots) == 2 and len(unstable) == 1,
    }
    checks = [
        _check("mode_stable", doc["mode_stable"]),
        _check("unstable_root_offset", abs(unstable[0] - 1.0) if unstable else None),
    ]
    return op, doc, checks


def cmd_spectrum(args):
    op, doc, checks = _spectrum(args)
    P = riesz_projection(op)
    mode = symmetry_mode(op.params, op.grid.eta).ravel()
    doc["projection"] = {
        "idempotency_defect": float(np.max(np.abs(P @ P - P))),
        "mode_fixed_defect": float(np.max(np.abs(P @ mode - mode)) / np.max(np.abs(mode))),
    }
    doc["mode_angle"] = mode_angle(op)
    checks += [
        _check("idempotency_defect", doc["projection"]["idempotency_defect"]),
        _check("mode_angle", doc["mode_angle"]),
    ]
    unstable = [format_float(z["re"]) for z in doc["ssc_roots"] if z["re"] >= 0.0]
    gap = "none" if doc["gap"] is None else format_float(doc["gap"])
    print(f"spectrum d={args.d}: unstable set {unstable}, gap {gap}")
    return doc, checks


def cmd_blowup(args):
    # the spectral checks come first: no rate is certified against an unchecked spectrum
    op, spec, checks = _spectrum(args)
    gap = spec["gap"]
    if gap is None:
        raise RunError(
            f"the connection function locates no eigenvalue with Re < 0 in its window "
            f"at d={args.d}, N={args.N}; the gap is undefined"
        )
    pert = PerturbationSpec(args.amp, eps=args.eps)
    try:
        t_star, traj, omega, residual = adjust_blowup_time(op, pert, dt=args.dt)
    except RuntimeError as exc:
        raise RunError(str(exc)) from exc
    rows = np.column_stack([traj.s, traj.norm_k, traj.norm_km1, traj.projection_coeff]).tolist()
    write_csv(args.out + ".csv", ["s", "norm_k", "norm_km1", "projection_coeff"], rows)
    summary = {
        "T_star": float(t_star),
        "omega0_fit": omega,
        "fit_residual": residual,
        "floor_limited": omega is None,
        "gap": gap,
        "parameters": {"d": args.d, "R": args.R, "N": args.N, "eps": args.eps,
                       "amplitude": args.amp, "k": NORM_ORDER},
    }
    if args.amp == 0.0:
        checks += [_check("control_T_star", t_star), _check("control_floor_limited", omega is None)]
        print(f"blowup control: T* = {t_star}, trajectory at floor")
    else:
        offset = None if omega is None else abs(omega - gap)
        checks += [
            _check("T_star_offset", abs(t_star - 1.0)),
            _check("omega0_fit", omega),
            _check("omega0_gap_offset", offset, gap),
        ]
        # no rate is fitted when the norms sink to the floor: a tiny amplitude,
        # or a perturbation whose light cone misses every hyperboloid node
        rate = "none (trajectory at floor)" if omega is None else format_float(omega)
        print(f"blowup d={args.d}: T* = {format_float(t_star)}, omega0 {rate}, "
              f"gap {format_float(gap)}")
    return summary, checks


def cmd_norms(args):
    dims = _dims_list(args.dims)
    if min(dims) < 3:
        raise ConfigError(f"norms needs dimensions >= 3, got {min(dims)}")
    rng = np.random.default_rng(args.seed)
    centers = rng.uniform(0.2, 0.8, size=3)
    widths = rng.uniform(0.5, 1.5, size=3)

    def bumps(factor):
        """r -> sum of factor(x, w) exp(-w x^2) over x = r -+ c of each bump."""

        def f(r):
            r = np.asarray(r, dtype=float)
            return sum(
                factor(r - c, w) * np.exp(-w * (r - c) ** 2)
                + factor(r + c, w) * np.exp(-w * (r + c) ** 2)
                for c, w in zip(centers, widths)
            )

        return f

    fhat = bumps(lambda x, w: 1.0)
    # its closed-form first and second derivatives, for the norm oracle
    derivs = (bumps(lambda x, w: -2.0 * w * x), bumps(lambda x, w: 4.0 * w * w * x * x - 2.0 * w))

    grid, fine = make_grid(args.R, args.N), make_grid(args.R, 2 * args.N)
    rows = []
    for d in dims:
        for k in (0, 1, 2):
            on = radial_sobolev_norm_oracle(fhat, k, d, args.R, derivs)
            # a grid on which the test functions vanish gives no ratio
            norms = [weighted_sobolev_norm(g, fhat(g.eta), k, d) for g in (grid, fine)]
            ratios = [on / n if n > 0.0 else math.nan for n in norms]
            drift = abs(ratios[1] / ratios[0] - 1.0)
            rows.append((d, k, float(ratios[0]), float(ratios[1]), float(drift)))
    # np.max, unlike max, carries a NaN drift through
    checks = [_check("drift", np.max([row[4] for row in rows]))]
    lhs, rhs = hardy_check(grid, grid.y**2, -1.0)
    checks.append(_check("hardy", lhs, rhs))
    rows.append((0, -1, float(lhs), float(rhs), float(lhs / rhs)))
    Tf = integral_op_T(grid, np.ones(2 * grid.N), 3, 3)
    t_err = float(np.max(np.abs(Tf - grid.y / 4.0)))
    checks.append(_check("integral_op_T", t_err))
    rows.append((0, -2, t_err, 0.0, 0.0))
    write_csv(args.out + ".csv", ["d", "k", "ratio_N", "ratio_2N", "drift"], rows)
    print(f"norms: {len(rows)} rows")
    return {}, checks


# every option: key -> (type, default, help, bound); the flag is the key with
# "-" for "_".  `main` refuses a float that is not finite and a value that fails
# a (comparison, bound) pair of its bound; dims' bound holds for each dimension
_ODD = (("odd >=", 1),)
_OPTIONS = {
    "d": (int, 7, "space dimension", _ODD),
    "dims": (str, "7", "comma list of space dimensions (norms: >= 3), each", _ODD),
    "R": (float, 2.0, "domain radius", ((">=", 0.5),)),
    "N": (int, 64, "radial node count", ((">=", 8),)),
    "s_end": (float, 5.0, "final hyperboloidal time", ((">", 0),)),
    "eps": (float, 0.05, "perturbation support radius", ((">", 0), ("<", 1))),
    "amp": (float, 1e-3, "perturbation amplitude", ()),
    "dt": (float, DEFAULT_STEP, f"integrating-factor RK4 step, default {DEFAULT_STEP}", ((">", 0),)),
    "seed": (int, 0, "seed of the random test functions", ((">=", 0),)),
    "out": (str, None, "output path prefix (default: the command name)", ()),
}


def _bound_text(key):
    """The bound of option `key` as its --help and its refusal state it."""
    kind, _, _, bound = _OPTIONS[key]
    return ", ".join(["finite"] * (kind is float) + [f"{c} {b!r}" for c, b in bound])


# every subcommand: name -> (function, the option keys it reads, epilog);
# it accepts those flags and config keys and no others
_COMMANDS = {
    "identities": (
        cmd_identities,
        ("dims", "R", "out"),
        "columns: d, check, max_residual; the JSON holds only its checks",
    ),
    "freewave": (
        cmd_freewave,
        ("d", "R", "N", "s_end", "out"),
        "columns: s, norm; the FD cross-check at s = 1 needs R > 1/2 (R >= 0.502 on 400 cells)",
    ),
    "spectrum": (
        cmd_spectrum,
        ("d", "R", "N", "out"),
        "JSON only: {d, R, N, ssc_count, ssc_roots: [{re, im}], eigenvalues: [{re, im, stable}], "
        "gap, gap_collocation_error, ...}; the connection function's zeros in its window, counted "
        "by the argument principle and located at its real sign changes, the nearest collocation "
        "eigenvalue to each, and gap: minus the real part of the rightmost zero with Re < 0",
    ),
    "blowup": (
        cmd_blowup,
        ("d", "R", "N", "eps", "amp", "dt", "out"),
        "columns: s, norm_k, norm_km1, projection_coeff; eps < 1: the profile blows up at "
        "t = 1; the JSON's checks start with spectrum's mode_stable and unstable_root_offset",
    ),
    "norms": (
        cmd_norms,
        ("dims", "R", "N", "seed", "out"),
        "columns: d, k, ratio_N, ratio_2N, drift (d=0 rows: Hardy / integral operator); "
        "the JSON holds only its checks",
    ),
}


# argparse reads an argument that starts with "-" as an option unless it
# matches this pattern; its own pattern misses exponent and inf/nan forms,
# so `--amp -1e-3` would fail to parse
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperwave",
        description="Numerical laboratory for radial wave equations in "
        "hyperboloidal similarity coordinates and blowup stability.",
        epilog="Floats print with 17 significant digits; outputs are written atomically; "
        "identical configuration and seed give byte-identical files at a fixed BLAS thread count; "
        "only blowup, and spectrum's collocation diagnostics from N = 108, depend on that count. "
        "Every JSON holds checks: [{name, value, gate, passed}]; exit 1 names each failed check "
        "on stderr; each option's --help states its bound, and a value outside it exits 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, keys, epilog) in _COMMANDS.items():
        # SUPPRESS leaves every flag not given unset, so `_merge` can tell
        # explicit flags from config values and defaults; without
        # abbreviations `identities --d` is an unknown flag, not `--dims`
        p = sub.add_parser(
            name, epilog=epilog, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for key in keys:
            kind, _, text, _ = _OPTIONS[key]
            bound = _bound_text(key)
            help_text = f"{text} ({bound})" if bound else text
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=help_text)
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge(args)
        func, keys, _ = _COMMANDS[args.command]
        for key in keys:
            kind, _, _, bound = _OPTIONS[key]
            for entry in _dims_list(args.dims) if key == "dims" else [getattr(args, key)]:
                finite = kind is not float or math.isfinite(entry)
                if not (finite and all(_COMPARE[c](entry, b) for c, b in bound)):
                    raise ConfigError(f"{key} must be {_bound_text(key)}, got {entry}")
        if args.command in ("spectrum", "blowup") and args.d < 7:
            raise ConfigError(f"the blowup profile needs d >= 7, got {args.d}")
        _check_out(args.out)
        summary, checks = func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid, time axis or oracle rule too large to allocate is a configuration error
        print(f"configuration error: the run is too large to allocate: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        parameters = {key: getattr(args, key) for key in keys if key != "out"}
        write_json(args.out + ".json", {"error": str(exc), "parameters": parameters})
        return 1
    write_json(args.out + ".json", {**summary, "checks": checks})
    failed = [c for c in checks if not c["passed"]]
    for c in failed:
        print(f"{args.command}: check {c['name']} failed: {c['value']!r} against {c['gate']}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
