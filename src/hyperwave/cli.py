"""Command-line front end: orchestrates the verification and experiment
pipelines and emits CSV/JSON artifacts.

Subcommands: identities | freewave | spectrum | blowup | norms.
Exit codes: 0 ok, 1 tolerance breach, 2 configuration error.
"""

import argparse
import json
import math
import os
import re
import sys

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
from .linstab import assemble_L, mode_angle, riesz_projection, spectrum
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


def _load_config(path, command):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _dims_list(args):
    try:
        dims = [int(x) for x in args.dims.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--dims must be a comma list of integers: {args.dims!r}") from exc
    for d in dims:
        if d % 2 == 0 or d < 1:
            raise ConfigError(f"dimensions must be odd and positive, got {d}")
    return list(dict.fromkeys(dims))


def cmd_identities(args):
    dims = _dims_list(args)
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
    rows.append((0, "parity_table", float(np.max(parity_defects))))
    write_csv(args.out + ".csv", ["d", "check", "max_residual"], rows)
    gates = {"identity": 1e-10, "contracted_christoffel": 1e-8, "parity_table": 1e-12}
    # a residual passes only below its gate, so a NaN residual is a breach
    offenders = [
        r for r in rows if not r[2] < gates["identity" if r[1].startswith("identity") else r[1]]
    ]
    for d, check, value in offenders:
        print(f"tolerance breach: d={d} {check} residual {format_float(value)}")
    print(f"identities: {len(rows)} checks, worst identity residual {format_float(worst)}")
    return 0 if not offenders else 1


def cmd_freewave(args):
    # the weighted norms resolve the order k = (d - 1) / 2 only from N >= 8k
    n_min = max(8, 8 * ((args.d - 1) // 2))
    if args.N < n_min:
        raise ConfigError(f"freewave at d={args.d} needs N >= {n_min}, got N={args.N}")
    if not args.s_end > 0.0:
        raise ConfigError(f"s_end must be positive, got {args.s_end}")
    grid = make_grid(args.R, args.N)
    s_values = np.linspace(0.0, args.s_end, max(int(2 * args.s_end) + 1, 6))
    if args.d == 1:
        state = np.concatenate([grid.eta * smooth_bump(grid.eta / 0.5), np.zeros(grid.N)])
        norms = [odd_state_norm(grid, state, 2)]
        for s in s_values[1:]:
            norms.append(odd_state_norm(grid, evolve_S1(grid, state, s), 2))
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
        k = (args.d - 1) // 2
        state = np.concatenate([smooth_bump(eta / 0.5), -0.3 * smooth_bump(eta / 0.6)])
        norms = [weighted_state_norm(grid, state, k, args.d)]
        for s in s_values[1:]:
            norms.append(
                weighted_state_norm(grid, evolve_free_wave(args.d, grid, state, s), k, args.d)
            )
    rows = [(float(s), float(nv)) for s, nv in zip(s_values, norms)]
    write_csv(args.out + ".csv", ["s", "norm"], rows)
    if np.all(np.asarray(norms) > 0.0):
        slope = float(np.polyfit(s_values, np.log(norms), 1)[0])
    else:
        slope = math.nan
        print(f"{args.command}: a norm is 0, the data vanish on the grid: no fit", file=sys.stderr)
    summary = {
        "d": args.d,
        "R": args.R,
        "N": args.N,
        "exponent_fit": slope,
        "bound": 0.55 if args.d > 1 else -0.45,
        "cross_check_error": cross_err,
    }
    write_json(args.out + ".json", summary)
    ok = slope <= summary["bound"] and (cross_err is None or cross_err < 1e-4)
    print(f"freewave d={args.d}: fitted exponent {format_float(slope)}, cross-check "
          f"{'n/a' if cross_err is None else format_float(cross_err)}")
    return 0 if ok else 1


def _spectral_operator(args):
    """The linearized generator (with its parameters and grid) for
    `spectrum` and `blowup`.

    `assemble_L` rejects a grid too coarse for spectral work (N below the
    spectral minimum, or a symmetry-mode residual showing under-resolution);
    that is a configuration error, not a tolerance breach.
    """
    params = make_params(args.d)
    try:
        return assemble_L(params, make_grid(args.R, args.N))
    except ValueError as exc:
        raise ConfigError(f"{args.command}: {exc}") from exc


def _missing_gap(args):
    """The error of a spectrum whose scan locates no eigenvalue besides 1,
    so that it has no gap."""
    return (
        f"the connection function locates no eigenvalue besides 1 in its window "
        f"at d={args.d}, N={args.N}; the gap is undefined"
    )


def _scanned_spectrum(args, op, failure):
    """spectrum(op), or None once a failed similarity-coordinate scan is
    reported in one stderr line and an `error` JSON with `failure`."""
    try:
        return spectrum(op)
    except ValueError as exc:
        message = f"similarity-coordinate scan failed: {exc}"
        print(f"{args.command}: {message}", file=sys.stderr)
        write_json(args.out + ".json", {"error": message, **failure})
        return None


def cmd_spectrum(args):
    op = _spectral_operator(args)
    spec = _scanned_spectrum(args, op, {"parameters": {"d": args.d, "R": args.R, "N": args.N}})
    if spec is None:
        return 1
    if spec.gap is None:
        print(f"{args.command}: {_missing_gap(args)}", file=sys.stderr)
    doc = spec.to_json_dict()
    P = riesz_projection(op)
    mode = symmetry_mode(op.params, op.grid.eta).ravel()
    doc["projection"] = {
        "idempotency_defect": float(np.max(np.abs(P @ P - P))),
        "mode_fixed_defect": float(np.max(np.abs(P @ mode - mode)) / np.max(np.abs(mode))),
    }
    doc["mode_angle"] = mode_angle(op)
    ok = (
        spec.verdict()
        and doc["projection"]["idempotency_defect"] < 1e-8
        and doc["mode_angle"] < 1e-5
    )
    write_json(args.out + ".json", doc)
    print(
        f"spectrum d={args.d}: unstable set "
        f"{[format_float(z.real) for z in spec.unstable]}, gap "
        f"{'none' if spec.gap is None else format_float(spec.gap)}"
    )
    return 0 if ok else 1


def cmd_blowup(args):
    if not args.eps > 0.0:
        raise ConfigError(f"eps must be positive, got {args.eps}")
    if not args.dt > 0.0:
        raise ConfigError(f"dt must be positive, got {args.dt}")
    op = _spectral_operator(args)
    failure = {"parameters": {"d": args.d, "amplitude": args.amp}}
    spec = _scanned_spectrum(args, op, failure)
    if spec is None:
        return 1
    if spec.gap is None:
        print(f"{args.command}: {_missing_gap(args)}", file=sys.stderr)
        write_json(args.out + ".json", {"error": _missing_gap(args), **failure})
        return 1
    pert = PerturbationSpec(args.amp, eps=args.eps)
    try:
        t_star, traj, omega, residual = adjust_blowup_time(op, pert, dt=args.dt)
    except RuntimeError as exc:
        print(f"blowup experiment failed: {exc}", file=sys.stderr)
        write_json(args.out + ".json", {"error": str(exc), **failure})
        return 1
    rows = list(
        zip(
            traj.s.tolist(),
            traj.norm_k.tolist(),
            traj.norm_km1.tolist(),
            traj.projection_coeff.tolist(),
        )
    )
    write_csv(args.out + ".csv", ["s", "norm_k", "norm_km1", "projection_coeff"], rows)
    summary = {
        "T_star": float(t_star),
        "omega0_fit": omega,
        "fit_residual": residual,
        "floor_limited": omega is None,
        "gap": spec.gap,
        "parameters": {
            "d": args.d,
            "R": args.R,
            "N": args.N,
            "eps": args.eps,
            "amplitude": args.amp,
            "k": NORM_ORDER,
        },
    }
    write_json(args.out + ".json", summary)
    if args.amp == 0.0:
        ok = t_star == 1.0 and omega is None
        print(f"blowup control: T* = {t_star}, trajectory at floor")
    else:
        ok = (
            abs(t_star - 1.0) <= 0.1
            and omega is not None
            and omega > 0.0
            and abs(omega - spec.gap) <= 0.2 * spec.gap
        )
        # no rate is fitted when the norms sink to the floor: a tiny amplitude,
        # or a perturbation whose light cone misses every hyperboloid node
        rate = "none (trajectory at floor)" if omega is None else format_float(omega)
        print(
            f"blowup d={args.d}: T* = {format_float(t_star)}, omega0 "
            f"{rate}, gap {format_float(spec.gap)}"
        )
    return 0 if ok else 1


def cmd_norms(args):
    if args.N < 8:
        raise ConfigError(f"norms needs N >= 8, got N={args.N}")
    dims = _dims_list(args)
    if min(dims) < 3:
        raise ConfigError(f"norms needs dimensions >= 3, got {min(dims)}")
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
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

    rows = []
    ok = True
    for d in dims:
        for k in (0, 1, 2):
            on = radial_sobolev_norm_oracle(fhat, k, d, args.R, derivs)
            ratios = []
            for N in (args.N, 2 * args.N):
                grid = make_grid(args.R, N)
                ratios.append(on / weighted_sobolev_norm(grid, fhat(grid.eta), k, d))
            drift = abs(ratios[1] / ratios[0] - 1.0)
            ok = ok and drift < 0.1
            rows.append((d, k, float(ratios[0]), float(ratios[1]), float(drift)))
    grid = make_grid(args.R, args.N)
    lhs, rhs = hardy_check(grid, grid.y**2, -1.0)
    ok = ok and lhs <= 2.0 * rhs
    rows.append((0, -1, float(lhs), float(rhs), float(lhs / rhs)))
    Tf = integral_op_T(grid, np.ones(2 * grid.N), 3, 3)
    t_err = float(np.max(np.abs(Tf - grid.y / 4.0)))
    ok = ok and t_err < 1e-10
    rows.append((0, -2, t_err, 0.0, 0.0))
    write_csv(args.out + ".csv", ["d", "k", "ratio_N", "ratio_2N", "drift"], rows)
    print(f"norms: {len(rows)} rows, stable: {ok}")
    return 0 if ok else 1


# every option: key -> (type, default, help); the flag is the key with "-"
# for "_"
_OPTIONS = {
    "d": (int, 7, "odd space dimension"),
    "dims": (str, "7", "comma list of odd dimensions (norms: d >= 3)"),
    "R": (float, 2.0, "domain radius (>= 1/2)"),
    "N": (int, 64, "radial node count"),
    "s_end": (float, 5.0, "final hyperboloidal time"),
    "eps": (float, 0.05, "perturbation support radius"),
    "amp": (float, 1e-3, "perturbation amplitude"),
    "dt": (float, DEFAULT_STEP, f"fixed integrating-factor RK4 step (default {DEFAULT_STEP})"),
    "seed": (int, 0, "seed of the random test functions"),
    "out": (str, None, "output path prefix (default: the command name)"),
}

# every subcommand: name -> (function, the option keys it reads, epilog);
# it accepts those flags and config keys and no others
_COMMANDS = {
    "identities": (cmd_identities, ("dims", "R", "out"), "columns: d, check, max_residual"),
    "freewave": (
        cmd_freewave,
        ("d", "R", "N", "s_end", "out"),
        "columns: s, norm; the FD cross-check at s = 1 needs R > 1/2 (R >= 0.502 on 400 cells)",
    ),
    "spectrum": (
        cmd_spectrum,
        ("d", "R", "N", "out"),
        "JSON only: {d, R, N, ssc_count, ssc_roots: [{re, im}], eigenvalues: [{re, im, stable}], "
        "gap, gap_collocation_error, ...}; the connection function's zeros in its window, "
        "counted by the argument principle and located at its sign changes on the real axis, "
        "and the collocation eigenvalue nearest each",
    ),
    "blowup": (
        cmd_blowup,
        ("d", "R", "N", "eps", "amp", "dt", "out"),
        "columns: s, norm_k, norm_km1, projection_coeff",
    ),
    "norms": (
        cmd_norms,
        ("dims", "R", "N", "seed", "out"),
        "columns: d, k, ratio_N, ratio_2N, drift (d=0 rows: Hardy / integral operator)",
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
        "only blowup, and spectrum's collocation diagnostics from N = 108, depend on that count.",
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
            kind, _, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text)
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge(args)
        func, keys, _ = _COMMANDS[args.command]
        for key in keys:
            value = getattr(args, key)
            if _OPTIONS[key][0] is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if "d" in keys and (args.d % 2 == 0 or args.d < 1):
            raise ConfigError(f"dimension must be odd and positive, got {args.d}")
        if args.command in ("spectrum", "blowup") and args.d < 7:
            raise ConfigError(f"the blowup profile needs d >= 7, got {args.d}")
        if not args.R >= 0.5:
            raise ConfigError(f"R must be >= 1/2, got {args.R}")
        _check_out(args.out)
        return func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid or time axis too large to allocate is a configuration error
        print(f"configuration error: the run is too large to allocate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
