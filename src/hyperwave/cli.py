"""Command-line front end: orchestrates the verification and experiment
pipelines and emits CSV/JSON artifacts.

Subcommands: identities | freewave | spectrum | blowup | norms.
Exit codes: 0 ok, 1 tolerance breach, 2 configuration error.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import coeffs
from .descent import direct_fd_oracle, evolve_free_wave, fd_oracle_series
from .geometry import contracted_christoffel_residual
from .grids import (
    GridFunction,
    StateVector,
    hardy_check,
    integral_op_T,
    make_grid,
    odd_state_norm,
    radial_sobolev_norm_oracle,
    weighted_sobolev_norm,
    weighted_state_norm,
)
from .halfwave import evolve_S1
from .linstab import (
    assemble_L,
    mode_angle,
    riesz_projection,
    spectrum,
    ssc_scan_roots,
)
from .model import make_params, symmetry_mode
from .nonlinear import DEFAULT_STEP, PerturbationSpec, adjust_blowup_time, smooth_bump
from .output import format_float, write_csv, write_json

# options a config file may set: key -> (type, built-in default); `out`
# defaults to the subcommand name
_OPTIONS = {
    "d": (int, 7),
    "R": (float, 2.0),
    "N": (int, 64),
    "eps": (float, 0.05),
    "amp": (float, 1e-3),
    "s_end": (float, 5.0),
    "dt": (float, None),
    "out": (str, None),
    "dims": (str, None),
    "seed": (int, 0),
    "scan_ssc": (bool, False),
}


class ConfigError(Exception):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    for key, value in raw.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        want = _OPTIONS[key][0]
        if want is float and isinstance(value, int):
            continue
        if not isinstance(value, want):
            raise ConfigError(f"config key {key!r} must be {want.__name__}")
    return raw


def _merge(args):
    """Explicit CLI flags win, config file values come next, then the
    built-in defaults.  The options parse with SUPPRESS defaults, so only
    the flags given on the command line are set on `args`."""
    cfg = _load_config(args.config) if args.config else {}
    given = set(vars(args))
    defaults = {key: default for key, (_, default) in _OPTIONS.items()}
    for key, value in {**defaults, "out": args.command, **cfg}.items():
        if key not in given:
            setattr(args, key, value)
    return args


def _dims_list(args):
    if args.dims:
        try:
            dims = [int(x) for x in str(args.dims).split(",")]
        except ValueError as exc:
            raise ConfigError(f"--dims must be a comma list of integers: {args.dims!r}") from exc
    else:
        dims = [args.d]
    for d in dims:
        if d % 2 == 0 or d < 1:
            raise ConfigError(f"dimensions must be odd and positive, got {d}")
    return dims


def cmd_identities(args):
    dims = _dims_list(args)
    eta = np.linspace(0.02, args.R, 100)
    rows = []
    worst = 0.0
    for d in dims:
        res = coeffs.identity_residuals(d, eta)
        for i, r in enumerate(res):
            m = float(np.max(np.abs(r)))
            worst = max(worst, m)
            rows.append((d, f"identity_{i}", m))
    for d_block in (1,):
        res = coeffs.identity_residuals(d_block, eta)
        for i, r in enumerate(res):
            m = float(np.max(np.abs(r)))
            worst = max(worst, m)
            rows.append((d_block, f"identity_{i}", m))
    chris = max(
        contracted_christoffel_residual(0.1, np.array([0.8] + [0.0] * (max(dims) - 1))),
        contracted_christoffel_residual(-0.5, np.array([1.4] + [0.0] * (max(dims) - 1))),
    )
    rows.append((max(dims), "contracted_christoffel", float(chris)))
    parity_worst = 0.0
    sample = np.linspace(0.05, args.R, 17)
    for d in dims:
        c = coeffs.wave_coeffs(max(d, 3), sample)
        cm = coeffs.wave_coeffs(max(d, 3), -sample)
        for name, arr, arrm, sign in (
            ("c21_odd", c.c21, cm.c21, -1),
            ("c12_even", c.c12, cm.c12, +1),
            ("c20_even", c.c20, cm.c20, +1),
            ("eta_c11_even", sample * c.c11, -sample * cm.c11, +1),
            ("c1_odd", c.c1, cm.c1, -1),
            ("c2_even", c.c2, cm.c2, +1),
        ):
            defect = float(np.max(np.abs(arrm - sign * arr)))
            parity_worst = max(parity_worst, defect)
    rows.append((0, "parity_table", parity_worst))
    write_csv(args.out + ".csv", ["d", "check", "max_residual"], rows)
    gates = {"identity": 1e-10, "contracted_christoffel": 1e-8, "parity_table": 1e-12}
    offenders = [
        r for r in rows if r[2] >= gates["identity" if r[1].startswith("identity") else r[1]]
    ]
    for d, check, value in offenders:
        print(f"tolerance breach: d={d} {check} residual {format_float(value)}")
    print(f"identities: {len(rows)} checks, worst identity residual {format_float(worst)}")
    return 0 if not offenders else 1


def _bump_state(grid, width=0.5):
    f1 = GridFunction(grid, smooth_bump(grid.eta / width), "even")
    f2 = GridFunction(grid, -0.3 * smooth_bump(grid.eta / (1.2 * width)), "even")
    return StateVector(f1, f2)


def cmd_freewave(args):
    from scipy.interpolate import CubicSpline

    # the weighted norms resolve the order k = (d - 1) / 2 only from N >= 8k
    n_min = max(8, 8 * ((args.d - 1) // 2))
    if args.N < n_min:
        raise ConfigError(f"freewave at d={args.d} needs N >= {n_min}, got N={args.N}")
    if not args.s_end > 0.0:
        raise ConfigError(f"s_end must be positive, got {args.s_end}")
    grid = make_grid(args.R, args.N)
    s_values = np.linspace(0.0, args.s_end, max(int(2 * args.s_end) + 1, 6))
    if args.d == 1:
        odd1 = GridFunction(grid, grid.eta * smooth_bump(grid.eta / 0.5), "odd")
        odd2 = GridFunction(grid, np.zeros(grid.N), "odd")
        state = StateVector(odd1, odd2)
        norms = [odd_state_norm(state, 2)]
        for s in s_values[1:]:
            norms.append(odd_state_norm(evolve_S1(state, s), 2))
        rows = [(float(s), float(nv)) for s, nv in zip(s_values, norms)]
        write_csv(args.out + ".csv", ["s", "norm"], rows)
        cross_err = None
    else:
        k = (args.d - 1) // 2
        f1 = lambda r: smooth_bump(np.asarray(r) / 0.5)
        f2 = lambda r: -0.3 * smooth_bump(np.asarray(r) / 0.6)
        state = _bump_state(grid)
        norms = [weighted_state_norm(state, k, args.d)]
        for s in s_values[1:]:
            norms.append(weighted_state_norm(evolve_free_wave(args.d, state, s), k, args.d))
        # companion series from the upwind reference solver, measured in the
        # k = 1 norm (splined data do not support higher derivatives)
        rfd, shots = fd_oracle_series(args.d, f1, f2, s_values, args.R)
        fd_norms = []
        for v, vs in shots:
            st = StateVector(
                GridFunction(grid, CubicSpline(rfd, v)(grid.eta), "even"),
                GridFunction(grid, CubicSpline(rfd, vs)(grid.eta), "even"),
            )
            fd_norms.append(weighted_state_norm(st, 1, args.d))
        rows = [
            (float(s), float(nv), float(fv))
            for s, nv, fv in zip(s_values, norms, fd_norms)
        ]
        write_csv(args.out + ".csv", ["s", "norm", "fd_norm"], rows)
        # cross-check on analytic data: the bump's high derivatives are not
        # collocation-resolvable, the norms above are (low-mode dominated)
        gauss = StateVector(
            GridFunction.from_callable(grid, lambda e: np.exp(-2 * e * e), "even"),
            GridFunction.from_callable(grid, lambda e: np.zeros_like(e), "even"),
        )
        fd = direct_fd_oracle(
            args.d, lambda r: np.exp(-2 * r * r), lambda r: np.zeros_like(r), 1.0, args.R
        )
        ev = evolve_free_wave(args.d, gauss, 1.0)
        o1, _ = fd.eval(grid.eta)
        wgt = grid.w_half * grid.eta ** (args.d - 1)
        cross_err = float(
            np.sqrt(np.sum((ev.f1.values - o1) ** 2 * wgt) / np.sum(ev.f1.values**2 * wgt))
        )
    slope = float(np.polyfit(s_values, np.log(norms), 1)[0])
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
    """Parameters, grid and linearized generator for `spectrum` and `blowup`.

    `assemble_L` rejects a grid too coarse for spectral work (N below the
    spectral minimum, or a symmetry-mode residual showing under-resolution);
    that is a configuration error, not a tolerance breach.
    """
    params = make_params(args.d)
    try:
        grid = make_grid(args.R, args.N)
        return params, grid, assemble_L(params, grid)
    except ValueError as exc:
        raise ConfigError(f"{args.command}: {exc}") from exc


def cmd_spectrum(args):
    params, grid, op = _spectral_operator(args)
    spec = spectrum(op)
    doc = spec.to_json_dict()
    proj = riesz_projection(op)
    P = proj.matrix
    sv = np.linalg.svd(P, compute_uv=False)
    mode = symmetry_mode(params, grid.eta).ravel()
    doc["projection"] = {
        "idempotency_defect": float(np.max(np.abs(P @ P - P))),
        "second_singular_value": float(sv[1]),
        "mode_fixed_defect": float(np.max(np.abs(P @ mode - mode)) / np.max(np.abs(mode))),
    }
    doc["mode_angle"] = mode_angle(op)
    ok = (
        spec.verdict()
        and doc["projection"]["idempotency_defect"] < 1e-8
        and doc["mode_angle"] < 1e-5
    )
    if args.scan_ssc:
        roots = ssc_scan_roots(params)
        doc["ssc_roots"] = [{"re": float(z.real), "im": float(z.imag)} for z in roots]
        ok = ok and len(roots) == 1 and abs(roots[0] - 1.0) < 1e-6
    write_json(args.out + ".json", doc)
    print(
        f"spectrum d={args.d}: unstable set "
        f"{[format_float(z.real) for z in spec.unstable]}, gap {format_float(spec.gap)}"
    )
    return 0 if ok else 1


def cmd_blowup(args):
    if not args.eps > 0.0:
        raise ConfigError(f"eps must be positive, got {args.eps}")
    if args.dt is not None and not args.dt > 0.0:
        raise ConfigError(f"dt must be positive, got {args.dt}")
    params, grid, op = _spectral_operator(args)
    spec = spectrum(op)
    pert = PerturbationSpec(args.amp, eps=args.eps)
    try:
        t_star, report = adjust_blowup_time(params, pert, grid=grid, op=op, dt=args.dt)
    except RuntimeError as exc:
        print(f"blowup experiment failed: {exc}", file=sys.stderr)
        write_json(args.out + ".json", {"error": str(exc), "parameters": {"d": args.d, "amplitude": args.amp}})
        return 1
    rows = list(
        zip(
            report.s.tolist(),
            report.norm_k.tolist(),
            report.norm_km1.tolist(),
            report.projection_coeff.tolist(),
        )
    )
    write_csv(args.out + ".csv", ["s", "norm_k", "norm_km1", "projection_coeff"], rows)
    summary = {
        "T_star": float(t_star),
        "omega0_fit": report.omega_fit,
        "fit_residual": report.fit_residual,
        "floor_limited": report.floor_limited,
        "gap": spec.gap,
        "parameters": {
            "d": args.d,
            "R": args.R,
            "N": args.N,
            "eps": args.eps,
            "amplitude": args.amp,
            "k": report.k,
        },
    }
    write_json(args.out + ".json", summary)
    if args.amp == 0.0:
        ok = t_star == 1.0 and report.floor_limited
        print(f"blowup control: T* = {t_star}, trajectory at floor")
    else:
        ok = (
            abs(t_star - 1.0) <= 0.1
            and report.omega_fit is not None
            and report.omega_fit > 0.0
            and abs(report.omega_fit - spec.gap) <= 0.2 * spec.gap
        )
        print(
            f"blowup d={args.d}: T* = {format_float(t_star)}, omega0 "
            f"{format_float(report.omega_fit)}, gap {format_float(spec.gap)}"
        )
    return 0 if ok else 1


def cmd_norms(args):
    if args.N < 8:
        raise ConfigError(f"norms needs N >= 8, got N={args.N}")
    dims = _dims_list(args)
    rng = np.random.default_rng(args.seed)
    centers = rng.uniform(0.2, 0.8, size=3)
    widths = rng.uniform(0.5, 1.5, size=3)

    def fhat(r):
        r = np.asarray(r, dtype=float)
        return sum(np.exp(-w * (r - c) ** 2) + np.exp(-w * (r + c) ** 2) for c, w in zip(centers, widths))

    step = 1e-5

    def d1(r):
        return (fhat(r + step) - fhat(r - step)) / (2 * step)

    def d2(r):
        return (fhat(r + step) - 2 * fhat(r) + fhat(r - step)) / step**2

    rows = []
    ok = True
    for d in dims:
        if d < 3:
            continue
        for k in (0, 1, 2):
            ratios = []
            for N in (args.N, 2 * args.N):
                grid = make_grid(args.R, N)
                gf = GridFunction.from_callable(grid, fhat, "even")
                wn = weighted_sobolev_norm(gf, k, d)
                on = radial_sobolev_norm_oracle(fhat, k, d, args.R, derivs=(d1, d2))
                ratios.append(on / wn)
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


_CSV_DOCS = {
    "identities": "columns: d, check, max_residual",
    "freewave": "columns: s, norm[, fd_norm] (fd series measured in the k=1 norm)",
    "spectrum": "JSON only: {d, R, N, eigenvalues: [{re, im, stable}], gap, ...}",
    "blowup": "columns: s, norm_k, norm_km1, projection_coeff",
    "norms": "columns: d, k, ratio_N, ratio_2N, drift (d=0 rows: Hardy / integral operator)",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperwave",
        description="Numerical laboratory for radial wave equations in "
        "hyperboloidal similarity coordinates and blowup stability.",
        epilog="Floats print with 17 significant digits; outputs are written "
        "atomically; identical configuration and seed give byte-identical files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--d", type=int, help="odd space dimension")
        p.add_argument("--R", type=float, help="domain radius (>= 1/2)")
        p.add_argument("--N", type=int, help="radial node count")
        p.add_argument("--eps", type=float, help="perturbation support radius")
        p.add_argument("--amp", type=float, help="perturbation amplitude")
        p.add_argument("--s-end", dest="s_end", type=float)
        p.add_argument(
            "--dt",
            type=float,
            help=f"blowup: fixed integrating-factor RK4 step (default {DEFAULT_STEP})",
        )
        p.add_argument("--out", type=str, help="output path prefix")
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
        p.add_argument("--dims", type=str, help="comma list of dimensions")
        p.add_argument("--seed", type=int)
        p.add_argument("--scan-ssc", dest="scan_ssc", action="store_true")

    for name, fn in (
        ("identities", cmd_identities),
        ("freewave", cmd_freewave),
        ("spectrum", cmd_spectrum),
        ("blowup", cmd_blowup),
        ("norms", cmd_norms),
    ):
        # SUPPRESS leaves every flag not given unset, so `_merge` can tell
        # explicit flags from config values and defaults
        p = sub.add_parser(name, epilog=_CSV_DOCS[name], argument_default=argparse.SUPPRESS)
        add_common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge(args)
        for key, (kind, _) in _OPTIONS.items():
            value = getattr(args, key)
            if kind is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if args.d % 2 == 0 or args.d < 1:
            raise ConfigError(f"dimension must be odd and positive, got {args.d}")
        if args.command in ("spectrum", "blowup") and args.d < 7:
            raise ConfigError(f"the blowup profile needs d >= 7, got {args.d}")
        if not args.R >= 0.5:
            raise ConfigError(f"R must be >= 1/2, got {args.R}")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
