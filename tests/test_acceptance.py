"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured figure and runtime.  Tolerances are pinned here and match
the module-level contracts.
"""

import time

import numpy as np
import pytest

from hyperwave import coeffs
from hyperwave.descent import (
    descent_full,
    descent_full_inverse,
    direct_fd_oracle,
    evolve_free_wave,
)
from hyperwave.grids import (
    hardy_check,
    integral_op_T,
    make_grid,
    odd_state_norm,
    radial_sobolev_norm_oracle,
    weighted_sobolev_norm,
    weighted_state_norm,
)
from hyperwave.halfwave import evolve_S1
from hyperwave.linstab import mode_angle
from hyperwave.model import make_params, symmetry_mode
from hyperwave.nonlinear import PerturbationSpec, adjust_blowup_time, smooth_bump

from conftest import even_state, spectrum_doc
from oracles import (
    halfwave_energy,
    halfwave_flow,
    intertwining_residual,
    jexp,
    linear_decay_fit,
)


def report(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail} [{elapsed:.1f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


SUITE = [
    (lambda x: jexp(-(x * x)), lambda x: 0.0 * x),
    (lambda x: jexp(-(x * x)), lambda x: (x * x) * jexp(-(x * x))),
    (lambda x: jexp(-0.5 * (x * x)), lambda x: jexp(-2.0 * (x * x))),
    (lambda x: (x * x) * jexp(-(x * x)), lambda x: jexp(-(x * x))),
    (lambda x: jexp(-1.5 * (x * x)), lambda x: (x * x) * jexp(-0.7 * (x * x))),
    (lambda x: jexp(-(x * x)) * (1.0 + 0.3 * (x * x)), lambda x: 0.5 * jexp(-(x * x))),
    (lambda x: (1.0 + 0.0 * x) * jexp(-0.3 * (x * x)), lambda x: -0.2 * jexp(-(x * x))),
    (lambda x: (x * x) * (x * x) * jexp(-2.0 * (x * x)), lambda x: 0.1 * jexp(-0.5 * (x * x))),
    (lambda x: jexp(-(x * x)) - 0.5 * jexp(-2.0 * (x * x)), lambda x: 0.3 * jexp(-1.2 * (x * x))),
    (lambda x: jexp(-0.8 * (x * x)), lambda x: -0.4 * (x * x) * jexp(-(x * x))),
]


def test_criterion_01_coefficient_identities():
    t0 = time.time()
    eta = np.linspace(0.02, 2.0, 100)
    worst = 0.0
    for d in (3, 5, 7, 9, 11):
        worst = max(worst, float(np.max(np.abs(coeffs.identity_residuals(d, eta)))))
    worst = max(worst, float(np.max(np.abs(coeffs.identity_residuals(1, eta)))))
    report(1, worst < 1e-10, f"seven intertwining identities, residual {worst:.2e}", t0, 5.0)


def test_criterion_02_intertwining_operator_identity(grid64):
    t0 = time.time()
    worst = 0.0
    for d in (3, 5, 7, 9):
        for f1, f2 in SUITE:
            worst = max(worst, intertwining_residual(d, f1, f2, grid64, k=1))
    report(2, worst < 1e-8, f"operator intertwining on 10-function suite, residual {worst:.2e}", t0, 30.0)


def test_criterion_03_round_trips_semigroup_fd(grid64):
    t0 = time.time()
    worst_rt = 0.0
    for d in (3, 5, 7, 9):
        for fn1, fn2 in SUITE[:5]:
            st = even_state(
                grid64,
                lambda e, f=fn1: np.asarray(f(e)) * np.ones_like(e),
                lambda e, f=fn2: np.asarray(f(e)) * np.ones_like(e),
            )
            back = descent_full_inverse(d, grid64, descent_full(d, grid64, st))
            worst_rt = max(worst_rt, np.max(np.abs(back - st)) / np.max(np.abs(st)))
    st = even_state(grid64, lambda e: np.exp(-(e**2)), lambda e: e**2 * np.exp(-(e**2)))
    one = evolve_free_wave(7, grid64, st, 0.9)
    two = evolve_free_wave(7, grid64, evolve_free_wave(7, grid64, st, 0.4), 0.5)
    sg = weighted_state_norm(grid64, one - two, 2, 7) / weighted_state_norm(grid64, st, 2, 7)
    o1 = direct_fd_oracle(5, lambda r: np.exp(-2 * r * r), lambda r: 0 * r, 1.0, 2.0, grid64.eta, m=400)
    gauss = even_state(grid64, lambda e: np.exp(-2 * e * e), lambda e: 0 * e)
    ev = evolve_free_wave(5, grid64, gauss, 1.0)[: grid64.N]
    w = grid64.w_half * grid64.eta**4
    cross = float(np.sqrt(np.sum((ev - o1) ** 2 * w) / np.sum(o1**2 * w)))
    ok = worst_rt < 1e-8 and sg < 1e-8 and cross < 1e-4
    report(
        3,
        ok,
        f"round trips {worst_rt:.2e}, semigroup law {sg:.2e}, FD cross-check {cross:.2e}",
        t0,
        120.0,
    )


def test_criterion_04_semigroup_exponents(grid64):
    t0 = time.time()
    st = even_state(grid64, lambda e: smooth_bump(e / 0.5), lambda e: -0.3 * smooth_bump(e / 0.6))
    svals = np.linspace(0.0, 5.0, 11)
    norms = [weighted_state_norm(grid64, st, 3, 7)]
    for s in svals[1:]:
        norms.append(weighted_state_norm(grid64, evolve_free_wave(7, grid64, st, s), 3, 7))
    slope_d = float(np.polyfit(svals, np.log(norms), 1)[0])
    odd = np.concatenate([grid64.eta * smooth_bump(grid64.eta / 0.5), np.zeros(grid64.N)])
    norms1 = [odd_state_norm(grid64, odd, 2)]
    for s in svals[1:]:
        norms1.append(odd_state_norm(grid64, evolve_S1(grid64, odd, s), 2))
    slope_1 = float(np.polyfit(svals, np.log(norms1), 1)[0])
    ok = slope_d <= 0.55 and slope_1 <= -0.45
    report(4, ok, f"growth exponents: S_7 {slope_d:+.3f} (<= 0.55), S_1 {slope_1:+.3f} (<= -0.45)", t0, 60.0)


def test_criterion_05_energy_monotonicity(grid64):
    t0 = time.time()
    fm = lambda y: np.exp(-5 * (y - 0.3) ** 2) - np.exp(-5 * (-y - 0.3) ** 2)
    fp = lambda y: -fm(-y)
    svals = np.linspace(0.0, 8.0, 33)
    energies = []
    for s in svals:
        vm, vp = halfwave_flow(fm, fp, s)
        energies.append(
            halfwave_energy(grid64, vp(grid64.y), +1, s)
            + halfwave_energy(grid64, vm(grid64.y), -1, s)
        )
    energies = np.array(energies)
    drift = float(np.max(np.diff(energies))) / energies[0]
    report(5, drift <= 1e-10, f"rescaled transport energy non-increasing, drift {drift:.2e}", t0, 10.0)


def test_criterion_06_mode_stability(op96, spec96, ssc7):
    t0 = time.time()
    uns = [z for z in spec96[1] if z.real >= 0.0]
    angle = mode_angle(op96)
    count, roots = ssc7
    ok = (
        len(uns) == 1
        and abs(uns[0] - 1.0) < 1e-6
        and angle < 1e-5
        and count == len(roots) == 2
        and abs(roots[0] - 1.0) < 1e-6
        and roots[1].real < 0.0
    )
    report(
        6,
        ok,
        f"unstable set {{{uns[0].real:.8f}}}, eigenvector angle {angle:.1e}, scan zero count "
        f"{count}, zero set {{{', '.join(f'{z.real:.8f}' for z in roots)}}}",
        t0,
        300.0,
    )


def test_criterion_07_riesz_projection(params7, grid96, proj96):
    t0 = time.time()
    P = proj96
    idem = float(np.max(np.abs(P @ P - P)))
    sv = np.linalg.svd(P, compute_uv=False)
    mode = symmetry_mode(params7, grid96.eta).ravel()
    fix = float(np.max(np.abs(P @ mode - mode)) / np.max(np.abs(mode)))
    ok = idem < 1e-8 and sv[1] < 1e-6 and fix < 1e-6
    report(
        7,
        ok,
        f"projection: idempotency {idem:.1e}, second singular value {sv[1]:.1e}, "
        f"mode fixed to {fix:.1e}",
        t0,
        120.0,
    )


def test_criterion_08_linear_dichotomy(grid96, op96, proj96, doc96):
    t0 = time.time()
    bump = np.exp(-4 * (grid96.eta - 0.8) ** 2)
    v = np.concatenate([bump, 0.3 * bump])
    exp_p, _ = linear_decay_fit(op96, proj96 @ v)
    exp_q, _ = linear_decay_fit(op96, v - proj96 @ v, s_values=np.linspace(2.0, 8.0, 13))
    gap = doc96["gap"]
    ok = abs(exp_p - 1.0) <= 0.02 and exp_q < 0.0 and abs(-exp_q - gap) <= 0.2 * gap
    report(
        8,
        ok,
        f"unstable exponent {exp_p:+.4f} (target +1), stable exponent {exp_q:+.4f} "
        f"vs gap {-gap:+.4f}",
        t0,
        120.0,
    )


def test_criterion_09_blowup_stability(op64):
    t0 = time.time()
    gap = spectrum_doc(64)[0]["gap"]
    t_star, _, omega, _ = adjust_blowup_time(op64, PerturbationSpec(1e-3))
    t_zero, traj_zero, omega_zero, _ = adjust_blowup_time(op64, PerturbationSpec(0.0))
    ok = (
        abs(t_star - 1.0) <= 0.1
        and omega is not None
        and omega > 0.0
        and abs(omega - gap) <= 0.2 * gap
        and t_zero == 1.0
        and omega_zero is None
        and np.max(traj_zero.norm_k + traj_zero.norm_km1) == 0.0
    )
    report(
        9,
        ok,
        f"T* = {t_star:.9f}, omega0 {omega:.4f} vs gap {gap:.4f}; "
        f"zero-amplitude control exact",
        t0,
        600.0,
    )


def test_criterion_10_norm_machinery():
    t0 = time.time()
    fhat = lambda r: np.exp(-(np.asarray(r) ** 2))
    d1 = lambda r: -2 * r * np.exp(-(r**2))
    d2 = lambda r: (4 * r**2 - 2) * np.exp(-(r**2))
    worst_drift = 0.0
    for d in (3, 5, 7):
        for k in (0, 1, 2):
            oracle = radial_sobolev_norm_oracle(fhat, k, d, 2.0, derivs=(d1, d2))
            ratios = []
            for N in (48, 96):
                g = make_grid(2.0, N)
                ratios.append(oracle / weighted_sobolev_norm(g, fhat(g.eta), k, d))
            worst_drift = max(worst_drift, abs(ratios[1] / ratios[0] - 1.0))
    g = make_grid(1.0, 48)
    lhs, rhs = hardy_check(g, g.y**2, -1.0)
    hardy_ok = lhs <= 2.0 * rhs
    Tf = integral_op_T(g, np.ones(2 * g.N), 3, 3)
    t_ok = np.max(np.abs(Tf - g.y / 4.0)) < 1e-10
    ok = worst_drift < 0.1 and hardy_ok and t_ok
    report(
        10,
        ok,
        f"norm equivalence drift {worst_drift:.2e} under N-doubling; Hardy and "
        f"integral-operator bounds hold",
        t0,
        60.0,
    )
