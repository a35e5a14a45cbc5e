"""One-dimensional machinery: half-wave decomposition, the transport vector
fields, exact characteristic evolution of the half-waves, and the rescaled
wave propagator on the odd module.

Half-wave pairs (v-, v+) live on the full [-R, R] grid and satisfy the
reflection constraint v-(-y) = -v+(y).  The transport evolution is exact:
values are pulled back along characteristics h_pm(z) = e^{-ds} h_pm(y),
which for forward evolution never leave [-R, R] once R >= 1/2.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, StateVector, hpm_inner
from .model import HEIGHT
from .stepping import rk4

__all__ = [
    "HalfWaveState",
    "apply_L_pm",
    "apply_D_pm",
    "halfwave_decompose",
    "halfwave_recompose",
    "evolve_halfwave",
    "evolve_halfwave_mol",
    "halfwave_flow",
    "evolve_S1",
    "halfwave_energy",
    "halfwave_norm",
    "transport_pde_residual",
    "mode_halfwave",
    "dalembert_oracle",
    "dalembert_state",
]


@dataclass
class HalfWaveState:
    """Pair of half-wave grid functions with the reflection constraint."""

    grid: Grid
    vm: np.ndarray
    vp: np.ndarray

    def __post_init__(self):
        self.vm = np.asarray(self.vm, dtype=float)
        self.vp = np.asarray(self.vp, dtype=float)
        n = 2 * self.grid.N
        if self.vm.shape != (n,) or self.vp.shape != (n,):
            raise ValueError("half-wave components must be full-grid arrays")

    def constraint_defect(self):
        return float(np.max(np.abs(self.vm[::-1] + self.vp)))

    def require_constraint(self):
        defect = self.constraint_defect()
        scale = max(1.0, float(np.max(np.abs(self.vm))), float(np.max(np.abs(self.vp))))
        if defect > 1e-10 * scale:
            raise ValueError(f"half-wave reflection constraint violated by {defect:.3e}")
        return self


def apply_L_pm(grid: Grid, f_full, sign):
    """Transport vector field L_pm f = -(y pm h)/(1 pm h') f'."""
    f = np.asarray(f_full, dtype=float)
    y = grid.y
    s = float(sign)
    return -(y + s * HEIGHT.h(y)) / (1.0 + s * HEIGHT.dh(y)) * (grid.D @ f)


def apply_D_pm(grid: Grid, f_full, sign):
    """Commuting vector field D_pm f = f'/(1 pm h')."""
    f = np.asarray(f_full, dtype=float)
    return (grid.D @ f) / (1.0 + float(sign) * HEIGHT.dh(grid.y))


def halfwave_decompose(state: StateVector) -> HalfWaveState:
    """Form half-waves from an odd two-component state."""
    if state.f1.parity != "odd" or state.f2.parity != "odd":
        raise ValueError("half-wave decomposition acts on odd states")
    grid = state.grid
    y = grid.y
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    den = y * dh - h
    f1p = grid.D @ state.f1.full()
    f2 = state.f2.full()
    vm = ((y + h) * f1p + (1.0 + dh) * f2) / den
    vp = ((y - h) * f1p + (1.0 - dh) * f2) / den
    return HalfWaveState(grid, vm, vp).require_constraint()


def halfwave_recompose(w: HalfWaveState) -> StateVector:
    """Invert the half-wave map back to an odd state."""
    w.require_constraint()
    grid = w.grid
    y = grid.y
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    integrand = -(1.0 - dh) * w.vm + (1.0 + dh) * w.vp
    f1_full = 0.5 * grid.antiderivative(integrand)
    f2_full = 0.5 * ((y - h) * w.vm - (y + h) * w.vp)
    return StateVector(
        GridFunction.from_full(grid, f1_full, "odd", tol=1e-9),
        GridFunction.from_full(grid, f2_full, "odd", tol=1e-9),
    )


def _pullback(grid: Grid, ds):
    """Characteristic feet z_pm at time s for data at time s - ds.

    Forward evolution only: backward feet leave the grid (characteristics
    are outflowing for R >= 1/2), so interior feet staying inside is an
    asserted property rather than an extension fallback.
    """
    if ds < 0:
        raise ValueError("the half-wave evolution is a forward semigroup (ds >= 0)")
    shrink = np.exp(-float(ds))
    zp = HEIGHT.hp_inverse(shrink * HEIGHT.hp(grid.y))
    zm = HEIGHT.hm_inverse(shrink * HEIGHT.hm(grid.y))
    pad = 1e-12 * grid.R
    if np.any(np.abs(zp) > grid.R + pad) or np.any(np.abs(zm) > grid.R + pad):
        raise AssertionError("characteristic foot left the grid; R >= 1/2 should prevent this")
    lim = grid.R
    return np.clip(zm, -lim, lim), np.clip(zp, -lim, lim)


def evolve_halfwave(w: HalfWaveState, ds) -> HalfWaveState:
    """Exact transport of a half-wave state by ds (spectral off-grid reads)."""
    zm, zp = _pullback(w.grid, ds)
    return HalfWaveState(w.grid, w.grid.interpolate(w.vm, zm), w.grid.interpolate(w.vp, zp))


def evolve_halfwave_mol(w: HalfWaveState, ds, dt=1e-3):
    """Method-of-lines RK4 integration of the transport fields.

    Exists solely as an independent oracle for the exact characteristic
    evolution; the production path has no step-size constraint.
    """
    if ds < 0:
        raise ValueError("the half-wave evolution is a forward semigroup (ds >= 0)")
    grid = w.grid
    n = 2 * grid.N
    nsteps = max(int(np.ceil(ds / dt)), 1)

    def rhs(x):
        return np.concatenate(
            [apply_L_pm(grid, x[:n], -1), apply_L_pm(grid, x[n:], +1)]
        )

    x = rk4(rhs, np.concatenate([w.vm, w.vp]), ds / nsteps, nsteps)
    return HalfWaveState(grid, x[:n], x[n:])


def halfwave_flow(fm, fp, ds):
    """Exact transport acting on callables; returns evaluators at time ds."""
    shrink = np.exp(-float(ds))

    def vm(y):
        return fm(HEIGHT.hm_inverse(shrink * HEIGHT.hm(np.asarray(y, dtype=float))))

    def vp(y):
        return fp(HEIGHT.hp_inverse(shrink * HEIGHT.hp(np.asarray(y, dtype=float))))

    return vm, vp


def evolve_S1(state: StateVector, ds) -> StateVector:
    """Rescaled wave propagator on the odd module: e^{-ds} A^{-1} S(ds) A."""
    w = evolve_halfwave(halfwave_decompose(state), ds)
    out = halfwave_recompose(w)
    scale = np.exp(-float(ds))
    out.f1.values *= scale
    out.f2.values *= scale
    return out


def halfwave_energy(w: HalfWaveState, sign, s=0.0):
    """Rescaled transport energy e^{-s} (v_pm | v_pm)_{h_pm'}."""
    v = w.vp if sign > 0 else w.vm
    return float(np.exp(-s) * hpm_inner(w.grid, v, v, sign))


def halfwave_norm(w: HalfWaveState, k):
    """Sum over j <= k-1 of the weighted L^2 norms of D_pm^j v_pm."""
    total = 0.0
    gm, gp = w.vm.copy(), w.vp.copy()
    for _ in range(k):
        total += np.sqrt(max(hpm_inner(w.grid, gm, gm, -1), 0.0))
        total += np.sqrt(max(hpm_inner(w.grid, gp, gp, +1), 0.0))
        gm = apply_D_pm(w.grid, gm, -1)
        gp = apply_D_pm(w.grid, gp, +1)
    return float(total)


def transport_pde_residual(w0: HalfWaveState, ds=0.5):
    """Residual of (1 pm h') d_s v + (y pm h) d_y v = 0 along the evolution,
    with the s-derivative taken by central differences.  Validates the sign
    and exponent convention of the characteristic pull-back."""
    grid = w0.grid
    step = 1e-4
    plus = evolve_halfwave(w0, ds + step)
    minus = evolve_halfwave(w0, ds - step)
    mid = evolve_halfwave(w0, ds)
    y = grid.y
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    res = 0.0
    for sign, vdot, v in (
        (-1.0, (plus.vm - minus.vm) / (2 * step), mid.vm),
        (+1.0, (plus.vp - minus.vp) / (2 * step), mid.vp),
    ):
        r = (1.0 + sign * dh) * vdot + (y + sign * h) * (grid.D @ v)
        res = max(res, float(np.max(np.abs(r))))
    return res


def mode_halfwave(lam):
    """Separated-solution data |h_pm|^(-lam) with the reflection constraint."""

    def fm(y):
        return np.abs(HEIGHT.hm(np.asarray(y, dtype=float))) ** (-lam)

    def fp(y):
        return -np.abs(HEIGHT.hp(np.asarray(y, dtype=float))) ** (-lam)

    return fm, fp


# ----------------------------------------------------------------------
# d'Alembert oracle


def _default_primitive(gfun):
    from numpy.polynomial.legendre import leggauss

    tq, wq = leggauss(48)

    def prim(b):
        b = np.asarray(b, dtype=float)
        half = 0.5 * b
        pts = half[..., None] * (tq + 1.0)
        return np.sum(gfun(pts) * wq, axis=-1) * half

    return prim


def dalembert_oracle(f, g, T, s, y, g_primitive=None):
    """Exact 1-d wave solution with odd data (f, g), evaluated along the
    similarity coordinates: u(t, x) with (t, x) = eta_T(s, y)."""
    y = np.asarray(y, dtype=float)
    t = T + np.exp(-s) * HEIGHT.h(y)
    x = np.exp(-s) * y
    prim = g_primitive if g_primitive is not None else _default_primitive(g)
    return 0.5 * (f(x + t) + f(x - t)) + 0.5 * (prim(x + t) - prim(x - t))


def dalembert_state(grid: Grid, f, df, g, T, s):
    """Exact odd state (v, d_s v) of the 1-d wave at hyperboloidal time s."""
    y = grid.y
    es = np.exp(-s)
    t = T + es * HEIGHT.h(y)
    x = es * y
    v = dalembert_oracle(f, g, T, s, y)
    ut = 0.5 * (df(x + t) - df(x - t)) + 0.5 * (g(x + t) + g(x - t))
    ux = 0.5 * (df(x + t) + df(x - t)) + 0.5 * (g(x + t) - g(x - t))
    vs = -es * (HEIGHT.h(y) * ut + y * ux)
    return StateVector(
        GridFunction.from_full(grid, v, "odd", tol=1e-9),
        GridFunction.from_full(grid, vs, "odd", tol=1e-9),
    )
