"""One-dimensional machinery: half-wave decomposition and its inverse (whose
antiderivative is one N x N dilation kernel of the grid on the even
integrand, built once per grid), exact characteristic evolution of the
half-waves, and the rescaled wave propagator on the odd module.

States here are odd: the stacked half-grid vector [F1; F2] of an odd
two-component function, which is where the composite descent D_3 o ... o D_d
lands the even states of d >= 3.  Half-wave pairs (v-, v+) are two full-grid
arrays on [-R, R] and satisfy the reflection constraint v-(-y) = -v+(y).
The transport evolution is exact: values are pulled back along
characteristics h_pm(z) = e^{-ds} h_pm(y), which for forward evolution
never leave [-R, R] once R >= 1/2.
"""

from functools import lru_cache

import numpy as np

from .grids import Grid
from .model import HEIGHT

__all__ = [
    "require_constraint",
    "halfwave_decompose",
    "halfwave_recompose",
    "evolve_halfwave",
    "evolve_S1",
]


def require_constraint(vm, vp):
    """The defect max |v-(-y) + v+(y)| of a half-wave pair, which must be
    at most 1e-10 relative to max(1, max |v-|, max |v+|)."""
    defect = float(np.max(np.abs(vm[::-1] + vp)))
    scale = max(1.0, float(np.max(np.abs(vm))), float(np.max(np.abs(vp))))
    if defect > 1e-10 * scale:
        raise ValueError(f"half-wave reflection constraint violated by {defect:.3e}")
    return defect


def halfwave_decompose(grid: Grid, v):
    """Half-waves (v-, v+) of the odd stacked state v."""
    f1, f2 = np.split(v, 2)
    y, h, dh = grid.y, HEIGHT.h(grid.y), HEIGHT.dh(grid.y)
    den = y * dh - h
    f1p = grid.D @ grid.extend(f1, "odd")
    f2 = grid.extend(f2, "odd")
    vm = ((y + h) * f1p + (1.0 + dh) * f2) / den
    vp = ((y - h) * f1p + (1.0 - dh) * f2) / den
    require_constraint(vm, vp)
    return vm, vp


@lru_cache(maxsize=8)
def _antiderivative_kernel(grid):
    """int_0^1 g(t eta) dt of even half-grid data g, so that
    int_0^eta g = eta times it."""
    return grid.dilation_kernels((np.ones_like,))[0]


def halfwave_recompose(grid: Grid, vm, vp):
    """Invert the half-wave map back to an odd stacked state."""
    require_constraint(vm, vp)
    y, h, dh = grid.y, HEIGHT.h(grid.y), HEIGHT.dh(grid.y)
    # the constraint makes the integrand even, so f1 = int_0^eta is odd
    integrand = -(1.0 - dh) * vm + (1.0 + dh) * vp
    f1 = 0.5 * grid.eta * (_antiderivative_kernel(grid) @ integrand[grid.N :])
    f2 = grid.restrict(0.5 * ((y - h) * vm - (y + h) * vp), "odd", tol=1e-9)
    return np.concatenate([f1, f2])


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


def evolve_halfwave(grid: Grid, vm, vp, ds):
    """Exact transport of a half-wave pair by ds (spectral off-grid reads)."""
    zm, zp = _pullback(grid, ds)
    return grid.interp_matrix(zm) @ vm, grid.interp_matrix(zp) @ vp


def evolve_S1(grid: Grid, v, ds):
    """Rescaled wave propagator on the odd module: e^{-ds} A^{-1} S(ds) A."""
    out = halfwave_recompose(grid, *evolve_halfwave(grid, *halfwave_decompose(grid, v), ds))
    out *= np.exp(-float(ds))
    return out
