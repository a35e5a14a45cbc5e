"""One-dimensional machinery: half-wave decomposition and its inverse,
exact characteristic evolution of the half-wave, and the rescaled wave
propagator on the odd module.

States here are odd: the stacked half-grid vector [F1; F2] of an odd
two-component function, which is where the composite descent D_3 o ... o D_d
lands the even states of d >= 3.  Their two half-waves are one function,
v-(y) = -v+(-y), so only v+ is carried, as a full-grid array on [-R, R].
"""

from functools import lru_cache

import numpy as np

from .grids import Grid
from .model import HEIGHT

__all__ = [
    "halfwave_decompose",
    "halfwave_recompose",
    "evolve_halfwave",
    "evolve_S1",
]


def halfwave_decompose(grid: Grid, v):
    """The half-wave v+ of the odd stacked state v."""
    f1, f2 = np.split(v, 2)
    y, h, dh = grid.y, HEIGHT.h(grid.y), HEIGHT.dh(grid.y)
    f1p = grid.D @ grid.extend(f1, "odd")
    return ((y - h) * f1p + (1.0 - dh) * grid.extend(f2, "odd")) / (y * dh - h)


@lru_cache(maxsize=8)
def _antiderivative_kernel(grid):
    """int_0^1 g(t eta) dt of even half-grid data g, so that
    int_0^eta g = eta times it."""
    return grid.dilation_kernels((np.ones_like,))[0]


def halfwave_recompose(grid: Grid, vp):
    """Invert the half-wave map back to an odd stacked state.  With
    v-(eta) = -v+(-eta) its integrand is even, so f1 = int_0^eta is odd."""
    eta, h, dh = grid.eta, HEIGHT.h(grid.eta), HEIGHT.dh(grid.eta)
    vp_neg, vp_pos = vp[grid.N - 1 :: -1], vp[grid.N :]  # v+(-eta), v+(eta)
    integrand = (1.0 - dh) * vp_neg + (1.0 + dh) * vp_pos
    f1 = 0.5 * eta * (_antiderivative_kernel(grid) @ integrand)
    f2 = -0.5 * ((eta - h) * vp_neg + (eta + h) * vp_pos)
    return np.concatenate([f1, f2])


def evolve_halfwave(grid: Grid, vp, ds):
    """Exact transport of v+ by ds: its values at the characteristic feet
    z+ = h+^{-1}(e^{-ds} h+(y)), read by barycentric interpolation.

    Forward evolution only: backward feet leave the grid (characteristics
    are outflowing for R >= 1/2), so feet staying inside is asserted.
    """
    if ds < 0:
        raise ValueError("the half-wave evolution is a forward semigroup (ds >= 0)")
    zp = HEIGHT.hp_inverse(np.exp(-float(ds)) * HEIGHT.hp(grid.y))
    if np.any(np.abs(zp) > grid.R + 1e-12 * grid.R):
        raise AssertionError("characteristic foot left the grid; R >= 1/2 should prevent this")
    return grid.interp_matrix(np.clip(zp, -grid.R, grid.R)) @ vp


def evolve_S1(grid: Grid, v, ds):
    """Rescaled wave propagator on the odd module: e^{-ds} A^{-1} S(ds) A."""
    out = halfwave_recompose(grid, evolve_halfwave(grid, halfwave_decompose(grid, v), ds))
    out *= np.exp(-float(ds))
    return out
