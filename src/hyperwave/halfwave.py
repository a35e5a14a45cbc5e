"""One-dimensional machinery: half-wave decomposition and its inverse (whose
antiderivative is one N x N dilation kernel of the grid on the even
integrand, built once per grid), exact characteristic evolution of the
half-waves, and the rescaled wave propagator on the odd module.

Half-wave pairs (v-, v+) live on the full [-R, R] grid and satisfy the
reflection constraint v-(-y) = -v+(y).  The transport evolution is exact:
values are pulled back along characteristics h_pm(z) = e^{-ds} h_pm(y),
which for forward evolution never leave [-R, R] once R >= 1/2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import Grid, GridFunction, StateVector
from .model import HEIGHT

__all__ = [
    "HalfWaveState",
    "halfwave_decompose",
    "halfwave_recompose",
    "evolve_halfwave",
    "evolve_S1",
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


@lru_cache(maxsize=8)
def _antiderivative_kernel(grid):
    """int_0^1 g(t eta) dt of even half-grid data g, so that
    int_0^eta g = eta times it."""
    return grid.dilation_kernels((np.ones_like,))[0]


def halfwave_recompose(w: HalfWaveState) -> StateVector:
    """Invert the half-wave map back to an odd state."""
    w.require_constraint()
    grid = w.grid
    y = grid.y
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    # the constraint makes the integrand even, so f1 = int_0^eta is odd
    integrand = -(1.0 - dh) * w.vm + (1.0 + dh) * w.vp
    f1 = 0.5 * grid.eta * (_antiderivative_kernel(grid) @ integrand[grid.N :])
    f2_full = 0.5 * ((y - h) * w.vm - (y + h) * w.vp)
    return StateVector(
        GridFunction(grid, f1, "odd"),
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


def evolve_S1(state: StateVector, ds) -> StateVector:
    """Rescaled wave propagator on the odd module: e^{-ds} A^{-1} S(ds) A."""
    w = evolve_halfwave(halfwave_decompose(state), ds)
    out = halfwave_recompose(w)
    scale = np.exp(-float(ds))
    out.f1.values *= scale
    out.f2.values *= scale
    return out
