"""Spectral collocation infrastructure: Chebyshev-Lobatto grids on [-R, R]
symmetrised to radial half-grids, differentiation and quadrature, barycentric
interpolation, spectral antiderivatives, the weighted radial Sobolev norms,
and the extension / Hardy / integral-operator test utilities.

The full grid deliberately contains an even number of nodes so that eta = 0
is never a collocation point; all coefficient functions with 1/eta poles can
then be evaluated directly.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.fft import dct
from numpy.polynomial.legendre import leggauss

from .model import HEIGHT

__all__ = [
    "Grid",
    "make_grid",
    "GridFunction",
    "StateVector",
    "weighted_sobolev_norm",
    "sobolev_norm_full",
    "weighted_state_norm",
    "odd_state_norm",
    "radial_sobolev_norm_oracle",
    "hpm_inner",
    "extension_operator",
    "extension_eval",
    "smooth_cutoff",
    "hardy_check",
    "integral_op_T",
]


def _chebdif(M):
    """Nodes (descending) and first-derivative matrix on [-1, 1] with M+1
    Chebyshev-Lobatto points, using the trig-identity and flipping tricks
    plus the negative-sum diagonal for roundoff control."""
    k = np.arange(M + 1)
    th = k * np.pi / M
    x = np.sin(np.pi * (M - 2 * k) / (2 * M))
    T = np.tile(th / 2, (M + 1, 1))
    DX = 2.0 * np.sin(T.T + T) * np.sin(T - T.T)
    n1 = (M + 1) // 2
    DX[n1:, :] = -np.flipud(np.fliplr(DX[: M + 1 - n1, :]))
    np.fill_diagonal(DX, 1.0)
    c = np.ones(M + 1)
    c[0] = c[M] = 2.0
    C = np.outer(c * (-1.0) ** k, (1.0 / c) * (-1.0) ** k)
    D = C / DX
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return x, D


class DilationQuadrature(NamedTuple):
    t: np.ndarray
    w: np.ndarray
    pts: np.ndarray
    interp: np.ndarray


def _clencurt(M):
    """Clenshaw-Curtis weights for the M+1 Lobatto nodes on [-1, 1]."""
    th = np.pi * np.arange(M + 1) / M
    w = np.zeros(M + 1)
    ii = np.arange(1, M)
    v = np.ones(M - 1)
    if M % 2 == 0:
        w[0] = w[M] = 1.0 / (M**2 - 1)
        for kk in range(1, M // 2):
            v -= 2.0 * np.cos(2.0 * kk * th[ii]) / (4.0 * kk**2 - 1)
        v -= np.cos(M * th[ii]) / (M**2 - 1)
    else:
        w[0] = w[M] = 1.0 / M**2
        for kk in range(1, (M - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * kk * th[ii]) / (4.0 * kk**2 - 1)
    w[ii] = 2.0 * v / M
    return w


class Grid:
    """Collocation data on [-R, R] with a parity-reduced view on [0, R].

    The full grid carries 2N nodes (no node at the origin); `eta` are the N
    positive nodes ascending.  Immutable after construction.
    """

    def __init__(self, R: float, N: int, parity: str = "even"):
        if not R >= 0.5:
            raise ValueError(
                f"R must be >= 1/2 so the energy flux at the boundary has a sign, got R={R}"
            )
        if N < 8:
            raise ValueError(f"need at least 8 radial nodes, got N={N}")
        if parity not in ("even", "odd", "none"):
            raise ValueError(f"parity must be 'even', 'odd' or 'none', got {parity!r}")
        self.R = float(R)
        self.N = int(N)
        self.parity = parity
        M = 2 * N - 1
        x_desc, D_desc = _chebdif(M)
        flip = slice(None, None, -1)
        self.y = self.R * x_desc[flip]
        self.D = D_desc[flip, :][:, flip] / self.R
        self.w = self.R * _clencurt(M)[flip]
        self.eta = self.y[N:]
        self._bary = np.ones(M + 1)
        self._bary[1::2] = -1.0
        self._bary[0] *= 0.5
        self._bary[M] *= 0.5
        # parity extension/restriction and half-grid derivative matrices
        self._De = self._half_derivative(+1.0)
        self._Do = self._half_derivative(-1.0)
        self.w_half = 0.5 * (self.w[N:] + self.w[N - 1 :: -1])

    def _half_derivative(self, sign):
        N = self.N
        E = np.zeros((2 * N, N))
        E[N:, :] = np.eye(N)
        E[N - 1 :: -1, :] = sign * np.eye(N)
        return (self.D @ E)[N:, :]

    # ------------------------------------------------------------------
    # parity plumbing
    def extend(self, values, parity):
        """Half-grid values -> full-grid values of the given parity."""
        values = np.asarray(values)
        sign = {"even": 1.0, "odd": -1.0}[parity]
        return np.concatenate([sign * values[::-1], values])

    def restrict(self, full_values):
        return np.asarray(full_values)[self.N :]

    def parity_defect(self, full_values, parity):
        full_values = np.asarray(full_values)
        sign = {"even": 1.0, "odd": -1.0}[parity]
        return float(np.max(np.abs(full_values - sign * full_values[::-1])))

    def deriv_half(self, values, parity):
        """Derivative of a definite-parity function from half-grid values."""
        mat = self._De if parity == "even" else self._Do
        return mat @ np.asarray(values)

    # ------------------------------------------------------------------
    # quadrature
    def quad_full(self, full_values):
        return float(self.w @ np.asarray(full_values))

    def quad_half(self, values):
        """Integral over [0, R] of an even function given on the half grid."""
        return float(self.w_half @ np.asarray(values))

    # ------------------------------------------------------------------
    # interpolation and antiderivative
    def interp_matrix(self, pts):
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        lam = self._bary[::-1]
        diff = pts[:, None] - self.y[None, :]
        out = np.empty((pts.size, self.y.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = lam[None, :] / diff
            out[:] = terms / np.sum(terms, axis=1)[:, None]
        hit_rows, hit_cols = np.nonzero(diff == 0.0)
        for r, c in zip(hit_rows, hit_cols):
            out[r, :] = 0.0
            out[r, c] = 1.0
        return out

    def interpolate(self, full_values, pts):
        return self.interp_matrix(pts) @ np.asarray(full_values)

    @cached_property
    def dilation_quadrature(self):
        """Gauss-Legendre nodes `t` and weights `w` on [0, 1] (order N + 16),
        the points outer(eta, t) and the interpolation matrix onto them, for
        the integrals int_0^1 weight(t eta) t^p g(t eta) dt of the descent
        inverses.  Built once per grid; all arrays are read-only, so threads
        that race on the first access only build identical copies."""
        t, w = leggauss(self.N + 16)
        t = 0.5 * (t + 1.0)
        w = 0.5 * w
        pts = np.outer(self.eta, t)
        interp = self.interp_matrix(pts.ravel())
        for a in (t, w, pts, interp):
            a.setflags(write=False)
        return DilationQuadrature(t, w, pts, interp)

    def cheb_coeffs(self, full_values):
        v_desc = np.asarray(full_values)[::-1]
        M = self.y.size - 1
        a = dct(v_desc, type=1) / M
        a[0] *= 0.5
        a[M] *= 0.5
        return a

    def antiderivative(self, full_values):
        """Values of  x -> integral_0^x f  at the grid nodes, spectrally."""
        a = self.cheb_coeffs(full_values)
        M = self.y.size - 1
        b = np.zeros(M + 2)
        a_pad = np.concatenate([a, [0.0, 0.0]])
        kk = np.arange(2, M + 2)
        b[2:] = (a_pad[kk - 1] - a_pad[kk + 1]) / (2.0 * kk)
        b[1] = a_pad[0] - 0.5 * a_pad[2]
        theta = np.arccos(np.clip(self.y / self.R, -1.0, 1.0))
        vals = np.cos(np.outer(theta, np.arange(M + 2))) @ b
        at_zero = np.cos(np.arange(M + 2) * np.pi / 2.0) @ b
        return self.R * (vals - at_zero)

    def __repr__(self):
        return f"Grid(R={self.R}, N={self.N}, parity={self.parity!r})"


def make_grid(R, N, parity="even") -> Grid:
    return Grid(R, N, parity)


@dataclass
class GridFunction:
    """Values of a definite-parity radial function on the half grid [0, R]."""

    grid: Grid
    values: np.ndarray
    parity: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N,):
            raise ValueError(f"expected {self.grid.N} half-grid values, got {self.values.shape}")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    @classmethod
    def from_callable(cls, grid, fn, parity):
        return cls(grid, np.asarray(fn(grid.eta), dtype=float), parity)

    @classmethod
    def from_full(cls, grid, full_values, parity, tol=1e-12):
        full_values = np.asarray(full_values, dtype=float)
        defect = grid.parity_defect(full_values, parity)
        scale = max(1.0, float(np.max(np.abs(full_values))))
        if defect > tol * scale:
            raise ValueError(f"declared parity {parity!r} violated by {defect:.3e}")
        return cls(grid, grid.restrict(full_values), parity)

    def full(self):
        return self.grid.extend(self.values, self.parity)

    def deriv(self):
        flipped = "odd" if self.parity == "even" else "even"
        return GridFunction(self.grid, self.grid.deriv_half(self.values, self.parity), flipped)


@dataclass
class StateVector:
    """Two-component grid state (field, s-derivative) on a common grid."""

    f1: GridFunction
    f2: GridFunction

    def __post_init__(self):
        if self.f1.grid is not self.f2.grid:
            raise ValueError("state components must live on the same grid")

    @property
    def grid(self):
        return self.f1.grid

    def copy(self):
        return StateVector(
            GridFunction(self.grid, self.f1.values.copy(), self.f1.parity),
            GridFunction(self.grid, self.f2.values.copy(), self.f2.parity),
        )

    @classmethod
    def zero(cls, grid, parity="even"):
        z = np.zeros(grid.N)
        return cls(GridFunction(grid, z, parity), GridFunction(grid, z.copy(), parity))

    def stacked(self):
        return np.concatenate([self.f1.values, self.f2.values])

    @classmethod
    def from_stacked(cls, grid, vec, parity="even"):
        vec = np.asarray(vec, dtype=float)
        return cls(
            GridFunction(grid, vec[: grid.N], parity),
            GridFunction(grid, vec[grid.N :], parity),
        )


# ----------------------------------------------------------------------
# norms


def _max_order(grid):
    return max(2, grid.N // 8)


def sobolev_norm_full(grid, full_values, k):
    """H^k(-R, R) norm (sum of L^2 norms of derivatives) from full values."""
    if k > _max_order(grid):
        raise ValueError(f"order k={k} not resolvable at N={grid.N}")
    g = np.asarray(full_values, dtype=float)
    total = 0.0
    for _ in range(k + 1):
        total += np.sqrt(max(grid.quad_full(g * g), 0.0))
        g = grid.D @ g
    return float(total)


def weighted_sobolev_norm(f: GridFunction, k, d):
    """Radial H^k(B_R^d) norm surrogate: H^k(-R, R) norm of |.|^((d-1)/2) f.

    The signed power y^((d-1)/2) is used on the full grid; its derivatives
    agree with those of the |.|-weighted function up to parity, and all the
    integrands are even, so the quadrature values coincide.
    """
    if f.parity != "even":
        raise ValueError("weighted radial norms act on even representatives")
    if d % 2 == 0 or d < 1:
        raise ValueError(f"odd space dimension required, got d={d}")
    m = (d - 1) // 2
    full = f.grid.y**m * f.full()
    return sobolev_norm_full(f.grid, full, k)


def weighted_state_norm(state: StateVector, k, d):
    return weighted_sobolev_norm(state.f1, k, d) + weighted_sobolev_norm(state.f2, k - 1, d)


def odd_state_norm(state: StateVector, k):
    """H^k x H^(k-1) norm of an odd two-component state on [-R, R]."""
    return sobolev_norm_full(state.grid, state.f1.full(), k) + sobolev_norm_full(
        state.grid, state.f2.full(), k - 1
    )


def radial_sobolev_norm_oracle(fhat, k, d, R, derivs=None):
    """Brute-force d-dimensional radial Sobolev norm from callables.

    Independent of the collocation machinery: adaptive quadrature of the
    rotation-invariant derivative sums

        j=0: f^2,   j=1: f'^2,   j=2: f''^2 + (d-1)(f'/r)^2 ,

    each integrated against the surface measure r^(d-1).  `derivs` supplies
    (f', f'') as callables; finite differences are used otherwise.  Orders
    k <= 2 are supported, which is what the equivalence suite exercises.
    """
    if k > 2:
        raise ValueError("oracle implemented for k <= 2")
    if derivs is None:
        h = 1e-5

        def d1(r):
            return (fhat(r + h) - fhat(r - h)) / (2 * h)

        def d2(r):
            return (fhat(r + h) - 2 * fhat(r) + fhat(r - h)) / h**2

    else:
        d1, d2 = derivs

    import warnings
    from math import gamma, pi

    from scipy.integrate import IntegrationWarning, quad

    area = 2.0 * pi ** (d / 2.0) / gamma(d / 2.0)

    def norm_of(integrand):
        # near-machine-precision tails trip quad's roundoff heuristic; the
        # ratio checks downstream only need ~6 digits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(integrand, 0.0, R, limit=200)
        return np.sqrt(area * val)

    total = norm_of(lambda r: fhat(r) ** 2 * r ** (d - 1))
    if k >= 1:
        total += norm_of(lambda r: d1(r) ** 2 * r ** (d - 1))
    if k >= 2:
        total += norm_of(lambda r: (d2(r) ** 2 + (d - 1) * (d1(r) / r) ** 2) * r ** (d - 1))
    return float(total)


def hpm_inner(grid, f_full, g_full, sign):
    """Inner product with the h_pm' weight 1 +- h' on [-R, R]."""
    weight = 1.0 + float(sign) * HEIGHT.dh(grid.y)
    return grid.quad_full(np.asarray(f_full) * np.conj(g_full) * weight)


# ----------------------------------------------------------------------
# extension operator, Hardy check, integral operator


def smooth_cutoff(t):
    """C-infinity cutoff: 1 on |t| <= 1, 0 on |t| >= 3/2."""
    t = np.abs(np.asarray(t, dtype=float))

    def bump(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    up = bump(1.5 - t)
    down = bump(t - 1.0)
    return up / (up + down)


def extension_eval(grid: Grid, full_values, k, pts, endpoint_derivs=None):
    """Evaluate the Sobolev extension of grid data at arbitrary points.

    Inside [-R, R] this is the spectral interpolant; outside, the mirror
    reflection corrected by an even-order Taylor polynomial at the seam,
    smoothly cut off inside [-2R, 2R].  `endpoint_derivs` may supply exact
    derivative values ((at -R), (at +R)) up to order k; the default takes
    them from spectral differentiation of the grid data.
    """
    R = grid.R
    f = np.asarray(full_values, dtype=float)
    if endpoint_derivs is None:
        derivs_left, derivs_right = [], []
        g = f.copy()
        for _ in range(k + 1):
            derivs_left.append(g[0])
            derivs_right.append(g[-1])
            g = grid.D @ g
    else:
        derivs_left, derivs_right = endpoint_derivs

    def taylor(coeffs, dx):
        out = np.zeros_like(dx)
        for j in range(0, k + 1, 2):
            out += 2.0 * coeffs[j] / _factorial(j) * dx**j
        return out

    x = np.atleast_1d(np.asarray(pts, dtype=float))
    vals = np.zeros_like(x)
    inner = np.abs(x) <= R
    if np.any(inner):
        vals[inner] = grid.interpolate(f, x[inner])
    right = x > R
    if np.any(right):
        xr = np.minimum(x[right], 2 * R)
        vals[right] = smooth_cutoff(xr / R) * (
            -grid.interpolate(f, 2 * R - xr) + taylor(derivs_right, xr - R)
        )
        vals[right] = np.where(x[right] >= 2 * R, 0.0, vals[right])
    left = x < -R
    if np.any(left):
        xl = np.maximum(x[left], -2 * R)
        vals[left] = smooth_cutoff(xl / R) * (
            -grid.interpolate(f, -2 * R - xl) + taylor(derivs_left, xl + R)
        )
        vals[left] = np.where(x[left] <= -2 * R, 0.0, vals[left])
    return vals


def extension_operator(grid: Grid, full_values, k, endpoint_derivs=None):
    """Extend grid values on [-R, R] to grid values on [-2R, 2R].

    Returns (big_grid, extended_full_values); see `extension_eval`.
    """
    big = Grid(2 * grid.R, 2 * grid.N, parity=grid.parity)
    return big, extension_eval(grid, full_values, k, big.y, endpoint_derivs)


def _factorial(j):
    out = 1
    for i in range(2, j + 1):
        out *= i
    return out


def hardy_check(grid: Grid, full_values, s):
    """Both sides of the weighted Hardy inequality on B_R.

    Returns (lhs, rhs) = (|| |x|^s f ||, || |x|^(s+1) f' ||); the inequality
    asserts lhs <= C rhs for s < -1/2 and f vanishing suitably at 0.
    """
    if s >= -0.5:
        raise ValueError("Hardy inequality on the ball needs s < -1/2")
    f = np.asarray(full_values, dtype=float)
    df = grid.D @ f
    absx = np.abs(grid.y)
    lhs = np.sqrt(max(grid.quad_full(absx ** (2 * s) * f * f), 0.0))
    rhs = np.sqrt(max(grid.quad_full(absx ** (2 * (s + 1)) * df * df), 0.0))
    return float(lhs), float(rhs)


def integral_op_T(grid: Grid, full_values, m, n, phi=None, quad_order=None):
    """Smooth extension of x -> x^-m int_0^x y^n phi(y) f(y) dy.

    Implemented in the rescaled form x^(n+1-m) int_0^1 t^n phi(tx) f(tx) dt,
    which is regular at the origin whenever n + 1 - m >= 0.
    """
    if n + 1 - m < 0:
        raise ValueError(f"need n + 1 - m >= 0, got m={m}, n={n}")
    if quad_order is None:
        quad_order = grid.N + 8
    tq, wq = leggauss(quad_order)
    tq = 0.5 * (tq + 1.0)
    wq = 0.5 * wq
    pts = np.outer(grid.y, tq).ravel()
    fvals = grid.interpolate(np.asarray(full_values, dtype=float), pts).reshape(grid.y.size, -1)
    phivals = np.ones_like(fvals) if phi is None else phi(pts).reshape(grid.y.size, -1)
    integrand = (tq**n)[None, :] * phivals * fvals
    return grid.y ** (n + 1 - m) * (integrand @ wq)
