"""Spectral collocation infrastructure: Chebyshev-Lobatto grids on [-R, R]
symmetrised to radial half-grids, differentiation and quadrature, barycentric
interpolation, the N x N dilation kernels behind every radial integral of
the free propagator (int_0^1 w(t eta) t^p g(t eta) dt on even half-grid
data), the weighted radial Sobolev norms and their brute-force oracle, and
the Hardy and integral-operator checks.

A two-component state (field, s-derivative) is one stacked vector [F1; F2]
of 2N half-grid values; its parity is fixed by the stage that holds it.

The full grid deliberately contains an even number of nodes so that eta = 0
is never a collocation point; all coefficient functions with 1/eta poles can
then be evaluated directly.

The grid machinery needs numpy alone.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Grid",
    "make_grid",
    "weighted_sobolev_norm",
    "sobolev_norm_full",
    "weighted_state_norm",
    "odd_state_norm",
    "radial_sobolev_norm_oracle",
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


def _clencurt(M):
    """Clenshaw-Curtis weights for the M+1 Lobatto nodes on [-1, 1], M odd
    (the grid's 2N nodes)."""
    th = np.pi * np.arange(M + 1) / M
    w = np.zeros(M + 1)
    ii = np.arange(1, M)
    v = np.ones(M - 1)
    w[0] = w[M] = 1.0 / M**2
    for kk in range(1, (M - 1) // 2 + 1):
        v -= 2.0 * np.cos(2.0 * kk * th[ii]) / (4.0 * kk**2 - 1)
    w[ii] = 2.0 * v / M
    return w


class Grid:
    """Collocation data on [-R, R] with a parity-reduced view on [0, R].

    The full grid carries 2N nodes (no node at the origin); `eta` are the N
    positive nodes ascending.  Immutable but for the kernel table `kernels`.
    """

    def __init__(self, R: float, N: int):
        if not R >= 0.5:
            raise ValueError(
                f"R must be >= 1/2 so the energy flux at the boundary has a sign, got R={R}"
            )
        if N < 8:
            raise ValueError(f"need at least 8 radial nodes, got N={N}")
        self.R = float(R)
        self.N = int(N)
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
        self.kernels = {}

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

    def restrict(self, full_values, parity):
        """Full-grid values of the given parity -> half-grid values; the
        parity must hold to 1e-12 relative to max(1, max |values|)."""
        full_values = np.asarray(full_values, dtype=float)
        sign = {"even": 1.0, "odd": -1.0}[parity]
        defect = float(np.max(np.abs(full_values - sign * full_values[::-1])))
        scale = max(1.0, float(np.max(np.abs(full_values))))
        if defect > 1e-12 * scale:
            raise ValueError(f"declared parity {parity!r} violated by {defect:.3e}")
        return full_values[self.N :]

    def deriv_half(self, values, parity):
        """Derivative of a definite-parity function from half-grid values."""
        mat = self._De if parity == "even" else self._Do
        return mat @ np.asarray(values)

    # ------------------------------------------------------------------
    # quadrature
    def quad_full(self, full_values):
        return float(self.w @ np.asarray(full_values))

    def radial_weights(self, d):
        """Half-grid quadrature weights of the radial measure eta^(d-1) d eta."""
        return self.w_half * self.eta ** (d - 1)

    # ------------------------------------------------------------------
    # interpolation and the dilation kernels
    def interp_matrix(self, pts):
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        lam = self._bary[::-1]
        # one pts x nodes buffer: the differences, then the barycentric terms
        # lam / diff, then their row-normalized values
        out = np.subtract.outer(pts, self.y)
        hit_rows, hit_cols = np.nonzero(out == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(lam, out, out=out)
            out /= np.sum(out, axis=1)[:, None]
        for r, c in zip(hit_rows, hit_cols):
            out[r, :] = 0.0
            out[r, c] = 1.0
        return out

    def dilation_kernels(self, families):
        """For each family (weights, power), one read-only N x N kernel K_k
        per callable `weights[k]`, with

            (K_k g)_i = int_0^1 weights[k](t eta_i) t^power g(t eta_i) dt

        for the even interpolant g of half-grid values, on the Gauss-Legendre
        rule of order N + 16 on [0, 1]: the integrals of the descent inverses,
        of the half-wave recomposition and of `integral_op_T`.  One pass over
        the nodes builds them all: eta_i takes the barycentric rows onto its
        N + 16 points t eta_i once, each mirror column added onto its partner,
        and multiplies each family's weight rows there in one product, so the
        memory is O(N^2)."""
        N = self.N
        t, w = leggauss(N + 16)
        t = 0.5 * (t + 1.0)
        pts = np.outer(self.eta, t)
        scales = [0.5 * w * t**power for _, power in families]
        K = [np.empty((len(weights), N, N)) for weights, _ in families]
        for i in range(N):
            L = self.interp_matrix(pts[i])
            L = L[:, N:] + L[:, N - 1 :: -1]
            for (weights, _), scale, Kf in zip(families, scales, K):
                Kf[:, i, :] = (np.stack([weight(pts[i]) for weight in weights]) * scale) @ L
        for Kf in K:
            Kf.setflags(write=False)
        return [tuple(Kf) for Kf in K]

    def __repr__(self):
        return f"Grid(R={self.R}, N={self.N})"


def make_grid(R, N) -> Grid:
    return Grid(R, N)


# ----------------------------------------------------------------------
# norms


def sobolev_norm_full(grid, full_values, k):
    """H^k(-R, R) norm (sum of L^2 norms of derivatives) from full values."""
    if k > max(2, grid.N // 8):
        raise ValueError(f"order k={k} not resolvable at N={grid.N}")
    g = np.asarray(full_values, dtype=float)
    total = 0.0
    for _ in range(k + 1):
        total += np.sqrt(max(grid.quad_full(g * g), 0.0))
        g = grid.D @ g
    return float(total)


def weighted_sobolev_norm(grid, half_values, k, d):
    """Radial H^k(B_R^d) norm surrogate: H^k(-R, R) norm of |.|^((d-1)/2) f
    for the even f with the given half-grid values.

    The signed power y^((d-1)/2) is used on the full grid; its derivatives
    agree with those of the |.|-weighted function up to parity, and all the
    integrands are even, so the quadrature values coincide.
    """
    if d % 2 == 0 or d < 1:
        raise ValueError(f"odd space dimension required, got d={d}")
    m = (d - 1) // 2
    full = grid.y**m * grid.extend(half_values, "even")
    return sobolev_norm_full(grid, full, k)


def weighted_state_norm(grid, v, k, d):
    """H^k x H^(k-1) weighted norm of the even stacked state v = [F1; F2]."""
    f1, f2 = np.split(v, 2)
    return weighted_sobolev_norm(grid, f1, k, d) + weighted_sobolev_norm(grid, f2, k - 1, d)


def odd_state_norm(grid, v, k):
    """H^k x H^(k-1) norm of the odd stacked state v = [F1; F2] on [-R, R]."""
    f1, f2 = np.split(v, 2)
    return sobolev_norm_full(grid, grid.extend(f1, "odd"), k) + sobolev_norm_full(
        grid, grid.extend(f2, "odd"), k - 1
    )


# the oracle's composite Gauss-Legendre rule
ORACLE_PANEL_WIDTH = 0.25
ORACLE_PANEL_NODES = 16


def radial_sobolev_norm_oracle(fhat, k, d, R, derivs):
    """Brute-force d-dimensional radial Sobolev norm from callables.

    Independent of the collocation machinery: composite Gauss-Legendre
    quadrature (ORACLE_PANEL_NODES nodes on each panel of width at most
    ORACLE_PANEL_WIDTH) of the rotation-invariant derivative sums

        j=0: f^2,   j=1: f'^2,   j=2: f''^2 + (d-1)(f'/r)^2 ,

    each integrated against the surface measure r^(d-1).  `derivs` supplies
    (f', f'') as callables.  Orders k <= 2 are supported, which is what the
    equivalence suite exercises.
    """
    if k > 2:
        raise ValueError("oracle implemented for k <= 2")
    d1, d2 = derivs
    panels = math.ceil(R / ORACLE_PANEL_WIDTH)
    t, w = leggauss(ORACLE_PANEL_NODES)
    h = R / panels
    r = ((np.arange(panels)[:, None] + 0.5 * (t + 1.0)) * h).ravel()
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    measure = area * np.tile(0.5 * h * w, panels) * r ** (d - 1)
    total = np.sqrt(measure @ fhat(r) ** 2)
    if k >= 1:
        total += np.sqrt(measure @ d1(r) ** 2)
    if k >= 2:
        total += np.sqrt(measure @ (d2(r) ** 2 + (d - 1) * (d1(r) / r) ** 2))
    return float(total)


# ----------------------------------------------------------------------
# Hardy check, integral operator


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


def integral_op_T(grid: Grid, full_values, m, n):
    """Smooth extension of x -> x^-m int_0^x y^n f(y) dy, for even f.

    Implemented in the rescaled form x^(n+1-m) int_0^1 t^n f(tx) dt, whose
    integral is even in x and is the grid's dilation kernel of weight 1 and
    power n; it is regular at the origin whenever n + 1 - m >= 0.
    """
    if n + 1 - m < 0:
        raise ValueError(f"need n + 1 - m >= 0, got m={m}, n={n}")
    half = grid.restrict(full_values, "even")
    [[K]] = grid.dilation_kernels([((np.ones_like,), n)])
    return grid.extend(K @ half, "even") * grid.y ** (n + 1 - m)
