"""Assembly and spectral analysis of the linearized wave evolution: dense
collocation matrices with one cached eigen-decomposition and cached matrix
exponentials each, the rank-one spectral projection onto the unstable mode,
and the spectrum in a window about 1: the zeros of the mode equation's
connection function in standard similarity coordinates, counted by the
argument principle, located from its sign changes on the real axis and
paired with the nearest collocation eigenvalue.

Everything runs on numpy: the eigen-decompositions are `numpy.linalg`'s, and
the matrix exponential that `blowup` needs is the degree-13 branch of
scipy's `expm`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffs
from .grids import Grid
from .model import DimensionParams, potential, symmetry_mode

__all__ = [
    "OperatorMatrix",
    "generator_matrix",
    "assemble_L",
    "SpectrumResult",
    "spectrum",
    "mode_angle",
    "riesz_projection",
    "ssc_mode_scan",
    "ssc_scan_roots",
]


# smallest node count at which the generator is resolved well enough for
# spectral work
SPECTRAL_MIN_N = 48


@dataclass
class OperatorMatrix:
    """Dense discretization of a linear operator on stacked state values."""

    matrix: np.ndarray
    grid: Grid
    params: DimensionParams
    mode_residual: float | None = None
    _eig: tuple | None = field(default=None, repr=False)
    _propagators: dict = field(default_factory=dict, repr=False)

    def eig(self):
        """(eigenvalues, right eigenvectors), computed once.  Only single
        eigenpairs are read: the eigenvector matrix as a whole (cond ~ 3e17
        at N = 64) is useless for diagonalizing L."""
        if self._eig is None:
            self._eig = np.linalg.eig(self.matrix)
        return self._eig

    def propagator(self, t):
        """exp(t A) for this matrix A, cached per exact t, as the square of
        the cached exp(t A / 2) by `_expm`, which a Lawson step asks for
        too.  Where `_expm(t A / 2)` takes s >= 1 squarings, as at every
        step of `blowup`, that square is `_expm(t A)` bit for bit: r_13
        sees the same exactly scaled input, and one more squaring follows."""
        if t not in self._propagators:
            if 0.5 * t not in self._propagators:
                self._propagators[0.5 * t] = _expm(0.5 * t * self.matrix)
            self._propagators[t] = self._propagators[0.5 * t] @ self._propagators[0.5 * t]
        return self._propagators[t]


# the largest 1-norm theta_13 at which the degree-13 Pade approximant r_13
# needs no scaling, 1/|c_27| of the backward-error bound behind `_ell`, and
# the coefficients b_0, ..., b_13 of its numerator p_13(x) = sum b_k x^k
# (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 2009)
_PADE_THETA = 4.25
_ELL_C = 113250775606021113483283660800000000.0
_PADE_COEFFS = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _onenorm(A):
    return float(np.max(np.sum(np.abs(A), axis=0)))


def _ell(A):
    """The squarings beyond the norm-based choice that keep the backward
    error of r_13(A) below the unit roundoff, from the exact column sums of
    |A|^27."""
    v = np.ones(A.shape[0])
    absA = np.abs(A)
    for _ in range(27):
        v = v @ absA
    norm = float(np.max(v))
    if norm == 0.0:
        return 0
    alpha = norm / (_onenorm(A) * _ELL_C)
    return max(int(np.ceil(np.log2(alpha / 2.0**-53) / 26)), 0)


def _expm(A):
    """exp(A) by scaling and squaring of the degree-13 diagonal Pade
    approximant r_13 (Al-Mohy and Higham 2009): the degree-13 branch of
    scipy 1.17's `expm`, with its scaling s from the exact 1-norms of A6,
    A4 A4 and A4 A6, its powers A2 = A A, A4 = A2 A2, A6 = A2 A4, and its
    quotient X = I + 2 U (V - U)^-1, so the result is scipy's to rounding.
    scipy's lower degrees are left out: at every step `blowup` takes,
    ||A||_1 >= 3.5e5 is far above theta_13, and on small A degree 13 at
    s = 0 is as accurate, at a few more products.  The quotient's form
    matters: at the blowup step, cond(V - U) ~ 2e7, and solving
    (V - U) X = V + U instead moves the README run's decay rate by 4e-7."""
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    d6 = _onenorm(A6) ** (1 / 6)
    d8 = _onenorm(A4 @ A4) ** 0.125
    eta = min(max(d6, d8), max(d8, _onenorm(A4 @ A6) ** 0.1))
    s = max(int(np.ceil(np.log2(eta / _PADE_THETA))), 0) if eta > 0.0 else 0
    s += _ell(A * 2.0**-s)
    b = _PADE_COEFFS
    I = np.eye(A.shape[0])
    A, A2, A4, A6 = (P * 2.0 ** (-k * s) for k, P in ((1, A), (2, A2), (4, A4), (6, A6)))
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I
    )
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    X = 2.0 * np.linalg.solve((V - U).T, U.T).T
    X[np.diag_indices_from(X)] += 1.0
    for _ in range(s):
        X = X @ X
    return X


def generator_matrix(d, grid: Grid) -> np.ndarray:
    """Dense free radial wave generator L_d on stacked half-grid states.

    The first block row is [0 | I]; the second is `coeffs.generator_row`
    applied to the identity columns of both components, so the matrix is the
    formula the identity residuals certify."""
    n = grid.N
    I, Z = np.eye(n), np.zeros((n, n))
    row2 = coeffs.generator_row(
        d, grid.eta[:, None], np.hstack([I, Z]), np.hstack([Z, I]), grid.deriv_half
    )
    return np.vstack([np.hstack([Z, I]), row2])


def assemble_L(params: DimensionParams, grid: Grid) -> OperatorMatrix:
    """Linearized wave evolution L = L_d - 2 I + V on the grid, the potential
    V acting on the first component in the second row.

    The discretized symmetry mode must be an eigenvector for eigenvalue 1 up
    to spectral accuracy; a large residual flags insufficient resolution.
    """
    if grid.N < SPECTRAL_MIN_N:
        raise ValueError(f"need N >= {SPECTRAL_MIN_N} for spectral work, got N={grid.N}")
    n = grid.N
    L = generator_matrix(params.d, grid) - 2.0 * np.eye(2 * n)
    L[n + np.arange(n), np.arange(n)] += potential(params, grid.eta)
    mode = symmetry_mode(params, grid.eta).ravel()
    residual = float(np.max(np.abs(L @ mode - mode)) / np.max(np.abs(mode)))
    if residual > 1e-4:
        raise ValueError(
            f"symmetry-mode eigen-identity residual {residual:.2e} at N={grid.N}; "
            "resolution too low"
        )
    return OperatorMatrix(L, grid, params, mode_residual=residual)


@dataclass
class SpectrumResult:
    """The spectrum of the linearized evolution in SSC_WINDOW, with a
    stability verdict: the count of the connection function's zeros there,
    the zeros located (sorted by decreasing real part), and the collocation
    eigenvalue nearest each zero."""

    d: int
    R: float
    N: int
    count: int
    roots: list
    eigenvalues: list

    @property
    def unstable(self):
        return [z for z in self.roots if z.real >= 0.0]

    def _gap_pair(self):
        """(root, nearest collocation eigenvalue) of the rightmost located
        root other than 1, or None when the scan locates no other."""
        return next(((z, e) for z, e in zip(self.roots, self.eigenvalues) if abs(z - 1.0) > 1e-6), None)

    @property
    def gap(self):
        """Minus the real part of the rightmost located root other than 1,
        or None when there is none."""
        pair = self._gap_pair()
        return None if pair is None else float(-pair[0].real)

    def verdict(self):
        """Two zeros in the window, both located, and exactly one with Re >= 0
        (which `spectrum`'s unstable_root_offset check puts at 1)."""
        return self.count == len(self.roots) == 2 and len(self.unstable) == 1

    def to_json_dict(self):
        pair = self._gap_pair()
        return {
            "d": self.d,
            "R": self.R,
            "N": self.N,
            "eigenvalues": [
                {"re": float(z.real), "im": float(z.imag), "stable": bool(z.real < 0.0)}
                for z in self.eigenvalues
            ],
            "gap": self.gap,
            "gap_collocation_error": None if pair is None else float(abs(pair[1] - pair[0])),
            "window": SSC_WINDOW,
            "ssc_count": self.count,
            "ssc_roots": [{"re": float(z.real), "im": float(z.imag)} for z in self.roots],
            "mode_stable": bool(self.verdict()),
        }


def spectrum(op: OperatorMatrix) -> SpectrumResult:
    """The spectrum of L in SSC_WINDOW: the zeros of the connection function,
    counted and located by `ssc_scan_roots`, each paired with the
    collocation eigenvalue nearest it.  A failed scan raises its ValueError.
    """
    values = op.eig()[0]
    count, roots = ssc_scan_roots(op.params)
    return SpectrumResult(
        d=op.params.d,
        R=op.grid.R,
        N=op.grid.N,
        count=count,
        roots=roots,
        eigenvalues=[complex(values[np.argmin(np.abs(values - z))]) for z in roots],
    )


def _state_inner(grid: Grid, d, u, v):
    w = grid.radial_weights(d)
    n = grid.N
    return float(w @ (u[:n] * v[:n]) + w @ (u[n:] * v[n:]))


def mode_angle(op: OperatorMatrix):
    """Angle between the discrete eigenvector at eigenvalue 1 and the
    analytic symmetry mode, in the radially weighted inner product."""
    values, right = op.eig()
    vec = np.real(right[:, np.argmin(np.abs(values - 1.0))])
    mode = symmetry_mode(op.params, op.grid.eta).ravel()
    d = op.params.d
    g = op.grid
    cosang = abs(_state_inner(g, d, vec, mode)) / np.sqrt(
        _state_inner(g, d, vec, vec) * _state_inner(g, d, mode, mode)
    )
    return float(np.arccos(min(cosang, 1.0)))


def riesz_projection(op: OperatorMatrix) -> np.ndarray:
    """Spectral projection P = v w^H / (w^H v) onto the eigenvalue 1, from
    its right eigenvector v and left eigenvector w, the eigenvector of L^H
    at the conjugate eigenvalue.  That eigenvalue (the symmetry mode) is
    simple and isolated, so this rank-one form is exactly the Riesz
    projector (Kato, Perturbation Theory, I.5)."""
    values, right = op.eig()
    i = np.argmin(np.abs(values - 1.0))
    values_h, right_h = np.linalg.eig(op.matrix.conj().T)
    j = np.argmin(np.abs(values_h - np.conj(values[i])))
    v, w = right[:, i], right_h[:, j].conj()
    return np.real(np.outer(v, w) / (w @ v))


# ----------------------------------------------------------------------
# standard-similarity-coordinate mode scan

# Frobenius series order of each branch; the convergence check passes with
# it at every odd d from 7 to 61 and at d = 71, 81, ..., 111, not at 121
SSC_SERIES_ORDER = 160

# the window (re range, im range) whose boundary the connection function
# winds around, sampled at SSC_SIDE_POINTS per side.  It holds the
# eigenvalue 1 and the gap eigenvalue (-0.59 at d = 7, -0.66 at d = 31),
# and its edges keep clear of the integers where the series cannot be
# launched (a right edge at 2 meets one at d = 11, a left edge at -1 the
# pole that F cancels)
SSC_WINDOW = ((-0.9, 2.5), (-2.0, 2.0))
SSC_SIDE_POINTS = 50
# the circle that locates the zero at a real sign change: radius and points
SSC_CIRCLE = (0.15, 16)
# largest phase step of a sampled contour whose winding number is trusted
SSC_MAX_PHASE_STEP = np.pi / 4


def _poly_shift(p):
    """Coefficients of p(1 - x) from those of p, for each column of p."""
    n = len(p)
    return np.array([[(-1) ** j * math.comb(k, j) for k in range(n)] for j in range(n)]) @ p


def _ssc_polynomials(params: DimensionParams, lam):
    """Polynomial coefficients A g'' + B g' + C g = 0 of the mode equation in
    standard similarity coordinates, cleared of denominators, of degrees 7,
    6 and 5: A as one column, B and C with one column per lambda in lam."""
    a, b, d = params.a, params.b, params.d
    bq2 = np.convolve([b, 0.0, 1.0], [b, 0.0, 1.0])
    vnum = np.array([6.0 * (d - 4) * a * b, 0.0, -3.0 * (d - 4) * a * (a - 2.0), 0.0, 0.0])
    A = np.convolve([0.0, 1.0, 0.0, -1.0], bq2)[:, None]
    B = np.convolve([d - 1.0, 0.0, 0.0], bq2)[:, None]
    B = B - np.outer(np.convolve([0.0, 0.0, 2.0], bq2), lam + 3.0)
    C = np.pad(vnum[:, None] - np.outer(bq2, (lam + 2.0) * (lam + 3.0)), ((1, 0), (0, 0)))
    return A, B, C


def _series_branch(A, B, C, x_eval):
    """Index-0 Frobenius series of A g'' + B g' + C g = 0 about 0 to order
    SSC_SERIES_ORDER, one per column of B and C (A has one column, shared),
    evaluated with its derivative at x_eval.  Requires A(0) = 0, B(0) != 0
    and no resonance among the recursion factors."""
    nmax = SSC_SERIES_ORDER
    lags = len(C)  # A and B have lags + 2 and lags + 1 coefficients
    n = np.arange(nmax)[:, None]
    fac = A[1] * (n + 1) * n + B[0] * (n + 1)
    scale = np.maximum(np.abs(B[0]), max(abs(A[1, 0]), 1.0))
    # (column, order) of each resonance, the first column's first
    resonant = np.argwhere((np.abs(fac) < 1e-10 * scale * (n + 1)).T)
    if len(resonant):
        raise ValueError(f"resonant Frobenius recursion at order {resonant[0, 1] + 1}")
    # order n reads c[m], m = n - lags + 1 + q, with weight W[n, q]; the
    # lags - 1 zero rows ahead of c stand for the orders m < 0
    m = (n - lags + 1 + np.arange(lags))[:, :, None]
    W = A[lags + 1 : 1 : -1] * m * (m - 1) + B[lags:0:-1] * m + C[::-1]
    c = np.zeros((lags + nmax, B.shape[1]), dtype=complex)
    c[lags - 1] = 1.0
    for k in range(nmax):
        c[lags + k] = -np.sum(W[k] * c[k : k + lags], axis=0) / fac[k]
    c = c[lags - 1 :]
    tail = np.max(np.abs(c[-8:]), axis=0) * abs(x_eval) ** (nmax - 8)
    head = np.max(np.abs(c[: nmax // 2]), axis=0) * max(abs(x_eval), 1e-2)
    worst = tail[tail > 1e-13 * np.maximum(head, 1.0)]
    if len(worst):
        raise ValueError(f"Frobenius series not converged at radius {x_eval}: tail {worst[0]:.1e}")
    dc = np.pad(c[1:] * np.arange(1, nmax + 1)[:, None], ((0, 1), (0, 0)))
    return np.polynomial.polynomial.polyval(x_eval, np.stack([c, dc], axis=1))


def ssc_mode_scan(params: DimensionParams, lam):
    """Connection function F of the mode equation in standard similarity
    coordinates, analytic in lambda on the scan window; lam is one lambda
    or an array of them, evaluated in one pass.

    Analytic Frobenius branches (each with c0 = 1) are launched from both
    regular singular endpoints (rho = 0 and rho = 1) and matched at
    rho = 1/2.  Their Wronskian det vanishes at the eigenvalues and has
    simple poles at the integers lambda <= (d - 7)/2, where the rho = 1
    indices differ by a positive integer (Costin, Donninger & Glogic, Comm.
    Math. Phys. 351, 2017).  F = det * prod_{k=-1}^{(d-7)/2} (lambda - k)
    removes the poles in the window and the one at -1 beside it, so at
    d >= 9 the eigenvalue 1, which the pole there cancels in det, is a zero
    of F, and so is the gap eigenvalue between -1 and 0.  The series cannot
    be launched at those integers (ValueError).
    """
    lam = np.asarray(lam, dtype=complex)
    A, B, C = _ssc_polynomials(params, lam.ravel())
    g0, dg0 = _series_branch(A, B, C, 0.5)
    # the rho = 1 branch in x = 1 - rho, whose rho-derivative is -dg1
    g1, dg1 = _series_branch(_poly_shift(A), -_poly_shift(B), _poly_shift(C), 0.5)
    det = -(g0 * dg1 + dg0 * g1).reshape(lam.shape)
    return (det * np.prod([lam - k for k in range(-1, (params.d - 7) // 2 + 1)], axis=0))[()]


def _winding(f):
    """Winding number about 0 of the values f of F on a closed polygon.  A
    phase step above SSC_MAX_PHASE_STEP could hide a turn: ValueError."""
    steps = np.angle(np.roll(f, -1) / f)
    worst = float(np.max(np.abs(steps)))
    if worst > SSC_MAX_PHASE_STEP:
        raise ValueError(f"contour under-resolved: phase step {worst:.2f} rad")
    return round(float(np.sum(steps)) / (2.0 * np.pi))


def ssc_scan_roots(params: DimensionParams):
    """(count, roots): the zeros of the connection function F inside
    SSC_WINDOW, counted by the argument principle and located on its real
    segment, in two `ssc_mode_scan` calls.

    count is the winding number of F along the window's boundary (Henrici,
    Applied and Computational Complex Analysis I).  F is real on the real
    axis; the first call also samples it at SSC_SIDE_POINTS midpoints of the
    real segment, off the integers where the series cannot start.  A circle
    of radius SSC_CIRCLE[0] between the two samples of each sign change
    locates its zero: where F winds once about it, the zero is the ratio of
    the trapezoid-rule integrals of z/F and 1/F on the circle, which needs
    no evaluation at the zero or at a resonance.
    """
    (re0, re1), (im0, im1) = SSC_WINDOW
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    t = np.arange(SSC_SIDE_POINTS) / SSC_SIDE_POINTS
    boundary = np.concatenate([a + (b - a) * t for a, b in zip(corners, corners[1:] + corners[:1])])
    line = re0 + (re1 - re0) * (t + 0.5 / SSC_SIDE_POINTS)
    f = ssc_mode_scan(params, np.concatenate([boundary, line]))
    count = _winding(f[: boundary.size])
    centres = 0.5 * (line[1:] + line[:-1])[np.diff(np.signbit(f[boundary.size :].real))]
    radius, n = SSC_CIRCLE
    offsets = radius * np.exp(2j * np.pi * np.arange(n) / n)
    roots = []
    for c, fc in zip(centres, ssc_mode_scan(params, np.add.outer(centres, offsets))):
        if _winding(fc) == 1:
            w = offsets / fc
            roots.append(complex(np.sum((c + offsets) * w) / np.sum(w)))
    return count, sorted(roots, key=lambda z: (-z.real, abs(z.imag)))
