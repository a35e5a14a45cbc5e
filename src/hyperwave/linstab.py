"""Assembly and spectral analysis of the linearized wave evolution: dense
collocation matrices with one cached eigen-decomposition and cached matrix
exponentials each, filtered spectra, the rank-one spectral projection onto
the unstable mode, and the connection-determinant scan of the mode equation
in standard similarity coordinates.
"""

import importlib.util
import sys
from dataclasses import dataclass, field

import numpy as np

from . import coeffs
from .grids import Grid, make_grid
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


def _lazy_module(name):
    """The module `name`, executed on its first attribute access: the one in
    sys.modules if it is already imported, else a lazy one registered there.

    Importing any scipy subpackage costs about 0.2 s (scipy's array-API shim
    loads every lazy numpy submodule, numpy.f2py included), which `identities`
    never needs.  A function-level import would keep the module
    out of sys.modules until the first call, so a profiler that wraps
    `scipy.linalg.eig` after `import hyperwave.cli` (bench/tracer.py) would
    find nothing to wrap; the lazy module is there, and loads when read.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


linalg = _lazy_module("scipy.linalg")

# smallest node count at which the generator is resolved well enough for
# spectral work
SPECTRAL_MIN_N = 48

SPECTRUM_WINDOW = -1.0
MATCH_TOL = 1e-4
REFINE_NODES = 16


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
        """(eigenvalues, left eigenvectors, right eigenvectors), computed once.
        Only single eigenpairs are read: the eigenvector matrix as a whole
        (cond ~ 3e17 at N = 64) is useless for diagonalizing L."""
        if self._eig is None:
            self._eig = linalg.eig(self.matrix, left=True, right=True)
        return self._eig

    def propagator(self, t):
        """exp(t A) for this matrix A, cached per exact t: repeated
        evolutions with the same step share one matrix exponential."""
        E = self._propagators.get(t)
        if E is None:
            E = self._propagators[t] = linalg.expm(t * self.matrix)
        return E


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
    """Filtered spectrum of the linearized evolution with a stability verdict."""

    d: int
    R: float
    N: int
    eigenvalues: list
    raw: np.ndarray

    @property
    def unstable(self):
        return [z for z in self.eigenvalues if z.real >= 0.0]

    @property
    def gap(self):
        rest = [z.real for z in self.eigenvalues if abs(z - 1.0) > 1e-6]
        if not rest:
            return -SPECTRUM_WINDOW
        return float(-max(rest))

    def verdict(self):
        uns = self.unstable
        return len(uns) == 1 and abs(uns[0] - 1.0) < 1e-6

    def to_json_dict(self):
        return {
            "d": self.d,
            "R": self.R,
            "N": self.N,
            "eigenvalues": [
                {"re": float(z.real), "im": float(z.imag), "stable": bool(z.real < 0.0)}
                for z in self.eigenvalues
            ],
            "gap": self.gap,
            "window": SPECTRUM_WINDOW,
            "mode_stable": bool(self.verdict()),
        }


def spectrum(op: OperatorMatrix) -> SpectrumResult:
    """Eigenvalues of L filtered for discretization artifacts.

    An eigenvalue in the half-plane Re z >= SPECTRUM_WINDOW counts as
    resolved when a companion assembly at N + REFINE_NODES reproduces it
    within MATCH_TOL.
    """
    raw = op.eig()[0]
    fine_grid = make_grid(op.grid.R, op.grid.N + REFINE_NODES)
    raw_fine = linalg.eigvals(assemble_L(op.params, fine_grid).matrix)
    kept = []
    for z in raw[raw.real >= SPECTRUM_WINDOW]:
        if np.min(np.abs(raw_fine - z)) < MATCH_TOL:
            kept.append(complex(z))
    kept.sort(key=lambda z: (-z.real, abs(z.imag)))
    # collapse conjugate-pair duplicates within the matching tolerance
    out = []
    for z in kept:
        if not any(abs(z - w) < MATCH_TOL for w in out):
            out.append(z)
    return SpectrumResult(
        d=op.params.d,
        R=op.grid.R,
        N=op.grid.N,
        eigenvalues=out,
        raw=raw,
    )


def _state_inner(grid: Grid, d, u, v):
    w = grid.radial_weights(d)
    n = grid.N
    return float(w @ (u[:n] * v[:n]) + w @ (u[n:] * v[n:]))


def mode_angle(op: OperatorMatrix):
    """Angle between the discrete eigenvector at eigenvalue 1 and the
    analytic symmetry mode, in the radially weighted inner product."""
    values, _, right = op.eig()
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
    its right and left eigenvectors.  That eigenvalue (the symmetry mode) is
    simple and isolated, so this rank-one form is exactly the Riesz
    projector (Kato, Perturbation Theory, I.5)."""
    values, left, right = op.eig()
    i = np.argmin(np.abs(values - 1.0))
    v, w = right[:, i], left[:, i].conj()
    return np.real(np.outer(v, w) / (w @ v))


# ----------------------------------------------------------------------
# standard-similarity-coordinate mode scan

# Frobenius series order of each branch, and the |det| below which a scan
# grid minimum seeds a secant polish
SSC_SERIES_ORDER = 220
SSC_SEED_THRESHOLD = 0.05


def _poly_mul(a, b):
    return np.convolve(a, b)


def _poly_shift(a):
    """Coefficients of p(1 - x) from those of p."""
    n = len(a)
    out = np.zeros(n, dtype=complex)
    term = np.zeros(n, dtype=complex)
    term[0] = 1.0
    for k in range(n):
        out[: n] += a[k] * term
        if k < n - 1:
            term = np.convolve(term, np.array([1.0, -1.0]))[:n]
    return out


def _ssc_polynomials(params: DimensionParams, lam):
    """Polynomial coefficients A g'' + B g' + C g = 0 of the mode equation in
    standard similarity coordinates, cleared of denominators."""
    a, b = params.a, params.b
    d = params.d
    bq2 = _poly_mul(np.array([b, 0, 1.0], dtype=complex), np.array([b, 0, 1.0], dtype=complex))
    vnum = np.array([6.0 * (d - 4) * a * b, 0.0, -3.0 * (d - 4) * a * (a - 2.0)], dtype=complex)
    A = _poly_mul(np.array([0.0, 1.0, 0.0, -1.0], dtype=complex), bq2)
    B = _poly_mul(np.array([d - 1.0, 0.0, -2.0 * (lam + 3.0)], dtype=complex), bq2)
    m = max(len(vnum), len(bq2))
    vp = np.pad(vnum, (0, m - len(vnum)))
    bp = np.pad(bq2, (0, m - len(bq2)))
    C = _poly_mul(np.array([0.0, 1.0], dtype=complex), vp - (lam + 2.0) * (lam + 3.0) * bp)
    return A, B, C


def _series_branch(A, B, C, x_eval):
    """Index-0 Frobenius series of A g'' + B g' + C g = 0 about 0 to order
    SSC_SERIES_ORDER, evaluated with its derivative at x_eval.  Requires
    A(0) = 0, B(0) != 0 and no resonance among the recursion factors."""
    nmax = SSC_SERIES_ORDER
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    c = np.zeros(nmax + 1, dtype=complex)
    c[0] = 1.0
    scale = max(abs(A[1]), abs(B[0]), 1.0)
    for n in range(nmax):
        acc = 0.0 + 0.0j
        for i in range(len(A)):
            m = n + 2 - i
            if 2 <= m <= n:
                acc += A[i] * m * (m - 1) * c[m]
        for i in range(len(B)):
            m = n + 1 - i
            if 1 <= m <= n:
                acc += B[i] * m * c[m]
        for i in range(len(C)):
            m = n - i
            if 0 <= m <= n:
                acc += C[i] * c[m]
        fac = A[1] * (n + 1) * n + B[0] * (n + 1)
        if abs(fac) < 1e-10 * scale * (n + 1):
            raise ValueError(f"resonant Frobenius recursion at order {n + 1}")
        c[n + 1] = -acc / fac
    tail = np.max(np.abs(c[-8:])) * abs(x_eval) ** (nmax - 8)
    head = np.max(np.abs(c[: nmax // 2])) * max(abs(x_eval), 1e-2)
    if tail > 1e-13 * max(head, 1.0):
        raise ValueError(f"Frobenius series not converged at radius {x_eval}: tail {tail:.1e}")
    val = np.polynomial.polynomial.polyval(x_eval, c)
    dval = np.polynomial.polynomial.polyval(x_eval, c[1:] * np.arange(1, nmax + 1))
    return val, dval


def ssc_mode_scan(params: DimensionParams, lam):
    """Normalized connection determinant of the mode equation in standard
    similarity coordinates.

    Analytic Frobenius branches are launched from both regular singular
    endpoints (rho = 0 and rho = 1) and matched at rho = 1/2; the normalized
    Wronskian vanishes exactly at the eigenvalues.
    """
    lam = complex(lam)
    A, B, C = _ssc_polynomials(params, lam)
    g0, dg0 = _series_branch(A, B, C, 0.5)
    pad = len(A) + 2
    At = _poly_shift(np.pad(A, (0, pad - len(A))))
    Bt = _poly_shift(np.pad(B, (0, pad - len(B))))
    Ct = _poly_shift(np.pad(C, (0, pad - len(C))))
    g1, dg1x = _series_branch(At, -Bt, Ct, 0.5)
    dg1 = -dg1x
    det = g0 * dg1 - dg0 * g1
    norm = (abs(g0) + abs(dg0)) * (abs(g1) + abs(dg1))
    return det / norm


def ssc_scan_roots(
    params: DimensionParams,
    re_range=(0.0, 2.0),
    im_range=(-2.0, 2.0),
    n_re=21,
    n_im=21,
):
    """Zeros of the connection determinant inside a rectangular window.

    Grid local minima of |det| below SSC_SEED_THRESHOLD seed a complex
    secant polish; polished roots are deduplicated and validated.
    """
    res = np.linspace(re_range[0], re_range[1], n_re)
    ims = np.linspace(im_range[0], im_range[1], n_im)
    vals = np.empty((n_re, n_im), dtype=complex)
    for i, re in enumerate(res):
        for j, im in enumerate(ims):
            try:
                vals[i, j] = ssc_mode_scan(params, re + 1j * im)
            except ValueError:
                vals[i, j] = np.nan
    mags = np.abs(vals)
    roots = []
    for i in range(n_re):
        for j in range(n_im):
            m = mags[i, j]
            if not np.isfinite(m) or m > SSC_SEED_THRESHOLD:
                continue
            neigh = mags[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
            if m > np.nanmin(neigh):
                continue
            root = _secant_polish(params, res[i] + 1j * ims[j])
            if root is None:
                continue
            if not (
                re_range[0] - 0.05 <= root.real <= re_range[1] + 0.05
                and im_range[0] - 0.05 <= root.imag <= im_range[1] + 0.05
            ):
                continue
            if not any(abs(root - r) < 1e-4 for r in roots):
                roots.append(root)
    return sorted(roots, key=lambda z: (-z.real, abs(z.imag)))


def _secant_polish(params, z0):
    z1 = z0 + 1e-3
    try:
        f0 = ssc_mode_scan(params, z0)
        f1 = ssc_mode_scan(params, z1)
    except ValueError:
        return None
    for _ in range(40):
        denom = f1 - f0
        if denom == 0:
            break
        z2 = z1 - f1 * (z1 - z0) / denom
        z0, f0 = z1, f1
        z1 = z2
        try:
            f1 = ssc_mode_scan(params, z1)
        except ValueError:
            return None
        if abs(f1) < 1e-10:
            return complex(z1)
    return complex(z1) if abs(f1) < 1e-8 else None
