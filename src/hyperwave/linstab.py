"""Assembly and spectral analysis of the linearized wave evolution: dense
collocation matrices, cross-resolution eigenvalue filtering, the contour
spectral projection onto the unstable mode, linear propagation with decay
fits, and the mode-ODE machinery in both coordinate systems.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import coeffs
from .grids import Grid, StateVector, make_grid, weighted_state_norm
from .model import DimensionParams, potential, symmetry_mode

__all__ = [
    "OperatorMatrix",
    "assemble_parts",
    "assemble_L",
    "SpectrumResult",
    "spectrum",
    "mode_angle",
    "riesz_projection",
    "evolve_linear",
    "linear_decay_fit",
    "ModeODECoefficients",
    "mode_ode_coeffs",
    "frobenius_indices",
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
    _eigs: np.ndarray | None = field(default=None, repr=False)
    _propagators: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.grid.N

    def apply(self, state: StateVector) -> StateVector:
        return StateVector.from_stacked(self.grid, self.matrix @ state.stacked())

    def raw_eigenvalues(self):
        if self._eigs is None:
            self._eigs = np.linalg.eigvals(self.matrix)
        return self._eigs

    def propagator(self, t):
        """exp(t A) for this matrix A, cached per exact t: repeated
        evolutions with the same step share one matrix exponential."""
        E = self._propagators.get(t)
        if E is None:
            E = self._propagators[t] = expm(t * self.matrix)
        return E


def assemble_parts(params: DimensionParams, grid: Grid):
    """Free-wave and potential blocks as dense matrices."""
    n = grid.N
    c = coeffs.wave_coeffs(params.d, grid.eta)
    De = grid._De
    D2e = grid._Do @ De
    free = np.zeros((2 * n, 2 * n))
    free[:n, n:] = np.eye(n)
    free[n:, :n] = c.c11[:, None] * De + c.c12[:, None] * D2e
    free[n:, n:] = np.diag(c.c20) + c.c21[:, None] * De
    pot = np.zeros_like(free)
    pot[n:, :n] = np.diag(potential(params, grid.eta))
    return free, pot


def assemble_L(params: DimensionParams, grid: Grid) -> OperatorMatrix:
    """Linearized wave evolution L = L_free - 2 I + L_V on the grid.

    The discretized symmetry mode must be an eigenvector for eigenvalue 1 up
    to spectral accuracy; a large residual flags insufficient resolution.
    """
    if grid.N < SPECTRAL_MIN_N:
        raise ValueError(f"need N >= {SPECTRAL_MIN_N} for spectral work, got N={grid.N}")
    free, pot = assemble_parts(params, grid)
    L = free - 2.0 * np.eye(2 * grid.N) + pot
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
    window: float
    match_tol: float

    @property
    def unstable(self):
        return [z for z in self.eigenvalues if z.real >= 0.0]

    @property
    def gap(self):
        rest = [z.real for z in self.eigenvalues if abs(z - 1.0) > 1e-6]
        if not rest:
            return -self.window
        return float(-max(rest))

    def verdict(self, tol=1e-6):
        uns = self.unstable
        return len(uns) == 1 and abs(uns[0] - 1.0) < tol

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
            "window": self.window,
            "mode_stable": bool(self.verdict()),
        }


def spectrum(op: OperatorMatrix, window=-1.0, match_tol=1e-4, refine=16) -> SpectrumResult:
    """Eigenvalues of L filtered for discretization artifacts.

    An eigenvalue in the half-plane Re z >= window counts as resolved when a
    companion assembly at N + refine reproduces it within match_tol.
    """
    raw = op.raw_eigenvalues()
    fine_grid = make_grid(op.grid.R, op.grid.N + refine, op.grid.parity)
    fine = assemble_L(op.params, fine_grid)
    raw_fine = fine.raw_eigenvalues()
    kept = []
    for z in raw[raw.real >= window]:
        if np.min(np.abs(raw_fine - z)) < match_tol:
            kept.append(complex(z))
    kept.sort(key=lambda z: (-z.real, abs(z.imag)))
    # collapse conjugate-pair duplicates within the matching tolerance
    out = []
    for z in kept:
        if not any(abs(z - w) < match_tol for w in out):
            out.append(z)
    return SpectrumResult(
        d=op.params.d,
        R=op.grid.R,
        N=op.grid.N,
        eigenvalues=out,
        raw=raw,
        window=window,
        match_tol=match_tol,
    )


def _state_inner(grid: Grid, d, u, v):
    w = grid.w_half * grid.eta ** (d - 1)
    n = grid.N
    return float(w @ (u[:n] * v[:n]) + w @ (u[n:] * v[n:]))


def mode_angle(op: OperatorMatrix):
    """Angle between the discrete eigenvector at eigenvalue 1 and the
    analytic symmetry mode, in the radially weighted inner product."""
    eigvals, eigvecs = np.linalg.eig(op.matrix)
    idx = np.argmin(np.abs(eigvals - 1.0))
    vec = np.real(eigvecs[:, idx])
    mode = symmetry_mode(op.params, op.grid.eta).ravel()
    d = op.params.d
    g = op.grid
    cosang = abs(_state_inner(g, d, vec, mode)) / np.sqrt(
        _state_inner(g, d, vec, vec) * _state_inner(g, d, mode, mode)
    )
    return float(np.arccos(min(cosang, 1.0)))


def riesz_projection(op: OperatorMatrix, center=1.0, radius=1.0, nodes=64) -> OperatorMatrix:
    """Contour spectral projection (2 pi i)^-1 times the resolvent integral
    over the circle |z - center| = radius, by the trapezoid rule.

    The strongly non-normal resolvent peaks near z = 0, so 64 nodes are the
    default; 32 leaves the idempotency defect around 1e-5.
    """
    raw = op.raw_eigenvalues()
    dist = np.abs(np.abs(raw - center) - radius)
    if np.min(dist) < 1e-6:
        raise ValueError("contour passes through (discrete) spectrum")
    n2 = op.matrix.shape[0]
    Lc = op.matrix.astype(complex)
    eye = np.eye(n2)
    acc = np.zeros((n2, n2))
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    for t in theta:
        w = radius * np.exp(1j * t)
        acc += np.real(np.linalg.solve((center + w) * eye - Lc, w * eye))
    return OperatorMatrix(acc / nodes, op.grid, op.params)


def evolve_linear(op: OperatorMatrix, state: StateVector, s_end, record=None):
    """Exact propagation of d_s Phi = L Phi by the matrix exponential.

    `record` may be a list of output times; then (times, states) come back.
    Each record interval applies exp((target - s) L) once.  An explosion
    beyond e^{2s} growth aborts.
    """
    v = state.stacked()
    norm0 = np.linalg.norm(v) + 1e-300
    out_times = np.asarray(record, dtype=float) if record is not None else np.array([s_end])
    results = []
    s = 0.0
    for target in out_times:
        if target > s:
            v = op.propagator(target - s) @ v
        s = target
        if np.linalg.norm(v) > 100.0 * np.exp(2.0 * s) * norm0:
            raise RuntimeError(f"linear evolution exploded beyond e^(2s) growth at s={s:.2f}")
        results.append(StateVector.from_stacked(op.grid, v.copy()))
    if record is None:
        return results[0]
    return out_times, results


def linear_decay_fit(op: OperatorMatrix, state: StateVector, k=2, s_values=None):
    """Least-squares growth exponent of the weighted state norm along the
    linear evolution; returns (exponent, fit residual)."""
    if s_values is None:
        s_values = np.linspace(0.5, 6.0, 12)
    _, states = evolve_linear(op, state, float(s_values[-1]), record=s_values)
    norms = np.array(
        [weighted_state_norm(st, k, op.params.d) for st in states]
    )
    if np.any(norms <= 0.0):
        raise RuntimeError("norm collapsed to zero during the fit window")
    coeffs_fit = np.polyfit(s_values, np.log(norms), 1)
    resid = float(np.max(np.abs(np.polyval(coeffs_fit, s_values) - np.log(norms))))
    return float(coeffs_fit[0]), resid


# ----------------------------------------------------------------------
# mode ODE in both coordinate systems


@dataclass
class ModeODECoefficients:
    lam: complex
    eta: np.ndarray
    p: np.ndarray
    q: np.ndarray
    indices_origin: tuple
    indices_half: tuple


def mode_ode_coeffs(params: DimensionParams, lam, eta) -> ModeODECoefficients:
    """Coefficients of f'' + p f' + q f = 0 for separated solutions
    e^((lam+2)s) f(eta) of the linearized equation.

    Derived by eliminating the second component from the spectral equation;
    singular at eta = 0 and eta = 1/2.
    """
    lam = complex(lam)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0.0) or np.any(np.abs(eta - 0.5) < 1e-12):
        raise ValueError("mode ODE coefficients are singular at eta = 0 and eta = 1/2")
    c = coeffs.wave_coeffs(params.d, eta)
    V = potential(params, eta)
    p = (c.c11 + (lam + 2.0) * c.c21) / c.c12
    q = ((lam + 2.0) * (c.c20 - lam - 2.0) + V) / c.c12
    return ModeODECoefficients(
        lam=lam,
        eta=eta,
        p=p,
        q=q,
        indices_origin=frobenius_indices(params, lam)["origin"],
        indices_half=frobenius_indices(params, lam)["half"],
    )


def frobenius_indices(params: DimensionParams, lam):
    """Index pairs of the mode ODE at its regular singular points."""
    lam = complex(lam)
    d = params.d
    return {
        "origin": (0.0, float(2 - d)),
        "half": (0.0, (d - 5) / 2.0 - lam),
    }


# ----------------------------------------------------------------------
# standard-similarity-coordinate mode scan


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


def _series_branch(A, B, C, x_eval, nmax):
    """Index-0 Frobenius series of A g'' + B g' + C g = 0 about 0, evaluated
    with its derivative at x_eval.  Requires A(0) = 0, B(0) != 0 and no
    resonance among the recursion factors."""
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


def ssc_mode_scan(params: DimensionParams, lam, nmax=220):
    """Normalized connection determinant of the mode equation in standard
    similarity coordinates.

    Analytic Frobenius branches are launched from both regular singular
    endpoints (rho = 0 and rho = 1) and matched at rho = 1/2; the normalized
    Wronskian vanishes exactly at the eigenvalues.
    """
    lam = complex(lam)
    A, B, C = _ssc_polynomials(params, lam)
    g0, dg0 = _series_branch(A, B, C, 0.5, nmax)
    pad = len(A) + 2
    At = _poly_shift(np.pad(A, (0, pad - len(A))))
    Bt = _poly_shift(np.pad(B, (0, pad - len(B))))
    Ct = _poly_shift(np.pad(C, (0, pad - len(C))))
    g1, dg1x = _series_branch(At, -Bt, Ct, 0.5, nmax)
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
    threshold=0.05,
    nmax=220,
):
    """Zeros of the connection determinant inside a rectangular window.

    Grid local minima of |det| below the threshold seed a complex secant
    polish; polished roots are deduplicated and validated.
    """
    res = np.linspace(re_range[0], re_range[1], n_re)
    ims = np.linspace(im_range[0], im_range[1], n_im)
    vals = np.empty((n_re, n_im), dtype=complex)
    for i, re in enumerate(res):
        for j, im in enumerate(ims):
            try:
                vals[i, j] = ssc_mode_scan(params, re + 1j * im, nmax)
            except ValueError:
                vals[i, j] = np.nan
    mags = np.abs(vals)
    roots = []
    for i in range(n_re):
        for j in range(n_im):
            m = mags[i, j]
            if not np.isfinite(m) or m > threshold:
                continue
            neigh = mags[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
            if m > np.nanmin(neigh):
                continue
            root = _secant_polish(params, res[i] + 1j * ims[j], nmax)
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


def _secant_polish(params, z0, nmax, tol=1e-10, maxit=40):
    z1 = z0 + 1e-3
    try:
        f0 = ssc_mode_scan(params, z0, nmax)
        f1 = ssc_mode_scan(params, z1, nmax)
    except ValueError:
        return None
    for _ in range(maxit):
        denom = f1 - f0
        if denom == 0:
            break
        z2 = z1 - f1 * (z1 - z0) / denom
        z0, f0 = z1, f1
        z1 = z2
        try:
            f1 = ssc_mode_scan(params, z1, nmax)
        except ValueError:
            return None
        if abs(f1) < tol:
            return complex(z1)
    return complex(z1) if abs(f1) < 1e-8 else None
