"""The blowup-stability experiment: Cauchy evolution of perturbed data in
(t, r), preparation of initial data on a hyperboloid, the nonlinear
hyperboloidal evolution, blowup-time adjustment by a scalar shooting
condition, and decay-rate measurement.

The (t, r) solver evolves the deviation w = u - u_1^* of the solution from
the reference blowup profile, so the zero perturbation is an exact fixed
point of the whole pipeline and finite speed of propagation is inherited up
to solver tolerance.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid, weighted_sobolev_norm
from .linstab import OperatorMatrix, riesz_projection
from .model import (
    HEIGHT,
    DimensionParams,
    initial_time_s0,
    nonlinearity_coeffs,
    symmetry_mode,
)
from .stepping import rk4

__all__ = [
    "PerturbationSpec",
    "smooth_bump",
    "CauchySolution",
    "cauchy_lattice",
    "cauchy_tr_solver",
    "initial_data_operator",
    "Trajectory",
    "evolve_nonlinear",
    "adjust_blowup_time",
    "decay_fit",
    "profile_difference",
]


def smooth_bump(z):
    """C-infinity bump supported on |z| < 1, normalized to 1 at the center."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi * zi))
    return out


@dataclass(frozen=True)
class PerturbationSpec:
    """Compactly supported smooth radial perturbation of the Cauchy data.

    f-component perturbs the field, g-component its time derivative; both
    are amplitude * weight * bump(r/eps).
    """

    amplitude: float
    eps: float = 0.05
    weight_f: float = 1.0
    weight_g: float = 0.0

    def f(self, r):
        return self.amplitude * self.weight_f * smooth_bump(np.asarray(r) / self.eps)

    def g(self, r):
        return self.amplitude * self.weight_g * smooth_bump(np.asarray(r) / self.eps)


def profile_difference(params: DimensionParams, T, t, r):
    """u_1^* - u_T^* and its (t, r) derivatives, in closed form."""
    a, b = params.a, params.b
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    den1 = b * (1.0 - t) ** 2 + r * r
    denT = b * (T - t) ** 2 + r * r
    val = -a / den1 + a / denT
    val_t = -2.0 * a * b * (1.0 - t) / den1**2 + 2.0 * a * b * (T - t) / denT**2
    val_r = 2.0 * a * r / den1**2 - 2.0 * a * r / denT**2
    return val, val_t, val_r


def _not_a_knot(x):
    """Knots of the not-a-knot cubic spline interpolating at the nodes x: the
    end nodes fourfold, and no knot at x[1] or x[-2] (de Boor, A Practical
    Guide to Splines, ch. XIII).  There are x.size B-splines."""
    return np.concatenate([np.full(4, x[0]), x[2:-2], np.full(4, x[-1])])


def _cubic_basis(knots, x):
    """The knot interval ell of each point (knots[ell] <= x < knots[ell + 1],
    the last interval closed at its right end; points beyond the end knots
    take the end intervals, whose cubics extend past them) and the values of
    the 4 cubic B-splines B_{ell-3}, ..., B_ell that are nonzero there, shape
    (x.size, 4).

    de Boor's recursion, in the operation order of scipy's `_deBoor_D`, so the
    values are those of `BSpline.design_matrix` bit for bit.  In the
    intervals of a not-a-knot knot vector no two knots of a divided
    difference coincide, so the recursion never divides by zero.
    """
    n = knots.size - 4
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, n - 1)
    b = np.zeros((4, x.size))
    b[0] = 1.0
    for j in range(1, 4):
        prev = b[:j].copy()
        b[0] = 0.0
        for i in range(1, j + 1):
            right = knots[ell + i]
            left = knots[ell + i - j]
            w = prev[i - 1] / (right - left)
            b[i - 1] += w * (right - x)
            b[i] = w * (x - left)
    return ell, b.T


def _band(knots, x):
    """The cubic B-spline collocation matrix at the nodes x as a band: row i
    holds vals[:, i] in columns start[i], ..., start[i] + 3.  Away from the
    ends of a not-a-knot knot vector start[i] = i - 1, so those rows form one
    run [lo, hi) whose columns are shifts of one another; the other rows are
    `ends`."""
    ell, vals = _cubic_basis(knots, x)
    start = ell - 3
    shifted = np.flatnonzero(start == np.arange(x.size) - 1)
    lo, hi = shifted[0], shifted[-1] + 1
    ends = [i for i in range(x.size) if not lo <= i < hi]
    return start, np.ascontiguousarray(vals.T), lo, hi, ends


def _band_product(band, c, out, axis):
    """out = B c along `axis` (0 or 1) of the 2-D array c, for the band form
    of B.  Each row sums its 4 terms left to right from zero, as a CSR
    product does (einsum accumulates into its zeroed output in the order of
    the summed index), so the result is scipy's `csr_array` product bit for
    bit."""
    start, vals, lo, hi, ends = band

    def at(index):
        return (index, slice(None)) if axis == 0 else (slice(None), index)

    # the 4 shifted copies of the run's source rows, as one view
    shifted = np.moveaxis(sliding_window_view(c[at(slice(lo - 1, hi + 2))], 4, axis=axis), -1, 0)
    np.einsum(("ki,kij->ij", "kj,kij->ij")[axis], vals[:, lo:hi], shifted, out=out[at(slice(lo, hi))])
    for i in ends:
        row = out[at(i)]
        np.multiply(vals[0, i], c[at(start[i])], out=row)
        for k in range(1, 4):
            row += vals[k, i] * c[at(start[i] + k)]


def _collocation_operator(knots_t, times, knots_r, r):
    """kron(B_t, B_r) at the grid nodes as the function c -> vec(B_t C B_r^T),
    each 1-D collocation matrix applied as a band product (de Boor, ch.
    XVII), so the Kronecker matrix is never formed.  Returns (matvec, work):
    each product returns a new array and overwrites `work`, the operator's
    one buffer (flat), which callers may use as scratch between products."""
    bt, br = _band(knots_t, times), _band(knots_r, r)
    work = np.empty((times.size, r.size))

    def matvec(c):
        out = np.empty_like(work)
        _band_product(bt, c.reshape(work.shape), work, 0)
        _band_product(br, work, out, 1)
        return out.ravel()

    return matvec, work.reshape(-1)


# Arnoldi steps in the one GMRES cycle of the Cauchy fit
GMRES_STEPS = 40


def _gmres(matvec, rhs, scratch):
    """x with |b - A x| <= max(1e-6, 1e-5 |b|), where A x is matvec(x) and b
    is rhs(): one cycle of GMRES_STEPS steps of GMRES (Saad and Schultz, SIAM
    J. Sci. Stat. Comput. 7, 1986) from x = 0, the Arnoldi basis
    orthogonalized by modified Gram-Schmidt and the Hessenberg least-squares
    problem reduced by Givens rotations.  This is scipy's
    `gcrotmk(atol=1e-6)` whenever that converges in its first cycle, which
    has these 40 steps and this rule; the two agree to rounding.

    The solve holds no copy of b: it calls rhs once to start and once for the
    true-residual check, which runs after the basis is dropped; a miss raises
    RuntimeError.  `scratch`, a vector of b's size that matvec may overwrite
    too (the collocation operator's work buffer), takes the Gram-Schmidt
    products and the terms of x.  So the solve holds at most the Arnoldi
    vectors and the next one."""
    b = rhs()
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    tol = max(1e-6, 1e-5 * beta)
    basis = [b / beta]
    del b
    # the rotated Hessenberg matrix, upper triangular: the subdiagonal is
    # rotated away as it is made
    H = np.zeros((GMRES_STEPS, GMRES_STEPS))
    cos, sin = np.zeros(GMRES_STEPS), np.zeros(GMRES_STEPS)
    g = np.zeros(GMRES_STEPS + 1)
    g[0] = beta
    for j in range(GMRES_STEPS):
        w = matvec(basis[j])
        for i in range(j + 1):
            H[i, j] = h = basis[i] @ w
            w -= np.multiply(basis[i], h, out=scratch)
        norm = np.linalg.norm(w)
        for i in range(j):
            H[i, j], H[i + 1, j] = (
                cos[i] * H[i, j] + sin[i] * H[i + 1, j],
                cos[i] * H[i + 1, j] - sin[i] * H[i, j],
            )
        rho = np.hypot(H[j, j], norm)
        cos[j], sin[j] = H[j, j] / rho, norm / rho
        H[j, j] = rho
        g[j + 1] = -sin[j] * g[j]
        g[j] *= cos[j]
        if abs(g[j + 1]) < tol:
            break
        w /= norm
        basis.append(w)
    y = np.linalg.solve(H[: j + 1, : j + 1], g[: j + 1])
    # x is summed in the first basis vector's memory, which no later term reads
    x = basis[0]
    x *= y[0]
    for i in range(1, j + 1):
        x += np.multiply(basis[i], y[i], out=scratch)
    del basis, w
    out = matvec(x)
    residual = float(np.linalg.norm(np.subtract(rhs(), out, out=out)))
    if not residual <= tol:
        raise RuntimeError(
            f"Cauchy spline fit: GMRES residual {residual:.2e} above {tol:.2e} "
            f"after {j + 1} steps"
        )
    return x


def _lattice_derivative(pert, times, r, w, axis):
    """w_t (axis 0) or w_r (axis 1) on the lattice w of `cauchy_lattice`, by
    np.gradient's second-order centered difference (one-sided at the ends):
    w_t along each march direction from the t = 0 row, which holds the
    initial velocity, and w_r along r with spacing r[1] - r[0], which rounds
    differently from the march's dr."""
    if axis == 1:
        return np.gradient(w, r[1] - r[0], axis=1, edge_order=2)
    w_t = np.empty_like(w)
    start = int(np.searchsorted(times, 0.0))
    # each march's levels in march order, from t = 0 outward; its first
    # level is its time step
    for outward in (slice(start, None, -1), slice(start, None)):
        w_t[outward] = np.gradient(w[outward], times[outward][1], axis=0, edge_order=2)
    w_t[start] = pert.g(r)
    return w_t


class CauchySolution:
    """Sampler for the deviation w = u - u_1^* on the (t, r) rectangle.

    `w` is the lattice of `cauchy_lattice`: `w[i, j]` is w at (times[i],
    r[j]).  Each of w, w_t and w_r is interpolated by the not-a-knot cubic
    tensor spline that scipy's `RegularGridInterpolator(method="cubic")`
    builds: one collocation operator serves all three fields, and `_gmres`,
    which is the first cycle of scipy's `gcrotmk` (atol = 1e-6), runs on it
    once per field.  w_t and w_r are derived from w (`_lattice_derivative`)
    only inside their fits, which run first, w_r before w_t; so the fits
    hold w, the coefficients already solved for and the solve's Krylov
    vectors, and the solution keeps the coefficients alone.  The operator's
    sums are reordered from scipy's design matrix, and the solver's from
    `gcrotmk`, so the fits agree with scipy's to rounding, not bit for bit.
    """

    def __init__(self, pert, times, r, w):
        self.pert = pert
        self.times = times
        self.r = r
        self._knots = (_not_a_knot(times), _not_a_knot(r))
        operator, work = _collocation_operator(self._knots[0], times, self._knots[1], r)

        def fit(rhs):
            return _gmres(operator, rhs, work).reshape(w.shape)

        coef_r = fit(lambda: _lattice_derivative(pert, times, r, w, 1).ravel())
        coef_t = fit(lambda: _lattice_derivative(pert, times, r, w, 0).ravel())
        self._coef = (fit(w.ravel), coef_t, coef_r)

    def _spline(self, t, r):
        """(w, w_t, w_r) of the spline at points of the rectangle, shape
        (3, t.size); the 16 tensor terms are summed t-index outer, r-index
        inner, as scipy's `NdBSpline` sums them."""
        for name, x, nodes in (("t", t, self.times), ("r", r, self.r)):
            if not np.all((nodes[0] <= x) & (x <= nodes[-1])):
                raise ValueError(
                    f"Cauchy spline evaluated outside [{nodes[0]}, {nodes[-1]}] in {name}"
                )
        lt, bt = _cubic_basis(self._knots[0], t)
        lr, br = _cubic_basis(self._knots[1], r)
        vals = np.zeros((3, t.size))
        for a in range(4):
            for c in range(4):
                weight = bt[:, a] * br[:, c]
                for row, coef in zip(vals, self._coef):
                    row += coef[lt - 3 + a, lr - 3 + c] * weight
        return vals

    def deviation(self, t, r):
        """(w, w_t, w_r) at scattered points; zero outside the light cone of
        the perturbation support."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        r = np.atleast_1d(np.asarray(r, dtype=float))
        inside = r <= np.abs(t) + self.pert.eps + 2.0 * (self.r[1] - self.r[0])
        out = np.zeros((3, t.size))
        if np.any(inside):
            out[:, inside] = self._spline(t[inside], r[inside])
        return out


# a (t, r) deviation beyond this aborts the Cauchy solve
CAUCHY_GUARD = 1.0


@np.errstate(all="ignore")  # an overflowing deviation is NaN, which the guard refuses
def cauchy_lattice(params: DimensionParams, pert: PerturbationSpec, m):
    """Radial method-of-lines solution of the Cauchy problem near t = 0, as
    (times, r, w) with `w[i, j]` the deviation at (times[i], r[j]).

    Leapfrog in time (CFL number 0.4) on a staggered grid of m cells over
    r < 8 eps (even extension through r = 0) for the deviation from the
    reference profile; integrates backward to t = -4 eps and forward to
    t = eps, which covers every initial hyperboloid with blowup time in
    [1 - eps, 1 + eps].  Each level is written into the lattice as it is
    made; w_t and w_r are not stored (`_lattice_derivative` derives them).
    A deviation beyond CAUCHY_GUARD aborts with a local-existence error.
    """
    d = params.d
    eps = pert.eps
    dr = 8.0 * eps / m
    r = (np.arange(m) + 0.5) * dr
    dt = 0.4 * dr
    a, b = params.a, params.b

    u_star = lambda t: -a / (b * (1.0 - t) ** 2 + r * r)

    def accel(w, t):
        us = u_star(t)
        lap = np.empty_like(w)
        lap[1:-1] = (w[2:] - 2 * w[1:-1] + w[:-2]) / dr**2
        lap[0] = (w[1] - w[0]) / dr**2
        lap[-1] = (-2 * w[-1] + w[-2]) / dr**2  # w = 0 beyond the domain
        grad = np.empty_like(w)
        grad[1:-1] = (w[2:] - w[:-2]) / (2 * dr)
        grad[0] = (w[1] - w[0]) / (2 * dr)
        grad[-1] = (0.0 - w[-2]) / (2 * dr)
        nonlin = (d - 4.0) * (
            r * r * (3.0 * us * us * w + 3.0 * us * w * w + w**3)
            + 3.0 * (2.0 * us * w + w * w)
        )
        return lap + (d - 1.0) / r * grad - nonlin

    back = int(np.ceil(4.0 * eps / dt))
    forth = int(np.ceil(eps / dt))
    times = np.empty(back + 1 + forth)
    lattice = np.empty((times.size, m))
    w0 = pert.f(r)
    v0 = pert.g(r)
    for direction, n_steps in ((-1, back), (+1, forth)):
        # the march's levels in march order, from t = 0 outward
        outward = slice(back, None, direction)
        t_dir, w_dir = times[outward], lattice[outward]
        h = direction * dt
        t_dir[0] = 0.0
        w_dir[0] = w0
        w_prev = w0
        w_curr = w0 + h * v0 + 0.5 * h * h * accel(w0, 0.0)
        t = h
        for k in range(1, n_steps + 1):
            t_dir[k] = t
            w_dir[k] = w_curr
            w_next = 2 * w_curr - w_prev + h * h * accel(w_curr, t)
            if not np.max(np.abs(w_next)) <= CAUCHY_GUARD:
                raise RuntimeError(
                    "local existence window exceeded: deviation grew beyond "
                    f"{CAUCHY_GUARD} at t={t + h:.3f}"
                )
            w_prev, w_curr = w_curr, w_next
            t += h
    return times, r, lattice


def cauchy_tr_solver(
    params: DimensionParams,
    pert: PerturbationSpec,
    m=360,
) -> CauchySolution:
    """The spline sampler of the Cauchy problem's solution near t = 0: the
    lattice of w from `cauchy_lattice` on m cells, handed to
    `CauchySolution`, which fits the splines of w, w_t and w_r and keeps no
    lattice."""
    return CauchySolution(pert, *cauchy_lattice(params, pert, m))


def initial_data_operator(
    params: DimensionParams,
    cauchy: CauchySolution,
    T,
    grid: Grid,
) -> np.ndarray:
    """The rescaled deviation from the T-profile on the initial hyperboloid
    s0 = initial_time_s0(eps), stacked as one vector:
    e^{-2 s0} [ (u_f - u_T^*) o eta_T ; d_s (...) ](s0, .).

    The numerically evolved part contributes only inside the light cone of
    the perturbation support; outside, the closed-form profile difference
    u_1^* - u_T^* is used directly.  A hyperboloid whose in-cone points leave
    the computed (t, r) rectangle raises `ValueError` (`cauchy.deviation`).
    """
    eps = cauchy.pert.eps
    if abs(T - 1.0) > eps + 1e-12:
        raise ValueError(f"blowup time T={T} outside the prepared window [1-eps, 1+eps]")
    s0 = initial_time_s0(eps)
    es = np.exp(-s0)
    y = grid.eta
    h = HEIGHT.h(y)
    t = T + es * h
    r = es * y
    dv, dv_t, dv_r = profile_difference(params, T, t, r)
    w, wt, wr = cauchy.deviation(t, r)
    F = w + dv
    Ft = wt + dv_t
    Fr = wr + dv_r
    first = np.exp(-2.0 * s0) * F
    second = np.exp(-2.0 * s0) * (-es) * (h * Ft + y * Fr)
    return np.concatenate([first, second])


@dataclass
class Trajectory:
    """Recorded nonlinear evolution with rescaled norm history."""

    s: np.ndarray
    norm_k: np.ndarray
    norm_km1: np.ndarray
    projection_coeff: np.ndarray
    final: np.ndarray  # the stacked state at the last step taken
    unstable: bool = False


# The integrating-factor step.  At d = 7, N = 64 and amplitude 1e-3 it
# reproduces T* of explicit RK4 at its stability-bound step exactly and the
# fitted decay rate to 4e-9 relative; a step of 0.05 moves the rate by 6e-8.
DEFAULT_STEP = 0.02

# Sobolev order of the recorded norms: H^k of the field, H^(k-1) of its
# s-derivative
NORM_ORDER = 2

# blowup-time adjustment, in s after s0: the shooting observable is read at
# SHOOT_SPAN, the final run at T* ends at DECAY_SPAN, its rate fit starts at
# FIT_SKIP.  A rate fit needs FIT_MIN_SAMPLES samples spanning FIT_MIN_SPAN
# and warns at a log-norm rise above FIT_MONOTONE_TOL in its tail half.
SHOOT_SPAN = 6.0
DECAY_SPAN = 8.0
FIT_SKIP = 4.0
FIT_MIN_SPAN = 3.0
FIT_MIN_SAMPLES = 10
FIT_MONOTONE_TOL = 0.2

# The explosion guard, in units of |v0| e^{s - s0}, the growth of the unstable
# mode.  Small-data blowup runs at N from 48 to 128 stay within 3.9 of it, and
# c * symmetry_mode data (c in 1..20) within 16 until they reach a singularity
# of the solution; at their first record past it they exceed it 87-fold or
# more, whether or not their values overflow.
EXPLOSION_FACTOR = 20.0


def evolve_nonlinear(
    op: OperatorMatrix,
    v0: np.ndarray,
    s0,
    s_end,
    dt=DEFAULT_STEP,
    n_record=33,
    projector: np.ndarray | None = None,
) -> Trajectory:
    """Integrating-factor (Lawson) RK4 integration of d_s Phi = L Phi + N(Phi)
    from the stacked state v0 at s0 to s_end, recording the rescaled Sobolev
    norms of both components and the unstable-mode coefficient.

    L is propagated exactly by exp(h L), so the step h (`dt`, default
    DEFAULT_STEP) is set by the accuracy of the nonlinear term rather than by
    the stiffness of L.  Each record interval takes ceil(span / dt) equal
    steps, which keeps the recorded values smooth in the initial data.

    A state that is not finite, or whose norm exceeds EXPLOSION_FACTOR times
    |v0| e^{s - s0}, marks the trajectory unstable and stops the recording
    instead of raising.
    """
    grid = op.grid
    params = op.params
    eta = grid.eta
    c2, c3 = nonlinearity_coeffs(params, eta)

    mode = symmetry_mode(params, eta).ravel()
    wgt = np.concatenate([grid.radial_weights(params.d)] * 2)
    mode_norm2 = float(wgt @ (mode * mode))

    def proj_coeff(v):
        pv = projector @ v if projector is not None else v
        return float(wgt @ (pv * mode)) / mode_norm2

    def forcing(alpha):
        return alpha * alpha * (c2 + c3 * alpha)

    s_values = np.linspace(s0, float(s_end), n_record)
    v = v0
    norm_scale = np.linalg.norm(v) + 1e-300
    rec_k, rec_km1, rec_a = [], [], []
    unstable = False
    s = s0
    for i, target in enumerate(s_values):
        nsteps = max(int(np.ceil((target - s) / dt)), 0)
        if nsteps:
            h = float(target - s) / nsteps
            with np.errstate(over="ignore", invalid="ignore"):
                v = rk4(forcing, v, h, nsteps, (op.propagator(h), op.propagator(0.5 * h)))
        s = target
        # a NaN norm fails the comparison too
        if not np.linalg.norm(v) <= EXPLOSION_FACTOR * norm_scale * np.exp(s - s0):
            unstable = True
            s_values = s_values[: i]
            break
        field, velocity = np.split(v, 2)
        rec_k.append(weighted_sobolev_norm(grid, field, NORM_ORDER, params.d))
        rec_km1.append(weighted_sobolev_norm(grid, velocity, NORM_ORDER - 1, params.d))
        rec_a.append(proj_coeff(v))
    return Trajectory(
        s=np.asarray(s_values, dtype=float),
        norm_k=np.array(rec_k),
        norm_km1=np.array(rec_km1),
        projection_coeff=np.array(rec_a),
        final=v,
        unstable=unstable,
    )


def decay_fit(s, norms):
    """Least-squares decay rate of a norm series: returns (omega, residual)
    with omega > 0 meaning decay.  Warns when the tail is not monotone."""
    s = np.asarray(s, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if s.size < FIT_MIN_SAMPLES or s[-1] - s[0] < FIT_MIN_SPAN:
        raise ValueError(
            f"need at least {FIT_MIN_SAMPLES} samples spanning {FIT_MIN_SPAN} in s for a rate fit"
        )
    if np.any(norms <= 0.0):
        raise ValueError("norm series must be positive for a log-linear fit")
    logn = np.log(norms)
    slope, intercept = np.polyfit(s, logn, 1)
    resid = float(np.max(np.abs(slope * s + intercept - logn)))
    tail = logn[s >= s[0] + 0.5 * (s[-1] - s[0])]
    ups = np.diff(tail)
    if ups.size and np.max(ups) > FIT_MONOTONE_TOL:
        warnings.warn("norm series tail is not monotone within tolerance", stacklevel=2)
    return float(-slope), resid


def adjust_blowup_time(op: OperatorMatrix, pert: PerturbationSpec, dt=DEFAULT_STEP):
    """Find the blowup time T* that suppresses the unstable mode, then run
    the full trajectory at T* and fit the decay rate.

    The infinite-horizon correction term is realized as the scalar shooting
    observable a(T) = <P Phi_T(s_mid), mode>/<mode, mode>.  Because the
    unstable coefficient of the prepared data is C_eps (T - 1) + O(small)
    with C_eps = 2 a b e^{s0}, a first evaluation at T = 1 predicts the root
    and a guarded secant homes in; a sign change across the result is then
    verified by bracketing.  Returns (T*, trajectory at T*, omega0,
    fit residual); omega0 and the residual are None when the norms sink to
    the floor, where no rate can be fitted.  An unstable final run raises
    RuntimeError.
    """
    params, grid = op.params, op.grid
    proj = riesz_projection(op)
    cauchy = cauchy_tr_solver(params, pert)
    s0 = initial_time_s0(pert.eps)
    s_mid = s0 + SHOOT_SPAN

    def observable(T):
        v0 = initial_data_operator(params, cauchy, T, grid)
        traj = evolve_nonlinear(op, v0, s0, s_mid, dt=dt, n_record=2, projector=proj)
        return None if traj.unstable else traj.projection_coeff[-1]

    c_eps = 2.0 * params.a * params.b * np.exp(s0)
    growth = np.exp(SHOOT_SPAN)
    a0 = observable(1.0)
    if a0 is None:
        raise RuntimeError("shooting run exploded already at T = 1; reduce the amplitude")
    if a0 == 0.0:
        t_star = 1.0
    else:
        t_prev, a_prev = 1.0, a0
        t_curr = 1.0 - a0 / (c_eps * growth)
        if abs(t_curr - 1.0) > pert.eps:
            raise RuntimeError("predicted blowup time outside the prepared window")
        for _ in range(60):
            # the step test reads no value of a: it comes before the shot
            if abs(t_curr - t_prev) < 1e-15 * max(1.0, abs(t_curr)):
                break
            a_curr = observable(t_curr)
            if a_curr is None:
                t_curr = 0.5 * (t_curr + t_prev)
                continue
            if a_curr == 0.0 or a_curr == a_prev:
                break
            t_next = t_curr - a_curr * (t_curr - t_prev) / (a_curr - a_prev)
            t_prev, a_prev = t_curr, a_curr
            t_curr = t_next
        t_star = t_curr
        delta = max(1e-9, 100.0 * abs(t_curr - t_prev))
        a_minus = observable(t_star - delta)
        a_plus = observable(t_star + delta)
        if a_minus is None or a_plus is None or a_minus * a_plus > 0.0:
            raise RuntimeError(
                "instability not one-dimensional at this resolution: no sign "
                f"change of the shooting observable across T* = {t_star}"
            )

    v0 = initial_data_operator(params, cauchy, t_star, grid)
    traj = evolve_nonlinear(op, v0, s0, s0 + DECAY_SPAN, dt=dt, n_record=33, projector=proj)
    if traj.unstable:
        raise RuntimeError(f"the final run at T* = {t_star} tripped the explosion guard")
    total = traj.norm_k + traj.norm_km1
    floor = 1e-12 * max(float(np.max(total)), 1e-300)
    sel = traj.s >= s0 + FIT_SKIP
    if np.max(total) < 1e-14 or np.any(total[sel] <= floor):
        return t_star, traj, None, None
    return t_star, traj, *decay_fit(traj.s[sel], total[sel])
