"""Reference implementations that more than one test module compares the
package against, exact solutions, and the library calls and loops that
faster package code replaced.  None of them runs in a CLI pipeline; any
other reference that only one test module uses lives in that module.

- `classical_loop`: classical RK4, the reference for `descent._rk4_band`
  and the stepper of the half-wave method-of-lines oracle.
- `jexp` and the Taylor-series pipeline: the operator intertwining
  identities, evaluated in truncated Taylor arithmetic through the
  production `coeffs.generator_row` and `descent._descent_pair`, so the
  residuals certify the code that runs.
- `hpm_inner`, `halfwave_flow`, `halfwave_energy`: the transport energy of
  the half-waves, from the closed-form characteristic flow.
- `blowup_profile_hsc`: the blowup profile along the similarity coordinates.
- `evolve_linear`, `linear_decay_fit`: exact linear propagation of a
  stacked state `[f1; f2]` by the matrix exponential and the growth
  exponent of its norm.
- `exact_radial_wave`: a closed-form smooth radial free wave in every odd
  dimension, on the similarity slices the free propagator evolves between.
- `fd_run_full_state`: the FD oracle's march on the full state (v, w), one
  scipy CSR product x <- P x per step (`rk4_matrix`), behind
  `descent._fd_run`.
- `band_dense`, `dense_band`: a row-window band matrix (`descent`'s
  storage) as a dense one, and back.
- `dilation_quadrature`, `dilated`, `dilation_integral`: the dilation rule
  on one (N + 16) N x 2N barycentric matrix onto all the points t eta, read
  on full-grid data, behind `Grid.dilation_kernels`.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from hyperwave import coeffs
from hyperwave.descent import _descent_pair, _fd_start
from hyperwave.grids import Grid, weighted_state_norm
from hyperwave.jets import Taylor, jet_seed
from hyperwave.model import HEIGHT


def classical_loop(rhs, x, h, nsteps):
    for _ in range(nsteps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


# ----------------------------------------------------------------------
# Taylor-series pipeline
#
# The intertwining identities stack up to d - 1 derivatives; evaluating them
# through collocation matrices amplifies roundoff by ~N^2 per derivative and
# drowns the residual.  Carrying truncated Taylor expansions of the data
# through the same formula functions the grid path and the dense generator
# run (`coeffs.generator_row`, `_descent_pair`) keeps every derivative exact,
# so the residuals below are meaningful at the 1e-10 level and certify the
# code that runs.


def jexp(x):
    """exp of a jet (k c_k = sum_j j a_j c_(k-j)) or of an array."""
    if not isinstance(x, Taylor):
        return np.exp(x)
    a = x.coef
    out = np.zeros_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for j in range(1, k + 1):
            acc += j * a[j] * out[k - j]
        out[k] = acc / k
    return Taylor(out)


def series_deriv(F, parity):
    """Derivative of a jet; the parity argument of the grid path is moot."""
    k = np.arange(1, F.order + 1)
    return Taylor(F.coef[1:] * k[:, None])


def apply_Ld_series(d, F1, F2, x):
    return F2, coeffs.generator_row(d, x, F1, F2, series_deriv)


def descent_step_series(d, F1, F2, x):
    return _descent_pair(d, x, F1, F2, series_deriv)


def descent_full_series(d, F1, F2, x):
    for dd in range(d, 1, -2):
        F1, F2 = descent_step_series(dd, F1, F2, x)
    return F1, F2


def series_pair_norm(grid, F1, F2, k):
    total = 0.0
    for j in range(k + 1):
        total += np.sqrt(max(grid.quad_full(F1.derivative_values(j) ** 2), 0.0))
    for j in range(k):
        total += np.sqrt(max(grid.quad_full(F2.derivative_values(j) ** 2), 0.0))
    return total


def intertwining_residual(d, f1, f2, grid: Grid, k=1):
    """Relative residual of D_d L_d v - D_d v = L_1 D_d v on smooth data.

    f1, f2 are callables generic over Taylor input; the whole identity is
    evaluated in series arithmetic on the full grid and measured in the
    odd-module H^k x H^(k-1) norm, relative to the d-dimensional norm of the
    data.
    """
    order = d + k + 1
    x = jet_seed(grid.y, order)
    F1, F2 = f1(x), f2(x)
    L1c, L2c = apply_Ld_series(d, F1, F2, x)
    lhs1, lhs2 = descent_full_series(d, L1c, L2c, x)
    dv1, dv2 = descent_full_series(d, F1, F2, x)
    rhs1, rhs2 = apply_Ld_series(1, dv1, dv2, x)
    R1 = lhs1 - dv1 - rhs1
    R2 = lhs2 - dv2 - rhs2
    xm = math.prod([x] * ((d - 1) // 2), start=1.0)
    denom = series_pair_norm(grid, xm * F1, xm * F2, k + (d - 3) // 2)
    return series_pair_norm(grid, R1, R2, k) / denom


# ----------------------------------------------------------------------
# half-wave transport energy


def hpm_inner(grid, f_full, g_full, sign):
    """Inner product with the h_pm' weight 1 +- h' on [-R, R]."""
    weight = 1.0 + float(sign) * HEIGHT.dh(grid.y)
    return grid.quad_full(np.asarray(f_full) * np.conj(g_full) * weight)


def hm(y):
    """h_-(y) = y - h(y), strictly increasing like h_+."""
    return y - HEIGHT.h(y)


def hm_inverse(target):
    """The inverse of h_-, rational in its value like that of h_+."""
    m = 2.0 - np.asarray(target, dtype=float)
    return (2.0 - m * m) / (2.0 * m)


def halfwave_flow(fm, fp, ds):
    """Exact transport acting on callables; returns evaluators at time ds."""
    shrink = np.exp(-float(ds))

    def vm(y):
        return fm(hm_inverse(shrink * hm(np.asarray(y, dtype=float))))

    def vp(y):
        return fp(HEIGHT.hp_inverse(shrink * HEIGHT.hp(np.asarray(y, dtype=float))))

    return vm, vp


def halfwave_energy(grid, v, sign, s=0.0):
    """Rescaled transport energy e^{-s} (v_pm | v_pm)_{h_pm'} of the
    half-wave v = v_pm."""
    return float(np.exp(-s) * hpm_inner(grid, v, v, sign))


# ----------------------------------------------------------------------
# blowup profile and linear evolution


def blowup_profile_hsc(params, T, s, y):
    """Blowup profile and its s-derivative along the similarity coordinates.

    The composition with the coordinate map depends on s only through e^{2s},
    so the s-derivative is twice the value.  T drops out when profile and
    coordinates share the same blowup time; it is accepted for signature
    symmetry with the Cartesian version.
    """
    del T
    h = HEIGHT.h(y)
    val = -np.exp(2.0 * np.asarray(s, dtype=float)) * params.a / (params.b * h * h + np.square(y))
    return val, 2.0 * val


def evolve_linear(op, v, times):
    """Exact propagation of d_s Phi = L Phi by the matrix exponential; one
    stacked state per output time in `times` (ascending).

    Each interval between output times applies exp((target - s) L) once.
    An explosion beyond e^{2s} growth aborts.
    """
    norm0 = np.linalg.norm(v) + 1e-300
    results = []
    s = 0.0
    for target in np.asarray(times, dtype=float):
        if target > s:
            v = op.propagator(target - s) @ v
        s = target
        if np.linalg.norm(v) > 100.0 * np.exp(2.0 * s) * norm0:
            raise RuntimeError(f"linear evolution exploded beyond e^(2s) growth at s={s:.2f}")
        results.append(v.copy())
    return results


def linear_decay_fit(op, v, s_values=None):
    """Least-squares growth exponent of the order-2 weighted state norm along
    the linear evolution; returns (exponent, fit residual)."""
    if s_values is None:
        s_values = np.linspace(0.5, 6.0, 12)
    norms = np.array(
        [weighted_state_norm(op.grid, st, 2, op.params.d) for st in evolve_linear(op, v, s_values)]
    )
    if np.any(norms <= 0.0):
        raise RuntimeError("norm collapsed to zero during the fit window")
    fit = np.polyfit(s_values, np.log(norms), 1)
    resid = float(np.max(np.abs(np.polyval(fit, s_values) - np.log(norms))))
    return float(fit[0]), resid


# ----------------------------------------------------------------------
# exact free waves


def exact_radial_wave(d, eta, s, a):
    """(u, d_s u) on the slice t = e^{-s} h(eta), r = e^{-s} eta, for the
    radial free wave u = Re Q^{-(d-1)/2}, Q = (t + i a)^2 - r^2.

    Q^{-(d-1)/2} is the Lorentz-invariant solution of the wave equation in d
    odd space dimensions; shifting t by i a (a > 0) keeps Q off zero, so u
    is smooth and radial everywhere.  d_s u = -e^{-s} (h u_t + eta u_r).
    """
    k = (d - 1) // 2
    e = np.exp(-s)
    h = HEIGHT.h(eta)
    z = e * h + 1j * a
    r = e * eta
    Q = z * z - r * r
    # u_t = 2 z dQ and u_r = -2 r dQ, with dQ the derivative of Q^-k in Q
    dQ = -k * Q ** (-k - 1)
    return (Q**-k).real, (-2.0 * e * dQ * (h * z - eta * r)).real


# ----------------------------------------------------------------------
# replaced library calls and loops


def band_dense(B):
    """The n x n matrix held in row-window storage B, B[i, k] = entry
    (i, i + k - p) for p diagonals each side."""
    n, p = B.shape[0], B.shape[1] // 2
    out = np.zeros((n, n + 2 * p))
    rows = np.arange(n)[:, None]
    out[rows, rows + np.arange(2 * p + 1)] = B
    return out[:, p : p + n]


def dense_band(A, p):
    """The n x n matrix A in row-window storage with p diagonals each side;
    the cells outside the matrix hold zero."""
    n = A.shape[0]
    padded = np.zeros((n, n + 2 * p))
    padded[:, p : p + n] = A
    rows = np.arange(n)[:, None]
    return padded[rows, rows + np.arange(2 * p + 1)]


def rk4_matrix(A, h):
    """The classical RK4 step of size h for x' = A x, as one scipy CSR
    matrix: the degree-4 Taylor polynomial of exp(hA) in nested form,
    P = I + hA (I + hA/2 (I + hA/3 (I + hA/4)))."""
    from scipy import sparse

    A = sparse.csr_array(A)
    eye = sparse.eye_array(A.shape[0], format="csr")
    P = eye
    for k in (4.0, 3.0, 2.0, 1.0):
        P = eye + (h / k) * (A @ P)
    return P


def fd_run_full_state(d, f1, f2, s_end, R, m):
    """`descent._fd_run` stepping the whole state x = (v, w) with the full
    RK4 matrix P in scipy's CSR form, one product x <- P x per step."""
    from scipy import sparse

    r, ((a1, a2), A_ww), dt, nsteps, v0, w0 = _fd_start(d, f1, f2, s_end, R, m)
    A = np.zeros((3 * m, 3 * m))
    cells = np.arange(m)
    A[cells, m + 2 * cells] = a1
    A[cells, m + 2 * cells + 1] = a2
    A[m:, m:] = band_dense(A_ww)
    A = sparse.csr_array(A)
    P = rk4_matrix(A, dt)
    x = np.concatenate([v0, w0])
    for _ in range(nsteps):
        x = P @ x
    return r, x[:m], (A @ x)[:m]


def dilation_quadrature(grid):
    """Gauss-Legendre nodes t and weights w on [0, 1] (order N + 16), the
    points outer(eta, t), and the interpolation matrix onto all of them."""
    t, w = leggauss(grid.N + 16)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    pts = np.outer(grid.eta, t)
    return t, w, pts, grid.interp_matrix(pts.ravel())


def dilated(grid, g_full):
    """g(t eta) at the dilation rule's points, from g's full-grid values."""
    _, _, pts, interp = dilation_quadrature(grid)
    return (interp @ np.asarray(g_full)).reshape(pts.shape)


def dilation_integral(grid, gv, weight=None, power=0):
    """At each positive node eta: int_0^1 weight(t eta) t^power g(t eta) dt,
    from gv = dilated(grid, g)."""
    tq, wq, pts, _ = dilation_quadrature(grid)
    wv = weight(pts.ravel()).reshape(pts.shape) if weight is not None else 1.0
    return (gv * wv * tq**power) @ wq
