"""Descent operators between odd space dimensions, their integral-kernel
inverses, the composite reduction to the 1-d wave equation, the free radial
wave propagator built from it, and the upwind finite-difference reference
solver that `freewave` checks the propagator against.

States in d dimensions are even two-component half-grid functions; the
composite descent lands on the odd module of the 1-d machinery.
"""

import numpy as np

from . import coeffs
from .grids import Grid, GridFunction, StateVector
from .halfwave import evolve_S1
from .model import HEIGHT
from .stepping import rk4_matrix

__all__ = [
    "descent_step",
    "descent_step_inverse",
    "descent_full",
    "descent_full_inverse",
    "evolve_free_wave",
    "direct_fd_oracle",
    "fd_oracle_series",
]


def _descent_pair(d, x, F1, F2, deriv):
    """One descent step D_d on the pair (F1, F2): (d - 2) F + c1 F' + c2 (L_d F)
    per component, or the multiplication x F1, x (F2 - F1) for d = 3.  Same
    calling convention as `coeffs.generator_row`."""
    if d == 3:
        return x * F1, x * (F2 - F1)
    c1 = coeffs.c1_fn(x)
    c2 = coeffs.c2_fn(x)
    LF = (F2, coeffs.generator_row(d, x, F1, F2, deriv))
    return tuple((d - 2.0) * F + c1 * deriv(F, "even") + c2 * L for F, L in zip((F1, F2), LF))


def descent_step(d, state: StateVector) -> StateVector:
    """One descent step d -> d-2 (or the terminal 3 -> 1 multiplication)."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"descent steps need odd d >= 3, got d={d}")
    grid = state.grid
    if state.f1.parity != "even":
        raise ValueError("descent input must be an even radial state")
    out1, out2 = _descent_pair(d, grid.eta, state.f1.values, state.f2.values, grid.deriv_half)
    parity = "odd" if d == 3 else "even"
    return StateVector(GridFunction(grid, out1, parity), GridFunction(grid, out2, parity))


def _dilated(grid: Grid, g_full):
    """g(t*eta) at the dilation quadrature points, from g's full-grid values."""
    _, _, pts, interp = grid.dilation_quadrature
    return (interp @ np.asarray(g_full)).reshape(pts.shape)


def _scaled_integral(grid: Grid, gv, weight, power):
    """At each positive node eta: integral_0^1 weight(t*eta) t^power g(t*eta) dt,
    from gv = _dilated(grid, g)."""
    tq, wq, pts, _ = grid.dilation_quadrature
    wv = weight(pts.ravel()).reshape(pts.shape) if weight is not None else 1.0
    return (gv * wv * tq**power) @ wq


def descent_step_inverse(d, state: StateVector) -> StateVector:
    """Inverse of one descent step, by the integrated-by-parts kernel form.

    The homogeneous-solution coefficients vanish for smooth targets, so the
    particular solution built from the kernel weights is the inverse.
    """
    grid = state.grid
    eta = grid.eta
    if d == 3:
        if state.f1.parity != "odd":
            raise ValueError("the 3 -> 1 inverse expects an odd pair")
        g1p = grid.D @ state.f1.full()
        g2p = grid.D @ state.f2.full()
        f1 = _scaled_integral(grid, _dilated(grid, g1p), None, 0)
        f2 = _scaled_integral(grid, _dilated(grid, g1p + g2p), None, 0)
        return StateVector(GridFunction(grid, f1, "even"), GridFunction(grid, f2, "even"))
    if state.f1.parity != "even":
        raise ValueError("descent inverses for d > 3 expect even pairs")
    h = HEIGHT.h(eta)
    # each component is interpolated once and serves both of its kernels
    g1 = _dilated(grid, state.f1.full())
    g2 = _dilated(grid, state.f2.full())
    J11 = _scaled_integral(grid, g1, lambda x: coeffs.t11_fn(d, x), d - 3)
    J12 = _scaled_integral(grid, g1, lambda x: coeffs.t12_fn(d, x), d - 3)
    J21 = _scaled_integral(grid, g2, coeffs.t21_fn, d - 3)
    J22 = _scaled_integral(grid, g2, coeffs.t22_fn, d - 3)
    S = np.sqrt(2.0 + eta * eta)
    local = (3.0 - 2.0 * S) / (S - 1.0) * state.f1.values
    f1 = -h * J11 + J12 - h * J21 + J22
    f2 = -(d - 3.0) * h * J11 + (d - 2.0) * J12 + local - (d - 3.0) * h * J21 + (d - 2.0) * J22
    return StateVector(GridFunction(grid, f1, "even"), GridFunction(grid, f2, "even"))


def descent_full(d, state: StateVector) -> StateVector:
    """Composite descent D_3 o D_5 o ... o D_d onto the odd 1-d module."""
    out = state
    for dd in range(d, 1, -2):
        out = descent_step(dd, out)
    return out


def descent_full_inverse(d, state: StateVector) -> StateVector:
    out = state
    for dd in range(3, d + 1, 2):
        out = descent_step_inverse(dd, out)
    return out


def evolve_free_wave(d, state: StateVector, ds) -> StateVector:
    """Free radial wave propagator e^{ds} D_d^{-1} S_1(ds) D_d."""
    down = descent_full(d, state)
    evolved = evolve_S1(down, ds)
    up = descent_full_inverse(d, evolved)
    scale = np.exp(float(ds))
    up.f1.values *= scale
    up.f2.values *= scale
    return up


_UPWIND_WIDTH = 3  # cells spanned by the second-order upwind stencil
FD_CFL = 0.4  # Courant number of the FD oracle's RK4 steps


def _upwind_entries(coef, speed, row0, own0, ghost0):
    """COO entries of coef * (second-order upwind derivative) on a staggered
    uniform grid, for the field stored from column `own0` on.

    Cells -1 and -2 below the origin are mirror ghosts read from cells 0 and
    1 of the partner field stored from column `ghost0` on.  Rightward speeds
    use backward stencils (the outflow side at eta = R needs no closure);
    leftward speeds occur only away from the right boundary, so the phantom
    cells above eta = R carry no entries.
    """
    m = coef.size
    i = np.arange(m)
    step = np.where(speed >= 0.0, -1, 1)  # backward or forward stencil
    rows, cols, vals = [], [], []
    for k, weight in ((0, 3.0), (1, -4.0), (2, 1.0)):
        j = i + k * step
        keep = j < m
        rows.append(row0 + i[keep])
        cols.append(np.where(j >= 0, own0 + j, ghost0 - 1 - j)[keep])
        vals.append((-step * weight * coef)[keep])
    return rows, cols, vals


def _fd_operator(d, R, m):
    """The FD grid of m staggered cells on [0, R], and on it the right-hand
    side as one sparse 3m x 3m matrix on the stacked state (v, W1, W2); it is
    linear and does not depend on time.  Returns (r, A, largest speed).

        v'  = -((h + r) W1 + (h - r) W2) / 2
        W1' = (-h_+ dW1 + c (W1 - W2)) / h_+' - W1
        W2' = (-h_- dW2 + c (W1 - W2)) / h_-' - W2

    where dW is the upwind derivative along the speed h_pm / h_pm', each
    field mirrors into the other's ghost cells, and c is the dimensional
    coupling.
    """
    from scipy import sparse

    if m < _UPWIND_WIDTH:
        raise ValueError(f"m must be at least {_UPWIND_WIDTH} (the upwind stencil width), got m={m}")
    dr = R / m
    r = (np.arange(m) + 0.5) * dr
    h = HEIGHT.h(r)
    dh = HEIGHT.dh(r)
    hp, hm = r + h, r - h
    hpd, hmd = 1.0 + dh, 1.0 - dh
    couple = (r * dh - h) * (d - 1.0) / (2.0 * r)
    i = np.arange(m)
    V, W1, W2 = i, m + i, 2 * m + i  # row and column indices of each block
    rows = [V, V, W1, W1, W2, W2]
    cols = [W1, W2, W1, W2, W1, W2]
    vals = [
        -(h + r) / 2.0,
        -(h - r) / 2.0,
        couple / hpd - 1.0,
        -couple / hpd,
        couple / hmd,
        -couple / hmd - 1.0,
    ]
    for coef, speed, row0, own0, ghost0 in (
        (-hp / (hpd * 2 * dr), hp / hpd, m, m, 2 * m),
        (-hm / (hmd * 2 * dr), hm / hmd, 2 * m, 2 * m, m),
    ):
        more = _upwind_entries(coef, speed, row0, own0, ghost0)
        for acc, new in zip((rows, cols, vals), more):
            acc.extend(new)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    # coincident entries (stencil centre and diagonal, ghost and coupling) are summed
    A = sparse.coo_array(entries, shape=(3 * m, 3 * m)).tocsr()
    return r, A, np.max(np.maximum(np.abs(hp / hpd), np.abs(hm / hmd)))


def _fd_start(d, f1, f2, s_end, R, m, cfl):
    """The FD oracle's cells r, right-hand side A, step dt (the CFL step
    shrunk to divide s_end) and initial state: v0 and w0 = (W1, W2), the
    half-wave fields built from (v, d_s v) with d_eta v by 4th-order FD."""
    r, A, speed = _fd_operator(d, R, m)
    dr = R / m
    dt = cfl * dr / speed
    nsteps = int(np.ceil(s_end / dt))
    dt = s_end / nsteps

    v0 = f1(r)
    vs0 = f2(r)
    vx = np.concatenate([v0[1::-1], v0, v0[-1:-3:-1]])
    jj = np.arange(2, m + 2)
    dv0 = (-vx[jj + 2] + 8 * vx[jj + 1] - 8 * vx[jj - 1] + vx[jj - 2]) / (12 * dr)
    dv0[-2:] = (3 * v0[-2:] - 4 * np.roll(v0, 1)[-2:] + np.roll(v0, 2)[-2:]) / (2 * dr)
    h, dh = HEIGHT.h(r), HEIGHT.dh(r)
    u_scale = r * dh - h
    W1 = ((1.0 - dh) * vs0 + (r - h) * dv0) / u_scale
    W2 = ((1.0 + dh) * vs0 + (r + h) * dv0) / u_scale
    return r, A, dt, v0, np.concatenate([W1, W2])


def _fd_run(d, f1, f2, s_values, R, m, cfl):
    """March the characteristic first-order form of the radial wave system.

    Variables are v and the rescaled half-wave fields W1, W2 (the Cartesian
    d'Alembert fields dt u +- dr u composed with the coordinate map, times
    e^{-s}), which satisfy autonomous transport equations with speeds
    h_pm/h_pm' and a dimensional coupling; v itself integrates alongside.
    Returns (r, [(v, d_s v), ...]) on the cells r: one snapshot per time in
    `s_values`, in order, each at the step nearest to it.  The times must be
    sorted and non-negative, the last one positive; a time repeated, or two
    times that round to the same step, repeat the snapshot.

    The right-hand side is the constant matrix A, so one classical RK4 step
    is the constant matrix P = `rk4_matrix(A, dt)`, built once.  No field
    depends on v (A has no entries in its v columns), so v is a passive
    integral: P = [[I, P_vw], [0, P_ww]].  Each step is one sparse product
    w <- P_ww w on w = (W1, W2) and a running sum acc of the iterates; a
    snapshot takes two more, v = v0 + P_vw acc and d_s v = A_vw w.  The w
    iterates and d_s v are bit for bit those of the full step x <- P x, and
    v differs from it by rounding only.
    """
    s_values = np.asarray(s_values, dtype=float)
    if s_values.size and not s_values[-1] > 0.0:
        raise ValueError(f"s_end must be positive, got s_end={s_values[-1]}")
    if not (s_values.size and s_values[0] >= 0.0 and np.all(np.diff(s_values) >= 0.0)):
        raise ValueError(f"s_values must be sorted, non-negative times, got {s_values.tolist()}")
    if not cfl > 0.0:
        raise ValueError(f"cfl must be positive, got cfl={cfl}")
    r, A, dt, v0, w = _fd_start(d, f1, f2, s_values[-1], R, m, cfl)
    P = rk4_matrix(A, dt)
    P_vw, P_ww, A_vw = P[:m, m:], P[m:, m:], A[:m, m:]
    acc = np.zeros_like(w)
    series = []
    step = 0
    for target in np.round(s_values / dt).astype(int):
        for _ in range(target - step):
            acc += w
            w = P_ww @ w
        step = target
        series.append((v0 + P_vw @ acc, A_vw @ w))
    return r, series


def _at_nodes(r, fields, eta):
    """Not-a-knot cubic-spline interpolants of FD fields on the uniform cells
    r, at eta; the end cubics extend past the first and last cells.  These
    are the values of scipy's `CubicSpline(r, f)(eta)`, to rounding.

    In units of the cell width dr the spline's slopes sigma solve the
    tridiagonal system sigma_{i-1} + 4 sigma_i + sigma_{i+1} =
    3 (y_{i+1} - y_{i-1}), closed by the not-a-knot rows
    sigma_0 + 2 sigma_1 = (-5 y_0 + 4 y_1 + y_2) / 2 and their mirror image
    (de Boor, A Practical Guide to Splines, ch. IV); one banded solve fits
    every field.  Each interval then holds the cubic Hermite interpolant.
    """
    from scipy.linalg import solve_banded

    m = r.size
    dr = (r[-1] - r[0]) / (m - 1)
    y = np.stack(fields, axis=1)
    ab = np.ones((3, m))  # rows: super-, main and sub-diagonal
    ab[1, 1:-1] = 4.0
    ab[0, 1] = ab[2, -2] = 2.0
    b = np.empty_like(y)
    b[1:-1] = 3.0 * (y[2:] - y[:-2])
    b[0] = (-5.0 * y[0] + 4.0 * y[1] + y[2]) / 2.0
    b[-1] = (5.0 * y[-1] - 4.0 * y[-2] - y[-3]) / 2.0
    if m == 3:
        # both not-a-knot rows then say the spline is one parabola: the
        # middle row becomes sigma_0 - 2 sigma_1 + sigma_2 = 0
        ab[1, 1] = -2.0
        b[1] = 0.0
    sigma = solve_banded((1, 1), ab, b)
    i = np.clip(np.searchsorted(r, eta, side="right") - 1, 0, m - 2)
    t = ((eta - r[i]) / dr)[:, None]
    dy = y[i + 1] - y[i]
    s0, s1 = sigma[i], sigma[i + 1]
    vals = y[i] + t * (s0 + t * (3.0 * dy - 2.0 * s0 - s1 + t * (s0 + s1 - 2.0 * dy)))
    return tuple(np.ascontiguousarray(vals.T))


def direct_fd_oracle(d, f1, f2, s_end, R, eta, m=400, cfl=FD_CFL):
    """Upwinded method-of-lines reference for the radial wave evolution in
    similarity coordinates, from callable initial data (v, d_s v):
    (v, d_s v) at time s_end and the nodes eta, Richardson-extrapolated on
    the m cells for the leading O(dr^2) error."""
    r, [coarse] = _fd_run(d, f1, f2, [s_end], R, m, cfl)
    r2, [fine] = _fd_run(d, f1, f2, [s_end], R, 2 * m, cfl)
    fine = _at_nodes(r2, fine, r)
    return _at_nodes(r, [(4 * f - c) / 3.0 for f, c in zip(fine, coarse)], eta)


def fd_oracle_series(d, f1, f2, s_values, R, eta, m=300):
    """Snapshots [(v, d_s v), ...] of the reference solution at the nodes
    eta, one per time in `s_values` and in the order given (see `_fd_run`);
    no extrapolation."""
    r, shots = _fd_run(d, f1, f2, s_values, R, m, FD_CFL)
    vals = _at_nodes(r, [f for shot in shots for f in shot], eta)
    return list(zip(vals[::2], vals[1::2]))
