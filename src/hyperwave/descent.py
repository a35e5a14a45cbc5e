"""Descent operators between odd space dimensions, their inverses (four
N x N dilation kernels of the grid for each d > 3, read from the grid's one
kernel table, and a division by eta for the terminal 3 -> 1 step), the
composite reduction to the 1-d wave equation, the free radial wave
propagator built from it, and the upwind finite-difference reference solver,
one march to one time, that `freewave` cross-checks the propagator against
at s = 1, read at the nodes by the cubic through the four nearest cells.

States are stacked half-grid vectors [F1; F2]: even in every d >= 3, and
odd on the 1-d module after the terminal step D_3, which is where the
half-wave machinery of `halfwave` evolves them.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import coeffs
from .halfwave import evolve_S1, kernel_table
from .model import HEIGHT

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


def _require_descent_d(d):
    if d < 3 or d % 2 == 0:
        raise ValueError(f"descent steps need odd d >= 3, got d={d}")


def descent_step(d, grid, v):
    """One descent step d -> d-2 (or the terminal 3 -> 1 multiplication) of
    the even stacked state v; the result is even, or odd after D_3."""
    _require_descent_d(d)
    return np.concatenate(_descent_pair(d, grid.eta, *np.split(v, 2), grid.deriv_half))


def descent_step_inverse(d, grid, v):
    """Inverse of one descent step, by the integrated-by-parts kernel form:
    an even stacked state from an even one, or from an odd one for d = 3.

    The homogeneous-solution coefficients vanish for smooth targets, so the
    particular solution built from the kernel weights is the inverse.
    """
    _require_descent_d(d)
    eta = grid.eta
    g1, g2 = np.split(v, 2)
    if d == 3:
        # D_3 (F1, F2) = (eta F1, eta (F2 - F1))
        return np.concatenate([g1 / eta, (g1 + g2) / eta])
    h = HEIGHT.h(eta)
    K11, K12, K21, K22 = kernel_table(grid, d)[d]
    J11, J12, J21, J22 = K11 @ g1, K12 @ g1, K21 @ g2, K22 @ g2
    S = np.sqrt(2.0 + eta * eta)
    local = (3.0 - 2.0 * S) / (S - 1.0) * g1
    f1 = -h * J11 + J12 - h * J21 + J22
    f2 = -(d - 3.0) * h * J11 + (d - 2.0) * J12 + local - (d - 3.0) * h * J21 + (d - 2.0) * J22
    return np.concatenate([f1, f2])


def descent_full(d, grid, v):
    """Composite descent D_3 o D_5 o ... o D_d onto the odd 1-d module."""
    _require_descent_d(d)
    for dd in range(d, 1, -2):
        v = descent_step(dd, grid, v)
    return v


def descent_full_inverse(d, grid, v):
    _require_descent_d(d)
    for dd in range(3, d + 1, 2):
        v = descent_step_inverse(dd, grid, v)
    return v


def evolve_free_wave(d, grid, v, ds):
    """Free radial wave propagator e^{ds} D_d^{-1} S_1(ds) D_d on the even
    stacked state v."""
    kernel_table(grid, d)  # the recomposition and every inverse in one pass
    up = descent_full_inverse(d, grid, evolve_S1(grid, descent_full(d, grid, v), ds))
    return up * np.exp(float(ds))


# Courant number of the FD oracle's RK4 steps.  RK4 on the third-order
# upwind-biased stencil (2, 3, -6, 1)/(6 dr) is stable up to 1.7453 against
# the local speed (von Neumann on the stencil's symbol), and 1.5 is 86% of it.
FD_CFL = 1.5
# Cells each side of W1's sonic point eta = 1/2 (where h_+ = 0 and its speed
# changes sign) that keep the second-order stencil (3, -4, 1)/(2 dr).  With
# the third-order stencil there too, the d = 9 operator has an eigenvalue of
# Re 0.44 to 0.77 (R = 2, m = 100 to 800) that the free generator lacks;
# with these cells every eigenvalue at d <= 9 has Re < 0.
_FD_SONIC = 8
_FD_BLOCK = 16  # even iterates of the FD march held at once, added to v's integral in one sum
_FD_ROWS = 16  # rows of P^2 in one dense block of the FD march


def _band_product(X, Y, Z=None):
    """X @ Y for n x n band matrices in row-window storage: B[i, k] holds
    entry (i, i + k - p) of a matrix with p diagonals each side, and the
    cells that fall outside the matrix hold zero.  The product, stored the
    same way, has p + q diagonals each side; it is written into Z, a zeroed
    n x (2 (p + q) + 1) array or view, when one is given."""
    n, p, q = X.shape[0], X.shape[1] // 2, Y.shape[1] // 2
    Ypad = np.pad(Y, ((p, p), (0, 0)))
    if Z is None:
        Z = np.zeros((n, 2 * (p + q) + 1))
    for a in range(2 * p + 1):  # entry (i, i + a - p) of X meets row i + a - p of Y
        Z[:, a : a + 2 * q + 1] += X[:, a, None] * Ypad[a : a + n]
    return Z


def _band_matvec(B, x):
    """B @ x for B in row-window storage (`_band_product`): each row of B
    against its window of the zero-padded x, one BLAS dot product a row."""
    p = B.shape[1] // 2
    return np.vecdot(B, sliding_window_view(np.pad(x, p), 2 * p + 1))


def _square_blocks(P):
    """P @ P for P in row-window storage with p diagonals each side, as
    dense blocks of b = `_FD_ROWS` rows: block k holds rows b k, ...,
    b k + b - 1 on columns b k - 2p, ..., b k + b + 2p - 1, shape
    (nb, b, b + 4p), and the rows past the matrix are zero.

    Row a of block k is row i = b k + a of P^2, whose 4p + 1 band entries
    start at block column a.  With the blocks b (b + 4p + 1) entries apart,
    that start lies (b + 4p + 1) i entries into the buffer, so the band rows
    are one row-window view of it and `_band_product` writes them in place."""
    b, n, p = _FD_ROWS, P.shape[0], P.shape[1] // 2
    nb = -(-n // b)
    buf = np.zeros((nb, b * (b + 4 * p + 1)))
    _band_product(P, P, buf.reshape(nb * b, b + 4 * p + 1)[:n, : 4 * p + 1])
    return buf[:, : b * (b + 4 * p)].reshape(nb, b, b + 4 * p)


def _rk4_band(A, h):
    """(P, Q) for the classical RK4 step of size h of x' = A x, A banded in
    row-window storage: P = I + hA Q, Q = I + hA/2 (I + hA/3 (I + hA/4)), the
    degree-4 Taylor polynomial of exp(hA) in nested form, built by band
    products.  A step by P agrees with the four-stage step to rounding."""
    hA = h * A
    P = np.ones((A.shape[0], 1))
    for k in (4.0, 3.0, 2.0, 1.0):
        Q, P = P, _band_product(hA / k, P)
        P[:, P.shape[1] // 2] += 1.0
    return P, Q


def _fd_operator(d, R, m):
    """The FD grid of m staggered cells on [0, R], and on it the linear,
    time-independent right-hand side of the state (v, w), where w interleaves
    the half-wave fields, W1 of cell i at 2i and W2 at 2i + 1.  Returns
    (r, (A_vw, A_ww), largest speed): v' = a1 W1 + a2 W2 with A_vw = (a1, a2),
    and w' = A_ww w, four diagonals each side in row-window storage.

        v'  = -((h + r) W1 + (h - r) W2) / 2
        W1' = (-h_+ dW1 + c (W1 - W2)) / h_+' - W1
        W2' = (-h_- dW2 + c (W1 - W2)) / h_-' - W2

    where dW is the derivative along the speed h_pm / h_pm', and c is the
    dimensional coupling.  With u the upwind direction (-1 for a rightward
    speed), dW is the third-order upwind-biased (2, 3, -6, 1)/(6 dr) on cells
    i - u, i, i + u, i + 2u: one downwind cell and two upwind ones.  The
    second-order upwind (3, -4, 1)/(2 dr) on cells i, i + u, i + 2u stays on
    the outflow cell, whose downwind cell would lie past eta = R, and on W1
    within `_FD_SONIC` cells of its sonic point eta = 1/2.  Cells -1 and -2
    below the origin are mirror ghosts of the partner field's cells 0 and 1,
    next to the diagonal in w.  W1's speed points leftward below eta = 1/2,
    where the backward light cone of the tip meets the slice; there its
    stencil reaches up to two cells outward, and a stencil past the last
    cell, which would need an inflow value at eta = R, raises ValueError.
    """
    if m < 4:
        raise ValueError(f"m must be at least 4 for a four-cell cubic, got m={m}")
    dr = R / m
    r = (np.arange(m) + 0.5) * dr
    h = HEIGHT.h(r)
    dh = HEIGHT.dh(r)
    hp, hm = r + h, r - h
    hpd, hmd = 1.0 + dh, 1.0 - dh
    couple = (r * dh - h) * (d - 1.0) / (2.0 * r)
    i = np.arange(m)
    W1, W2 = 2 * i, 2 * i + 1  # row and column of each field in w
    rows = [W1, W1, W2, W2]
    cols = [W1, W2, W1, W2]
    vals = [couple / hpd - 1.0, -couple / hpd, couple / hmd, -couple / hmd - 1.0]
    for coef, speed, own, ghost, sonic in (
        (-hp / (hpd * dr), hp / hpd, 0, 1, np.abs(r - 0.5) < _FD_SONIC * dr),
        (-hm / (hmd * dr), hm / hmd, 1, 0, False),
    ):
        up = np.where(speed >= 0.0, -1, 1)  # the upwind direction
        second = sonic | (i - up >= m)  # or a downwind cell past eta = R
        # the weight of cell i + k up, times dr, in the third- and second-order stencils
        for k, w3, w2 in ((-1, 1 / 3, 0.0), (0, 1 / 2, 3 / 2), (1, -1.0, -2.0), (2, 1 / 6, 1 / 2)):
            weight = np.where(second, w2, w3)
            used = weight != 0.0
            j = (i + k * up)[used]
            if np.any(j >= m):
                raise ValueError(
                    f"the FD stencil reaches past the last cell at R={R}: W1's speed "
                    f"points inward below eta = 1/2, and the last two of the {m} cells "
                    "must lie above it"
                )
            rows.append(2 * i[used] + own)
            cols.append(np.where(j >= 0, 2 * j + own, 2 * (-1 - j) + ghost))
            vals.append((-up * weight * coef)[used])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A_ww = np.zeros((2 * m, 9))
    # coincident entries (stencil centre and diagonal, ghost and coupling) are summed
    np.add.at(A_ww, (rows, cols - rows + 4), np.concatenate(vals))
    A_vw = (-(h + r) / 2.0, -(h - r) / 2.0)
    return r, (A_vw, A_ww), np.max(np.maximum(np.abs(hp / hpd), np.abs(hm / hmd)))


def _fd_start(d, f1, f2, span, R, m):
    """The FD oracle's cells r, right-hand side A = (A_vw, A_ww), step dt and
    its count per span (the CFL step `FD_CFL dr / speed`, shrunk to divide
    `span` into equal steps), and initial state: v0 and the interleaved w0
    of the half-wave fields W1, W2 built from (v, d_s v) with d_eta v by
    4th-order FD.  The step sits at 86% of the RK4 limit 1.7453 of the
    third-order upwind-biased stencil, so the step amplifies none of the
    stencil's Fourier modes."""
    r, A, speed = _fd_operator(d, R, m)
    dr = R / m
    nsteps = int(np.ceil(span / (FD_CFL * dr / speed)))
    dt = span / nsteps

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
    return r, A, dt, nsteps, v0, np.stack([W1, W2], axis=1).ravel()


def _fd_run(d, f1, f2, s_end, R, m):
    """March the characteristic first-order form of the radial wave system.

    Variables are v and the rescaled half-wave fields W1, W2 (the Cartesian
    d'Alembert fields dt u +- dr u composed with the coordinate map, times
    e^{-s}), which satisfy autonomous transport equations with speeds
    h_pm/h_pm' and a dimensional coupling; v itself integrates alongside.
    Returns (r, v, d_s v) on the cells r at s = s_end.

    The right-hand side is constant and no field depends on v, so one
    classical RK4 step on (v, w) is [[I, dt A_vw Q], [0, P]] with
    (P, Q) = `_rk4_band(A_ww, dt)`, built once, and v is a passive integral:
    v = v0 + dt A_vw (Q acc), with acc the sum of the iterates before the
    last, and d_s v = A_vw w.  These agree with the full step x <- P x to
    rounding.

    The march takes two steps per product, w <- P^2 w, with P^2 in the
    dense blocks of `_square_blocks`, built once: one matmul of the
    (nb, 16, 80) blocks against the (nb, 80, 1) windows of the zero-padded
    iterate, block k's window starting 16 k cells in.  The even iterates go
    into a block of `_FD_BLOCK` + 1 padded rows, each product reading row j
    and writing row j + 1; a full block is added to their sum u in one sum
    and its last row starts the next one.  The odd iterates are P u, so
    acc = u + P u, and an odd step count adds the last even iterate to acc
    and takes one step by P to the end.
    """
    if not s_end > 0.0:
        raise ValueError(f"s_end must be positive, got s_end={s_end}")
    r, ((a1, a2), A_ww), dt, nsteps, v0, w = _fd_start(d, f1, f2, s_end, R, m)
    P, Q = _rk4_band(A_ww, dt)
    blocks = _square_blocks(P)
    nb, b, width = blocks.shape
    pad = (width - b) // 2
    block = np.zeros((_FD_BLOCK + 1, nb * b + 2 * pad))
    rows = block[:, pad : pad + w.size]
    # product j of a block reads the windows of row j and writes row j + 1
    windows = sliding_window_view(block, width, axis=1)[:, ::b, :, None]
    steps = list(zip(windows, block[1:, pad : pad + nb * b].reshape(_FD_BLOCK, nb, b, 1)))
    rows[0] = w
    u = np.zeros_like(w)
    nprod = nsteps // 2
    for start in range(0, nprod, _FD_BLOCK):
        k = min(_FD_BLOCK, nprod - start)
        for win, out in steps[:k]:
            np.matmul(blocks, win, out=out)
        u += rows[:k].sum(axis=0)
        block[0] = block[k]
    acc = u + _band_matvec(P, u)
    w = rows[0]
    if nsteps % 2:
        acc += w
        w = _band_matvec(P, w)
    q = _band_matvec(Q, acc)
    return r, v0 + dt * (a1 * q[0::2] + a2 * q[1::2]), a1 * w[0::2] + a2 * w[1::2]


def _at_nodes(r, fields, eta):
    """The FD fields on the cells r at the nodes eta, each by the cubic
    through the four cells nearest the node; the end cubics extend past the
    first and last cells.  The cells are uniform, r_i = (i + 1/2) dr, so in
    the cell coordinate u = eta/dr - 1/2 the cubic through cells j, ..., j + 3
    has the four-point Lagrange weights in t = u - j."""
    dr = 2.0 * r[0]
    u = eta / dr - 0.5
    j = np.clip(np.floor(u).astype(int) - 1, 0, r.size - 4)
    t = u - j
    weights = (
        -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
        t * (t - 2.0) * (t - 3.0) / 2.0,
        -t * (t - 1.0) * (t - 3.0) / 2.0,
        t * (t - 1.0) * (t - 2.0) / 6.0,
    )
    F = np.stack(fields)
    return tuple(sum(w * F[:, j + k] for k, w in enumerate(weights)))


def direct_fd_oracle(d, f1, f2, s_end, R, eta, m=800):
    """Upwinded method-of-lines reference for the radial wave evolution in
    similarity coordinates, from callable initial data (v, d_s v): v at time
    s_end and the nodes eta, from one third-order march on m cells."""
    return fd_oracle_series(d, f1, f2, s_end, R, eta, m)[0]


def fd_oracle_series(d, f1, f2, s_end, R, eta, m):
    """(v, d_s v) of the reference solution at time s_end and the nodes eta
    (see `_fd_run`), on m cells; no extrapolation."""
    r, v, vs = _fd_run(d, f1, f2, s_end, R, m)
    return _at_nodes(r, (v, vs), eta)
