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

from .grids import Grid, GridFunction, StateVector, make_grid, weighted_sobolev_norm
from .linstab import OperatorMatrix, assemble_L, riesz_projection
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
    "cauchy_tr_solver",
    "HyperboloidalIC",
    "initial_data_operator",
    "Trajectory",
    "evolve_nonlinear",
    "DecayReport",
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


class CauchySolution:
    """Sampler for the deviation w = u - u_1^* on the (t, r) rectangle."""

    def __init__(self, params, pert, times, r, w, wt):
        self.params = params
        self.pert = pert
        self.times = times
        self.r = r
        self.w = w
        self.wt = wt
        dr = r[1] - r[0]
        wr = np.gradient(w, dr, axis=1, edge_order=2)
        from scipy.interpolate import RegularGridInterpolator

        pts = (times, r)
        self._iw = RegularGridInterpolator(pts, w, method="cubic")
        self._iwt = RegularGridInterpolator(pts, wt, method="cubic")
        self._iwr = RegularGridInterpolator(pts, wr, method="cubic")

    def deviation(self, t, r):
        """(w, w_t, w_r) at scattered points; zero outside the light cone of
        the perturbation support."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        r = np.atleast_1d(np.asarray(r, dtype=float))
        inside = r <= np.abs(t) + self.pert.eps + 2.0 * (self.r[1] - self.r[0])
        out = np.zeros((3, t.size))
        if np.any(inside):
            pts = np.stack([t[inside], r[inside]], axis=-1)
            out[0, inside] = self._iw(pts)
            out[1, inside] = self._iwt(pts)
            out[2, inside] = self._iwr(pts)
        return out

    def max_deviation(self):
        return float(np.max(np.abs(self.w)))


def cauchy_tr_solver(
    params: DimensionParams,
    pert: PerturbationSpec,
    t_span=None,
    r_max=None,
    m=360,
    cfl=0.4,
    blowup_guard=1.0,
) -> CauchySolution:
    """Radial method-of-lines solution of the Cauchy problem near t = 0.

    Leapfrog in time on a staggered grid (even extension through r = 0) for
    the deviation from the reference profile; integrates backward and forward
    from t = 0 far enough to cover every initial hyperboloid with blowup time
    in [1 - eps, 1 + eps].  A deviation beyond `blowup_guard` aborts with a
    local-existence error.
    """
    d = params.d
    eps = pert.eps
    if t_span is None:
        t_span = (-4.0 * eps, 1.0 * eps)
    if r_max is None:
        r_max = 8.0 * eps
    dr = r_max / m
    r = (np.arange(m) + 0.5) * dr
    dt = cfl * dr
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

    def march(direction):
        n_steps = int(np.ceil(abs(t_span[0] if direction < 0 else t_span[1]) / dt))
        h = direction * dt
        w0 = pert.f(r)
        v0 = pert.g(r)
        times = [0.0]
        levels = [w0.copy()]
        w_prev = w0
        w_curr = w0 + h * v0 + 0.5 * h * h * accel(w0, 0.0)
        t = h
        for _ in range(n_steps):
            times.append(t)
            levels.append(w_curr.copy())
            w_next = 2 * w_curr - w_prev + h * h * accel(w_curr, t)
            if np.max(np.abs(w_next)) > blowup_guard:
                raise RuntimeError(
                    "local existence window exceeded: deviation grew beyond "
                    f"{blowup_guard} at t={t + h:.3f}"
                )
            w_prev, w_curr = w_curr, w_next
            t += h
        levels = np.array(levels)
        times = np.array(times)
        # time derivative by centered differences on the stored levels
        wt = np.gradient(levels, h, axis=0, edge_order=2)
        wt[0] = v0
        return times, levels, wt

    tb, wb, wtb = march(-1)
    tf, wf, wtf = march(+1)
    times = np.concatenate([tb[::-1], tf[1:]])
    w = np.concatenate([wb[::-1], wf[1:]], axis=0)
    wt = np.concatenate([wtb[::-1], wtf[1:]], axis=0)
    return CauchySolution(params, pert, times, r, w, wt)


@dataclass
class HyperboloidalIC:
    """Initial data for the hyperboloidal evolution at s = s0."""

    state: StateVector
    s0: float
    T: float
    eps: float


def initial_data_operator(
    params: DimensionParams,
    cauchy: CauchySolution,
    T,
    grid: Grid,
) -> HyperboloidalIC:
    """Evaluate the rescaled deviation from the T-profile on the initial
    hyperboloid: e^{-2 s0} [ (u_f - u_T^*) o eta_T ; d_s (...) ](s0, .).

    The numerically evolved part contributes only inside the light cone of
    the perturbation support; outside, the closed-form profile difference
    u_1^* - u_T^* is used directly.
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
    if np.max(t) > cauchy.times[-1] or np.min(t) < cauchy.times[0]:
        inside = r <= np.abs(t) + eps
        if np.any(inside & ((t > cauchy.times[-1]) | (t < cauchy.times[0]))):
            raise ValueError("initial hyperboloid exits the computed (t, r) domain")
    dv, dv_t, dv_r = profile_difference(params, T, t, r)
    w, wt, wr = cauchy.deviation(t, r)
    F = w + dv
    Ft = wt + dv_t
    Fr = wr + dv_r
    first = np.exp(-2.0 * s0) * F
    second = np.exp(-2.0 * s0) * (-es) * (h * Ft + y * Fr)
    state = StateVector(GridFunction(grid, first, "even"), GridFunction(grid, second, "even"))
    return HyperboloidalIC(state=state, s0=s0, T=float(T), eps=eps)


@dataclass
class Trajectory:
    """Recorded nonlinear evolution with rescaled norm history."""

    s: np.ndarray
    norm_k: np.ndarray
    norm_km1: np.ndarray
    projection_coeff: np.ndarray
    final: StateVector
    unstable: bool = False
    k: int = 2


# The integrating-factor step.  At d = 7, N = 64 and amplitude 1e-3 it
# reproduces T* of explicit RK4 at its stability-bound step exactly and the
# fitted decay rate to 4e-9 relative; a step of 0.05 moves the rate by 6e-8.
DEFAULT_STEP = 0.02

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


def evolve_nonlinear(
    op: OperatorMatrix,
    ic: HyperboloidalIC,
    s_end,
    dt=None,
    n_record=33,
    k=2,
    projector: OperatorMatrix | None = None,
    nonlinearity=True,
) -> Trajectory:
    """Integrating-factor (Lawson) RK4 integration of d_s Phi = L Phi + N(Phi)
    from the hyperboloidal initial time to s_end, recording the rescaled
    Sobolev norms of both components and the unstable-mode coefficient.

    L is propagated exactly by exp(h L), so the step h (`dt`, default
    DEFAULT_STEP) is set by the accuracy of the nonlinear term rather than by
    the stiffness of L.  Each record interval takes ceil(span / dt) equal
    steps, which keeps the recorded values smooth in the initial data.

    Norm explosion marks the trajectory unstable-mode-dominated and stops the
    recording instead of raising.
    """
    grid = op.grid
    params = op.params
    if dt is None:
        dt = DEFAULT_STEP
    eta = grid.eta
    n = grid.N
    c2, c3 = nonlinearity_coeffs(params, eta)

    mode = symmetry_mode(params, eta).ravel()
    wgt = np.concatenate([grid.w_half * eta ** (params.d - 1)] * 2)
    mode_norm2 = float(wgt @ (mode * mode))
    P = projector.matrix if projector is not None else None

    def proj_coeff(v):
        pv = P @ v if P is not None else v
        return float(wgt @ (pv * mode)) / mode_norm2

    def rhs(v):
        out = np.zeros_like(v)
        if nonlinearity:
            alpha = v[:n]
            out[n:] = alpha * alpha * (c2 + c3 * alpha)
        return out

    s_values = np.linspace(ic.s0, float(s_end), n_record)
    v = ic.state.stacked().copy()
    norm_scale = np.linalg.norm(v) + 1e-300
    rec_k, rec_km1, rec_a = [], [], []
    unstable = False
    s = ic.s0
    for i, target in enumerate(s_values):
        nsteps = max(int(np.ceil((target - s) / dt)), 0)
        if nsteps:
            h = float(target - s) / nsteps
            with np.errstate(over="ignore", invalid="ignore"):
                v = rk4(rhs, v, h, nsteps, (op.propagator(h), op.propagator(0.5 * h)))
        s = target
        if not np.all(np.isfinite(v)) or np.linalg.norm(v) > 1e6 * norm_scale * np.exp(
            2.0 * (s - ic.s0)
        ):
            unstable = True
            s_values = s_values[: i]
            break
        st = StateVector.from_stacked(grid, v)
        rec_k.append(weighted_sobolev_norm(st.f1, k, params.d))
        rec_km1.append(weighted_sobolev_norm(st.f2, k - 1, params.d))
        rec_a.append(proj_coeff(v))
    return Trajectory(
        s=np.asarray(s_values, dtype=float),
        norm_k=np.array(rec_k),
        norm_km1=np.array(rec_km1),
        projection_coeff=np.array(rec_a),
        final=StateVector.from_stacked(grid, v),
        unstable=unstable,
        k=k,
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


@dataclass
class DecayReport:
    T: float
    s: np.ndarray
    norm_k: np.ndarray
    norm_km1: np.ndarray
    projection_coeff: np.ndarray
    omega_fit: float | None
    fit_residual: float | None
    floor_limited: bool
    k: int


def adjust_blowup_time(
    params: DimensionParams,
    pert: PerturbationSpec,
    grid: Grid | None = None,
    op: OperatorMatrix | None = None,
    dt=None,
):
    """Find the blowup time T* that suppresses the unstable mode, then run
    the full trajectory at T* and fit the decay rate.

    The infinite-horizon correction term is realized as the scalar shooting
    observable a(T) = <P Phi_T(s_mid), mode>/<mode, mode>.  Because the
    unstable coefficient of the prepared data is C_eps (T - 1) + O(small)
    with C_eps = 2 a b e^{s0}, a first evaluation at T = 1 predicts the root
    and a guarded secant homes in; a sign change across the result is then
    verified by bracketing.  Returns (T*, DecayReport).
    """
    if grid is None:
        grid = make_grid(2.0, 64)
    if op is None:
        op = assemble_L(params, grid)
    proj = riesz_projection(op)
    cauchy = cauchy_tr_solver(params, pert)
    s0 = initial_time_s0(pert.eps)
    s_mid = s0 + SHOOT_SPAN

    def observable(T):
        ic = initial_data_operator(params, cauchy, T, grid)
        traj = evolve_nonlinear(op, ic, s_mid, dt=dt, n_record=2, projector=proj)
        if traj.unstable:
            return None
        return traj.projection_coeff[-1]

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
        a_curr = observable(t_curr)
        for _ in range(60):
            if a_curr is None:
                t_curr = 0.5 * (t_curr + t_prev)
                a_curr = observable(t_curr)
                continue
            if a_curr == 0.0 or abs(t_curr - t_prev) < 1e-15 * max(1.0, abs(t_curr)):
                break
            if a_curr == a_prev:
                break
            t_next = t_curr - a_curr * (t_curr - t_prev) / (a_curr - a_prev)
            t_prev, a_prev = t_curr, a_curr
            t_curr = t_next
            a_curr = observable(t_curr)
        t_star = t_curr
        delta = max(1e-9, 100.0 * abs(t_curr - t_prev))
        a_minus = observable(t_star - delta)
        a_plus = observable(t_star + delta)
        if a_minus is None or a_plus is None or a_minus * a_plus > 0.0:
            raise RuntimeError(
                "instability not one-dimensional at this resolution: no sign "
                f"change of the shooting observable across T* = {t_star}"
            )

    ic = initial_data_operator(params, cauchy, t_star, grid)
    traj = evolve_nonlinear(op, ic, s0 + DECAY_SPAN, dt=dt, n_record=33, projector=proj)
    total = traj.norm_k + traj.norm_km1
    floor = 1e-12 * max(float(np.max(total)), 1e-300)
    sel = traj.s >= s0 + FIT_SKIP
    if np.max(total) < 1e-14 or np.any(total[sel] <= floor):
        omega, resid, floored = None, None, True
    else:
        omega, resid = decay_fit(traj.s[sel], total[sel])
        floored = False
    report = DecayReport(
        T=t_star,
        s=traj.s,
        norm_k=traj.norm_k,
        norm_km1=traj.norm_km1,
        projection_coeff=traj.projection_coeff,
        omega_fit=omega,
        fit_residual=resid,
        floor_limited=floored,
        k=traj.k,
    )
    return t_star, report
