"""The integrating-factor (Lawson) RK4 step, through which the hyperboloidal
nonlinear evolution advances its state.  (The FD wave oracle's classical
RK4 step is one band matrix, built in `descent`.)"""

import numpy as np

__all__ = ["rk4"]


def rk4(g, x, h, nsteps, propagators):
    """Advance x = [x1; x2] (halves of equal length n) by nsteps
    integrating-factor (Lawson) RK4 steps of size h for
    x' = A x + [0; g(x1)], with propagators (E, E2) = (exp(hA), exp(hA/2))
    for the constant linear part A.

    The linear part is propagated exactly, so the step size is not bound by
    the stiffness of A, and g carries only the remainder.  This is the step
    x_new = E x + h/6 (E k1 + 2 E2 k2 + 2 E2 k3 + k4) on the stages
    k_i = [0; g_i], computed on half vectors: a product with a stage reads
    only the last n columns of a propagator, and a stage reads only the
    first half of the state it is evaluated at.
    """
    E, E2 = propagators
    n = x.size // 2
    E_g, E2_g, E2_top = E[:, n:], E2[:, n:], E2[:n]
    for _ in range(nsteps):
        g1 = g(x[:n])
        g2 = g(E2_top @ np.concatenate((x[:n], x[n:] + 0.5 * h * g1)))
        g3 = g(E2_top @ x)
        Ex, E2k3 = E @ x, E2_g @ g3
        g4 = g(Ex[:n] + h * E2k3[:n])
        step = E_g @ g1 + 2 * (E2_g @ g2) + 2 * E2k3
        step[n:] += g4
        x = Ex + (h / 6.0) * step
    return x
