"""The integrating-factor (Lawson) RK4 step, through which the hyperboloidal
nonlinear evolution advances its state.  (The FD wave oracle's classical
RK4 step is one band matrix, built in `descent`.)"""

__all__ = ["rk4"]


def rk4(rhs, x, h, nsteps, propagators):
    """Advance x by nsteps integrating-factor (Lawson) RK4 steps of size h
    for x' = A x + rhs(x), with propagators (E, E2) = (exp(hA), exp(hA/2))
    for the constant linear part A.

    The linear part is propagated exactly, so the step size is not bound by
    the stiffness of A, and rhs carries only the remainder.
    """
    E, E2 = propagators
    for _ in range(nsteps):
        k1 = rhs(x)
        k2 = rhs(E2 @ (x + 0.5 * h * k1))
        k3 = rhs(E2 @ x + 0.5 * h * k2)
        Ex, E2k3 = E @ x, E2 @ k3
        k4 = rhs(Ex + h * E2k3)
        x = Ex + (h / 6.0) * (E @ k1 + 2 * (E2 @ k2) + 2 * E2k3 + k4)
    return x
