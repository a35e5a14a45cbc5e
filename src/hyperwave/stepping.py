"""The one Runge-Kutta stepper of the package: fourth order, classical or in
integrating-factor (Lawson) form.

The hyperboloidal nonlinear evolution, the method-of-lines half-wave oracle
and the finite-difference wave oracle all advance their states through
`rk4`.
"""

__all__ = ["rk4"]


def _identity(x):
    return x


def rk4(rhs, x, h, nsteps, propagators=None):
    """Advance x by nsteps fourth-order Runge-Kutta steps of size h.

    Without propagators this is classical RK4 for x' = rhs(x).  With
    propagators (E, E2) = (exp(hA), exp(hA/2)) for a constant linear part A,
    it is the integrating-factor (Lawson) RK4 step for x' = A x + rhs(x):
    the linear part is propagated exactly, so the step size is not bound by
    the stiffness of A, and rhs carries only the remainder.  Identity
    propagators reduce the Lawson step to classical RK4 operation for
    operation, so both forms share one code path.
    """
    if propagators is None:
        E = E2 = _identity
    else:
        E, E2 = (p.__matmul__ for p in propagators)
    for _ in range(nsteps):
        k1 = rhs(x)
        k2 = rhs(E2(x + 0.5 * h * k1))
        k3 = rhs(E2(x) + 0.5 * h * k2)
        Ex, E2k3 = E(x), E2(k3)
        k4 = rhs(Ex + h * E2k3)
        x = Ex + (h / 6.0) * (E(k1) + 2 * E2(k2) + 2 * E2k3 + k4)
    return x
