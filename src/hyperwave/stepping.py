"""Runge-Kutta steppers of the package: the integrating-factor (Lawson) RK4
step of the nonlinear evolution, and the classical RK4 step of a constant
linear system as one sparse matrix.

The hyperboloidal nonlinear evolution advances its state through `rk4`.  For
a constant linear right-hand side x' = A x a classical step is a fixed
matrix; `rk4_matrix` builds it once, so the finite-difference wave oracle
takes each step as one sparse product.
"""

__all__ = ["rk4", "rk4_matrix"]


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


def rk4_matrix(A, h):
    """The classical RK4 step of size h for x' = A x, as one CSR matrix.

    For a constant A the four stages of a classical RK4 step collapse to the
    degree-4 Taylor polynomial of exp(hA), built here in nested form
    P = I + hA (I + hA/2 (I + hA/3 (I + hA/4))).  P @ x agrees with that step
    to rounding.  P fills in to the pattern of I, A, ..., A^4 (5.4 times the
    entries of A for the FD oracle's upwind operator), so it pays when many
    steps share one A.
    """
    from scipy import sparse

    A = sparse.csr_array(A)
    eye = sparse.eye_array(A.shape[0], format="csr")
    P = eye
    for k in (4.0, 3.0, 2.0, 1.0):
        P = eye + (h / k) * (A @ P)
    return P
