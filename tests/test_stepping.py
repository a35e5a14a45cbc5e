import numpy as np
import pytest
from scipy.linalg import expm

from hyperwave.descent import _band_matvec, _fd_operator, _rk4_band
from hyperwave.stepping import rk4

from oracles import band_dense, classical_loop, dense_band

# x' = A x + [0; g(x1)] on x = [x1; x2], n = 3: the structure of the
# nonlinear evolution, whose forcing acts on the velocity half and reads the
# field half; one stiff eigenvalue near -21
A = np.array(
    [
        [-3.0, 1.0, 0.0, 1.0, 0.0, 0.0],
        [0.5, -21.0, 2.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, -0.5, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0, 0.5, 0.0],
        [0.0, 0.3, 0.0, 0.0, -2.0, 1.0],
        [0.0, 0.0, 0.4, 0.0, -0.5, -0.7],
    ]
)


def forcing(x1):
    return 0.3 * x1 * x1 - 0.1 * np.roll(x1, 1) ** 3


def full_rhs(x):
    # the whole right-hand side, for the classical reference
    return A @ x + np.concatenate((np.zeros(3), forcing(x[:3])))


def lawson(x, h, nsteps):
    return rk4(forcing, x, h, nsteps, (expm(h * A), expm(0.5 * h * A)))


X0 = np.array([0.4, -0.2, 0.7, 0.1, 0.3, -0.5])


def test_lawson_linear_part_exact():
    h, n = 0.25, 8
    out = rk4(np.zeros_like, X0, h, n, (expm(h * A), expm(0.5 * h * A)))
    assert np.allclose(out, expm(n * h * A) @ X0, rtol=1e-13, atol=1e-15)


def test_lawson_fourth_order():
    ref = lawson(X0, 0.4 / 1024, 1024)
    # the forcing is felt: the reference is off the linear flow
    assert np.max(np.abs(ref - expm(0.4 * A) @ X0)) > 1e-3
    assert np.max(np.abs(ref - classical_loop(full_rhs, X0, 0.4 / 1024, 1024))) < 1e-12
    err = [np.max(np.abs(lawson(X0, 0.4 / n, n) - ref)) for n in (8, 16, 32)]
    orders = np.log2(np.array(err[:-1]) / np.array(err[1:]))
    assert np.all((orders > 3.5) & (orders < 4.5))


def test_lawson_stable_past_classical_bound():
    # h * rho(A) = 4.2 exceeds the classical RK4 stability bound of about 2.8
    h, n = 0.2, 10
    assert h * np.max(np.abs(np.linalg.eigvals(A))) > 4.0
    ref = lawson(X0, 2.0 / 1024, 1024)
    assert np.max(np.abs(lawson(X0, h, n) - ref)) < 1e-3
    # classical RK4 at this step amplifies the stiff linear mode sixfold per step
    assert np.max(np.abs(classical_loop(lambda x: A @ x, X0, h, n))) > 1e3


def test_lawson_matches_full_stage_step():
    # the step on half vectors is the Lawson step on the full stages
    # [0; g(x1)], with the products by zero columns and the zero-half sums
    # left out; only BLAS's summation order can set them apart
    def full_stage_step(x, h, nsteps):
        E, E2 = expm(h * A), expm(0.5 * h * A)

        def rhs(x):
            return np.concatenate((np.zeros(3), forcing(x[:3])))

        for _ in range(nsteps):
            k1 = rhs(x)
            k2 = rhs(E2 @ (x + 0.5 * h * k1))
            k3 = rhs(E2 @ x + 0.5 * h * k2)
            Ex, E2k3 = E @ x, E2 @ k3
            k4 = rhs(Ex + h * E2k3)
            x = Ex + (h / 6.0) * (E @ k1 + 2 * (E2 @ k2) + 2 * E2k3 + k4)
        return x

    want = full_stage_step(X0, 0.05, 20)
    assert np.max(np.abs(lawson(X0, 0.05, 20) - want)) <= 1e-15 * np.max(np.abs(want))


def test_zero_steps_return_input():
    assert rk4(forcing, X0, 0.1, 0, (expm(0.1 * A), expm(0.05 * A))) is X0


def fd_operator_and_step(d=7, R=2.0, m=50, cfl=0.4):
    """The FD oracle's band operator on its half-wave fields and its CFL
    step, as `_fd_run` takes them."""
    _, (_, A), speed = _fd_operator(d, R, m)
    return A, cfl * (R / m) / speed


@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("case", ["dense", "fd"])
def test_rk4_matrix_matches_stages(case, n):
    # the band RK4 polynomial of `descent`, against the four stages on the
    # dense matrix
    if case == "dense":
        # entries of variance 1/12: spectral radius about 1, as a full band
        A, h = np.random.default_rng(5).standard_normal((12, 12)) / np.sqrt(12.0), 0.02
        A = dense_band(A, 11)
    else:
        A, h = fd_operator_and_step()
    x = np.random.default_rng(6).standard_normal(A.shape[0])
    P, Q = _rk4_band(A, h)
    p = A.shape[1] // 2
    assert P.shape == (A.shape[0], 8 * p + 1) and Q.shape == (A.shape[0], 6 * p + 1)
    got = x
    for _ in range(n):
        got = _band_matvec(P, got)
    dense = band_dense(A)
    want = classical_loop(dense.__matmul__, x, h, n)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    # P = I + hA Q
    Px = x + h * (dense @ (band_dense(Q) @ x))
    assert np.linalg.norm(_band_matvec(P, x) - Px) <= 1e-14 * np.linalg.norm(Px)
