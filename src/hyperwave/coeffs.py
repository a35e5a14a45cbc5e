"""Coefficient functions of the first-order wave systems in hyperboloidal
similarity coordinates, their intertwining identities, and the kernel weights
of the inverse descent operators.

With S(eta) = sqrt(2 + eta^2) the building blocks collapse to

    eta h' - h   = 2(S - 1)/S,      1 - h'^2     = 2/S^2,
    h^2 - eta^2  = 6 - 4S,          eta - h h'   = 2 eta/S,

which keeps every formula free of cancellation.  All functions are generic
over the scalar type: numpy arrays give values, and a second-order
`jets.jet_seed`, a `Taylor` series, gives them with two derivatives.
"""

import numpy as np

from .jets import jet_seed, jsqrt

__all__ = [
    "generator_row",
    "c1_fn",
    "c2_fn",
    "c3_fn",
    "c4_fn",
    "c11_fn",
    "c12_fn",
    "c20_fn",
    "c21_fn",
    "t11_fn",
    "t12_fn",
    "t21_fn",
    "t22_fn",
    "identity_residuals",
]


def _S(x):
    return jsqrt(2.0 + x * x)


def c12_fn(x):
    S = _S(x)
    return S * S * (3.0 - 2.0 * S)


def c21_fn(x):
    return -2.0 * x * _S(x)


def c11_fn(d, x):
    S = _S(x)
    return -(d - 1.0) * S * (S - 1.0) * (S - 2.0) / x + x * (2.0 * S - 3.0) / (S - 1.0) - 2.0 * x * S


def c20_fn(d, x):
    S = _S(x)
    return -1.0 - (d - 1.0) * (S - 1.0) + (2.0 * S - 3.0) / (S - 1.0)


def c1_fn(x):
    S = _S(x)
    return -x * S * (S - 2.0) / (2.0 * (S - 1.0))


def c2_fn(x):
    S = _S(x)
    return -x * x / (2.0 * (S - 1.0))


def c3_fn(x):
    S = _S(x)
    return 2.0 * S * (S - 1.0) * (S - 2.0) / x


def c4_fn(x):
    return 2.0 * (_S(x) - 1.0)


def t11_fn(d, x):
    S = _S(x)
    sm = S - 1.0
    return 1.0 / (S * sm) + (d - 3.0) / sm - (2.0 * S - 3.0) / (S * sm * sm)


def t12_fn(d, x):
    S = _S(x)
    sm = S - 1.0
    return (
        2.0 * x * x / (S * sm)
        + (d - 3.0) * (S - 2.0) / sm
        - (2.0 * S - 3.0) * (S - 2.0) / (S * sm * sm)
    )


def t21_fn(x):
    S = _S(x)
    return -1.0 / (S * (S - 1.0))


def t22_fn(x):
    S = _S(x)
    return -(S - 2.0) / (S * (S - 1.0))


def generator_row(d, x, F1, F2, deriv):
    """Second row c11 F1' + c12 F1'' + c20 F2 + c21 F2' of the free radial
    wave generator L_d, whose first row is F2.

    The one definition of L_d: the collocation path of the descent step
    (x = eta, `deriv` = `Grid.deriv_half`), the dense generator matrix (the
    same with identity columns for F1, F2) and the Taylor-series path of the
    operator identity tests (x a jet seed, `deriv` the series derivative)
    all call it.  `deriv(F, parity)`
    differentiates F, which has the given parity.
    """
    F1p = deriv(F1, "even")
    return (
        c11_fn(d, x) * F1p
        + c12_fn(x) * deriv(F1p, "odd")
        + c20_fn(d, x) * F2
        + c21_fn(x) * deriv(F2, "even")
    )


def identity_residuals(d, eta) -> np.ndarray:
    """Pointwise residuals of the intertwining coefficient identities.

    For d >= 3 the four identities couple first derivatives of the wave
    coefficients to the descent coefficients; they return as rows 0..3.
    For d = 1 the three algebraic identities of the three-to-one descent
    return as rows 0..2.  The lemma's printed d=1 identity list carries a
    typo in its first member; the form enforced here is the one the
    operator computation actually requires,

        c11^1 = eta + eta*c20^1 + c21 .
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta == 0.0):
        raise ValueError("identities are evaluated away from eta = 0")

    if d == 1:
        c11 = c11_fn(1, eta)
        c20 = c20_fn(1, eta)
        c12 = c12_fn(eta)
        c21 = c21_fn(eta)
        c3 = c3_fn(eta)
        c4 = c4_fn(eta)
        return np.stack(
            [
                c11 - eta - eta * c20 - c21,
                eta * c3 - (eta * c21 - 2.0 * c12),
                eta * c4 - (-c21 - 2.0 * eta),
            ]
        )
    if d < 3:
        raise ValueError(f"identities defined for d = 1 or d >= 3, got d={d}")

    x = jet_seed(eta, 2)

    def vdd(jet):
        return jet.value, jet.derivative_values(1), jet.derivative_values(2)

    c11, c11p, _ = vdd(c11_fn(d, x))
    c20, c20p, _ = vdd(c20_fn(d, x))
    c12, c12p, _ = vdd(c12_fn(x))
    c21, c21p, _ = vdd(c21_fn(x))
    c1, c1p, c1pp = vdd(c1_fn(x))
    c2, c2p, c2pp = vdd(c2_fn(x))
    c3 = c3_fn(eta)
    c4 = c4_fn(eta)
    c11m = c11_fn(d - 2, eta)
    mix = c21 * c2p + c2 * c4

    r_c11 = c1 * c11p - ((d - 2) * c3 + c1pp * c12 + c1p * c11m + mix * c11)
    r_c20 = c1 * c20p - ((d - 2) * c4 + c2pp * c12 + c2p * c11m + mix * c20)
    r_c12 = c1 * c12p - (2.0 * c1p * c12 + c1 * c3 + mix * c12)
    r_c21 = c1 * c21p - (c1 * c4 + c2 * c3 + 2.0 * c2p * c12 + c1p * c21 + mix * c21)
    return np.stack([r_c11, r_c20, r_c12, r_c21])
