"""Closed-form layer: dimension constants, the height function, the time of
the initial slice, the linearization potential, the nonlinearity and the
symmetry mode.

Everything here is a pure function of its value inputs.  Radial arguments may
be scalars or numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionParams",
    "make_params",
    "StandardHeight",
    "HEIGHT",
    "potential",
    "nonlinearity_coeffs",
    "symmetry_mode",
    "initial_time_s0",
]


@dataclass(frozen=True)
class DimensionParams:
    """Odd space dimension d with the derived blowup constants.

    The constants a and b come from the closed-form self-similar profile in
    effective dimension d; they are real and positive only for d >= 7, so the
    fields are None below that.
    """

    d: int
    n: int
    a: float | None = None
    b: float | None = None


def make_params(d: int) -> DimensionParams:
    """Validate d (odd, >= 3) and attach the profile constants for d >= 7."""
    if d != int(d):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    d = int(d)
    if d % 2 == 0:
        raise ValueError(f"dimension must be odd, got d={d}")
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got d={d}")
    n = d - 2
    if n >= 4:
        a = 2.0 * (1.0 + np.sqrt((n - 4.0) / (3.0 * (n - 2.0))))
        b = (2.0 * (n - 4.0) + np.sqrt(3.0 * (n - 2.0) * (n - 4.0))) / 3.0
        return DimensionParams(d=d, n=n, a=float(a), b=float(b))
    return DimensionParams(d=d, n=n)


class StandardHeight:
    """The height profile h(y) = sqrt(2 + y^2) - 2 shaping the hyperboloids.

    Its slope satisfies |h'| < 1, so the level sets stay spacelike, and
    h_pm(y) = y +- h are strictly increasing.
    """

    def h(self, y):
        return np.sqrt(2.0 + np.square(y)) - 2.0

    def dh(self, y):
        return y / np.sqrt(2.0 + np.square(y))

    def d2h(self, y):
        return 2.0 / np.power(2.0 + np.square(y), 1.5)

    def dh_over_y(self, y):
        """h'(y)/y, regular at y = 0."""
        return 1.0 / np.sqrt(2.0 + np.square(y))

    def hp(self, y):
        return y + self.h(y)

    def hm(self, y):
        return y - self.h(y)

    # h_pm(z) = c reduces to a linear equation after isolating the square
    # root, so the inverses are rational in c.
    def hp_inverse(self, target):
        m = np.asarray(target, dtype=float) + 2.0
        return (m * m - 2.0) / (2.0 * m)

    def hm_inverse(self, target):
        m = 2.0 - np.asarray(target, dtype=float)
        return (2.0 - m * m) / (2.0 * m)


HEIGHT = StandardHeight()


def initial_time_s0(eps: float) -> float:
    """Hyperboloidal time of the initial slice whose tip sits at t = T - 1 - 2*eps."""
    return float(np.log(-HEIGHT.h(0.0) / (1.0 + 2.0 * eps)))


def _require_constants(params: DimensionParams):
    if params.a is None or params.b is None:
        raise ValueError(f"profile constants undefined for d={params.d} (need d >= 7)")
    return params.a, params.b


def potential(params: DimensionParams, y):
    """Linearization potential V(y), the s-independent multiplier produced by
    linearizing around the blowup profile."""
    a, b = _require_constants(params)
    d = params.d
    y = np.asarray(y, dtype=float)
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    u = y * dh - h
    w = 1.0 - dh * dh
    y2 = np.square(y)
    return -3.0 * a * (d - 4) * (u * u / w) * ((a - 2.0) * y2 - 2.0 * b * h * h) / np.square(b * h * h + y2)


def nonlinearity_coeffs(params: DimensionParams, y):
    """Coefficients (c2, c3) of the pointwise nonlinearity of the autonomous
    first-order system, N(y, alpha) = alpha^2 (c2(y) + c3(y) alpha)."""
    a, b = _require_constants(params)
    d = params.d
    y = np.asarray(y, dtype=float)
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    u = y * dh - h
    w = 1.0 - dh * dh
    y2 = np.square(y)
    scale = -(d - 4) * (u * u / w)
    quad = 3.0 * ((1.0 - a) * y2 + b * h * h) / (b * h * h + y2)
    return scale * quad, scale * y2


def symmetry_mode(params: DimensionParams, y):
    """Two-component time-translation mode; second component is 3x the first."""
    a, b = _require_constants(params)
    del a
    y = np.asarray(y, dtype=float)
    h = HEIGHT.h(y)
    first = h / np.square(b * h * h + np.square(y))
    return np.stack([first, 3.0 * first])
