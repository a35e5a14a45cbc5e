"""Vectorized truncated Taylor arithmetic.

Repeated numerical differentiation on a collocation grid amplifies roundoff
by roughly N^2 per derivative, which makes deeply nested operator identities
(several derivatives per descent step) unverifiable in double precision.
Carrying truncated Taylor expansions through the same formulas instead keeps
every derivative exact; this module provides the small forward-mode algebra
needed for that.
"""

import numpy as np

__all__ = ["Taylor", "jet_seed", "jsqrt"]


class Taylor:
    """Truncated Taylor series with vectorized coefficients.

    coef[k] holds the k-th derivative divided by k! at every evaluation
    point.  Binary operations truncate to the shorter operand.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    @property
    def order(self):
        return self.coef.shape[0] - 1

    @property
    def value(self):
        return self.coef[0]

    def _lift(self, other):
        if isinstance(other, Taylor):
            return other
        coef = np.zeros_like(self.coef)
        coef[0] = other
        return Taylor(coef)

    def _match(self, other):
        o = self._lift(other)
        k = min(self.order, o.order)
        return self.coef[: k + 1], o.coef[: k + 1]

    def __add__(self, other):
        a, b = self._match(other)
        return Taylor(a + b)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(-self.coef)

    def __sub__(self, other):
        a, b = self._match(other)
        return Taylor(a - b)

    def __rsub__(self, other):
        a, b = self._match(other)
        return Taylor(b - a)

    def __mul__(self, other):
        if not isinstance(other, Taylor):
            return Taylor(self.coef * other)
        a, b = self._match(other)
        n = a.shape[0]
        out = np.zeros_like(a)
        for k in range(n):
            for j in range(k + 1):
                out[k] += a[j] * b[k - j]
        return Taylor(out)

    __rmul__ = __mul__

    def reciprocal(self):
        a = self.coef
        out = np.zeros_like(a)
        out[0] = 1.0 / a[0]
        for k in range(1, a.shape[0]):
            acc = np.zeros_like(a[0])
            for j in range(1, k + 1):
                acc += a[j] * out[k - j]
            out[k] = -acc * out[0]
        return Taylor(out)

    def __truediv__(self, other):
        if not isinstance(other, Taylor):
            return Taylor(self.coef / other)
        return self * other.reciprocal()

    def sqrt(self):
        a = self.coef
        out = np.zeros_like(a)
        out[0] = np.sqrt(a[0])
        inv2 = 0.5 / out[0]
        for k in range(1, a.shape[0]):
            acc = np.zeros_like(a[0])
            for j in range(1, k):
                acc += out[j] * out[k - j]
            out[k] = (a[k] - acc) * inv2
        return Taylor(out)

    def derivative_values(self, k):
        """Value array of the k-th derivative."""
        if k > self.order:
            raise ValueError(f"series order {self.order} < requested derivative {k}")
        fact = 1.0
        for j in range(2, k + 1):
            fact *= j
        return self.coef[k] * fact


def jet_seed(x, order):
    """Identity series at the points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    coef = np.zeros((order + 1, x.size))
    coef[0] = x
    if order >= 1:
        coef[1] = 1.0
    return Taylor(coef)


def jsqrt(x):
    return x.sqrt() if isinstance(x, Taylor) else np.sqrt(x)
