"""Geometry of the similarity coordinates on (1+d)-dimensional Minkowski
space: inverse metric, volume density, Christoffel symbols and the
contracted-Christoffel consistency check.

Tensors are evaluated at a single spacetime point (s, y) with y a
d-dimensional spatial vector; index 0 is the hyperboloidal time direction.
"""

import numpy as np

from .model import HEIGHT

__all__ = [
    "inverse_metric",
    "christoffel",
    "sqrt_det",
    "contracted_christoffel_residual",
]

# 6th-order central difference weights on a 7-point stencil.
_CD6_OFFSETS = np.array([-3, -2, -1, 1, 2, 3])
_CD6_WEIGHTS = np.array([-1.0 / 60.0, 3.0 / 20.0, -3.0 / 4.0, 3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0])


def _grad_h(y):
    r = np.linalg.norm(y)
    if r == 0.0:
        return np.zeros_like(y)
    return HEIGHT.dh(r) * y / r


def _hess_h(y):
    d = y.size
    r = np.linalg.norm(y)
    if r == 0.0:
        return HEIGHT.d2h(0.0) * np.eye(d)
    yhat = y / r
    proj = np.eye(d) - np.outer(yhat, yhat)
    return HEIGHT.d2h(r) * np.outer(yhat, yhat) + HEIGHT.dh_over_y(r) * proj


def _scale(y):
    """The positive scalar y.grad(h) - h entering every inverse formula."""
    r = np.linalg.norm(y)
    return r * HEIGHT.dh(r) - HEIGHT.h(r)


def inverse_metric(s, y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = y.size
    e2s = np.exp(2.0 * s)
    gh = _grad_h(y)
    D = _scale(y)
    w = 1.0 - gh @ gh
    g = np.zeros((d + 1, d + 1))
    g[0, 0] = -e2s * w / D**2
    g[0, 1:] = g[1:, 0] = e2s * (-w * y / D**2 - gh / D)
    g[1:, 1:] = e2s * (
        np.eye(d) - w * np.outer(y, y) / D**2 - (np.outer(y, gh) + np.outer(gh, y)) / D
    )
    return g


def christoffel(s, y):
    """Christoffel symbols Gamma[lam, mu, nu]; independent of s."""
    del s
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = y.size
    D = _scale(y)
    hess = _hess_h(y)
    gamma = np.zeros((d + 1, d + 1, d + 1))
    gamma[0, 0, 0] = -1.0
    gamma[0, 1:, 1:] = hess / D
    for k in range(d):
        gamma[k + 1, 1:, 0] = gamma[k + 1, 0, 1:] = -np.eye(d)[k]
        gamma[k + 1, 1:, 1:] = hess / D * y[k]
    return gamma


def sqrt_det(s, y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return np.exp(-(y.size + 1) * s) * _scale(y)


def contracted_christoffel_residual(s, y):
    """Residual of (1/sqrt|g|) d_mu(g^{mu nu} sqrt|g|) = -g^{kl} Gamma^nu_{kl},
    with the divergence taken by 6th-order central differences.

    The flux scales like e^{-(d-1)s}, so the s-direction step shrinks with
    the dimension to keep the truncation error near 1e-9.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = y.size
    step = 0.02 / max(2.0, d - 1.0)

    def flux(sv, yv):
        return inverse_metric(sv, yv) * sqrt_det(sv, yv)

    div = np.zeros(d + 1)
    for o, w in zip(_CD6_OFFSETS, _CD6_WEIGHTS):
        div += w * flux(s + o * step, y)[0, :]
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        for o, w in zip(_CD6_OFFSETS, _CD6_WEIGHTS):
            div += w * flux(s, y + o * e)[i + 1, :]
    div /= step

    gamma = christoffel(s, y)
    ginv = inverse_metric(s, y)
    contracted = np.einsum("kl,nkl->n", ginv, gamma)
    return np.max(np.abs(div / sqrt_det(s, y) + contracted))
