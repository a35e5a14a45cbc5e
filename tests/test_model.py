import numpy as np
import pytest

from hyperwave import geometry
from hyperwave.geometry import _grad_h, _scale
from hyperwave.model import (
    HEIGHT,
    initial_time_s0,
    make_params,
    nonlinearity_coeffs,
    potential,
    symmetry_mode,
)

from oracles import blowup_profile_hsc

SQ2 = np.sqrt(2.0)


# ----------------------------------------------------------------------
# closed-form references: the coordinate maps, the Cartesian profile and
# potential, and the Jacobians and metric of the coordinates


def hsc_map(T, s, y):
    """Hyperboloidal similarity coordinates -> Cartesian: (s,y) -> (t,x)."""
    es = np.exp(-np.asarray(s, dtype=float))
    y = np.asarray(y, dtype=float)
    return T + es * HEIGHT.h(y), es * y


def similarity_time_scalar(T, t, x):
    """The scalar g_T with log(g_T) = s along the inverse coordinate map."""
    dt = T - np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return 1.0 / (dt + 0.5 * np.sqrt(2.0 * (dt * dt + x * x)))


def hsc_inverse(T, t, x):
    """Cartesian -> hyperboloidal similarity coordinates on Omega_T.

    Only defined where |x| > -(T - t); outside, the point is at or beyond the
    future light cone of (T, 0) and a ValueError is raised.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) <= -(T - t)):
        raise ValueError("point outside Omega_T: |x| <= t - T")
    g = similarity_time_scalar(T, t, x)
    return np.log(g), g * x


def blowup_profile(params, T, t, x):
    """Extended self-similar blowup solution in Cartesian coordinates."""
    dt = T - np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    den = params.b * dt * dt + x * x
    if np.any(den == 0.0):
        raise ValueError("blowup profile is singular at (t, x) = (T, 0)")
    return -params.a / den


def potential_ssc(params, rho):
    """The linearization potential seen from standard similarity coordinates."""
    a, b, d = params.a, params.b, params.d
    rho2 = np.square(np.asarray(rho, dtype=float))
    return -3.0 * (d - 4) * a * ((a - 2.0) * rho2 - 2.0 * b) / np.square(b + rho2)


def hsc_jacobian(s, y):
    d = y.size
    es = np.exp(-s)
    jac = np.zeros((d + 1, d + 1))
    jac[0, 0] = -es * HEIGHT.h(np.linalg.norm(y))
    jac[0, 1:] = es * _grad_h(y)
    jac[1:, 0] = -es * y
    jac[1:, 1:] = es * np.eye(d)
    return jac


def hsc_inverse_jacobian(s, y):
    """Jacobian of the inverse coordinate map, expressed at the point (s, y)."""
    d = y.size
    es = np.exp(s)
    D = _scale(y)
    gh = _grad_h(y)
    inv = np.zeros((d + 1, d + 1))
    inv[0, 0] = es / D
    inv[0, 1:] = -es * gh / D
    inv[1:, 0] = es * y / D
    inv[1:, 1:] = es * (np.eye(d) - np.outer(y, gh) / D)
    return inv


def metric(s, y):
    d = y.size
    e2s = np.exp(-2.0 * s)
    h = HEIGHT.h(np.linalg.norm(y))
    gh = _grad_h(y)
    g = np.zeros((d + 1, d + 1))
    g[0, 0] = e2s * (-h * h + y @ y)
    g[0, 1:] = g[1:, 0] = e2s * (h * gh - y)
    g[1:, 1:] = e2s * (np.eye(d) - np.outer(gh, gh))
    return g


def radial_point(r, d):
    """The spatial point r e_1 in d dimensions."""
    y = np.zeros(d)
    y[0] = r
    return y


class TestParams:
    def test_d7_constants(self):
        p = make_params(7)
        assert p.n == 5
        assert p.a == pytest.approx(8.0 / 3.0, abs=1e-15)
        assert p.b == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_d9_constants(self):
        # closed forms with n = d - 2 = 7
        p = make_params(9)
        assert p.a == pytest.approx(2.0 + 2.0 / np.sqrt(5.0), abs=1e-15)
        assert p.b == pytest.approx((6.0 + np.sqrt(45.0)) / 3.0, abs=1e-15)

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_params(6)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_params(1)

    def test_constants_absent_below_seven(self):
        p = make_params(5)
        assert p.a is None and p.b is None

    @pytest.mark.parametrize("d", [7, 9, 11, 13])
    def test_positive_finite(self, d):
        p = make_params(d)
        assert 0 < p.a < np.inf and 0 < p.b < np.inf


class TestHeight:
    def test_values(self):
        assert HEIGHT.h(0.0) == pytest.approx(SQ2 - 2.0, abs=1e-15)
        assert HEIGHT.dh(0.0) == 0.0
        assert HEIGHT.d2h(0.0) == pytest.approx(1.0 / SQ2, abs=1e-15)
        assert HEIGHT.h(0.5) == pytest.approx(-0.5, abs=1e-15)
        assert HEIGHT.h(2.0) == pytest.approx(np.sqrt(6.0) - 2.0, abs=1e-15)

    def test_slope_subluminal(self):
        y = np.linspace(-50, 50, 1001)
        assert np.all(np.abs(HEIGHT.dh(y)) < 1.0)

    def test_convexity(self):
        y = np.linspace(-10, 10, 101)
        assert np.all(HEIGHT.d2h(y) > 0.0)

    def test_hp_hm_zeros(self):
        assert HEIGHT.hp(0.5) == pytest.approx(0.0, abs=1e-15)
        assert HEIGHT.hm(-0.5) == pytest.approx(0.0, abs=1e-15)

    def test_hp_monotone_and_inverses(self, rng):
        y = np.sort(rng.uniform(-3, 3, 64))
        assert np.all(np.diff(HEIGHT.hp(y)) > 0)
        assert np.all(np.diff(HEIGHT.hm(y)) > 0)
        assert HEIGHT.hp_inverse(HEIGHT.hp(y)) == pytest.approx(y, abs=1e-12)
        assert HEIGHT.hm_inverse(HEIGHT.hm(y)) == pytest.approx(y, abs=1e-12)


class TestCoordinates:
    def test_map_values(self):
        t, x = hsc_map(1.0, 0.0, 0.0)
        assert t == pytest.approx(SQ2 - 1.0, abs=1e-15)
        assert x == 0.0

    def test_round_trip_point(self):
        s, y = hsc_inverse(1.0, 0.3, 0.7)
        t, x = hsc_map(1.0, s, y)
        assert t == pytest.approx(0.3, abs=1e-12)
        assert x == pytest.approx(0.7, abs=1e-12)

    def test_initial_time_shift(self):
        # the tip of the initial hyperboloid sits at t = T - 1 - 2 eps
        s0 = initial_time_s0(0.05)
        t, _ = hsc_map(1.0, s0, 0.0)
        assert t == pytest.approx(-0.1, abs=1e-14)

    def test_round_trip_cloud(self, rng):
        T = 1.0
        t = rng.uniform(-2.0, 2.5, 1000)
        x = np.abs(rng.uniform(0.0, 3.0, 1000)) + np.maximum(t - T, 0.0) + 1e-3
        s, y = hsc_inverse(T, t, x)
        t2, x2 = hsc_map(T, s, y)
        assert np.max(np.abs(t2 - t)) < 1e-12
        assert np.max(np.abs(x2 - x)) < 1e-12

    def test_scalar_is_exp_s(self, rng):
        s = rng.uniform(-1, 2, 50)
        y = rng.uniform(-3, 3, 50)
        t, x = hsc_map(1.0, s, y)
        assert similarity_time_scalar(1.0, t, x) == pytest.approx(np.exp(s), rel=1e-13)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            hsc_inverse(0.0, 2.0, 1.0)


class TestProfile:
    def test_cartesian_value(self, params7):
        assert blowup_profile(params7, 1.0, 0.0, 0.0) == pytest.approx(-1.6, abs=1e-14)

    def test_hsc_composition(self, params7, rng):
        s = rng.uniform(-1, 1, 40)
        y = rng.uniform(-2, 2, 40)
        val, dval = blowup_profile_hsc(params7, 1.0, s, y)
        t, x = hsc_map(1.0, s, y)
        assert val == pytest.approx(blowup_profile(params7, 1.0, t, x), abs=1e-12)
        assert dval == pytest.approx(2.0 * val, rel=1e-14)

    def test_hsc_origin_value(self, params7):
        # cross-checked against the Cartesian composition at (s,y) = (0,0)
        val, _ = blowup_profile_hsc(params7, 1.0, 0.0, 0.0)
        t, x = hsc_map(1.0, 0.0, 0.0)
        assert val == pytest.approx(blowup_profile(params7, 1.0, t, x), abs=1e-14)
        assert val == pytest.approx(-params7.a / (params7.b * HEIGHT.h(0.0) ** 2), abs=1e-13)

    def test_decay_after_blowup(self, params7):
        t = np.linspace(2.0, 50.0, 200)
        u = blowup_profile(params7, 1.0, t, 0.5)
        assert np.all(np.diff(np.abs(u)) < 0)
        assert abs(u[-1]) < 1e-2

    def test_singularity_rejected(self, params7):
        with pytest.raises(ValueError):
            blowup_profile(params7, 1.0, 1.0, 0.0)


class TestPotentialNonlinearity:
    def test_potential_origin(self, params7):
        lim = potential(params7, 1e-9)
        assert lim == pytest.approx(144.0 / 5.0, rel=1e-9)
        assert potential_ssc(params7, 0.0) == pytest.approx(144.0 / 5.0, rel=1e-14)

    def test_potential_even_smooth(self, params7, rng):
        y = rng.uniform(0.01, 2, 64)
        assert potential(params7, -y) == pytest.approx(potential(params7, y), rel=1e-14)

    def test_potential_two_routes_agree(self, params7):
        assert potential(params7, 1e-8) == pytest.approx(potential_ssc(params7, 0.0), rel=1e-12)

    def test_nonlinearity_zero(self, params7, rng):
        y = rng.uniform(0, 2, 16)
        c2, c3 = nonlinearity_coeffs(params7, y)
        al = 0.0
        assert np.all(al * al * (c2 + c3 * al) == 0.0)

    def test_quadratic_coefficient_origin(self, params7):
        val = nonlinearity_coeffs(params7, 1e-9)[0]
        assert val == pytest.approx(-3.0 * (7 - 4) * HEIGHT.h(0.0) ** 2, rel=1e-8)

    def test_factored_nonlinearity_matches_closed_form(self, params7):
        a, b, d = params7.a, params7.b, params7.d
        y, al = np.meshgrid(np.linspace(0.0, 2.0, 41), np.linspace(-0.5, 0.5, 41))
        h, dh = HEIGHT.h(y), HEIGHT.dh(y)
        u, w, y2 = y * dh - h, 1.0 - dh * dh, y * y
        quad = 3.0 * ((1.0 - a) * y2 + b * h * h) / (b * h * h + y2)
        terms = -(d - 4) * (u * u / w) * np.stack([quad * al * al, y2 * al**3])
        c2, c3 = nonlinearity_coeffs(params7, y)
        factored = al * al * (c2 + c3 * al)
        assert np.all(np.abs(factored - terms.sum(axis=0)) <= 1e-14 * np.abs(terms).sum(axis=0))

    def test_lipschitz_factorization(self, params7, rng):
        y = rng.uniform(0, 2, 32)
        al = rng.uniform(-0.5, 0.5, 32)
        be = rng.uniform(-0.5, 0.5, 32)
        c2, c3 = nonlinearity_coeffs(params7, y)
        lhs = np.abs(al * al * (c2 + c3 * al) - be * be * (c2 + c3 * be))
        big = 60.0 * (np.abs(al) + np.abs(be) + al**2 + be**2) * np.abs(al - be)
        assert np.all(lhs <= big + 1e-15)


class TestSymmetryMode:
    def test_component_ratio(self, params7, rng):
        y = rng.uniform(0, 2, 32)
        mode = symmetry_mode(params7, y)
        assert mode[1] == pytest.approx(3.0 * mode[0], rel=1e-15)

    def test_origin_value(self, params7):
        mode = symmetry_mode(params7, 0.0)
        h0 = HEIGHT.h(0.0)
        assert mode[0] == pytest.approx(h0 / (params7.b * h0 * h0) ** 2, rel=1e-14)
        assert mode[0] == pytest.approx(-1.791, abs=1e-3)

    def test_matches_blowup_time_variation(self, params7):
        # d_T of the profile along the coordinates equals -2 a b e^{3s} f*
        y = np.linspace(0.1, 1.9, 19)
        tau = 1e-6
        t, x = hsc_map(1.0, 0.0, y)
        du = (blowup_profile(params7, 1.0 + tau, t, x) - blowup_profile(params7, 1.0 - tau, t, x)) / (2 * tau)
        expected = -2.0 * params7.a * params7.b * symmetry_mode(params7, y)[0]
        assert du == pytest.approx(expected, rel=1e-7)


class TestGeometry:
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_tables(self, d, rng):
        s = rng.uniform(-1, 1)
        y = radial_point(rng.uniform(0.1, 1.5), d)
        jac = hsc_jacobian(s, y)
        assert np.max(np.abs(jac @ hsc_inverse_jacobian(s, y) - np.eye(d + 1))) < 1e-12
        assert geometry.christoffel(s, y)[0, 0, 0] == -1.0
        gi = geometry.inverse_metric(s, y)
        assert np.max(np.abs(metric(s, y) @ gi - np.eye(d + 1))) < 1e-12

    def test_g00_origin(self):
        g00 = geometry.inverse_metric(0.0, radial_point(0.0, 3))[0, 0]
        assert g00 == pytest.approx(-1.0 / HEIGHT.h(0.0) ** 2, rel=1e-14)

    def test_det_scaling(self):
        d = 7
        s = 0.37
        expected = 1.0 / np.sqrt(3.0) - (np.sqrt(3.0) - 2.0)
        got = geometry.sqrt_det(s, radial_point(1.0, d))
        assert got * np.exp((d + 1) * s) == pytest.approx(expected, rel=1e-13)

    def test_metric_is_pullback(self, rng):
        d = 3
        s = rng.uniform(-1, 1)
        y = rng.uniform(-1.2, 1.2, d)
        jac = hsc_jacobian(s, y)
        mink = np.diag([-1.0] + [1.0] * d)
        assert np.max(np.abs(jac.T @ mink @ jac - metric(s, y))) < 1e-13

    @pytest.mark.parametrize("d", [1, 3, 7, 11])
    def test_contracted_christoffel(self, d, rng):
        worst = 0.0
        for _ in range(3):
            s = rng.uniform(-0.5, 0.5)
            y = rng.uniform(-1.2, 1.2, d)
            worst = max(worst, geometry.contracted_christoffel_residual(s, y))
        assert worst < 1e-8
