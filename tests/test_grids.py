import numpy as np
import pytest

from hyperwave.coeffs import t11_fn, t12_fn, t21_fn, t22_fn
from hyperwave.descent import _inverse_kernels
from hyperwave.grids import (
    hardy_check,
    integral_op_T,
    make_grid,
    radial_sobolev_norm_oracle,
    sobolev_norm_full,
    weighted_sobolev_norm,
)
from hyperwave.halfwave import _antiderivative_kernel

from oracles import dilated, dilation_integral, hpm_inner


class TestGridBasics:
    def test_no_origin_node(self, grid64):
        assert np.min(np.abs(grid64.y)) > 1e-3
        assert grid64.eta.size == 64
        assert np.all(np.diff(grid64.eta) > 0)
        assert grid64.eta[0] > 0 and grid64.eta[-1] == 2.0

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0.4, 32)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            make_grid(2.0, 4)

    def test_differentiation_exactness(self, grid64):
        for k in range(1, 9):
            err = np.max(np.abs(grid64.D @ grid64.y**k - k * grid64.y ** (k - 1)))
            scale = max(1.0, np.max(np.abs(k * grid64.y ** (k - 1))))
            assert err / scale < 1e-10

    def test_const_derivative_annihilated_full_sector(self, grid64):
        assert np.max(np.abs(grid64.D @ np.ones(128))) < 1e-12

    def test_odd_sector_constant_not_annihilated(self, grid64):
        assert np.max(np.abs(grid64.deriv_half(np.ones(64), "odd"))) > 0.1

    def test_quadrature_polynomial_exactness(self, grid64):
        # exact through degree 2N - 1; odd degrees integrate to zero, so
        # compare those against the scale of the absolute integrand
        for p in (0, 2, 6, 40, 62):
            exact = 2.0 * 2.0 ** (p + 1) / (p + 1)
            assert grid64.quad_full(grid64.y**p) == pytest.approx(exact, rel=1e-12)
        for p in (7, 63):
            scale = 2.0 * 2.0 ** (p + 1) / (p + 1)
            assert abs(grid64.quad_full(grid64.y**p)) < 1e-12 * scale

    def test_interpolation(self, grid64):
        pts = np.array([-1.7, -0.3, 0.0, 0.123, 1.999, grid64.y[5]])
        got = grid64.interp_matrix(pts) @ np.sin(grid64.y)
        assert got == pytest.approx(np.sin(pts), abs=1e-13)

    def test_dilation_kernels_cached_read_only(self):
        grid = make_grid(2.0, 24)
        kernels = _inverse_kernels(grid, 7)
        assert _inverse_kernels(grid, 7) is kernels
        assert _antiderivative_kernel(grid) is _antiderivative_kernel(grid)
        for K in kernels + (_antiderivative_kernel(grid),):
            assert K.shape == (grid.N, grid.N)
            assert not K.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                K[0, 0] = 1.0

    @pytest.mark.parametrize("g", [lambda e: np.exp(-2 * e * e), np.cos], ids=["gauss", "cos"])
    @pytest.mark.parametrize("d", [None, 5, 7, 9, 11])
    def test_dilation_kernels_match_interpolation_matrix_rule(self, grid64, d, g):
        # the recomposition kernel (d None: weight 1, power 0) and the four
        # descent-inverse kernels at d, against the rule on the 2N-column
        # interpolation matrix applied to g's even extension
        if d is None:
            cases = [(_antiderivative_kernel(grid64), None, 0)]
        else:
            weights = (
                lambda x: t11_fn(d, x),
                lambda x: t12_fn(d, x),
                t21_fn,
                t22_fn,
            )
            cases = [(K, wk, d - 3) for K, wk in zip(_inverse_kernels(grid64, d), weights)]
        gv = dilated(grid64, g(grid64.y))
        for K, weight, power in cases:
            expected = dilation_integral(grid64, gv, weight, power)
            got = K @ g(grid64.eta)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_antiderivative(self, grid64):
        # int_0^eta f = eta int_0^1 f(t eta) dt, on even half-grid data
        eta = grid64.eta
        K = _antiderivative_kernel(grid64)
        assert np.max(np.abs(eta * (K @ np.cos(eta)) - np.sin(eta))) < 1e-13
        assert np.max(np.abs(eta * (K @ eta**6) - eta**7 / 7.0)) < 1e-12

    def test_parity_derivatives(self, grid64):
        eta = grid64.eta
        even = np.exp(-(eta**2))
        assert grid64.deriv_half(even, "even") == pytest.approx(-2 * eta * even, abs=1e-11)
        odd = eta**3 - eta
        assert grid64.deriv_half(odd, "odd") == pytest.approx(3 * eta**2 - 1, abs=1e-10)


class TestRestrict:
    def test_parity_validation(self, grid64):
        y = grid64.y
        for parity, other, vals in (("odd", "even", np.sin(y)), ("even", "odd", np.cos(y))):
            assert np.array_equal(grid64.restrict(vals, parity), vals[grid64.N :])
            with pytest.raises(ValueError, match=f"declared parity '{other}' violated by"):
                grid64.restrict(vals, other)

    def test_tolerance(self, grid64):
        # an even part 0.25e-10 y^2, at most 1e-10 at |y| = R = 2: the odd defect is twice that
        vals = np.sin(grid64.y) + 0.25e-10 * grid64.y**2
        with pytest.raises(ValueError, match="declared parity 'odd' violated by 2.000e-10"):
            grid64.restrict(vals, "odd")

    def test_round_trip_full(self, grid64):
        half = np.cos(grid64.eta)
        assert np.array_equal(grid64.restrict(grid64.extend(half, "even"), "even"), half)


class TestNorms:
    def test_flat_function_exact(self):
        g1 = make_grid(1.0, 48)
        one = np.ones(g1.N)
        assert weighted_sobolev_norm(g1, one, 0, 1) == pytest.approx(np.sqrt(2.0), rel=1e-13)
        assert weighted_sobolev_norm(g1, one, 0, 3) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-13)

    def test_monotone_in_k(self, grid64):
        gf = np.exp(-(grid64.eta**2))
        norms = [weighted_sobolev_norm(grid64, gf, k, 5) for k in range(4)]
        assert np.all(np.diff(norms) > 0)

    def test_monotone_in_radius(self):
        vals = {}
        for R in (1.0, 2.0):
            g = make_grid(R, 64)
            vals[R] = weighted_sobolev_norm(g, np.exp(-(g.eta**2)), 1, 5)
        assert vals[2.0] > vals[1.0]

    def test_resolution_gate(self, grid64):
        with pytest.raises(ValueError):
            weighted_sobolev_norm(grid64, np.exp(-(grid64.eta**2)), 12, 5)

    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equivalence_ratio_stable_under_doubling(self, d, k):
        fhat = lambda r: np.exp(-(np.asarray(r) ** 2))
        d1 = lambda r: -2 * r * np.exp(-(r**2))
        d2 = lambda r: (4 * r**2 - 2) * np.exp(-(r**2))
        oracle = radial_sobolev_norm_oracle(fhat, k, d, 2.0, derivs=(d1, d2))
        ratios = []
        for N in (48, 96):
            g = make_grid(2.0, N)
            ratios.append(oracle / weighted_sobolev_norm(g, fhat(g.eta), k, d))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.1
        assert 0.05 < ratios[0] < 50.0

    def test_oracle_matches_exact_l2(self):
        # || 1 ||_{L^2(B_R^3)} = sqrt(4 pi R^3 / 3)
        val = radial_sobolev_norm_oracle(lambda r: np.ones_like(np.asarray(r)), 0, 3, 1.0,
                                         derivs=(lambda r: 0.0 * r, lambda r: 0.0 * r))
        assert val == pytest.approx(np.sqrt(4.0 * np.pi / 3.0), rel=1e-10)


class TestHpmInner:
    def test_constant(self):
        g1 = make_grid(1.0, 48)
        one = np.ones(96)
        assert hpm_inner(g1, one, one, +1) == pytest.approx(2.0, rel=1e-13)
        assert hpm_inner(g1, one, one, -1) == pytest.approx(2.0, rel=1e-13)

    def test_positivity(self, grid64, rng):
        f = rng.standard_normal(128)
        assert hpm_inner(grid64, f, f, +1) > 0

    def test_reflection_relation(self, grid64):
        f = np.exp(-((grid64.y - 0.4) ** 2))
        plus = hpm_inner(grid64, f, f, +1)
        minus = hpm_inner(grid64, f[::-1], f[::-1], -1)
        assert plus == pytest.approx(minus, rel=1e-12)


class TestHardyAndIntegralOp:
    def test_hardy_example(self):
        g1 = make_grid(1.0, 48)
        lhs, rhs = hardy_check(g1, g1.y**2, -1.0)
        assert lhs == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
        assert rhs == pytest.approx(2.0 * np.sqrt(2.0 / 3.0), rel=1e-12)
        assert lhs <= rhs

    def test_hardy_suite(self, grid64):
        for fvals in (grid64.y**2, grid64.y**3, grid64.y**2 * np.exp(-grid64.y**2)):
            for s in (-0.8, -1.0):
                lhs, rhs = hardy_check(grid64, fvals, s)
                assert lhs <= 4.0 * rhs

    def test_hardy_gate(self, grid64):
        with pytest.raises(ValueError):
            hardy_check(grid64, grid64.y**2, 0.0)

    def test_integral_op_closed_form(self, grid64):
        got = integral_op_T(grid64, np.ones(128), 3, 3)
        assert got == pytest.approx(grid64.y / 4.0, abs=1e-13)

    def test_integral_op_linear(self, grid64):
        assert np.max(np.abs(integral_op_T(grid64, np.zeros(128), 2, 3))) == 0.0

    def test_integral_op_gate(self, grid64):
        with pytest.raises(ValueError):
            integral_op_T(grid64, np.ones(128), 4, 2)

    def test_integral_op_rejects_odd_data(self, grid64):
        # Grid.restrict's message: the even defect of y is max |2 y| = 2 R
        with pytest.raises(ValueError, match=r"declared parity 'even' violated by 4\.000e\+00"):
            integral_op_T(grid64, grid64.y, 3, 3)

    def test_integral_op_bounded(self, grid64, rng):
        f = np.cos(2 * grid64.y) * np.exp(-0.5 * grid64.y**2)
        # the weight phi(y) = 1 / (1 + y^2) rides on the integrand
        Tf = integral_op_T(grid64, f / (1.0 + grid64.y**2), 2, 2)
        assert sobolev_norm_full(grid64, Tf, 2) <= 10.0 * sobolev_norm_full(grid64, f, 2)
