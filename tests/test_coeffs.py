import numpy as np
import pytest

from hyperwave import coeffs, geometry
from hyperwave.jets import jet_seed
from hyperwave.model import HEIGHT

from oracles import jexp

SQ2 = np.sqrt(2.0)
ETA = np.linspace(0.02, 2.0, 100)


class TestCoefficientValues:
    def test_c21_odd_zero_at_origin(self):
        assert coeffs.c21_fn(np.array([0.0]))[0] == 0.0

    def test_c12_at_origin_and_half(self):
        assert coeffs.c12_fn(np.array([0.0]))[0] == pytest.approx(6.0 - 4.0 * SQ2, abs=1e-15)
        assert coeffs.c12_fn(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)
        assert coeffs.c12_fn(np.array([-0.5]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_c20_origin_limit(self):
        assert coeffs.c20_fn(7, np.array([0.0]))[0] == pytest.approx(6.0 - 7.0 * SQ2, abs=1e-14)

    def test_dimension_shift(self):
        for d in (3, 5, 7, 9, 11):
            got3 = coeffs.c11_fn(d - 2, ETA) - coeffs.c11_fn(d, ETA)
            got4 = coeffs.c20_fn(d - 2, ETA) - coeffs.c20_fn(d, ETA)
            assert np.max(np.abs(got3 - coeffs.c3_fn(ETA))) < 1e-12
            assert np.max(np.abs(got4 - coeffs.c4_fn(ETA))) < 1e-13

    def test_parity_table(self):
        c = coeffs
        assert np.max(np.abs(c.c21_fn(-ETA) + c.c21_fn(ETA))) < 1e-13
        assert np.max(np.abs(c.c12_fn(-ETA) - c.c12_fn(ETA))) < 1e-13
        assert np.max(np.abs(c.c20_fn(7, -ETA) - c.c20_fn(7, ETA))) < 1e-13
        assert np.max(np.abs((-ETA) * c.c11_fn(7, -ETA) - ETA * c.c11_fn(7, ETA))) < 1e-12
        assert np.max(np.abs(c.c1_fn(-ETA) + c.c1_fn(ETA))) < 1e-13
        assert np.max(np.abs(c.c2_fn(-ETA) - c.c2_fn(ETA))) < 1e-13
        assert np.max(np.abs(c.c4_fn(-ETA) - c.c4_fn(ETA))) < 1e-13

    def test_g00_matches_model(self):
        # -e^{2s} (1-h'^2)/(eta h' - h)^2 against the direct formula
        s = 0.4
        dh = HEIGHT.dh(ETA)
        direct = -np.exp(2 * s) * (1 - dh * dh) / (ETA * dh - HEIGHT.h(ETA)) ** 2
        got = [geometry.inverse_metric(s, np.array([eta, 0.0, 0.0]))[0, 0] for eta in ETA]
        assert got == pytest.approx(direct, rel=1e-13)


class TestKernelWeights:
    def test_t22_is_h_t21(self):
        assert coeffs.t22_fn(ETA) == pytest.approx(HEIGHT.h(ETA) * coeffs.t21_fn(ETA), rel=1e-13)

    def test_weights_even_finite_at_origin(self):
        small = np.array([1e-6, -1e-6])
        for fn in (lambda x: coeffs.t11_fn(7, x), lambda x: coeffs.t12_fn(7, x), coeffs.t21_fn, coeffs.t22_fn):
            vals = fn(small)
            assert np.isfinite(vals).all()
            assert vals[0] == pytest.approx(vals[1], rel=1e-9)
            assert abs(vals[0]) > 1e-3


class TestIdentities:
    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    def test_intertwining_coefficient_identities(self, d):
        res = coeffs.identity_residuals(d, ETA)
        assert res.shape == (4, ETA.size)
        assert np.max(np.abs(res)) < 1e-10

    def test_one_dimensional_identities(self):
        res = coeffs.identity_residuals(1, ETA)
        assert res.shape == (3, ETA.size)
        assert np.max(np.abs(res)) < 1e-10

    def test_eta_c3_combination_limit(self):
        # eta c3 - (eta c21 - 2 c12) -> 0 as eta -> 0
        small = np.array([1e-3, 1e-5])
        val = small * coeffs.c3_fn(small) - (small * coeffs.c21_fn(small) - 2 * coeffs.c12_fn(small))
        assert np.max(np.abs(val)) < 1e-12

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            coeffs.identity_residuals(7, np.array([0.0, 0.5]))

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            coeffs.identity_residuals(2, ETA)


class TestJets:
    def test_first_and_second_derivatives_vs_fd(self):
        # central differences limit the attainable agreement, especially
        # near the 1/eta pole of c11, so compare in relative terms
        x0 = np.linspace(0.05, 1.9, 37)
        h = 1e-5
        for fn in (coeffs.c1_fn, coeffs.c2_fn, coeffs.c12_fn, coeffs.c21_fn,
                   lambda x: coeffs.c11_fn(7, x), lambda x: coeffs.c20_fn(7, x)):
            jet = fn(jet_seed(x0, 2))
            fd1 = (fn(x0 + h) - fn(x0 - h)) / (2 * h)
            fd2 = (fn(x0 + h) - 2 * fn(x0) + fn(x0 - h)) / h**2
            scale1 = np.maximum(np.abs(fd1), 1.0)
            scale2 = np.maximum(np.abs(fd2), 1.0)
            assert np.max(np.abs(jet.derivative_values(1) - fd1) / scale1) < 1e-7
            assert np.max(np.abs(jet.derivative_values(2) - fd2) / scale2) < 1e-3

    def test_exp_and_division(self):
        x = jet_seed(np.array([0.3, 1.1]), 4)
        f = jexp(-(x * x)) / (1.0 + x * x)
        g = lambda t: np.exp(-t * t) / (1 + t * t)
        h = 1e-4
        t0 = np.array([0.3, 1.1])
        fd2 = (g(t0 + h) - 2 * g(t0) + g(t0 - h)) / h**2
        assert f.value == pytest.approx(g(t0), rel=1e-14)
        assert f.derivative_values(2) == pytest.approx(fd2, rel=1e-6)

    def test_power_and_sqrt(self):
        x = jet_seed(np.array([0.7]), 3)
        f = (x * x * x).sqrt()
        assert f.value[0] == pytest.approx(0.7**1.5, rel=1e-14)
        assert f.derivative_values(1)[0] == pytest.approx(1.5 * 0.7**0.5, rel=1e-12)
