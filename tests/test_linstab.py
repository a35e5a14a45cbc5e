import time

import numpy as np
import pytest
import scipy.linalg

from hyperwave import coeffs, linstab
from hyperwave.grids import make_grid
from hyperwave.jets import jet_seed, jsqrt
from hyperwave.linstab import (
    SSC_SIDE_POINTS,
    SSC_WINDOW,
    OperatorMatrix,
    _expm,
    assemble_L,
    generator_matrix,
    mode_angle,
    riesz_projection,
    spectrum,
    ssc_mode_scan,
    ssc_scan_roots,
)
from hyperwave.model import HEIGHT, make_params, potential, symmetry_mode

from conftest import even_state, spectrum_doc
from oracles import evolve_linear, linear_decay_fit


def mode_ode_coeffs(params, lam, eta):
    """Coefficients (p, q) of f'' + p f' + q f = 0 for separated solutions
    e^((lam+2)s) f(eta) of the linearized equation.

    Derived by eliminating the second component from the spectral equation;
    singular at eta = 0 and eta = 1/2.
    """
    lam = complex(lam)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0.0) or np.any(np.abs(eta - 0.5) < 1e-12):
        raise ValueError("mode ODE coefficients are singular at eta = 0 and eta = 1/2")
    d = params.d
    c12 = coeffs.c12_fn(eta)
    p = (coeffs.c11_fn(d, eta) + (lam + 2.0) * coeffs.c21_fn(eta)) / c12
    q = ((lam + 2.0) * (coeffs.c20_fn(d, eta) - lam - 2.0) + potential(params, eta)) / c12
    return p, q


class TestAssembly:
    @pytest.mark.parametrize("d", [7, 9, 11])
    def test_generator_matrix_matches_hand_assembly(self, d, grid96):
        # the coefficient-times-derivative-matrix blocks, written out by hand
        n = grid96.N
        eta = grid96.eta
        De = grid96._De
        D2e = grid96._Do @ De
        ref = np.zeros((2 * n, 2 * n))
        ref[:n, n:] = np.eye(n)
        ref[n:, :n] = coeffs.c11_fn(d, eta)[:, None] * De + coeffs.c12_fn(eta)[:, None] * D2e
        ref[n:, n:] = np.diag(coeffs.c20_fn(d, eta)) + coeffs.c21_fn(eta)[:, None] * De
        assert np.array_equal(generator_matrix(d, grid96), ref)

    def test_exact_decomposition(self, params7, grid96, op96):
        n = grid96.N
        pot = np.zeros((2 * n, 2 * n))
        pot[n:, :n] = np.diag(potential(params7, grid96.eta))
        rebuilt = generator_matrix(7, grid96) - 2.0 * np.eye(2 * n) + pot
        assert np.array_equal(rebuilt, op96.matrix)

    def test_potential_block_structure(self, params7, grid96, op96):
        n = grid96.N
        pot = op96.matrix - (generator_matrix(7, grid96) - 2.0 * np.eye(2 * n))
        assert np.max(np.abs(pot[:n, :])) == 0.0
        assert np.max(np.abs(pot[n:, n:])) == 0.0
        block = pot[n:, :n]
        assert np.max(np.abs(block - np.diag(np.diag(block)))) == 0.0
        assert np.diag(block) == pytest.approx(potential(params7, grid96.eta))

    def test_free_part_annihilates_constants(self, grid96):
        free = generator_matrix(7, grid96)
        state = np.concatenate([np.ones(grid96.N), np.zeros(grid96.N)])
        assert np.max(np.abs(free @ state)) < 1e-7

    def test_eigen_identity(self, params7, grid96, op96):
        mode = symmetry_mode(params7, grid96.eta).ravel()
        res = np.max(np.abs(op96.matrix @ mode - mode)) / np.max(np.abs(mode))
        assert res < 1e-6

    def test_low_resolution_rejected(self, params7):
        with pytest.raises(ValueError):
            assemble_L(params7, make_grid(2.0, 24))


class TestSpectrum:
    def test_mode_stability_verdict(self, spec96, doc96):
        assert doc96["mode_stable"] is True
        uns = [z for z in spec96[1] if z.real >= 0.0]
        assert len(uns) == 1
        assert abs(uns[0] - 1.0) < 1e-6

    def test_gap_reported(self, doc96):
        assert 0.0 < doc96["gap"] < 1.5

    def test_r_independence(self, params7, spec96):
        op1 = assemble_L(params7, make_grid(1.0, 96))
        for z1, z2 in zip(spectrum(op1)[2], spec96[2]):
            assert abs(z1 - z2) < 1e-4

    def test_reproducible_under_refinement(self, params7, spec96):
        op = assemble_L(params7, make_grid(2.0, 112))
        for z1, z2 in zip(spectrum(op)[2], spec96[2]):
            assert abs(z1 - z2) < 1e-4

    def test_raw_list_retrievable(self, op96, spec96):
        # all collocation eigenvalues are the operator's cached decomposition
        raw = op96.eig()[0]
        assert raw.size == 2 * op96.grid.N
        assert len(spec96[2]) < raw.size

    def test_gap_none_without_a_stable_eigenvalue(self, monkeypatch):
        # the scan located only the eigenvalue 1: there is no gap to certify
        monkeypatch.setattr(linstab, "ssc_scan_roots", lambda params: (1, [1.0]))
        doc, checks = spectrum_doc(48)
        assert [z["re"] for z in doc["ssc_roots"]] == [1.0]
        assert doc["gap"] is None and doc["gap_collocation_error"] is None
        assert doc["mode_stable"] is False
        assert [c["passed"] for c in checks] == [False, True]

    def test_json_document(self, doc96):
        # `cli.main` records d, R and N in the JSON's parameters
        assert set(doc96) == {"eigenvalues", "gap", "gap_collocation_error", "window",
                              "ssc_count", "ssc_roots", "mode_stable"}
        assert doc96["mode_stable"] is True
        assert {"re", "im", "stable"} <= set(doc96["eigenvalues"][0])
        assert doc96["ssc_count"] == len(doc96["ssc_roots"]) == len(doc96["eigenvalues"]) == 2
        assert doc96["gap"] == -doc96["ssc_roots"][1]["re"]
        # the collocation gap agrees with the connection function's
        assert 0.0 < doc96["gap_collocation_error"] < 1e-8

    def test_eigenvector_angle(self, op96):
        assert mode_angle(op96) < 1e-5

    def test_d9_also_mode_stable(self):
        assert spectrum_doc(96, d=9)[0]["mode_stable"] is True


class TestRieszProjection:
    def test_idempotent(self, proj96):
        P = proj96
        assert np.max(np.abs(P @ P - P)) < 1e-8

    def test_rank_one(self, proj96):
        sv = np.linalg.svd(proj96, compute_uv=False)
        assert sv[0] > 0.5
        assert sv[1] < 1e-6

    def test_fixes_symmetry_mode(self, params7, grid96, proj96):
        mode = symmetry_mode(params7, grid96.eta).ravel()
        assert np.max(np.abs(proj96 @ mode - mode)) / np.max(np.abs(mode)) < 1e-6

    def test_commutes_with_generator(self, op96, proj96):
        comm = op96.matrix @ proj96 - proj96 @ op96.matrix
        assert np.max(np.abs(comm)) < 1e-6

    def test_complement_annihilates_mode(self, params7, grid96, proj96):
        mode = symmetry_mode(params7, grid96.eta).ravel()
        out = mode - proj96 @ mode
        assert np.max(np.abs(out)) / np.max(np.abs(mode)) < 1e-6

    def test_matches_contour_projector(self, op64):
        # reference: (2 pi i)^-1 times the resolvent integral over
        # |z - 1| = 1, by the 64-node trapezoid rule
        n2 = op64.matrix.shape[0]
        eye = np.eye(n2)
        acc = np.zeros((n2, n2))
        nodes = 64
        for t in 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes:
            w = np.exp(1j * t)
            acc += np.real(np.linalg.solve((1.0 + w) * eye - op64.matrix, w * eye))
        P = riesz_projection(op64)
        assert np.max(np.abs(P - acc / nodes)) < 1e-9

    def test_one_decomposition_per_operator(self, params7, grid64, monkeypatch):
        sizes, solves = [], []

        def counted(fn, log):
            def wrapper(a, *args, **kwargs):
                log.append(a.shape[0])
                return fn(a, *args, **kwargs)

            return wrapper

        for module in (np.linalg, scipy.linalg):
            for name in ("eig", "eigvals"):
                monkeypatch.setattr(module, name, counted(getattr(module, name), sizes))
            monkeypatch.setattr(module, "solve", counted(module.solve, solves))
        op = assemble_L(params7, grid64)
        spectrum(op)
        mode_angle(op)
        riesz_projection(op)
        # one eig of L, shared by all three; one eig of L^H for the left
        # eigenvector
        assert sorted(sizes) == [2 * 64, 2 * 64]
        assert solves == []

    def test_commutes_with_evolution_map(self, grid96, op96, proj96):
        bump = np.exp(-3 * (grid96.eta - 0.6) ** 2)
        st = np.concatenate([bump, -0.2 * bump])
        ds = 0.5
        (a,) = evolve_linear(op96, st, [ds])
        (b,) = evolve_linear(op96, proj96 @ st, [ds])
        diff = proj96 @ a - b
        assert np.max(np.abs(diff)) / np.max(np.abs(st)) < 1e-5


class TestLinearEvolution:
    def test_zero(self, op96, grid96):
        (out,) = evolve_linear(op96, even_state(grid96, np.zeros_like, np.zeros_like), [1.0])
        assert np.max(np.abs(out)) == 0.0

    def test_unstable_direction_grows_like_e_s(self, params7, grid96, op96, proj96):
        bump = np.exp(-4 * (grid96.eta - 0.8) ** 2)
        exponent, _ = linear_decay_fit(op96, proj96 @ np.concatenate([bump, 0.3 * bump]))
        assert exponent == pytest.approx(1.0, abs=0.02)

    def test_stable_complement_decays_at_gap(self, grid96, op96, proj96, doc96):
        bump = np.exp(-4 * (grid96.eta - 0.8) ** 2)
        v = np.concatenate([bump, 0.3 * bump])
        exponent, _ = linear_decay_fit(op96, v - proj96 @ v, s_values=np.linspace(2.0, 8.0, 13))
        assert exponent < 0.0
        assert abs(-exponent - doc96["gap"]) <= 0.2 * doc96["gap"]


class TestPropagator:
    # t -> the Pade degree that scipy 1.17's `expm` picks there, named in the
    # test id; `_expm` takes degree 13 at every t, at s = 0 where scipy picks
    # a lower one.  blowup's steps (0.02 and its halves) take degree 13 with
    # 7 or 8 squarings in both
    SCIPY_DEGREE = {1e-9: 3, 3e-7: 5, 1e-5: 7, 3e-5: 9, 1e-3: 13, 0.02: 13}

    @pytest.mark.parametrize("t", SCIPY_DEGREE, ids=[f"{t}-{m}" for t, m in SCIPY_DEGREE.items()])
    def test_expm_port_matches_scipy(self, op64, t):
        A = t * op64.matrix
        expected = scipy.linalg.expm(A)
        got = _expm(A)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("N", [48, 64, 96])
    @pytest.mark.parametrize("d", [7, 9, 11])
    def test_propagator_squares_the_half_step_bit_for_bit(self, d, N):
        # exp(hL) is built as the square of the cached exp(hL/2); at these
        # steps `_expm(hL)` scales by one squaring more than `_expm(hL/2)`,
        # on exactly rescaled Pade inputs, so the two agree bit for bit
        op = assemble_L(make_params(d), make_grid(2.0, N))
        for h in (1e-3, 0.01, 0.25 / 13, 0.02, 0.05, 0.3):
            fresh = OperatorMatrix(op.matrix, op.grid, op.params)
            assert np.array_equal(fresh.propagator(h), _expm(h * op.matrix))

    def test_expm_of_zero_is_identity(self):
        from hyperwave.linstab import _expm

        assert np.array_equal(_expm(np.zeros((6, 6))), np.eye(6))


class TestModeODE:
    def test_index_from_coefficient_limit(self, params7):
        # (eta - 1/2) p approaches the residue linearly; extrapolate once
        lam = 0.3

        def scaled(e):
            eta = 0.5 + np.array([e])
            return (((eta - 0.5) * mode_ode_coeffs(params7, lam, eta)[0])[0]).real

        p0 = 2.0 * scaled(1e-5) - scaled(2e-5)
        assert 1.0 - p0 == pytest.approx((7 - 5) / 2.0 - lam, abs=1e-6)

    def test_origin_behavior(self, params7):
        eta = np.array([1e-4, 1e-5])
        p, _ = mode_ode_coeffs(params7, 1.0, eta)
        assert eta * p == pytest.approx(7 - 1, abs=1e-6)

    def test_singular_points_rejected(self, params7):
        with pytest.raises(ValueError):
            mode_ode_coeffs(params7, 1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            mode_ode_coeffs(params7, 1.0, np.array([0.0, 0.3]))

    def test_symmetry_mode_satisfies_ode(self, params7):
        eta = np.linspace(0.07, 1.9, 41)
        eta = eta[np.abs(eta - 0.5) > 0.03]
        p, q = mode_ode_coeffs(params7, 1.0, eta)
        x = jet_seed(eta, 2)
        h = jsqrt(2.0 + x * x) - 2.0
        den = params7.b * h * h + x * x
        f = h / (den * den)
        res = f.derivative_values(2) + p * f.derivative_values(1) + q * f.value
        assert np.max(np.abs(res)) < 1e-10

    def test_p_matches_published_form(self, params7):
        # the first-order coefficient agrees with the closed form stated for
        # the mode equation; the zeroth-order one is instead validated by the
        # exact eigenfunction above
        lam = 1.37 + 0.21j
        eta = np.linspace(0.05, 1.9, 30)
        eta = eta[np.abs(eta - 0.5) > 0.02]
        p, _ = mode_ode_coeffs(params7, lam, eta)
        h, dh, d2h = HEIGHT.h(eta), HEIGHT.dh(eta), HEIGHT.d2h(eta)
        p_pub = (
            6.0 / eta
            + 2.0 * (lam - 0.0) * (h * dh - eta) / (h * h - eta * eta)
            - eta * d2h / (eta * dh - h)
        )
        assert np.max(np.abs(p - p_pub)) < 1e-10


class TestSSCScan:
    def test_eigenvalue_detected(self, params7):
        assert abs(ssc_mode_scan(params7, 1.0)) < 1e-10

    def test_away_from_eigenvalue(self, params7):
        assert abs(ssc_mode_scan(params7, 0.5)) > 0.1
        assert abs(ssc_mode_scan(params7, 1.5)) > 0.1

    def test_one_and_the_gap_in_window(self, ssc7):
        count, roots = ssc7
        assert count == len(roots) == 2
        assert abs(roots[0] - 1.0) < 1e-12
        assert abs(roots[1] + 0.588904823837) < 1e-10

    def test_no_roots_in_gap_strip(self, ssc7, doc96):
        # oracle for the spectral gap: nothing between -gap/2 and 0.  The
        # window holds that strip, and its two zeros are the eigenvalue 1
        # and one left of the strip
        (re0, re1), (im0, im1) = SSC_WINDOW
        gap = doc96["gap"]
        assert re0 < -gap / 2.0 and im0 < -1.0 and 1.0 < im1
        count, roots = ssc7
        assert count == 2 and abs(roots[0] - 1.0) < 1e-12 and roots[1].real < -gap / 2.0

    def test_resonant_lambda_raises(self, params7):
        for lam in (0.0, [0.5, 0.0, 1.5]):
            with pytest.raises(ValueError, match="^resonant Frobenius recursion at order 1$"):
                ssc_mode_scan(params7, lam)

    def test_truncated_series_raises(self, params7, monkeypatch):
        # 30 orders leave a tail far above the convergence threshold at 1/2
        monkeypatch.setattr(linstab, "SSC_SERIES_ORDER", 30)
        message = r"^Frobenius series not converged at radius 0\.5: tail 8\.0e-09$"
        for lam in (0.5, [0.5, 1.5 + 1j]):
            with pytest.raises(ValueError, match=message):
                ssc_mode_scan(params7, lam)

    @pytest.mark.parametrize("d", [7, 21])
    def test_contour_batch_matches_point_by_point(self, d):
        # F over the window's boundary in one pass against F at each point
        params = make_params(d)
        (re0, re1), (im0, im1) = SSC_WINDOW
        corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
        t = np.arange(SSC_SIDE_POINTS) / SSC_SIDE_POINTS
        z = np.concatenate([a + (b - a) * t for a, b in zip(corners, corners[1:] + corners[:1])])
        batch = ssc_mode_scan(params, z)
        single = np.array([ssc_mode_scan(params, zj) for zj in z])
        assert batch.shape == z.shape and np.ndim(single[0]) == 0
        assert np.max(np.abs(batch - single) / np.abs(single)) < 1e-14

    def test_counts_one_and_the_gap_at_every_odd_d_to_31(self):
        # the real sign changes locate every gap from d = 7 (-0.589) to
        # d = 31 (-0.662)
        gaps = {7: 0.588904823837, 9: 0.636360655568, 11: 0.647756794844, 21: 0.659819705908,
                31: 0.662301829144}
        start = time.perf_counter()
        for d in range(7, 32, 2):
            count, roots = ssc_scan_roots(make_params(d))
            assert count == len(roots) == 2, d
            assert abs(roots[0] - 1.0) < 1e-12, d
            assert -0.9 < roots[1].real < 0.0 and abs(roots[1].imag) < 1e-12, d
            if d in gaps:
                assert abs(roots[1] + gaps[d]) < 1e-10, d
        assert time.perf_counter() - start < 5.0

    def test_scan_matches_matrix_spectrum(self, ssc7, spec96):
        # both routes agree that the only unstable eigenvalue is 1, and on
        # the gap eigenvalue
        _, roots = ssc7
        _, spec_roots, eigenvalues = spec96
        assert len([z for z in spec_roots if z.real >= 0.0]) == 1
        assert len(roots) == len(eigenvalues) == 2
        for z, e in zip(roots, eigenvalues):
            assert abs(z - e) < 1e-6
