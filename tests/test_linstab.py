import numpy as np
import pytest
import scipy.linalg

from hyperwave.grids import GridFunction, StateVector, make_grid
from hyperwave.jets import jet_seed, jsqrt
from hyperwave.linstab import (
    assemble_L,
    assemble_parts,
    evolve_linear,
    frobenius_indices,
    linear_decay_fit,
    mode_angle,
    mode_ode_coeffs,
    riesz_projection,
    spectrum,
    ssc_mode_scan,
    ssc_scan_roots,
)
from hyperwave.model import HEIGHT, make_params, potential, symmetry_mode


class TestAssembly:
    def test_exact_decomposition(self, params7, grid96, op96):
        free, pot = assemble_parts(params7, grid96)
        rebuilt = free - 2.0 * np.eye(2 * grid96.N) + pot
        assert np.array_equal(rebuilt, op96.matrix)

    def test_potential_block_structure(self, params7, grid96):
        _, pot = assemble_parts(params7, grid96)
        n = grid96.N
        assert np.max(np.abs(pot[:n, :])) == 0.0
        assert np.max(np.abs(pot[n:, n:])) == 0.0
        block = pot[n:, :n]
        assert np.max(np.abs(block - np.diag(np.diag(block)))) == 0.0
        assert np.diag(block) == pytest.approx(potential(params7, grid96.eta))

    def test_free_part_annihilates_constants(self, params7, grid96):
        free, _ = assemble_parts(params7, grid96)
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
    def test_mode_stability_verdict(self, spec96):
        assert spec96.verdict()
        uns = spec96.unstable
        assert len(uns) == 1
        assert abs(uns[0] - 1.0) < 1e-6

    def test_gap_reported(self, spec96):
        assert 0.0 < spec96.gap < 1.5

    def test_r_independence(self, params7, spec96):
        op1 = assemble_L(params7, make_grid(1.0, 96))
        spec1 = spectrum(op1)
        for z1, z2 in zip(spec1.eigenvalues, spec96.eigenvalues):
            assert abs(z1 - z2) < 1e-4

    def test_reproducible_under_refinement(self, params7, spec96):
        op = assemble_L(params7, make_grid(2.0, 112))
        spec_fine = spectrum(op)
        for z1, z2 in zip(spec_fine.eigenvalues, spec96.eigenvalues):
            assert abs(z1 - z2) < 1e-4

    def test_raw_list_retrievable(self, op96, spec96):
        assert spec96.raw.size == 2 * op96.grid.N
        assert len(spec96.eigenvalues) < spec96.raw.size

    def test_json_document(self, spec96):
        doc = spec96.to_json_dict()
        assert doc["d"] == 7 and doc["N"] == 96 and doc["R"] == 2.0
        assert doc["mode_stable"] is True
        assert {"re", "im", "stable"} <= set(doc["eigenvalues"][0])

    def test_eigenvector_angle(self, op96):
        assert mode_angle(op96) < 1e-5

    def test_d9_also_mode_stable(self):
        op = assemble_L(make_params(9), make_grid(2.0, 96))
        spec = spectrum(op)
        assert spec.verdict()


class TestRieszProjection:
    def test_idempotent(self, proj96):
        P = proj96.matrix
        assert np.max(np.abs(P @ P - P)) < 1e-8

    def test_rank_one(self, proj96):
        sv = np.linalg.svd(proj96.matrix, compute_uv=False)
        assert sv[0] > 0.5
        assert sv[1] < 1e-6

    def test_fixes_symmetry_mode(self, params7, grid96, proj96):
        mode = symmetry_mode(params7, grid96.eta).ravel()
        assert np.max(np.abs(proj96.matrix @ mode - mode)) / np.max(np.abs(mode)) < 1e-6

    def test_commutes_with_generator(self, op96, proj96):
        comm = op96.matrix @ proj96.matrix - proj96.matrix @ op96.matrix
        assert np.max(np.abs(comm)) < 1e-6

    def test_complement_annihilates_mode(self, params7, grid96, proj96):
        mode = symmetry_mode(params7, grid96.eta).ravel()
        out = mode - proj96.matrix @ mode
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
        P = riesz_projection(op64).matrix
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
        # one for op, one for its N + 16 companion in `spectrum`
        assert sorted(sizes) == [2 * 64, 2 * 80]
        assert solves == []

    def test_commutes_with_evolution_map(self, grid96, op96, proj96):
        bump = GridFunction.from_callable(grid96, lambda e: np.exp(-3 * (e - 0.6) ** 2), "even")
        st = StateVector(bump, GridFunction(grid96, -0.2 * bump.values, "even"))
        ds = 0.5
        a = proj96.matrix @ evolve_linear(op96, st, ds).stacked()
        b = evolve_linear(
            op96, StateVector.from_stacked(grid96, proj96.matrix @ st.stacked()), ds
        ).stacked()
        assert np.max(np.abs(a - b)) / np.max(np.abs(st.stacked())) < 1e-5


class TestLinearEvolution:
    def test_zero(self, op96, grid96):
        out = evolve_linear(op96, StateVector.zero(grid96), 1.0)
        assert np.max(np.abs(out.stacked())) == 0.0

    def test_unstable_direction_grows_like_e_s(self, params7, grid96, op96, proj96):
        bump = GridFunction.from_callable(grid96, lambda e: np.exp(-4 * (e - 0.8) ** 2), "even")
        st = StateVector(bump, GridFunction(grid96, 0.3 * bump.values, "even"))
        proj_state = StateVector.from_stacked(grid96, proj96.matrix @ st.stacked())
        exponent, _ = linear_decay_fit(op96, proj_state)
        assert exponent == pytest.approx(1.0, abs=0.02)

    def test_stable_complement_decays_at_gap(self, grid96, op96, proj96, spec96):
        bump = GridFunction.from_callable(grid96, lambda e: np.exp(-4 * (e - 0.8) ** 2), "even")
        st = StateVector(bump, GridFunction(grid96, 0.3 * bump.values, "even"))
        stacked = st.stacked()
        q_state = StateVector.from_stacked(grid96, stacked - proj96.matrix @ stacked)
        exponent, _ = linear_decay_fit(op96, q_state, s_values=np.linspace(2.0, 8.0, 13))
        assert exponent < 0.0
        assert abs(-exponent - spec96.gap) <= 0.2 * spec96.gap


class TestModeODE:
    def test_indices(self, params7):
        idx = frobenius_indices(params7, 1.0)
        assert idx["origin"] == (0.0, -5.0)
        assert idx["half"][1] == pytest.approx(0.0)
        coeffs = mode_ode_coeffs(params7, 1.0, np.array([0.3, 0.7]))
        assert coeffs.indices_origin == (0.0, -5.0)

    def test_index_from_coefficient_limit(self, params7):
        # (eta - 1/2) p approaches the residue linearly; extrapolate once
        lam = 0.3

        def scaled(e):
            eta = 0.5 + np.array([e])
            return (((eta - 0.5) * mode_ode_coeffs(params7, lam, eta).p)[0]).real

        p0 = 2.0 * scaled(1e-5) - scaled(2e-5)
        assert 1.0 - p0 == pytest.approx((7 - 5) / 2.0 - lam, abs=1e-6)

    def test_origin_behavior(self, params7):
        eta = np.array([1e-4, 1e-5])
        mc = mode_ode_coeffs(params7, 1.0, eta)
        assert eta * mc.p == pytest.approx(7 - 1, abs=1e-6)

    def test_singular_points_rejected(self, params7):
        with pytest.raises(ValueError):
            mode_ode_coeffs(params7, 1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            mode_ode_coeffs(params7, 1.0, np.array([0.0, 0.3]))

    def test_symmetry_mode_satisfies_ode(self, params7):
        eta = np.linspace(0.07, 1.9, 41)
        eta = eta[np.abs(eta - 0.5) > 0.03]
        mc = mode_ode_coeffs(params7, 1.0, eta)
        x = jet_seed(eta, 2)
        h = jsqrt(2.0 + x * x) - 2.0
        f = h / (params7.b * h * h + x * x) ** 2
        res = f.derivative_values(2) + mc.p * f.derivative_values(1) + mc.q * f.value
        assert np.max(np.abs(res)) < 1e-10

    def test_p_matches_published_form(self, params7):
        # the first-order coefficient agrees with the closed form stated for
        # the mode equation; the zeroth-order one is instead validated by the
        # exact eigenfunction above
        lam = 1.37 + 0.21j
        eta = np.linspace(0.05, 1.9, 30)
        eta = eta[np.abs(eta - 0.5) > 0.02]
        mc = mode_ode_coeffs(params7, lam, eta)
        h, dh, d2h = HEIGHT.h(eta), HEIGHT.dh(eta), HEIGHT.d2h(eta)
        p_pub = (
            6.0 / eta
            + 2.0 * (lam - 0.0) * (h * dh - eta) / (h * h - eta * eta)
            - eta * d2h / (eta * dh - h)
        )
        assert np.max(np.abs(mc.p - p_pub)) < 1e-10


class TestSSCScan:
    def test_eigenvalue_detected(self, params7):
        assert abs(ssc_mode_scan(params7, 1.0)) < 1e-10

    def test_away_from_eigenvalue(self, params7):
        assert abs(ssc_mode_scan(params7, 0.5)) > 0.1
        assert abs(ssc_mode_scan(params7, 1.5)) > 0.1

    def test_unique_root_in_window(self, params7):
        roots = ssc_scan_roots(params7)
        assert len(roots) == 1
        assert abs(roots[0] - 1.0) < 1e-6

    def test_no_roots_in_gap_strip(self, params7, spec96):
        # oracle for the spectral gap: nothing between -gap/2 and 0
        roots = ssc_scan_roots(
            params7, re_range=(-spec96.gap / 2.0, -1e-3), im_range=(-1.0, 1.0), n_re=9, n_im=9
        )
        assert roots == []

    def test_resonant_lambda_raises(self, params7):
        with pytest.raises(ValueError):
            ssc_mode_scan(params7, 0.0)

    def test_scan_matches_matrix_spectrum(self, params7, spec96):
        # both routes agree that the only unstable eigenvalue is 1
        roots = ssc_scan_roots(params7)
        assert len(roots) == len(spec96.unstable) == 1
        assert abs(roots[0] - spec96.unstable[0]) < 1e-6
