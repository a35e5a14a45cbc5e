import warnings

import numpy as np
import pytest

from hyperwave.grids import weighted_sobolev_norm
from hyperwave.linstab import spectrum
from hyperwave.model import HEIGHT, initial_time_s0, make_params, symmetry_mode
from hyperwave.nonlinear import (
    CauchySolution,
    PerturbationSpec,
    adjust_blowup_time,
    cauchy_lattice,
    cauchy_tr_solver,
    decay_fit,
    evolve_nonlinear,
    initial_data_operator,
    profile_difference,
    smooth_bump,
)

from conftest import traced_peak
from oracles import blowup_profile_hsc


@pytest.fixture(scope="module")
def pert():
    return PerturbationSpec(1e-3)


@pytest.fixture(scope="module")
def cauchy(params7, pert):
    return cauchy_tr_solver(params7, pert)


@pytest.fixture(scope="module")
def cauchy_zero(params7):
    return cauchy_tr_solver(params7, PerturbationSpec(0.0))


# the (times, r, w) lattices that `cauchy` and `cauchy_zero` fit
@pytest.fixture(scope="module")
def lattice(params7, pert):
    return cauchy_lattice(params7, pert, 360)


@pytest.fixture(scope="module")
def lattice_zero(params7):
    return cauchy_lattice(params7, PerturbationSpec(0.0), 360)


class TestPerturbation:
    def test_bump_smooth_compact(self):
        z = np.linspace(-2, 2, 401)
        vals = smooth_bump(z)
        assert np.max(vals) == 1.0
        assert np.all(vals[np.abs(z) >= 1.0] == 0.0)

    def test_support_radius(self, pert):
        r = np.linspace(0, 0.2, 100)
        f = pert.f(r)
        assert np.all(f[r >= pert.eps] == 0.0)
        assert f[0] == pytest.approx(pert.amplitude)


class TestCauchySolver:
    def test_zero_perturbation_exact(self, lattice_zero, cauchy_zero):
        assert np.max(np.abs(lattice_zero[2])) == 0.0
        assert np.max(np.abs(cauchy_zero._coef)) == 0.0

    def test_finite_speed(self, lattice, pert):
        times, r, w = lattice
        it = len(times) // 4
        outside = r > abs(times[it]) + pert.eps
        assert np.max(np.abs(w[it, outside])) < 1e-6

    def test_self_convergence_order_two(self, params7, pert):
        # resolved regime: the bump carries ~30 cells at the coarsest level
        sols = {m: cauchy_tr_solver(params7, pert, m=m) for m in (240, 480, 960)}
        rr = np.linspace(0.005, 0.18, 60)
        e1 = e2 = 0.0
        for t in (-0.15, -0.1, -0.05, 0.04):
            tt = np.full_like(rr, t)
            vals = {m: sols[m].deviation(tt, rr)[0] for m in sols}
            e1 = max(e1, np.max(np.abs(vals[240] - vals[480])))
            e2 = max(e2, np.max(np.abs(vals[480] - vals[960])))
        # at least second order; symmetric-scheme error cancellations can
        # push the observed rate higher at individual probe points
        assert 1.5 < np.log2(e1 / e2) < 4.5

    def test_blowup_guard(self, params7):
        big = PerturbationSpec(80.0)
        with pytest.raises(RuntimeError, match="local existence"):
            cauchy_tr_solver(params7, big)

    @pytest.mark.parametrize("name", ["cauchy", "cauchy_zero"])
    def test_stacked_fit_matches_separate_fits(self, request, name, grid64):
        from scipy.interpolate import RegularGridInterpolator

        from hyperwave.nonlinear import _lattice_derivative

        sol = request.getfixturevalue(name)
        times, r, w = request.getfixturevalue(name.replace("cauchy", "lattice"))
        assert np.array_equal(times, sol.times) and np.array_equal(r, sol.r)
        dr = r[1] - r[0]
        wt, wr = (_lattice_derivative(sol.pert, times, r, w, axis) for axis in (0, 1))
        fits = [
            RegularGridInterpolator((times, r), field, method="cubic")
            for field in (w, wt, wr)
        ]
        # the initial hyperboloids across the prepared window, plus random
        # points of the (t, r) rectangle inside the perturbation's light cone
        eps = sol.pert.eps
        es = np.exp(-initial_time_s0(eps))
        y = grid64.eta
        hyp = [(T + es * HEIGHT.h(y), es * y) for T in (0.95, 0.997, 1.0, 1.003, 1.05)]
        rng = np.random.default_rng(11)
        t = rng.uniform(sol.times[0], sol.times[-1], 2000)
        r = rng.uniform(sol.r[0], np.minimum(np.abs(t) + eps, sol.r[-1]))
        t = np.concatenate([t] + [p[0] for p in hyp])
        r = np.concatenate([r] + [p[1] for p in hyp])

        inside = r <= np.abs(t) + eps + 2.0 * dr
        pts = np.stack([t[inside], r[inside]], axis=-1)
        expected = np.zeros((3, t.size))
        for row, fit in zip(expected, fits):
            row[inside] = fit(pts)
        assert np.count_nonzero(inside) > 2000
        got = sol.deviation(t, r)
        if name == "cauchy_zero":
            assert np.array_equal(got, expected)
        else:
            # the separable operator sums the collocation products in another
            # order than scipy's design matrix, so the solvers' iterates round apart
            for k, field in enumerate((w, wt, wr)):
                assert np.max(np.abs(got[k] - expected[k])) <= 1e-14 * np.max(np.abs(field))

    def test_one_spline_fit_per_cauchy_solve(self, params7, pert, monkeypatch):
        # one collocation operator serves the three fields, and its solver
        # runs once per field
        from hyperwave import nonlinear

        builds, solved = [], []
        build, solve = nonlinear._collocation_operator, nonlinear._gmres

        def counted_build(*args):
            builds.append(build(*args))
            return builds[-1]

        def counted_solve(operator, *args):
            solved.append(operator)
            return solve(operator, *args)

        monkeypatch.setattr(nonlinear, "_collocation_operator", counted_build)
        monkeypatch.setattr(nonlinear, "_gmres", counted_solve)
        cauchy_tr_solver(params7, pert)
        assert len(builds) == 1
        assert len(solved) == 3
        assert all(operator is builds[0][0] for operator in solved)

    @pytest.mark.parametrize("m", [20, 360])
    def test_collocation_operator_is_scipys_design_matrix(self, params7, pert, m):
        from scipy.interpolate import NdBSpline
        from scipy.sparse import csr_array

        from hyperwave.nonlinear import _collocation_operator, _cubic_basis, _not_a_knot

        times, r, _ = cauchy_lattice(params7, pert, m)
        knots = (_not_a_knot(times), _not_a_knot(r))
        nodes = np.stack(np.meshgrid(times, r, indexing="ij"), axis=-1).reshape(-1, 2)
        matrix = NdBSpline.design_matrix(nodes, knots, 3)
        operator, work = _collocation_operator(knots[0], times, knots[1], r)
        assert matrix.shape == (times.size * r.size,) * 2
        assert work.shape == (matrix.shape[0],)
        x = np.random.default_rng(m).standard_normal(matrix.shape[1])
        expected = matrix @ x
        got = operator(x)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        # the operator keeps one work buffer; no result may alias it
        assert not np.shares_memory(got, work)
        assert np.array_equal(operator(-x), -got)

        # and its band products sum each row as the 1-D CSR products do
        def collocation(knots, x):
            ell, vals = _cubic_basis(knots, x)
            cols = (ell[:, None] + np.arange(-3, 1)).ravel()
            return csr_array((vals.ravel(), cols, 4 * np.arange(x.size + 1)), shape=(x.size,) * 2)

        bt, br = collocation(knots[0], times), collocation(knots[1], r)
        c = x.reshape(times.size, r.size)
        assert np.array_equal(got, (br @ (bt @ c).T).T.ravel())

    @pytest.mark.parametrize("d, amplitude", [(7, 1e-3), (7, 3e-2), (9, 1e-3)])
    def test_gmres_matches_scipys_gcrotmk(self, d, amplitude):
        # `_gmres` is gcrotmk's first cycle; on the README fields both
        # converge in that cycle, and the coefficients agree to rounding
        from scipy.sparse.linalg import LinearOperator, gcrotmk

        from hyperwave.nonlinear import _collocation_operator, _lattice_derivative, _not_a_knot

        params, pert = make_params(d), PerturbationSpec(amplitude)
        times, r, w = cauchy_lattice(params, pert, 360)
        sol = CauchySolution(pert, times, r, w)
        knots = (_not_a_knot(times), _not_a_knot(r))
        operator, _ = _collocation_operator(knots[0], times, knots[1], r)
        n = times.size * r.size
        linear = LinearOperator((n, n), matvec=operator, dtype=float)
        fields = (w, *(_lattice_derivative(pert, times, r, w, axis) for axis in (0, 1)))
        for field, coef in zip(fields, sol._coef):
            expected, info = gcrotmk(linear, field.ravel(), atol=1e-6)
            assert info == 0
            got = coef.ravel()
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [40, 41])
    def test_gmres_cycle_length(self, n):
        from hyperwave.nonlinear import GMRES_STEPS, _gmres

        # the cyclic shift on e_0: GMRES stagnates at residual 1 until its
        # n-th step, where the Krylov space closes and the solve is exact
        b = np.zeros(n)
        b[0] = 1.0
        shift = lambda v: np.roll(v, 1)
        if n <= GMRES_STEPS:
            assert np.array_equal(_gmres(shift, lambda: b, np.empty(n)), np.roll(b, -1))
        else:
            with pytest.raises(RuntimeError, match="Cauchy spline fit: GMRES residual"):
                _gmres(shift, lambda: b, np.empty(n))

    def test_cauchy_solve_memory_peak(self, params7, pert):
        # the fit applies kron(B_t, B_r) as two 1-D band products (one CSR
        # matrix of 1.8M entries peaked at 70 MB) and derives w_t and w_r
        # from the lattice of w inside their solves; the peak is the w_r
        # solve's Krylov vectors besides w and the operator's work buffer:
        # 26.1 MB, of 1.6 MB per lattice-sized vector (31.0 MB with a
        # (w, w_t, w_r) lattice and a solver holding b and a scratch vector)
        _, peak = traced_peak(lambda: cauchy_tr_solver(params7, pert))
        assert peak < 27.5e6

    def test_gmres_memory_peak(self):
        # the steps' Arnoldi vectors and the next one: b is the caller's, the
        # scratch vector too, x takes the first basis vector's place, and the
        # basis is freed before the residual check, whose matvec output would
        # make one more
        from hyperwave.nonlinear import _gmres

        n = 100_000
        diag = np.linspace(1.0, 2.0, n)
        b = np.random.default_rng(3).standard_normal(n)
        scratch = np.empty(n)
        calls = []

        def matvec(v):
            calls.append(1)
            return diag * v

        x, peak = traced_peak(lambda: _gmres(matvec, lambda: b, scratch))
        steps = len(calls) - 1  # the last product is the residual check
        assert 5 <= steps < 40
        assert np.linalg.norm(b - diag * x) <= 1e-5 * np.linalg.norm(b)
        assert peak < (steps + 2) * b.nbytes

    def test_lattice_derivatives_are_np_gradient(self, pert, lattice):
        # w_t is np.gradient along each march direction from t = 0, at the
        # march's time step, with the initial velocity on the t = 0 row; w_r
        # is np.gradient along r at spacing r[1] - r[0]
        from hyperwave.nonlinear import _lattice_derivative

        times, r, w = lattice
        dt = 0.4 * (8.0 * pert.eps / r.size)
        zero = int(np.flatnonzero(times == 0.0)[0])
        assert times[zero - 1] == -dt and times[zero + 1] == dt
        w_t = np.empty_like(w)
        w_t[zero::-1] = np.gradient(w[zero::-1], -dt, axis=0, edge_order=2)
        w_t[zero:] = np.gradient(w[zero:], dt, axis=0, edge_order=2)
        w_t[zero] = pert.g(r)
        w_r = np.gradient(w, r[1] - r[0], axis=1, edge_order=2)
        assert np.array_equal(_lattice_derivative(pert, times, r, w, 0), w_t)
        assert np.array_equal(_lattice_derivative(pert, times, r, w, 1), w_r)

    @pytest.mark.parametrize("axis", ["times", "r"])
    def test_cubic_basis_is_scipys_design_matrix(self, cauchy, axis):
        from scipy.interpolate import BSpline

        from hyperwave.nonlinear import _cubic_basis, _not_a_knot

        nodes = getattr(cauchy, axis)
        knots = _not_a_knot(nodes)
        rng = np.random.default_rng(5)
        # the nodes (the last one is the last knot) and points between them
        x = np.concatenate([nodes, rng.uniform(nodes[0], nodes[-1], 500)])
        ell, vals = _cubic_basis(knots, x)
        expected = BSpline.design_matrix(x, knots, 3)
        assert x[nodes.size - 1] == knots[-1]
        assert np.array_equal(expected.indptr, 4 * np.arange(x.size + 1))
        assert np.array_equal(expected.indices.reshape(-1, 4), ell[:, None] + np.arange(-3, 1))
        assert np.array_equal(expected.data.reshape(-1, 4), vals)

    @pytest.mark.parametrize("point", [(0.06, 0.01), (0.0, 1e-5)])
    def test_deviation_outside_the_grid_raises(self, cauchy, point):
        # past the last time level, and inside the first r cell: both points
        # lie in the light cone, where the spline is read
        with pytest.raises(ValueError, match="outside"):
            cauchy.deviation(*point)


class TestInitialData:
    def test_cauchy_solution_truncated_in_t_raises(self, params7, cauchy, grid64):
        # the hyperboloid at T = 1 meets the perturbation's light cone near
        # t = -0.1, before a solution that starts at t = -0.09; its values
        # do not matter, only its rectangle
        times = cauchy.times[cauchy.times >= -0.09]
        short = CauchySolution(cauchy.pert, times, cauchy.r, np.zeros((times.size, cauchy.r.size)))
        with pytest.raises(ValueError):
            initial_data_operator(params7, short, 1.0, grid64)

    def test_zero_perturbation_reference_time(self, params7, cauchy_zero, grid64):
        v0 = initial_data_operator(params7, cauchy_zero, 1.0, grid64)
        assert v0.shape == (2 * grid64.N,)
        assert np.max(np.abs(v0)) == 0.0

    def test_linear_in_time_shift(self, params7, cauchy_zero, grid64):
        tau = 1e-3
        u = initial_data_operator(params7, cauchy_zero, 1.0 + tau, grid64)
        mode = symmetry_mode(params7, grid64.eta).ravel()
        cosang = abs(u @ mode) / np.sqrt((u @ u) * (mode @ mode))
        assert np.arccos(min(1.0, cosang)) < 1e-3
        c_eps = 2.0 * params7.a * params7.b * np.exp(initial_time_s0(0.05))
        assert (u @ mode) / (mode @ mode) / tau == pytest.approx(c_eps, rel=5e-3)

    def test_size_bound(self, params7, cauchy, grid64):
        # || U(f, T) || controlled by amplitude + |T - 1|
        for T in (1.0, 1.0 + 0.003, 1.0 - 0.003):
            size = np.max(np.abs(initial_data_operator(params7, cauchy, T, grid64)))
            assert size <= 30.0 * (1e-3 + abs(T - 1.0))

    def test_window_gate(self, params7, cauchy, grid64):
        with pytest.raises(ValueError):
            initial_data_operator(params7, cauchy, 1.2, grid64)

    def test_continuity_in_T(self, params7, cauchy, grid64):
        # the T-difference quotient converges (continuity, in fact C^1)
        def quotient(h):
            a = initial_data_operator(params7, cauchy, 1.0 + h, grid64)
            b = initial_data_operator(params7, cauchy, 1.0 - h, grid64)
            return (a - b) / (2.0 * h)

        q1 = quotient(1e-3)
        q2 = quotient(1e-4)
        scale = np.max(np.abs(q1))
        assert np.max(np.abs(q1 - q2)) / scale < 0.05


S0 = initial_time_s0(0.05)


class TestEvolveNonlinear:
    def test_zero_fixed_point(self, params7, cauchy_zero, grid64, op64):
        v0 = initial_data_operator(params7, cauchy_zero, 1.0, grid64)
        traj = evolve_nonlinear(op64, v0, S0, S0 + 4.0)
        assert np.max(traj.norm_k) == 0.0
        assert not traj.unstable

    def test_mode_grows_linearly(self, params7, grid64, op64):
        md = symmetry_mode(params7, grid64.eta).ravel()
        traj = evolve_nonlinear(op64, 1e-4 * md, S0, S0 + 4.0)
        slope = np.polyfit(traj.s, np.log(traj.norm_k + traj.norm_km1), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_rk4_self_convergence(self, params7, cauchy, grid64, op64):
        # off-shooting data keep the nonlinear term large enough that the
        # step error of the integrating-factor scheme stays above roundoff
        v0 = initial_data_operator(params7, cauchy, 1.02, grid64)
        outs = {}
        for h in (0.2, 0.1, 0.05):
            outs[h] = evolve_nonlinear(op64, v0, S0, S0 + 2.0, dt=h, n_record=2).final
        e1 = np.max(np.abs(outs[0.2] - outs[0.1]))
        e2 = np.max(np.abs(outs[0.1] - outs[0.05]))
        assert 3.0 < np.log2(e1 / e2) < 5.0

    def test_explosion_flagged_not_raised(self, params7, grid64, op64):
        md = symmetry_mode(params7, grid64.eta).ravel()
        traj = evolve_nonlinear(op64, 5.0 * md, S0, S0 + 12.0)
        assert traj.unstable

    @pytest.mark.parametrize("h", [0.02, 0.01, 0.005, 0.0025])
    @pytest.mark.parametrize("c", [1.0, 2.0, 5.0, 10.0, 20.0])
    def test_explosion_guard_trips_past_a_singularity(self, params7, grid64, op64, c, h):
        # to first order, c * mode with c > 0 is the profile u_1^* seen from
        # hyperboloids of a later blowup time (test_linear_in_time_shift):
        # they reach its singularity at t = 1 within 2 units of s.  Past it
        # the norm wanders between 1e4 and 1e5, and at the smaller steps it
        # never overflows
        md = symmetry_mode(params7, grid64.eta).ravel()
        traj = evolve_nonlinear(op64, c * md, S0, S0 + 8.0, dt=h)
        assert traj.unstable
        assert traj.s.size == traj.norm_k.size < 9
        assert np.all(np.isfinite(traj.norm_k + traj.norm_km1))

    @pytest.mark.parametrize("c", [-1.0, -5.0])
    def test_explosion_guard_passes_large_regular_data(self, params7, grid64, op64, c):
        # c < 0: an earlier blowup time, so the hyperboloids stay below the
        # singularity and the state settles to the rescaled profile
        md = symmetry_mode(params7, grid64.eta).ravel()
        traj = evolve_nonlinear(op64, c * md, S0, S0 + 8.0)
        assert not traj.unstable and traj.s.size == 33

    def test_tracks_exact_two_profile_trajectory(self, params7, cauchy_zero, grid64, op64):
        # u_1^* and u_T^* both solve the full nonlinear equation exactly, so
        # e^{-2s}(u_1^* - u_T^*) along the coordinates is an exact trajectory
        # of the hyperboloidal system: coordinate-system consistency of data
        # preparation, generator, nonlinearity and integrator in one shot
        from hyperwave.model import HEIGHT

        tau = 1e-3
        T = 1.0 + tau
        v0 = initial_data_operator(params7, cauchy_zero, T, grid64)
        y = grid64.eta
        n = grid64.N
        for ds in (0.5, 2.0):
            traj = evolve_nonlinear(op64, v0, S0, S0 + ds, n_record=2)
            s1 = S0 + ds
            es = np.exp(-s1)
            t = T + es * HEIGHT.h(y)
            r = es * y
            dv, dvt, dvr = profile_difference(params7, T, t, r)
            want1 = np.exp(-2.0 * s1) * dv
            want2 = np.exp(-2.0 * s1) * (-es) * (HEIGHT.h(y) * dvt + y * dvr)
            assert np.max(np.abs(traj.final[:n] - want1)) / np.max(np.abs(want1)) < 1e-6
            assert np.max(np.abs(traj.final[n:] - want2)) / np.max(np.abs(want2)) < 1e-6


class TestDecayFit:
    def test_synthetic_decay(self):
        s = np.linspace(0, 5, 21)
        omega, resid = decay_fit(s, np.exp(-0.4 * s))
        assert omega == pytest.approx(0.4, abs=0.01)
        assert resid < 1e-12

    def test_synthetic_growth(self):
        s = np.linspace(0, 5, 21)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            omega, _ = decay_fit(s, np.exp(s))
        assert omega == pytest.approx(-1.0, abs=1e-10)

    def test_non_monotone_warns(self):
        s = np.linspace(0, 5, 21)
        series = np.exp(-0.3 * s) * (1.0 + 0.5 * (np.arange(21) % 2))
        with pytest.warns(UserWarning):
            decay_fit(s, series)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            decay_fit(np.linspace(0, 1, 5), np.ones(5))

    def test_profile_norm_rescaling_bounded(self, params7, grid64):
        # e^{-2s} || profile o coordinates ||_{H^k} stays bounded above and
        # below: with matching blowup time it is exactly e^{2s}-homogeneous
        s0 = initial_time_s0(0.05)
        ratios = []
        for s in np.linspace(s0, s0 + 4.0, 9):
            vals, _ = blowup_profile_hsc(params7, 1.0, s, grid64.eta)
            ratios.append(weighted_sobolev_norm(grid64, np.exp(-2.0 * s) * vals, 2, 7))
        ratios = np.array(ratios)
        assert np.max(ratios) / np.min(ratios) < 1.0 + 1e-10


class TestBlowupAdjustment:
    def test_full_experiment(self, pert, op64):
        t_star, traj, omega, _ = adjust_blowup_time(op64, pert)
        gap = spectrum(op64).gap
        assert abs(t_star - 1.0) <= 0.1
        assert omega is not None and omega > 0.0
        assert abs(omega - gap) <= 0.2 * gap
        assert not traj.unstable
        # sign change verified inside; projection coefficient small at the end
        assert abs(traj.projection_coeff[-1]) < 1e-4

    def test_no_shooting_time_evolved_twice(self, pert, op64, monkeypatch):
        from hyperwave import nonlinear

        # each evolution starts from the data of one initial_data_operator call
        times = []
        prepare = nonlinear.initial_data_operator

        def recording(params, cauchy, T, grid):
            times.append(T)
            return prepare(params, cauchy, T, grid)

        monkeypatch.setattr(nonlinear, "initial_data_operator", recording)
        t_star = adjust_blowup_time(op64, pert)[0]
        # every evolution but the last is a shooting run; the last runs at T*
        shooting = times[:-1]
        assert times[-1] == t_star and t_star in shooting
        assert len(set(shooting)) == len(shooting)

    def test_secant_stops_on_its_step_without_a_shot(self, op64, monkeypatch):
        from hyperwave import nonlinear

        # at amplitude 2e-3 the secant's last step is below 1e-15 relative:
        # T* is accepted without the shooting run that the step test never
        # reads, and the final run is the only one at T*
        times = []
        prepare = nonlinear.initial_data_operator

        def recording(params, cauchy, T, grid):
            times.append(T)
            return prepare(params, cauchy, T, grid)

        monkeypatch.setattr(nonlinear, "initial_data_operator", recording)
        t_star = adjust_blowup_time(op64, PerturbationSpec(2e-3))[0]
        assert times[-1] == t_star and t_star not in times[:-1]
        assert len(set(times)) == len(times) == 6

    def test_zero_amplitude_control(self, op64):
        t_star, traj, omega, residual = adjust_blowup_time(op64, PerturbationSpec(0.0))
        assert t_star == 1.0
        assert omega is None and residual is None
        assert np.max(traj.norm_k + traj.norm_km1) == 0.0

    def test_rate_family_independent(self, op64):
        rates = []
        for spec in (PerturbationSpec(1e-3), PerturbationSpec(3e-4, weight_f=0.4, weight_g=1.0)):
            rates.append(adjust_blowup_time(op64, spec)[2])
        assert abs(rates[0] - rates[1]) <= 0.2 * abs(rates[0])
