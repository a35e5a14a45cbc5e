import numpy as np
import pytest

from hyperwave.grids import GridFunction, StateVector, make_grid, odd_state_norm, sobolev_norm_full
from hyperwave.halfwave import (
    HalfWaveState,
    evolve_halfwave,
    evolve_S1,
    halfwave_decompose,
    halfwave_recompose,
)
from hyperwave.model import HEIGHT
from hyperwave.nonlinear import smooth_bump

from conftest import odd_state
from oracles import classical_loop, halfwave_energy, halfwave_flow, hpm_inner, stacked


# ----------------------------------------------------------------------
# references for the exact transport: the vector fields on the grid, a
# method-of-lines solver, the transport norm, mode data and the d'Alembert
# solution


def apply_L_pm(grid, f_full, sign):
    """Transport vector field L_pm f = -(y pm h)/(1 pm h') f'."""
    f = np.asarray(f_full, dtype=float)
    y = grid.y
    s = float(sign)
    return -(y + s * HEIGHT.h(y)) / (1.0 + s * HEIGHT.dh(y)) * (grid.D @ f)


def apply_D_pm(grid, f_full, sign):
    """Commuting vector field D_pm f = f'/(1 pm h')."""
    f = np.asarray(f_full, dtype=float)
    return (grid.D @ f) / (1.0 + float(sign) * HEIGHT.dh(grid.y))


def evolve_halfwave_mol(w, ds, dt=1e-3):
    """Method-of-lines RK4 integration of the transport fields."""
    grid = w.grid
    n = 2 * grid.N
    nsteps = max(int(np.ceil(ds / dt)), 1)

    def rhs(x):
        return np.concatenate(
            [apply_L_pm(grid, x[:n], -1), apply_L_pm(grid, x[n:], +1)]
        )

    x = classical_loop(rhs, np.concatenate([w.vm, w.vp]), ds / nsteps, nsteps)
    return HalfWaveState(grid, x[:n], x[n:])


def halfwave_norm(w, k):
    """Sum over j <= k-1 of the weighted L^2 norms of D_pm^j v_pm."""
    total = 0.0
    gm, gp = w.vm.copy(), w.vp.copy()
    for _ in range(k):
        total += np.sqrt(max(hpm_inner(w.grid, gm, gm, -1), 0.0))
        total += np.sqrt(max(hpm_inner(w.grid, gp, gp, +1), 0.0))
        gm = apply_D_pm(w.grid, gm, -1)
        gp = apply_D_pm(w.grid, gp, +1)
    return float(total)


def transport_pde_residual(w0, ds=0.5):
    """Residual of (1 pm h') d_s v + (y pm h) d_y v = 0 along the evolution,
    with the s-derivative taken by central differences.  Validates the sign
    and exponent convention of the characteristic pull-back."""
    grid = w0.grid
    step = 1e-4
    plus = evolve_halfwave(w0, ds + step)
    minus = evolve_halfwave(w0, ds - step)
    mid = evolve_halfwave(w0, ds)
    y = grid.y
    h = HEIGHT.h(y)
    dh = HEIGHT.dh(y)
    res = 0.0
    for sign, vdot, v in (
        (-1.0, (plus.vm - minus.vm) / (2 * step), mid.vm),
        (+1.0, (plus.vp - minus.vp) / (2 * step), mid.vp),
    ):
        r = (1.0 + sign * dh) * vdot + (y + sign * h) * (grid.D @ v)
        res = max(res, float(np.max(np.abs(r))))
    return res


def mode_halfwave(lam):
    """Separated-solution data |h_pm|^(-lam) with the reflection constraint."""

    def fm(y):
        return np.abs(HEIGHT.hm(np.asarray(y, dtype=float))) ** (-lam)

    def fp(y):
        return -np.abs(HEIGHT.hp(np.asarray(y, dtype=float))) ** (-lam)

    return fm, fp


def _default_primitive(gfun):
    tq, wq = np.polynomial.legendre.leggauss(48)

    def prim(b):
        b = np.asarray(b, dtype=float)
        half = 0.5 * b
        pts = half[..., None] * (tq + 1.0)
        return np.sum(gfun(pts) * wq, axis=-1) * half

    return prim


def dalembert_oracle(f, g, T, s, y, g_primitive=None):
    """Exact 1-d wave solution with odd data (f, g), evaluated along the
    similarity coordinates: u(t, x) with (t, x) = eta_T(s, y)."""
    y = np.asarray(y, dtype=float)
    t = T + np.exp(-s) * HEIGHT.h(y)
    x = np.exp(-s) * y
    prim = g_primitive if g_primitive is not None else _default_primitive(g)
    return 0.5 * (f(x + t) + f(x - t)) + 0.5 * (prim(x + t) - prim(x - t))


def dalembert_state(grid, f, df, g, T, s):
    """Exact odd state (v, d_s v) of the 1-d wave at hyperboloidal time s."""
    y = grid.y
    es = np.exp(-s)
    t = T + es * HEIGHT.h(y)
    x = es * y
    v = dalembert_oracle(f, g, T, s, y)
    ut = 0.5 * (df(x + t) - df(x - t)) + 0.5 * (g(x + t) + g(x - t))
    ux = 0.5 * (df(x + t) + df(x - t)) + 0.5 * (g(x + t) - g(x - t))
    vs = -es * (HEIGHT.h(y) * ut + y * ux)
    return StateVector(
        GridFunction.from_full(grid, v, "odd", tol=1e-9),
        GridFunction.from_full(grid, vs, "odd", tol=1e-9),
    )


@pytest.fixture(scope="module")
def g():
    return make_grid(1.0, 64)


@pytest.fixture(scope="module")
def smooth_odd(g):
    return odd_state(g, lambda e: e**3 - e, np.sin)


class TestVectorFields:
    def test_annihilate_constants(self, g):
        c = np.ones(2 * g.N)
        assert np.max(np.abs(apply_L_pm(g, c, +1))) < 1e-11
        assert np.max(np.abs(apply_D_pm(g, c, -1))) < 1e-11

    def test_hp_is_eigenfunction(self, g):
        hp = HEIGHT.hp(g.y)
        hm = HEIGHT.hm(g.y)
        assert np.max(np.abs(apply_L_pm(g, hp, +1) + hp)) < 1e-10
        assert np.max(np.abs(apply_L_pm(g, hm, -1) + hm)) < 1e-10

    def test_commutator(self, g):
        f = np.sin(g.y)
        for sign in (+1, -1):
            comm = apply_D_pm(g, apply_L_pm(g, f, sign), sign) - apply_L_pm(
                g, apply_D_pm(g, f, sign), sign
            )
            assert np.max(np.abs(comm + apply_D_pm(g, f, sign))) < 1e-9


class TestHalfWaveMaps:
    def test_zero(self, g):
        z = odd_state(g, lambda e: 0 * e, lambda e: 0 * e)
        w = halfwave_decompose(z)
        assert np.max(np.abs(w.vm)) == 0.0 and np.max(np.abs(w.vp)) == 0.0

    def test_round_trips(self, g, smooth_odd):
        w = halfwave_decompose(smooth_odd)
        assert w.constraint_defect() < 1e-12
        back = halfwave_recompose(w)
        assert back.f1.values == pytest.approx(smooth_odd.f1.values, abs=1e-10)
        assert back.f2.values == pytest.approx(smooth_odd.f2.values, abs=1e-10)
        w2 = halfwave_decompose(back)
        assert np.max(np.abs(w2.vm - w.vm)) < 1e-10
        assert np.max(np.abs(w2.vp - w.vp)) < 1e-10

    def test_constants_recompose(self, g):
        w = HalfWaveState(g, np.full(2 * g.N, 0.7), np.full(2 * g.N, -0.7))
        st = halfwave_recompose(w)
        assert st.f1.values == pytest.approx(-0.7 * g.eta, abs=1e-13)
        assert st.f2.values == pytest.approx(0.7 * g.eta, abs=1e-13)

    def test_parity_gate(self, g):
        bad = odd_state(g, lambda e: e, lambda e: 0 * e)
        bad = StateVector(
            GridFunction(g, bad.f1.values, "even"), GridFunction(g, bad.f2.values, "even")
        )
        with pytest.raises(ValueError):
            halfwave_decompose(bad)
        with pytest.raises(ValueError):
            HalfWaveState(g, np.ones(2 * g.N), np.ones(2 * g.N)).require_constraint()


class TestTransport:
    def test_mol_oracle_matches_exact_transport(self, g):
        bump = lambda e: np.exp(-5 * (e - 0.25) ** 2)
        w0 = HalfWaveState(g, bump(g.y), -bump(-g.y))
        exact = evolve_halfwave(w0, 0.6)
        mol = evolve_halfwave_mol(w0, 0.6, dt=1e-3)
        scale = np.max(np.abs(exact.vp))
        assert np.max(np.abs(mol.vm - exact.vm)) / scale < 1e-5
        assert np.max(np.abs(mol.vp - exact.vp)) / scale < 1e-5

    def test_backward_evolution_rejected(self, g):
        w = HalfWaveState(g, np.zeros(2 * g.N), np.zeros(2 * g.N))
        with pytest.raises(ValueError):
            evolve_halfwave(w, -0.5)

    def test_constants_fixed(self, g):
        w = HalfWaveState(g, np.full(2 * g.N, 0.3), np.full(2 * g.N, -0.3))
        out = evolve_halfwave(w, 2.5)
        assert np.max(np.abs(out.vm - 0.3)) < 1e-13
        assert np.max(np.abs(out.vp + 0.3)) < 1e-13

    def test_pde_residual_fixes_exponent_sign(self, g):
        bump = lambda e: np.exp(-6 * (e - 0.2) ** 2)
        w0 = HalfWaveState(g, bump(g.y), -bump(-g.y))
        assert transport_pde_residual(w0, ds=0.4) < 1e-6

    def test_mode_growth(self, g):
        lam = 0.25
        fm, fp = mode_halfwave(lam)
        keep = np.abs(np.abs(g.y) - 0.5) > 0.05
        for ds in (0.5, 1.5):
            vm, vp = halfwave_flow(fm, fp, ds)
            assert vm(g.y[keep]) == pytest.approx(np.exp(lam * ds) * fm(g.y[keep]), rel=1e-6)
            assert vp(g.y[keep]) == pytest.approx(np.exp(lam * ds) * fp(g.y[keep]), rel=1e-6)

    def test_parity_preserved_long_run(self, g):
        bump = lambda e: np.exp(-4 * (e - 0.3) ** 2)
        w = HalfWaveState(g, bump(g.y), -bump(-g.y))
        for _ in range(5):
            w = evolve_halfwave(w, 2.0)
        assert w.constraint_defect() < 1e-10

    def test_energy_monotone(self, g):
        fm = lambda y: np.exp(-5 * (y - 0.3) ** 2) - np.exp(-5 * (-y - 0.3) ** 2)
        fp = lambda y: -fm(-y)
        svals = np.linspace(0.0, 10.0, 41)
        energies = []
        for s in svals:
            vm, vp = halfwave_flow(fm, fp, s)
            w = HalfWaveState(g, vm(g.y), vp(g.y))
            energies.append(halfwave_energy(w, +1, s) + halfwave_energy(w, -1, s))
        energies = np.array(energies)
        assert np.max(np.diff(energies)) <= 1e-10 * energies[0]

    def test_transport_norm_never_decays_on_constants(self, g):
        w = HalfWaveState(g, np.ones(2 * g.N), -np.ones(2 * g.N))
        n0 = halfwave_norm(w, 1)
        n1 = halfwave_norm(evolve_halfwave(w, 4.0), 1)
        assert n1 == pytest.approx(n0, rel=1e-12)

    def test_sharp_growth_on_near_critical_modes(self, g):
        # mode data with exponent lambda -> 1/2 realises the e^{s/2} bound
        for lam in (0.35, 0.45):
            fm, fp = mode_halfwave(lam)
            svals = np.linspace(0.0, 3.0, 7)
            norms = []
            for s in svals:
                vm, vp = halfwave_flow(fm, fp, s)
                w = HalfWaveState(g, vm(g.y), vp(g.y))
                norms.append(halfwave_norm(w, 1))
            slope = np.polyfit(svals, np.log(norms), 1)[0]
            assert slope == pytest.approx(lam, abs=0.02)


class TestDUpgrade:
    def test_derivative_of_solution_is_solution(self, g):
        # e^{js} D^j v solves the same transport equation: evolving D f and
        # applying D to the evolved solution agree after rescaling
        bump = lambda e: np.exp(-6 * (e - 0.1) ** 2)
        w0 = HalfWaveState(g, bump(g.y), -bump(-g.y))
        ds = 0.7
        ev = evolve_halfwave(w0, ds)
        lhs = apply_D_pm(g, ev.vp, +1)
        dw0 = HalfWaveState(g, apply_D_pm(g, w0.vm, -1), apply_D_pm(g, w0.vp, +1))
        rhs = np.exp(-ds) * evolve_halfwave(dw0, ds).vp
        keep = np.abs(g.y) < 0.9 * g.R
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)[keep]) / scale < 1e-6


class TestNormEquivalence:
    def test_dpm_sum_equivalent_to_sobolev(self, g):
        ratios = []
        for N in (64, 128):
            gg = make_grid(1.0, N)
            f = np.exp(-3 * (gg.y - 0.2) ** 2)
            w = HalfWaveState(gg, f, -f[::-1])
            hw = halfwave_norm(w, 3)
            sb = sobolev_norm_full(gg, w.vm, 2) + sobolev_norm_full(gg, w.vp, 2)
            ratios.append(hw / sb)
        assert 0.1 < ratios[0] < 10.0
        assert abs(ratios[1] / ratios[0] - 1.0) < 1e-6


class TestS1:
    def test_zero(self, g):
        z = odd_state(g, lambda e: 0 * e, lambda e: 0 * e)
        out = evolve_S1(z, 1.0)
        assert np.max(np.abs(stacked(out))) == 0.0

    def test_semigroup_law(self, g, smooth_odd):
        one = evolve_S1(smooth_odd, 1.8)
        two = evolve_S1(evolve_S1(smooth_odd, 0.7), 1.1)
        denom = odd_state_norm(smooth_odd, 1)
        diff = StateVector(
            GridFunction(g, one.f1.values - two.f1.values, "odd"),
            GridFunction(g, one.f2.values - two.f2.values, "odd"),
        )
        assert odd_state_norm(diff, 1) / denom < 1e-9

    def test_decay_bound(self, g):
        f1 = GridFunction(g, g.eta * smooth_bump(g.eta / 0.45), "odd")
        f2 = GridFunction(g, np.zeros(g.N), "odd")
        state = StateVector(f1, f2)
        svals = np.linspace(0.0, 6.0, 13)
        norms = [odd_state_norm(state, 2)]
        for s in svals[1:]:
            norms.append(odd_state_norm(evolve_S1(state, s), 2))
        slope = np.polyfit(svals, np.log(norms), 1)[0]
        assert slope <= -0.45


class TestDalembert:
    def test_linear_solution(self, g):
        # f(x) = x, g = 0: u = x, so v(s, y) = e^{-s} y
        val = dalembert_oracle(lambda x: x, lambda x: 0 * x, 0.8, 0.6, g.y)
        assert val == pytest.approx(np.exp(-0.6) * g.y, abs=1e-12)

    def test_velocity_data_closed_form(self, g):
        # f = 0, g(x) = x gives u = x t; at T = 0, v = e^{-2s} y h(y)
        val = dalembert_oracle(
            lambda x: 0 * x, lambda x: x, 0.0, 0.9, g.y, g_primitive=lambda b: b * b / 2.0
        )
        assert val == pytest.approx(np.exp(-1.8) * g.y * HEIGHT.h(g.y), abs=1e-12)

    def test_boundary_condition(self):
        for s in (0.0, 0.7):
            val = dalembert_oracle(
                lambda x: x * np.exp(-(x**2)), lambda x: np.sin(x), 0.5, s, np.array([0.0])
            )
            assert abs(val[0]) < 1e-14

    def test_s1_matches_oracle(self, g):
        f = lambda x: x * np.exp(-(x**2))
        df = lambda x: (1 - 2 * x**2) * np.exp(-(x**2))
        gg = lambda x: np.sin(x) * np.exp(-0.5 * x**2)
        T = 0.8
        start = dalembert_state(g, f, df, gg, T, 0.0)
        for ds in (0.5, 1.3, 2.0):
            got = evolve_S1(start, ds)
            want = dalembert_state(g, f, df, gg, T, ds)
            assert np.max(np.abs(got.f1.values - want.f1.values)) < 1e-7
            assert np.max(np.abs(got.f2.values - want.f2.values)) < 1e-7
