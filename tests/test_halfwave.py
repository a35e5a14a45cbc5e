import numpy as np
import pytest

from hyperwave.grids import make_grid, odd_state_norm, sobolev_norm_full
from hyperwave.halfwave import evolve_halfwave, evolve_S1, halfwave_decompose, halfwave_recompose
from hyperwave.model import HEIGHT
from hyperwave.nonlinear import smooth_bump

from conftest import odd_state
from oracles import classical_loop, halfwave_energy, halfwave_flow, hm, hpm_inner


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


def evolve_halfwave_mol(grid, vp, ds, dt=1e-3):
    """Method-of-lines RK4 integration of the transport field L_+."""
    nsteps = max(int(np.ceil(ds / dt)), 1)
    return classical_loop(lambda x: apply_L_pm(grid, x, +1), vp, ds / nsteps, nsteps)


def halfwave_norm(grid, vp, k):
    """Sum over j <= k-1 of the weighted L^2 norms of D_+^j v+ (the
    mirrored v- has the same norms)."""
    total = 0.0
    gp = vp.copy()
    for _ in range(k):
        total += np.sqrt(max(hpm_inner(grid, gp, gp, +1), 0.0))
        gp = apply_D_pm(grid, gp, +1)
    return float(total)


def transport_pde_residual(grid, vp, ds=0.5):
    """Residual of (1 + h') d_s v + (y + h) d_y v = 0 along the evolution,
    with the s-derivative taken by central differences.  Validates the sign
    and exponent convention of the characteristic pull-back."""
    step = 1e-4
    vdot = (evolve_halfwave(grid, vp, ds + step) - evolve_halfwave(grid, vp, ds - step)) / (2 * step)
    v = evolve_halfwave(grid, vp, ds)
    y = grid.y
    r = (1.0 + HEIGHT.dh(y)) * vdot + (y + HEIGHT.h(y)) * (grid.D @ v)
    return float(np.max(np.abs(r)))


def mode_halfwave(lam):
    """Separated-solution data |h_pm|^(-lam) with the reflection constraint."""

    def fm(y):
        return np.abs(hm(np.asarray(y, dtype=float))) ** (-lam)

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
    """Exact odd stacked state (v, d_s v) of the 1-d wave at hyperboloidal
    time s."""
    y = grid.y
    es = np.exp(-s)
    t = T + es * HEIGHT.h(y)
    x = es * y
    v = dalembert_oracle(f, g, T, s, y)
    ut = 0.5 * (df(x + t) - df(x - t)) + 0.5 * (g(x + t) + g(x - t))
    ux = 0.5 * (df(x + t) + df(x - t)) + 0.5 * (g(x + t) - g(x - t))
    vs = -es * (HEIGHT.h(y) * ut + y * ux)
    return np.concatenate([grid.restrict(v, "odd"), grid.restrict(vs, "odd")])


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
        hmy = hm(g.y)
        assert np.max(np.abs(apply_L_pm(g, hp, +1) + hp)) < 1e-10
        assert np.max(np.abs(apply_L_pm(g, hmy, -1) + hmy)) < 1e-10

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
        assert np.max(np.abs(halfwave_decompose(g, z))) == 0.0

    def test_minus_halfwave_is_the_mirror(self, g, smooth_odd):
        # v- = ((y + h) F1' + (1 + h') F2) / (y h' - h) is -v+(-y) for odd data
        f1, f2 = (g.extend(f, "odd") for f in np.split(smooth_odd, 2))
        y, h, dh = g.y, HEIGHT.h(g.y), HEIGHT.dh(g.y)
        vm = ((y + h) * (g.D @ f1) + (1.0 + dh) * f2) / (y * dh - h)
        vp = halfwave_decompose(g, smooth_odd)
        assert np.max(np.abs(vm + vp[::-1])) < 1e-12 * np.max(np.abs(vp))

    def test_round_trips(self, g, smooth_odd):
        vp = halfwave_decompose(g, smooth_odd)
        back = halfwave_recompose(g, vp)
        assert back == pytest.approx(smooth_odd, abs=1e-10)
        assert np.max(np.abs(halfwave_decompose(g, back) - vp)) < 1e-10

    def test_constants_recompose(self, g):
        st = halfwave_recompose(g, np.full(2 * g.N, -0.7))
        assert st[: g.N] == pytest.approx(-0.7 * g.eta, abs=1e-13)
        assert st[g.N :] == pytest.approx(0.7 * g.eta, abs=1e-13)


class TestTransport:
    def test_mol_oracle_matches_exact_transport(self, g):
        vp0 = -np.exp(-5 * (g.y + 0.25) ** 2)
        exact = evolve_halfwave(g, vp0, 0.6)
        mol = evolve_halfwave_mol(g, vp0, 0.6, dt=1e-3)
        assert np.max(np.abs(mol - exact)) / np.max(np.abs(exact)) < 1e-5

    def test_backward_evolution_rejected(self, g):
        with pytest.raises(ValueError):
            evolve_halfwave(g, np.zeros(2 * g.N), -0.5)

    def test_constants_fixed(self, g):
        vp = evolve_halfwave(g, np.full(2 * g.N, -0.3), 2.5)
        assert np.max(np.abs(vp + 0.3)) < 1e-13

    def test_pde_residual_fixes_exponent_sign(self, g):
        assert transport_pde_residual(g, -np.exp(-6 * (g.y + 0.2) ** 2), ds=0.4) < 1e-6

    def test_mode_growth(self, g):
        lam = 0.25
        fm, fp = mode_halfwave(lam)
        keep = np.abs(np.abs(g.y) - 0.5) > 0.05
        for ds in (0.5, 1.5):
            vm, vp = halfwave_flow(fm, fp, ds)
            assert vm(g.y[keep]) == pytest.approx(np.exp(lam * ds) * fm(g.y[keep]), rel=1e-6)
            assert vp(g.y[keep]) == pytest.approx(np.exp(lam * ds) * fp(g.y[keep]), rel=1e-6)

    def test_energy_monotone(self, g):
        fm = lambda y: np.exp(-5 * (y - 0.3) ** 2) - np.exp(-5 * (-y - 0.3) ** 2)
        fp = lambda y: -fm(-y)
        svals = np.linspace(0.0, 10.0, 41)
        energies = []
        for s in svals:
            vm, vp = halfwave_flow(fm, fp, s)
            energies.append(
                halfwave_energy(g, vp(g.y), +1, s) + halfwave_energy(g, vm(g.y), -1, s)
            )
        energies = np.array(energies)
        assert np.max(np.diff(energies)) <= 1e-10 * energies[0]

    def test_transport_norm_never_decays_on_constants(self, g):
        vp = -np.ones(2 * g.N)
        n0 = halfwave_norm(g, vp, 1)
        n1 = halfwave_norm(g, evolve_halfwave(g, vp, 4.0), 1)
        assert n1 == pytest.approx(n0, rel=1e-12)

    def test_sharp_growth_on_near_critical_modes(self, g):
        # mode data with exponent lambda -> 1/2 realises the e^{s/2} bound
        for lam in (0.35, 0.45):
            fm, fp = mode_halfwave(lam)
            svals = np.linspace(0.0, 3.0, 7)
            norms = []
            for s in svals:
                norms.append(halfwave_norm(g, halfwave_flow(fm, fp, s)[1](g.y), 1))
            slope = np.polyfit(svals, np.log(norms), 1)[0]
            assert slope == pytest.approx(lam, abs=0.02)


class TestDUpgrade:
    def test_derivative_of_solution_is_solution(self, g):
        # e^{js} D^j v solves the same transport equation: evolving D f and
        # applying D to the evolved solution agree after rescaling
        vp0 = -np.exp(-6 * (g.y + 0.1) ** 2)
        ds = 0.7
        lhs = apply_D_pm(g, evolve_halfwave(g, vp0, ds), +1)
        rhs = np.exp(-ds) * evolve_halfwave(g, apply_D_pm(g, vp0, +1), ds)
        keep = np.abs(g.y) < 0.9 * g.R
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)[keep]) / scale < 1e-6


class TestNormEquivalence:
    def test_dpm_sum_equivalent_to_sobolev(self, g):
        ratios = []
        for N in (64, 128):
            gg = make_grid(1.0, N)
            f = np.exp(-3 * (gg.y - 0.2) ** 2)
            ratios.append(halfwave_norm(gg, f, 3) / sobolev_norm_full(gg, f, 2))
        assert 0.1 < ratios[0] < 10.0
        assert abs(ratios[1] / ratios[0] - 1.0) < 1e-6


class TestS1:
    def test_zero(self, g):
        z = odd_state(g, lambda e: 0 * e, lambda e: 0 * e)
        out = evolve_S1(g, z, 1.0)
        assert np.max(np.abs(out)) == 0.0

    def test_one_interpolation_per_step(self, g, smooth_odd, monkeypatch):
        # only v+ is transported, so a step reads one set of characteristic
        # feet once the recomposition's kernel is built
        evolve_S1(g, smooth_odd, 0.5)
        calls = []
        interp = type(g).interp_matrix
        counted = lambda grid, pts: calls.append(pts) or interp(grid, pts)
        monkeypatch.setattr(type(g), "interp_matrix", counted)
        evolve_S1(g, smooth_odd, 0.5)
        assert len(calls) == 1

    def test_semigroup_law(self, g, smooth_odd):
        one = evolve_S1(g, smooth_odd, 1.8)
        two = evolve_S1(g, evolve_S1(g, smooth_odd, 0.7), 1.1)
        denom = odd_state_norm(g, smooth_odd, 1)
        assert odd_state_norm(g, one - two, 1) / denom < 1e-9

    def test_decay_bound(self, g):
        state = np.concatenate([g.eta * smooth_bump(g.eta / 0.45), np.zeros(g.N)])
        svals = np.linspace(0.0, 6.0, 13)
        norms = [odd_state_norm(g, state, 2)]
        for s in svals[1:]:
            norms.append(odd_state_norm(g, evolve_S1(g, state, s), 2))
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
            got = evolve_S1(g, start, ds)
            want = dalembert_state(g, f, df, gg, T, ds)
            assert np.max(np.abs(got[: g.N] - want[: g.N])) < 1e-7
            assert np.max(np.abs(got[g.N :] - want[g.N :])) < 1e-7
