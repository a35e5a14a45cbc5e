import itertools

import numpy as np
import pytest

from hyperwave import descent
from hyperwave.coeffs import c1_fn
from hyperwave.descent import (
    descent_full,
    descent_full_inverse,
    descent_step,
    descent_step_inverse,
    direct_fd_oracle,
    evolve_free_wave,
    fd_oracle_series,
    _at_nodes,
    _band_matvec,
    FD_CFL,
    _FD_BLOCK,
    _FD_ROWS,
    _FD_SONIC,
    _fd_operator,
    _fd_run,
    _fd_start,
    _rk4_band,
    _square_blocks,
)
from hyperwave.grids import (
    make_grid,
    odd_state_norm,
    weighted_sobolev_norm,
    weighted_state_norm,
)
from hyperwave.jets import jet_seed
from hyperwave.linstab import _expm, generator_matrix
from hyperwave.model import HEIGHT
from hyperwave.nonlinear import smooth_bump

from conftest import even_state, traced_peak
from oracles import (
    apply_Ld_series,
    band_dense,
    descent_step_series,
    exact_radial_wave,
    fd_run_full_state,
    intertwining_residual,
    jexp,
    series_pair_norm,
)

ETA = np.linspace(0.0, 2.0, 9)  # interpolation nodes for the guard tests


def stepwise_intertwining_residual(d, f1, f2, grid):
    """Relative residual of the single-step identity D_d L_d = L_{d-2} D_d
    (with the extra lower-order term at d = 3), in the k = 1 series norm."""
    order = 6
    x = jet_seed(grid.y, order)
    F1, F2 = f1(x), f2(x)
    L1c, L2c = apply_Ld_series(d, F1, F2, x)
    lhs1, lhs2 = descent_step_series(d, L1c, L2c, x)
    dv1, dv2 = descent_step_series(d, F1, F2, x)
    rhs1, rhs2 = apply_Ld_series(d - 2, dv1, dv2, x)
    if d == 3:
        rhs1, rhs2 = rhs1 + dv1, rhs2 + dv2
    R1 = lhs1 - rhs1
    R2 = lhs2 - rhs2
    scale = series_pair_norm(grid, lhs1, lhs2, 1) + series_pair_norm(grid, rhs1, rhs2, 1)
    return series_pair_norm(grid, R1, R2, 1) / scale


def descent_norm_ratio(d, grid, state, k=1):
    """Ratio of the descended odd-module norm to the d-dimensional norm."""
    down = descent_full(d, grid, state)
    return odd_state_norm(grid, down, k) / weighted_state_norm(grid, state, k + (d - 3) // 2, d)


def t22_bound_ratio(d, grid, g2, k=2):
    """Empirical constant in the second-component kernel bound: the f2 of
    the one-step inverse on (0, g2), where the f1 kernels vanish exactly."""
    out = descent_step_inverse(d, grid, np.concatenate([np.zeros(grid.N), g2]))[grid.N :]
    return weighted_sobolev_norm(grid, out, k, d) / weighted_sobolev_norm(grid, g2, k - 1, d - 2)


# Gaussian-type suite written generically so jet arguments work too
SUITE = [
    (lambda x: jexp(-(x * x)), lambda x: 0.0 * x),
    (lambda x: jexp(-(x * x)), lambda x: (x * x) * jexp(-(x * x))),
    (lambda x: jexp(-0.5 * (x * x)), lambda x: jexp(-2.0 * (x * x))),
    (lambda x: (x * x) * jexp(-(x * x)), lambda x: jexp(-(x * x))),
    (lambda x: 1.0 / (1.0 + x * x) if isinstance(x, np.ndarray) else (1.0 + x * x).reciprocal(),
     lambda x: 0.0 * x),
    (lambda x: jexp(-(x * x)) * (1.0 + 0.3 * (x * x)), lambda x: 0.5 * jexp(-(x * x))),
    (lambda x: jexp(-1.5 * (x * x)), lambda x: (x * x) * jexp(-0.7 * (x * x))),
    (lambda x: (1.0 + 0.0 * x) * jexp(-0.3 * (x * x)), lambda x: -0.2 * jexp(-(x * x))),
    (lambda x: (x * x) * (x * x) * jexp(-2.0 * (x * x)), lambda x: 0.1 * jexp(-0.5 * (x * x))),
    (lambda x: jexp(-(x * x)) - 0.5 * jexp(-2.0 * (x * x)), lambda x: 0.3 * jexp(-1.2 * (x * x))),
]


class TestDescentStep:
    def test_constants_d7(self, grid64):
        st = even_state(grid64, lambda e: np.ones_like(e), lambda e: 0 * e)
        out = descent_step(7, grid64, st)
        assert out[:64] == pytest.approx(5.0, abs=1e-12)
        assert np.max(np.abs(out[64:])) < 1e-7

    def test_d3_multiplication(self, grid64):
        st = even_state(grid64, lambda e: np.ones_like(e), lambda e: 0 * e)
        out = descent_step(3, grid64, st)
        assert out[:64] == pytest.approx(grid64.eta, abs=1e-15)
        assert out[64:] == pytest.approx(-grid64.eta, abs=1e-15)

    def test_quadratic_spot_value(self, grid64):
        st = even_state(grid64, lambda e: e**2, lambda e: 0 * e)
        out = descent_step(7, grid64, st)
        expected = 5.0 * grid64.eta**2 + 2.0 * grid64.eta * c1_fn(grid64.eta)
        assert out[:64] == pytest.approx(expected, abs=1e-11)

    def test_even_dimension_rejected(self, grid64):
        st = even_state(grid64, lambda e: np.ones_like(e), lambda e: 0 * e)
        with pytest.raises(ValueError):
            descent_step(4, grid64, st)

    def test_cascade_constants(self, grid64):
        st = even_state(grid64, lambda e: np.ones_like(e), lambda e: 0 * e)
        out = descent_full(7, grid64, st)
        assert out[:64] == pytest.approx(15.0 * grid64.eta, abs=1e-6)
        assert out[64:] == pytest.approx(-15.0 * grid64.eta, abs=1e-3)


class TestInverses:
    def test_d3_round_trip(self, grid64):
        st = even_state(grid64, lambda e: np.ones_like(e), lambda e: 0 * e)
        back = descent_step_inverse(3, grid64, descent_step(3, grid64, st))
        assert back[:64] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(back[64:])) < 1e-12

    def test_d7_round_trip_constants(self, grid64):
        st = even_state(grid64, lambda e: np.ones_like(e), lambda e: 0 * e)
        back = descent_step_inverse(7, grid64, descent_step(7, grid64, st))
        assert back[:64] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(back[64:])) < 1e-10

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_full_round_trips_suite(self, grid64, d):
        worst = 0.0
        for f1, f2 in SUITE:
            st = even_state(grid64, lambda e: np.asarray(f1(e), dtype=float) * np.ones_like(e),
                            lambda e: np.asarray(f2(e), dtype=float) * np.ones_like(e))
            back = descent_full_inverse(d, grid64, descent_full(d, grid64, st))
            worst = max(worst, np.max(np.abs(back - st)) / np.max(np.abs(st)))
        assert worst < 1e-8

    def test_other_composition_order(self, grid64):
        st = even_state(grid64, lambda e: np.exp(-(e**2)), lambda e: e**2 * np.exp(-(e**2)))
        down = descent_full(7, grid64, st)
        again = descent_full(7, grid64, descent_full_inverse(7, grid64, down))
        scale = np.max(np.abs(down[:64]))
        assert np.max(np.abs(again[:64] - down[:64])) / scale < 1e-8

    @pytest.mark.parametrize(
        "fn", [descent_step_inverse, descent_full_inverse, descent_full, evolve_free_wave]
    )
    @pytest.mark.parametrize("d", [1, 4, 6])
    def test_even_or_small_dimension_rejected(self, grid64, fn, d):
        # the same check as descent_step's: no inverse from d = 4 kernel
        # weights, no d = 5 inverse asked for as d = 6, and no empty
        # composite for d = 1
        st = even_state(grid64, lambda e: np.exp(-(e**2)), lambda e: 0 * e)
        with pytest.raises(ValueError, match=f"^descent steps need odd d >= 3, got d={d}$"):
            fn(d, grid64, st, *([0.5] if fn is evolve_free_wave else []))

    def test_t22_bound_stable_under_doubling(self):
        ratios = []
        for N in (48, 96):
            g = make_grid(2.0, N)
            ratios.append(t22_bound_ratio(7, g, np.exp(-(g.eta**2)), k=2))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.1


class TestIntertwining:
    def test_constants(self, grid64):
        r = intertwining_residual(7, lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, grid64)
        assert r < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_composite_suite(self, grid64, d):
        worst = max(intertwining_residual(d, f1, f2, grid64, k=1) for f1, f2 in SUITE)
        assert worst < 1e-8

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_stepwise(self, grid64, d):
        r = stepwise_intertwining_residual(
            d, lambda x: jexp(-(x * x)), lambda x: (x * x) * jexp(-(x * x)), grid64
        )
        assert r < 1e-8

    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_grid_path_matches_series_path(self, grid64, d):
        # the jet-verified identities certify the grid operators only if both
        # evaluate the same formula: compare nodal values on analytic data,
        # for the dense L_d behind `spectrum` and `blowup` and for D_d
        f1 = lambda x: jexp(-(x * x))
        f2 = lambda x: (x * x) * jexp(-(x * x))
        st = even_state(grid64, f1, f2)
        x = jet_seed(grid64.y, 3)
        N = grid64.N
        Lv = generator_matrix(d, grid64) @ st
        down = descent_step(d, grid64, st)
        pairs = (
            ((Lv[:N], Lv[N:]), apply_Ld_series(d, f1(x), f2(x), x)),
            ((down[:N], down[N:]), descent_step_series(d, f1(x), f2(x), x)),
        )
        for grid_out, series_out in pairs:
            for g, S in zip(grid_out, series_out):
                want = S.value[N:]
                assert np.max(np.abs(g - want)) < 1e-8 * np.max(np.abs(want))

    def test_residual_decreases_with_resolution(self):
        # already at roundoff level, so just require no growth under doubling
        vals = []
        for N in (64, 128):
            g = make_grid(2.0, N)
            vals.append(
                intertwining_residual(7, lambda x: jexp(-(x * x)), lambda x: 0.0 * x, g)
            )
        assert vals[1] < 10 * vals[0] + 1e-12
        assert max(vals) < 1e-10


class TestFreeWave:
    def test_zero(self, grid64):
        out = evolve_free_wave(7, grid64, even_state(grid64, np.zeros_like, np.zeros_like), 1.0)
        assert np.max(np.abs(out)) == 0.0

    def test_semigroup_law(self, grid64):
        st = even_state(grid64, lambda e: np.exp(-(e**2)), lambda e: e**2 * np.exp(-(e**2)))
        one = evolve_free_wave(7, grid64, st, 0.7)
        two = evolve_free_wave(7, grid64, evolve_free_wave(7, grid64, st, 0.3), 0.4)
        rel = weighted_state_norm(grid64, one - two, 2, 7) / weighted_state_norm(grid64, st, 2, 7)
        assert rel < 1e-8

    def test_growth_bound(self, grid64):
        st = even_state(
            grid64, lambda e: smooth_bump(e / 0.5), lambda e: -0.3 * smooth_bump(e / 0.6)
        )
        svals = np.linspace(0.0, 5.0, 11)
        norms = [weighted_state_norm(grid64, st, 3, 7)]
        for s in svals[1:]:
            norms.append(weighted_state_norm(grid64, evolve_free_wave(7, grid64, st, s), 3, 7))
        slope = np.polyfit(svals, np.log(norms), 1)[0]
        assert slope <= 0.55

    @pytest.mark.parametrize(
        "N, d, f1_tol",
        [(64, d, 1e-12) for d in (3, 5, 7)] + [(96, d, 1e-11) for d in (3, 5, 7, 9, 11)],
    )
    def test_matches_exact_radial_wave(self, N, d, f1_tol):
        # from s = 0 to s = 1 on an exact smooth solution of the free wave
        # equation; d_s u is gated only for d <= 7, where it is resolved
        # to about 2e-10 (it reaches 1.5e-6 at d = 11, N = 96)
        g = make_grid(2.0, N)
        st = np.concatenate(exact_radial_wave(d, g.eta, 0.0, 1.0))
        out = evolve_free_wave(d, g, st, 1.0)
        u, us = exact_radial_wave(d, g.eta, 1.0, 1.0)
        w = g.radial_weights(d)
        assert np.sqrt(w @ (out[:N] - u) ** 2 / (w @ u**2)) <= f1_tol
        if d <= 7:
            assert np.max(np.abs(out[N:] - us)) <= 2.3e-10 * np.max(np.abs(us))

    @pytest.mark.parametrize("h", [0.02, 0.25, 1.0])
    @pytest.mark.parametrize("N", [48, 64, 96])
    def test_matches_generator_exponential(self, N, h):
        # the descent propagator and the exponential of the dense generator
        # that `blowup` steps with are two discretizations of one flow; at
        # d = 7 they agree to 3.6e-9 (N = 96, h = 0.02)
        g = make_grid(2.0, N)
        x = even_state(g, lambda e: np.exp(-2 * e * e), lambda e: -0.5 * np.exp(-3 * e * e))
        want = _expm(h * generator_matrix(7, g)) @ x
        got = evolve_free_wave(7, g, x, h)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("h", [0.02, 1.0])
    @pytest.mark.parametrize("N", [64, 96])
    @pytest.mark.parametrize("d", [7, 9, 11])
    def test_generator_exponential_matches_exact_radial_wave(self, d, N, h):
        # the exponential of the dense generator keeps 1e-8 at every d (worst
        # 6.0e-9 at d = 11, N = 96, h = 1); evolve_free_wave misses the same
        # solution by 1.1e-7 at d = 9 and 7.4e-5 at d = 11 (N = 64, h = 0.02),
        # mostly in d_s u, so the descent propagator is what loses the digits
        g = make_grid(2.0, N)
        x = np.concatenate(exact_radial_wave(d, g.eta, 0.0, 1.0))
        want = np.concatenate(exact_radial_wave(d, g.eta, h, 1.0))
        got = _expm(h * generator_matrix(d, g)) @ x
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("N, limit", [(64, 1.5e6), (128, 4e6)])
    def test_memory_peak(self, N, limit):
        # the dilation kernels are N x N, built one block of N + 16 points
        # per node; one (N + 16) N x 2N interpolation matrix peaked at 5.95 MB
        # (N = 64) and 42.6 MB (N = 128)
        g = make_grid(2.0, N)
        st = even_state(g, lambda e: np.exp(-2 * e * e), np.zeros_like)
        _, peak = traced_peak(lambda: evolve_free_wave(7, g, st, 1.0))
        assert peak <= limit

    def test_norm_ratio_stable_under_doubling(self):
        ratios = []
        for N in (48, 96):
            g = make_grid(2.0, N)
            st = even_state(g, lambda e: np.exp(-(e**2)), lambda e: 0.3 * np.exp(-(e**2)))
            ratios.append(descent_norm_ratio(7, g, st, k=1))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.1


class TestFDOracle:
    def test_steady_state(self):
        _, v, vs = _fd_run(5, lambda r: np.ones_like(r), lambda r: 0 * r, 1.0, 2.0, 200)
        assert np.max(np.abs(v - 1.0)) == 0.0
        assert np.max(np.abs(vs)) == 0.0

    def test_reflection_symmetry_preserved(self):
        # even initial data stays even: the origin value never drifts relative
        # to its mirror ghost, checked through the first-node symmetry
        _, v, vs = _fd_run(5, lambda r: np.exp(-3 * r * r), lambda r: 0 * r, 0.5, 2.0, 200)
        assert np.all(np.isfinite(v))

    def test_cfl_guard(self):
        f1, f2 = lambda r: np.exp(-(r**2)), lambda r: 0 * r
        with pytest.raises(ValueError, match="m must be at least 4"):
            direct_fd_oracle(5, f1, f2, 1.0, 2.0, ETA, m=-3)
        with pytest.raises(ValueError, match="m must be at least 4"):
            _fd_operator(5, 2.0, 3)

    def test_stencil_past_last_cell_rejected(self):
        # at R = 1/2 every cell lies below eta = 1/2, where W1's speed points
        # inward, so the last cells' forward stencils reach past eta = R; the
        # dropped entries had imposed a zero inflow value, 1e-3 off at d = 7
        with pytest.raises(ValueError, match="past the last cell"):
            _fd_operator(7, 0.5, 400)

    @pytest.mark.parametrize("s_end", [0.0, -1.0])
    def test_end_time_guard(self, s_end):
        with pytest.raises(ValueError, match="s_end must be positive"):
            direct_fd_oracle(5, lambda r: np.exp(-(r**2)), lambda r: 0 * r, s_end, 2.0, ETA)

    def test_operator_matches_stencil_loop(self):
        m, R, d = 40, 2.0, 7
        r, ((a1, a2), A_ww), speed = _fd_operator(d, R, m)
        dr = R / m
        assert np.array_equal(r, (np.arange(m) + 0.5) * dr)
        # at most four diagonals each side of the interleaved w, and the band
        # cells that fall outside the matrix hold zero
        assert A_ww.shape == (2 * m, 9)
        i, k = np.nonzero(A_ww)
        assert np.all((i + k - 4 >= 0) & (i + k - 4 < 2 * m))

        # the per-cell reference: the height, speeds and coupling on the cells
        h, dh = HEIGHT.h(r), HEIGHT.dh(r)
        hp, hm, hpd, hmd = r + h, r - h, 1.0 + dh, 1.0 - dh
        couple = (r * dh - h) * (d - 1.0) / (2.0 * r)
        assert speed == np.max(np.maximum(np.abs(hp / hpd), np.abs(hm / hmd)))

        w1, w2 = np.random.default_rng(3).standard_normal((2, m))

        def cell(f, ghost, j):
            # mirror ghosts below the origin, zero phantoms above eta = R
            return ghost[-1 - j] if j < 0 else (f[j] if j < m else 0.0)

        def upwind(f, ghost, speed, i, sonic):
            # u is the upwind direction: third-order upwind-biased on cells
            # i - u, ..., i + 2u, or second-order upwind on i, i + u, i + 2u at
            # the outflow cell and near W1's sonic point
            u = -1 if speed >= 0.0 else 1
            c = lambda k: cell(f, ghost, i + k * u)
            if sonic or i - u >= m:
                return -u * (3 * c(0) - 4 * c(1) + c(2)) / (2 * dr)
            return -u * (2 * c(-1) + 3 * c(0) - 6 * c(1) + c(2)) / (6 * dr)

        # W1's sonic point eta = 1/2 is the face of cells 9 and 10; 16 cells
        # keep the second-order stencil
        sonic = np.abs(r - 0.5) < _FD_SONIC * dr
        assert _FD_SONIC == 8 and np.count_nonzero(sonic) == 16
        want = np.empty(3 * m)
        for i in range(m):
            src = couple[i] * (w1[i] - w2[i])
            want[i] = -(h[i] * (w1[i] + w2[i]) + r[i] * (w1[i] - w2[i])) / 2.0
            want[m + i] = (-hp[i] * upwind(w1, w2, hp[i] / hpd[i], i, sonic[i]) + src) / hpd[i] - w1[i]
            want[2 * m + i] = (-hm[i] * upwind(w2, w1, hm[i] / hmd[i], i, False) + src) / hmd[i] - w2[i]
        dw = _band_matvec(A_ww, np.stack([w1, w2], axis=1).ravel())
        got = np.concatenate([a1 * w1 + a2 * w2, dw[0::2], dw[1::2]])
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_regression_pin(self, monkeypatch):
        # values of this operator's third-order scheme, recorded at the
        # Courant number 1.49 (565 and 282 steps); the default step (561 and
        # 280) moves them by at most 7.6e-12 relative (d = 7, m = 100).  At
        # 1.0 RK4's time error would move them by 2.2e-10
        f1 = lambda r: np.exp(-2 * r * r)
        pins = [
            (
                (5, f1, lambda r: 0 * r, 1.0, 2.0, 200),
                [0, 1, 37, 100, 199],
                [0.07412478454074412, 0.0740499577003979, 0.02463139003291126,
                 -0.17580836493035976, -0.3000775175003725],
                [-0.7162020357625698, -0.7160841739604089, -0.6401208053785157,
                 -0.3869663900883261, -0.3853453312687164],
            ),
            (
                (7, f1, lambda r: -0.3 * np.exp(-r * r), 1.0, 2.0, 100),
                [0, 10, 50, 99],
                [-0.10725078757237472, -0.12025347600032665, -0.28917119093300325,
                 -0.2907393896466185],
                [-0.6584991706035499, -0.6339800278988673, -0.3532636051409216,
                 -0.3433153541828994],
            ),
        ]
        for cfl, rel in ((1.49, 1e-12), (FD_CFL, 1e-11)):
            monkeypatch.setattr(descent, "FD_CFL", cfl)
            for case, idx, v_pin, vs_pin in pins:
                _, v, vs = _fd_run(*case)
                assert v[idx] == pytest.approx(v_pin, rel=rel)
                assert vs[idx] == pytest.approx(vs_pin, rel=rel)

    def test_step_within_rk4_stability_limit(self):
        # RK4's amplification on the symbol of the upwind-biased stencil
        # (2, 3, -6, 1)/6 stays within the unit disc up to the Courant number
        # 1.7453, found by bisection; the step keeps a tenth of that margin
        # or more
        R4 = lambda z: 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        theta = np.linspace(0.0, np.pi, 2001)
        symbol = -(2 * np.exp(1j * theta) + 3 - 6 * np.exp(-1j * theta) + np.exp(-2j * theta)) / 6
        lo, hi = 1.0, 2.0
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if np.max(np.abs(R4(mid * symbol))) <= 1 + 1e-13 else (lo, mid)
        assert lo == pytest.approx(1.7453, abs=1e-4)
        assert FD_CFL <= 0.9 * lo
        # and on the operator itself: the CFL step amplifies no eigenvector of
        # w' = A_ww w (the largest |R4| is 0.99961), from about the smallest R
        # the oracle takes to five times the default.  A_ww is an upwind
        # transport with outflow, far from normal, so its eigenvalues pass
        # up to a Courant number of 2.28, and the README freewave's
        # cross-check still reads 2.5e-8 at 2.2; the symbol's bound above is
        # what refuses a step past 1.57
        for d, R, m in itertools.product((3, 5, 7, 9), (0.55, 2.0, 10.0), (100, 200)):
            _, (_, A_ww), speed = _fd_operator(d, R, m)
            z = np.linalg.eigvals(band_dense(A_ww)) * FD_CFL * (R / m) / speed
            assert np.max(np.abs(R4(z))) <= 1.0, (d, R, m)

    @pytest.mark.parametrize("nsteps", [2104, 2105])
    def test_one_block_product_per_two_steps(self, monkeypatch, nsteps):
        m, R = 200, 2.0
        _, _, speed = _fd_operator(5, R, m)
        s_end = (nsteps - 0.5) * FD_CFL * (R / m) / speed
        products = []

        def counting(product):
            def call(first, *rest, **kwargs):
                products.append((product.__name__, first.shape))
                return product(first, *rest, **kwargs)

            return call

        monkeypatch.setattr(np, "matmul", counting(np.matmul))
        monkeypatch.setattr(np, "vecdot", counting(np.vecdot))
        _fd_run(5, lambda r: np.exp(-2 * r * r), lambda r: 0 * r, s_end, R, m)
        # v is passive: one product P^2 w per two steps on w = (W1, W2) alone,
        # the dense 16-row blocks of P^2 (32 diagonals each side) against
        # their windows of w; then, at s_end, the band products P u for the
        # odd iterates, P w for an odd step count (16 diagonals each side)
        # and Q acc (12), v = v0 + dt A_vw (Q acc); d_s v = A_vw w is two
        # diagonals, taken elementwise
        blocks = ("matmul", (-(-2 * m // _FD_ROWS), _FD_ROWS, _FD_ROWS + 64))
        ends = [("vecdot", (2 * m, 33))] * (1 + nsteps % 2) + [("vecdot", (2 * m, 25))]
        assert products == [blocks] * (nsteps // 2) + ends

    def test_square_blocks_hold_the_squared_band(self):
        # 2m = 120 rows: the last block holds 8 rows of P^2 and 8 zero rows,
        # and the first and last blocks reach past both ends of the matrix
        m, R = 60, 2.0
        _, (_, A_ww), speed = _fd_operator(7, R, m)
        P, _ = _rk4_band(A_ww, FD_CFL * (R / m) / speed)
        blocks = _square_blocks(P)
        b = _FD_ROWS
        assert blocks.shape == (8, b, b + 64)
        want = np.zeros((8 * b, 8 * b + 64))
        want[: 2 * m, 32 : 32 + 2 * m] = band_dense(P) @ band_dense(P)
        # block k holds rows b k, ..., b k + b - 1 on columns b k - 32, ...,
        # b k + b + 31: columns b k, ... of want, which starts 32 columns early
        for k, B in enumerate(blocks):
            window = want[b * k : b * (k + 1), b * k : b * k + b + 64]
            assert np.max(np.abs(B - window)) <= 1e-14 * np.max(np.abs(want))

    def test_memory_peak(self):
        # the P^2 blocks (1.04 MB at m = 800) beside P, Q and the padded
        # rows peak at 2.92 MB; the one-step band march peaked at 2.12 MB,
        # and a build that forms the P^2 band and scatters a padded copy of
        # it into the blocks through index arrays at 4.58 MB
        f1 = lambda r: np.exp(-2 * r * r)
        _, peak = traced_peak(lambda: _fd_run(7, f1, np.zeros_like, 1.0, 2.0, 800))
        assert peak <= 3.0e6

    @pytest.mark.parametrize(
        "d, f2, s_values, m",
        [
            (5, lambda r: 0 * r, [1.0], 200),
            (7, lambda r: -0.3 * np.exp(-r * r), [0.5, 1.0], 100),
        ],
    )
    def test_march_matches_full_state_loop(self, d, f2, s_values, m):
        # the regression-pin runs, and the d = 7 one to half its time, against
        # the full state stepped by scipy's CSR product.  The band product and
        # the CSR one sum each row in different orders, so they agree to
        # rounding
        for s_end in s_values:
            case = (d, lambda r: np.exp(-2 * r * r), f2, s_end, 2.0, m)
            _, v, vs = _fd_run(*case)
            _, v_ref, vs_ref = fd_run_full_state(*case)
            assert np.max(np.abs(vs - vs_ref)) <= 1e-12 * np.max(np.abs(vs_ref))
            assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))

    @pytest.mark.parametrize(
        "nsteps",
        [1, 2, _FD_BLOCK - 1, _FD_BLOCK, _FD_BLOCK + 1]
        + [2 * _FD_BLOCK + k for k in (-1, 0, 1, 2, 3)]
        + [4 * _FD_BLOCK + 3],
    )
    def test_march_matches_full_state_loop_across_blocks(self, nsteps):
        # marches of one step by P alone, one product by P^2, part of a
        # block of products, one full block (2 _FD_BLOCK steps) with and
        # without a last step by P, and one or more blocks and a remainder,
        # against the full-state CSR march; 2m = 120 rows fill 7.5 blocks of
        # P^2
        d, R, m = 7, 2.0, 60
        f1, f2 = lambda r: np.exp(-2 * r * r), lambda r: -0.3 * np.exp(-r * r)
        _, _, speed = _fd_operator(d, R, m)
        s_end = (nsteps - 0.5) * FD_CFL * (R / m) / speed
        assert _fd_start(d, f1, f2, s_end, R, m)[3] == nsteps
        case = (d, f1, f2, s_end, R, m)
        _, v, vs = _fd_run(*case)
        _, v_ref, vs_ref = fd_run_full_state(*case)
        assert np.max(np.abs(vs - vs_ref)) <= 1e-12 * np.max(np.abs(vs_ref))
        assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))

    def test_at_nodes_reproduces_cubics(self, grid64):
        # the nodes reach past both end cells, where the end cubics extend;
        # every field is read at once
        m = 10
        r = (np.arange(m) + 0.5) * (2.0 / m)
        eta = np.concatenate([[0.0], grid64.eta, [2.3]])
        assert eta[1] < r[0] and eta[-2] > r[-1]
        cubic = lambda x: 1.0 - 2.0 * x + 0.5 * x**2 - 0.3 * x**3
        fields = [cubic(r), 3.0 * cubic(r) + r**2, np.ones(m)]
        want = [cubic(eta), 3.0 * cubic(eta) + eta**2, np.ones_like(eta)]
        got = _at_nodes(r, fields, eta)
        assert len(got) == len(fields)
        for g, w in zip(got, want, strict=True):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_at_nodes_fourth_order(self):
        f = lambda x: np.exp(-2 * x * x)
        probe = np.linspace(0.0, 2.0, 4001)
        err = []
        for m in (50, 100, 200):
            r = (np.arange(m) + 0.5) * (2.0 / m)
            [v] = _at_nodes(r, [f(r)], probe)
            err.append(np.max(np.abs(v - f(probe))))
        orders = np.log2(np.array(err[:-1]) / err[1:])
        assert np.all((3.8 < orders) & (orders < 4.2))

    def test_direct_oracle_is_one_series_march(self, grid64):
        f1, f2 = lambda r: np.exp(-2 * r * r), lambda r: -0.3 * np.exp(-r * r)
        case = (7, f1, f2, 1.0, 2.0, grid64.eta)
        v, _ = fd_oracle_series(*case, 100)
        assert np.array_equal(direct_fd_oracle(*case, m=100), v)

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    @pytest.mark.parametrize("R", [0.75, 1.0, 2.0])
    def test_direct_oracle_matches_exact_radial_wave(self, d, R):
        # from s = 0 to s = 1 on an exact smooth solution; the weighted error
        # is 1.5e-10 (d = 3, R = 0.75) to 1.4e-6 (d = 11, R = 2), and 3.6e-9 at
        # d = 7, R = 0.75, where W1 moves inward on the cells below eta = 1/2.
        # A second-order Richardson pair on 400 and 800 cells fails d = 9
        # and 11 at R = 2 (2.6e-6 and 5.8e-6)
        g = make_grid(R, 64)
        f1 = lambda r: exact_radial_wave(d, r, 0.0, 1.0)[0]
        f2 = lambda r: exact_radial_wave(d, r, 0.0, 1.0)[1]
        v = direct_fd_oracle(d, f1, f2, 1.0, R, g.eta)
        u, _ = exact_radial_wave(d, g.eta, 1.0, 1.0)
        w = g.radial_weights(d)
        assert np.sqrt(w @ (v - u) ** 2 / (w @ u**2)) < 2e-6

    def test_convergence_order(self):
        f1 = lambda r: np.exp(-2 * r * r)
        f2 = lambda r: 0 * r
        probe = np.linspace(0.1, 1.8, 50)
        vals = {m: fd_oracle_series(5, f1, f2, 1.0, 2.0, probe, m)[0] for m in (100, 200, 400)}
        e1 = np.max(np.abs(vals[100] - vals[200]))
        e2 = np.max(np.abs(vals[200] - vals[400]))
        order = np.log2(e1 / e2)
        assert 2.7 < order < 4.0

    @pytest.mark.parametrize("d", [5, 7])
    def test_cross_check_spectral(self, grid64, d):
        f1 = lambda r: np.exp(-2 * r * r)
        f2 = lambda r: 0 * r
        o1 = direct_fd_oracle(d, f1, f2, 1.0, 2.0, grid64.eta, m=400)
        st = even_state(grid64, f1, f2)
        ev = evolve_free_wave(d, grid64, st, 1.0)[:64]
        w = grid64.w_half * grid64.eta ** (d - 1)
        rel = np.sqrt(np.sum((ev - o1) ** 2 * w) / np.sum(o1**2 * w))
        assert rel < 1e-6
