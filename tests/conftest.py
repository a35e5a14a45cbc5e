import tracemalloc

import numpy as np
import pytest

from hyperwave.grids import make_grid
from hyperwave.linstab import assemble_L, riesz_projection, spectrum, ssc_scan_roots
from hyperwave.model import make_params


@pytest.fixture(scope="session")
def params7():
    return make_params(7)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(2.0, 64)


@pytest.fixture(scope="session")
def grid96():
    return make_grid(2.0, 96)


@pytest.fixture(scope="session")
def op96(params7, grid96):
    return assemble_L(params7, grid96)


@pytest.fixture(scope="session")
def spec96(op96):
    return spectrum(op96)


@pytest.fixture(scope="session")
def ssc7(params7, spec96):
    """(count, roots) of the similarity-coordinate scan at d = 7, seeded by
    the collocation eigenvalues nearest its zeros."""
    return ssc_scan_roots(params7, spec96.eigenvalues)


@pytest.fixture(scope="session")
def proj96(op96):
    return riesz_projection(op96)


@pytest.fixture(scope="session")
def op64(params7, grid64):
    return assemble_L(params7, grid64)


def even_state(grid, fn1, fn2):
    """The stacked half-grid vector [fn1(eta); fn2(eta)] of a two-component
    state; the parity lives in the functions, not in the vector."""
    return np.concatenate([np.asarray(fn(grid.eta), dtype=float) for fn in (fn1, fn2)])


odd_state = even_state


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def traced_peak(fn):
    """(fn(), peak): fn's result and the peak, in bytes, of the memory that
    tracemalloc traces while fn runs."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
