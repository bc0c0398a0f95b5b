import numpy as np
import pytest
from hypothesis import settings

from fslab.spectral import Field, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid2d():
    return make_grid(2, 16, 2.0 * np.pi)


@pytest.fixture
def grid1d():
    return make_grid(1, 16, 2.0 * np.pi)


def random_field(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


def plane_wave(grid, mode):
    """e^{i xi0.x} with xi0 the lattice point at integer index offset `mode`."""
    x = grid.coords_1d()
    mesh = np.meshgrid(*([x] * grid.n), indexing="ij")
    phase = np.zeros(grid.shape)
    for axis, q in enumerate(mode):
        phase = phase + grid.freq_1d[grid.m // 2 + q] * mesh[axis]
    return Field(grid, np.exp(1j * phase))


# Property tests draw the same examples on every run, so Tier-1 is
# reproducible and its run time is bounded.  The norm kernels are slow per
# example by design (each is compared with its direct oracle), hence no
# per-example deadline.
settings.register_profile("fslab", derandomize=True, deadline=None, max_examples=20,
                          database=None, print_blob=False)
settings.load_profile("fslab")
