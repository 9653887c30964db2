import numpy as np
import pytest

from lentparticle.drivers import martingale_batch
from lentparticle.grid import Particles, SamplePath, TimeGrid

SEED = 777


@pytest.fixture
def unit_grid():
    return TimeGrid(1.0, 500)


@pytest.fixture
def brownian(unit_grid):
    return martingale_batch("brownian", unit_grid, SEED, 0, 1).select(0)


@pytest.fixture
def brownian_batch(unit_grid):
    return martingale_batch("brownian", unit_grid, SEED, 0, 256)


def _jump_path(grid, jumps, drift=0.0):
    """The driver path whose particles are the nonzero entries of a dense jump array of
    shape (..., n_steps), with ``drift`` the increment of every step without a jump."""
    flat = np.reshape(jumps, (-1, grid.n_steps))
    rows, steps = np.nonzero(flat)
    return SamplePath(grid, particles=Particles(np.shape(jumps)[:-1], rows, steps,
                                                flat[rows, steps], drift))


@pytest.fixture
def jump_path():
    """``jump_path(grid, jumps, drift=0.0)``: a driver path built from dense jumps."""
    return _jump_path
