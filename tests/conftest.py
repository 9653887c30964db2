import pytest

from lentparticle.drivers import martingale_batch
from lentparticle.grid import TimeGrid

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
