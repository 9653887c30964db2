import numpy as np
import pytest

from lentparticle.drivers import (
    add_unit_jump,
    brownian_batch,
    martingale_batch,
    rotate,
)
from lentparticle.errors import (
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
)
from lentparticle.grid import RngStream, SamplePath, TimeGrid, require_same_grid

SEED = 99


class TestTimeGrid:
    def test_basic_geometry(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_index_snaps_forward(self):
        grid = TimeGrid(1.0, 10)
        assert grid.index_at_or_after(0.3) == 3  # exact grid point
        assert grid.index_at_or_after(0.31) == 4  # strictly between -> forward
        assert grid.index_at_or_after(1e-9) == 1
        assert grid.index_at_or_after(1.0) == 10

    def test_index_rejects_out_of_range(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(DomainError):
            grid.index_at_or_after(0.0)
        with pytest.raises(DomainError):
            grid.index_at_or_after(1.5)

    def test_invalid_grid(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 0)


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(SEED, 3).generator().standard_normal(8)
        b = RngStream(SEED, 3).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams(self):
        a = RngStream(SEED, 3).generator().standard_normal(8)
        b = RngStream(SEED, 4).generator().standard_normal(8)
        c = RngStream(SEED, 3, channel=1).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSamplePath:
    def test_values_are_cumulative(self, unit_grid):
        inc = np.arange(unit_grid.n_steps, dtype=float)
        path = SamplePath(unit_grid, inc)
        assert path.values[0] == 0.0
        np.testing.assert_allclose(np.diff(path.values), inc)

    def test_from_values_roundtrip(self, unit_grid):
        values = np.concatenate([[0.0], np.random.default_rng(0).standard_normal(unit_grid.n_steps).cumsum()])
        path = SamplePath.from_values(unit_grid, values)
        np.testing.assert_array_equal(path.values, values)

    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(DimensionMismatchError):
            SamplePath(unit_grid, np.zeros(unit_grid.n_steps - 1))

    def test_batch_select(self, unit_grid):
        batch = brownian_batch(unit_grid, SEED, 0, 4)
        assert batch.is_batch and batch.n_paths == 4
        one = batch.select(2)
        assert not one.is_batch
        np.testing.assert_array_equal(one.increments, batch.increments[2])

    def test_jump_times_and_marks(self):
        grid = TimeGrid(1.0, 10)
        jumps = np.zeros(10)
        jumps[2] = 1.0
        jumps[7] = -1.0
        path = SamplePath(grid, jumps.copy(), jump_increments=jumps)
        np.testing.assert_allclose(path.jump_times, [0.3, 0.8])
        np.testing.assert_allclose(path.jump_marks, [1.0, -1.0])

    def test_require_same_grid(self, unit_grid):
        other = TimeGrid(1.0, unit_grid.n_steps + 1)
        a = SamplePath(unit_grid, np.zeros(unit_grid.n_steps))
        b = SamplePath(other, np.zeros(other.n_steps))
        with pytest.raises(DimensionMismatchError):
            require_same_grid(a, b)


class TestDrivers:
    def test_brownian_moments(self, unit_grid):
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 2000)
        inc = batch.increments
        assert abs(inc.mean()) < 4.0 / np.sqrt(inc.size) * np.sqrt(unit_grid.dt)
        assert abs(inc.var() / unit_grid.dt - 1.0) < 0.05

    def test_batch_matches_single_streams(self, unit_grid):
        # path i is drawn from the stream keyed (seed, channel 0, i, 0)
        batch = brownian_batch(unit_grid, SEED, 5, 3)
        for i in range(3):
            normals = RngStream(SEED, 5 + i).generator().standard_normal(unit_grid.n_steps)
            np.testing.assert_array_equal(batch.increments[i], normals * np.sqrt(unit_grid.dt))

    @pytest.mark.parametrize("kind", ["brownian", "poisson", "compound"])
    def test_single_path_is_a_batch_of_one(self, unit_grid, kind):
        batch = martingale_batch(kind, unit_grid, SEED, 5, 3)
        for i in range(3):
            single = martingale_batch(kind, unit_grid, SEED, 5 + i, 1).select(0)
            np.testing.assert_array_equal(batch.increments[i], single.increments)
            np.testing.assert_array_equal(batch.values[i], single.values)

    def test_compensated_poisson_structure(self, unit_grid):
        path = martingale_batch("poisson", unit_grid, SEED, 1, 1).select(0)
        jumps = path.jump_increments
        assert np.all((jumps == 0.0) | (jumps == 1.0))
        np.testing.assert_allclose(path.increments, jumps - unit_grid.dt)
        # terminal level is (jump count) - T
        np.testing.assert_allclose(path.values[-1], jumps.sum() - unit_grid.horizon)

    def test_compound_marks(self, unit_grid):
        path = martingale_batch("compound", unit_grid, SEED, 2, 1).select(0)
        marks = path.jump_marks
        assert np.all(np.abs(marks) == 1.0)
        np.testing.assert_array_equal(path.increments, path.jump_increments)

    def test_jump_frequency(self, unit_grid):
        # number of paths with no jump on [0, 1] should be close to exp(-1)
        n = 3000
        batch = martingale_batch("poisson", unit_grid, SEED, 0, n)
        empty = np.mean(np.count_nonzero(batch.jump_increments, axis=-1) == 0)
        se = np.sqrt(np.exp(-1) * (1 - np.exp(-1)) / n)
        assert abs(empty - np.exp(-1)) < 4 * se

    def test_unknown_kind(self, unit_grid):
        for kind in ("levy", "hat"):
            with pytest.raises(DomainError):
                martingale_batch(kind, unit_grid, SEED, 0, 1)


class TestRotate:
    def test_theta_zero_is_brownian(self, unit_grid, brownian):
        mart = martingale_batch("poisson", unit_grid, SEED, 0, 1).select(0)
        rotated = rotate(brownian, mart, 0.0)
        np.testing.assert_array_equal(rotated.values, brownian.values)
        np.testing.assert_array_equal(rotated.increments, brownian.increments)

    def test_half_pi_is_martingale(self, unit_grid, brownian):
        mart = martingale_batch("poisson", unit_grid, SEED, 0, 1).select(0)
        rotated = rotate(brownian, mart, np.pi / 2)
        np.testing.assert_array_equal(rotated.values, mart.values)
        np.testing.assert_array_equal(rotated.jump_increments, mart.jump_increments)

    def test_levels_combine_exactly(self, unit_grid, brownian):
        mart = martingale_batch("poisson", unit_grid, SEED, 0, 1).select(0)
        theta = 0.7
        rotated = rotate(brownian, mart, theta)
        expected = np.cos(theta) * brownian.values + np.sin(theta) * mart.values
        np.testing.assert_array_equal(rotated.values, expected)


class TestAddUnitJump:
    def test_levels_shift_exactly(self, unit_grid, brownian):
        u, a = 0.4, 0.125
        k = unit_grid.index_at_or_after(u)
        bumped = add_unit_jump(brownian, u, a)
        np.testing.assert_array_equal(bumped.values[:k], brownian.values[:k])
        np.testing.assert_array_equal(bumped.values[k:], brownian.values[k:] + a)

    def test_only_snap_increment_changes(self, unit_grid, brownian):
        u, a = 0.4001, 0.125  # snaps forward
        k = unit_grid.index_at_or_after(u)
        bumped = add_unit_jump(brownian, u, a)
        delta = bumped.increments - brownian.increments
        assert delta[k - 1] == a
        assert np.count_nonzero(delta) == 1

    def test_batch(self, unit_grid):
        batch = brownian_batch(unit_grid, SEED, 0, 3)
        bumped = add_unit_jump(batch, 0.5, 1.0)
        np.testing.assert_array_equal(
            bumped.values[:, -1], batch.values[:, -1] + 1.0
        )
