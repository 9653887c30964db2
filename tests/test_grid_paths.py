import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lentparticle import drivers
from lentparticle.drivers import (
    add_unit_jump,
    brownian_batch,
    brownian_rows,
    inner_hat_batch,
    martingale_batch,
    rotate,
)
from lentparticle.errors import ConfigurationError
from lentparticle.chaos import evaluate_chaos
from lentparticle.experiments import DEFAULT_SEED
from lentparticle.functionals import make_functional
from lentparticle.grid import (
    BATCH_BYTES,
    ROW_BLOCK,
    CHANNEL_BROWNIAN,
    CHANNEL_COMPOUND,
    CHANNEL_HAT,
    CHANNEL_POISSON,
    Particles,
    RngStream,
    SamplePath,
    TimeGrid,
    require_same_grid,
)
from lentparticle.ou import combine_paths
from lentparticle.sde import STEP_BLOCK

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
        with pytest.raises(ConfigurationError):
            grid.index_at_or_after(0.0)
        with pytest.raises(ConfigurationError):
            grid.index_at_or_after(1.5)

    def test_index_of_grid_times(self):
        grid = TimeGrid(1.0, 50)
        assert [grid.index_of(t) for t in (0.0, 0.76, 0.82, 1.0)] == [0, 38, 41, 50]
        assert grid.index_of(0.1 + 0.2) == 15  # representation error is not an offset

    @pytest.mark.parametrize("t", [0.82, 0.88, -1.0 / 7, 8.0 / 7, float("nan"), float("inf"),
                                   1e308, -1e308,
                                   pytest.param(10**400, id="int-past-every-float"),
                                   pytest.param(-10**400, id="negative-int-past-every-float")])
    def test_index_of_rejects_other_times(self, t):
        # on 7 steps 0.82 and 0.88 both round to the step at 6/7; for 1e308 t / dt is inf,
        # and 10**400 converts to no float at all
        with pytest.raises(ConfigurationError, match="not a point of the 7-step grid"):
            TimeGrid(1.0, 7).index_of(t)

    @pytest.mark.parametrize("horizon, n_steps", [(1.0, 7), (2.5, 37), (1e-310, 1000),
                                                  (1e300, 3)])
    def test_index_of_keeps_every_grid_time_and_its_tolerance(self, horizon, n_steps):
        grid = TimeGrid(horizon, n_steps)
        slack = 0.9e-9 * horizon
        for k in range(n_steps + 1):
            t = k * grid.dt
            assert [grid.index_of(s) for s in (t - slack, t, t + slack)] == [k, k, k]

    def test_invalid_grid(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("horizon, n_steps", [(1.0, int("1" * 401)), (5e-324, 2)],
                             ids=["n_steps-past-every-float", "step-underflows-to-0"])
    def test_step_must_be_a_positive_finite_float(self, horizon, n_steps):
        with pytest.raises(ConfigurationError,
                           match="horizon / n_steps must be a positive finite float"):
            TimeGrid(horizon, n_steps)

    @pytest.mark.parametrize("n_steps, rows", [
        (1, 4096), (500, 4096), (1000, 2097), (4000, 524), (10_000, 209), (2**21, 1)])
    def test_batch_rows_from_the_byte_budget(self, n_steps, rows):
        # min(4096, BATCH_BYTES // (8 * n_steps)): 16 MiB per paths x steps float64 array
        assert TimeGrid(1.0, n_steps).batch_rows == rows

    def test_grid_past_the_batch_budget_rejected(self):
        assert BATCH_BYTES // 8 == 2**21 == 2_097_152
        with pytest.raises(ConfigurationError, match="n_steps must be at most 2097152"):
            TimeGrid(1.0, 2**21 + 1)


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


class TestKeyedGenerators:
    """A batch's keys, hashed in one pass, against the per-key RngStream route."""

    WIDE = 2**32  # needs a fifth entropy word: the per-key route

    @pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**32 - 1, WIDE])
    def test_states_match_seed_sequence(self, seed):
        span = range(301)
        for channel in range(CHANNEL_BROWNIAN, CHANNEL_HAT + 1):
            for sub in (0, 1, 300):
                self._check(seed, channel, span, sub, [(seed, channel, i, sub) for i in span])
            for i in (0, 1, 300):
                self._check(seed, channel, i, span, [(seed, channel, i, sub) for sub in span])

    def _check(self, seed, channel, index, sub, keys):
        gens, states = [], []
        for gen in drivers._keyed_generators(seed, channel, index, sub):
            gens.append(gen)
            states.append(gen.bit_generator.state)
        assert len(states) == len(keys)
        for key, state in zip(keys, states):
            expected = np.random.SeedSequence(key).generate_state(2, np.uint64)
            assert state["state"]["key"].tolist() == expected.tolist(), key
            # and the rest of a fresh generator's state: counter, buffer, uint32 cache
            fresh = RngStream(key[0], key[2], key[1], key[3]).generator().bit_generator.state
            assert _same_state(state, fresh), key
        # one reset Philox for the whole batch, unless the key is too wide
        assert len({id(g) for g in gens}) == (len(keys) if seed == self.WIDE else 1)

    @pytest.mark.parametrize("seed, start, count", [
        (SEED, 0, 40),
        (SEED, 7, 1),
        (2**32 - 1, 0, 5),
        (SEED, 2**32 - 3, 6),  # crosses from one key width to the next
        (2**32, 0, 3),
        # keys past int64 are exact Python ints, not float64 arange entries
        (SEED, 2**63 - 2, 4), (SEED, 2**63, 4), (SEED, 2**64, 4),
    ])
    @pytest.mark.parametrize("kind", ["brownian", "poisson", "compound"])
    def test_batch_rows_match_per_key_streams(self, kind, seed, start, count):
        grid = TimeGrid(2.0, 40)
        batch = martingale_batch(kind, grid, seed, start, count)
        assert batch.increments.shape == (count, grid.n_steps)
        for row, i in enumerate(range(start, start + count)):
            increments, jumps = _reference_path(kind, grid, seed, i)
            np.testing.assert_array_equal(batch.increments[row], increments)
            if jumps is not None:
                np.testing.assert_array_equal(batch.jump_increments[row], jumps)

    @pytest.mark.parametrize("seed, outer, count", [
        (SEED, 3, 40), (SEED, 3, 1), (SEED, 2**32 - 1, 4), (SEED, 2**32, 2), (2**32, 0, 2),
    ])
    def test_hat_rows_match_per_key_streams(self, seed, outer, count):
        grid = TimeGrid(1.0, 30)
        batch = inner_hat_batch(grid, seed, outer, count)
        for j in range(count):
            gen = RngStream(seed, outer, CHANNEL_HAT, j + 1).generator()
            expected = gen.standard_normal(grid.n_steps) * np.sqrt(grid.dt)
            np.testing.assert_array_equal(batch.increments[j], expected)

    @pytest.mark.parametrize("horizon, n_steps, scalar", [
        (12.0, 400, "most"),  # N_T + 1 > 6 gaps on most paths: the gap-by-gap route
        (8.0, 1, "none"), (8.0, 2, "none"), (8.0, 3, "none"),  # stopped by the last step
        (1.0, 1000, "few"),  # ~6e-4 of paths at T = 1
    ])
    @pytest.mark.parametrize("seed, start, count", [
        (SEED, 0, 300),
        (SEED, 2**32 - 3, 6),  # crosses to the per-key route
    ])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_snapped_jump_batch_matches_scalar_route(self, monkeypatch, kind, seed, start,
                                                     count, horizon, n_steps, scalar):
        grid = TimeGrid(horizon, n_steps)
        original, redrawn = drivers._jump_step_indices, []

        def recorded(gen, grid):
            redrawn.append(1)
            return original(gen, grid)

        monkeypatch.setattr(drivers, "_jump_step_indices", recorded)
        batch = martingale_batch(kind, grid, seed, start, count)
        monkeypatch.undo()
        for row, i in enumerate(range(start, start + count)):
            increments, jumps = _reference_path(kind, grid, seed, i)
            np.testing.assert_array_equal(batch.increments[row], increments)
            np.testing.assert_array_equal(batch.jump_increments[row], jumps)
        if count > 6:
            assert {"none": len(redrawn) == 0, "few": len(redrawn) < count / 100,
                    "most": len(redrawn) > count / 2}[scalar]

    def test_per_path_draws_hold_the_draw_lock(self, monkeypatch, unit_grid):
        original, yielded = drivers._reset_to_each, []

        def checked(philox_keys):
            for gen in original(philox_keys):
                assert drivers._DRAW_LOCK.locked()
                yielded.append(1)
                yield gen

        monkeypatch.setattr(drivers, "_reset_to_each", checked)
        for kind in ("brownian", "poisson", "compound"):
            martingale_batch(kind, unit_grid, SEED, 0, 50)
        inner_hat_batch(unit_grid, SEED, 3, 50)
        # both passes of the compound batch: its paths with a jump are drawn twice
        assert len(yielded) > 4 * 50
        assert not drivers._DRAW_LOCK.locked()

    def test_threads_taking_turns_draw_the_serial_batches(self, unit_grid):
        jobs = [(kind, start) for kind in ("brownian", "poisson", "compound")
                for start in range(0, 480, 60)]
        serial = [martingale_batch(kind, unit_grid, SEED, start, 60).increments
                  for kind, start in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:  # more workers than cores
                futures = [pool.submit(martingale_batch, kind, unit_grid, SEED, start, 60)
                           for kind, start in jobs]
                threaded = [f.result(timeout=60).increments for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)
        assert not drivers._DRAW_LOCK.locked()

    def test_empty_batch(self, unit_grid):
        for kind in ("brownian", "poisson", "compound"):
            assert martingale_batch(kind, unit_grid, SEED, 0, 0).increments.shape == (0, 500)

    def test_negative_key_word_rejected_as_before(self, unit_grid):
        with pytest.raises(ValueError, match="non-negative"):
            brownian_batch(unit_grid, -1, 0, 2)


def _same_state(a: dict, b: dict) -> bool:
    return (a["state"]["key"].tolist() == b["state"]["key"].tolist()
            and a["state"]["counter"].tolist() == b["state"]["counter"].tolist()
            and a["buffer"].tolist() == b["buffer"].tolist()
            and [a[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
            == [b[k] for k in ("buffer_pos", "has_uint32", "uinteger")])


def _reference_path(kind, grid, seed, i):
    """(increments, jump increments) of path i, each drawn from a fresh RngStream."""
    channel = {"brownian": CHANNEL_BROWNIAN, "poisson": CHANNEL_POISSON,
               "compound": CHANNEL_COMPOUND}[kind]
    gen = RngStream(seed, i, channel).generator()
    if kind == "brownian":
        return gen.standard_normal(grid.n_steps) * np.sqrt(grid.dt), None
    idx = np.asarray(drivers._jump_step_indices(gen, grid), dtype=int)
    jumps = np.zeros(grid.n_steps)
    if kind == "poisson":
        jumps[idx - 1] = 1.0
        return jumps - grid.dt, jumps
    jumps[idx - 1] = gen.integers(0, 2, size=idx.size) * 2.0 - 1.0
    return jumps, jumps


class TestSamplePath:
    def test_values_are_cumulative(self, unit_grid):
        inc = np.arange(unit_grid.n_steps, dtype=float)
        path = SamplePath(unit_grid, inc)
        assert path.values[0] == 0.0
        np.testing.assert_allclose(np.diff(path.values), inc)

    @pytest.mark.parametrize("shape", [(1,), (255,), (257,), (4097,), (3, 130), ()])
    def test_values_are_bitwise_the_concatenated_cumsum(self, shape):
        inc = np.random.default_rng(SEED).standard_normal(shape + (40,))
        values = SamplePath(TimeGrid(1.0, 40), inc).values
        expected = np.concatenate([np.zeros(shape + (1,)), np.cumsum(inc, axis=-1)], axis=-1)
        assert values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()

    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(ConfigurationError):
            SamplePath(unit_grid, np.zeros(unit_grid.n_steps - 1))

    def test_batch_select(self, unit_grid):
        batch = brownian_batch(unit_grid, SEED, 0, 4)
        assert batch.increments.shape == (4, unit_grid.n_steps)
        one = batch.select(2)
        np.testing.assert_array_equal(one.increments, batch.increments[2])

    def test_require_same_grid(self, unit_grid):
        other = TimeGrid(1.0, unit_grid.n_steps + 1)
        a = SamplePath(unit_grid, np.zeros(unit_grid.n_steps))
        b = SamplePath(other, np.zeros(other.n_steps))
        with pytest.raises(ConfigurationError):
            require_same_grid(a, b)


class TestParticles:
    """A jump driver's own particle list against the nonzero entries of its dense jumps."""

    @staticmethod
    def _assert_lists_the_jumps(path):
        jumps = path.jump_increments
        flat = jumps.reshape(-1, jumps.shape[-1])
        rows, steps = np.nonzero(flat)  # sorted by row, then by step
        got = path.particles
        assert got is not None
        want = Particles(jumps.shape[:-1], rows, steps, flat[rows, steps], got.drift)
        assert got.shape == want.shape
        for name in ("rows", "steps", "marks"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("horizon, n_steps, seed, start, count", [
        (12.0, 400, SEED, 0, 60),  # N_T + 1 > 6 gaps on most paths: the gap-by-gap route
        (1.0, 1000, SEED, 0, 400),
        (2.0, 40, SEED, 2**32 - 3, 6),  # crosses to the per-key route
        (2.0, 40, 2**32, 0, 5), (12.0, 400, SEED, 2**64, 60),  # keys past uint32
    ])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_driver_list_is_the_nonzero_jumps(self, kind, horizon, n_steps, seed, start, count):
        grid = TimeGrid(horizon, n_steps)
        M = martingale_batch(kind, grid, seed, start, count)
        self._assert_lists_the_jumps(M)
        counts = M.particles.counts()
        assert counts.tolist() == np.count_nonzero(M.jump_increments, axis=-1).tolist()
        if horizon == 12.0:  # most rows drawn gap by gap, merged by row with the rest
            assert (counts > 5).sum() > count / 2
        # the path is exactly its particles plus the drift
        drift = {"poisson": -grid.dt, "compound": 0.0}[kind]
        assert M.particles.drift == drift
        expected = np.zeros(M.increments.shape) + drift
        expected[M.particles.rows, M.particles.steps] = M.particles.marks + drift
        assert M.increments.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_select_keeps_the_list_and_a_combination_has_none(self, kind):
        grid = TimeGrid(3.0, 300)
        B = martingale_batch("brownian", grid, SEED, 0, 12)
        M = martingale_batch(kind, grid, SEED, 0, 12)
        counts = M.particles.counts()
        for index in (3, -1, slice(2, 9), slice(None, None, -2), counts == 1, counts > 2,
                      [7, 0, 7, 4], np.array([], dtype=int)):
            sub = M.select(index)
            self._assert_lists_the_jumps(sub)
            assert sub.particles.drift == M.particles.drift
            if np.size(sub.increments) > grid.n_steps:  # a batch of more than one path
                self._assert_lists_the_jumps(sub.select(1))
        # a rotation or a lent jump is a combination of two paths: it holds its parts, and
        # the one list of jumps is a driver's own
        for path in [rotate(B, M, theta) for theta in (0.0, 0.7, math.pi / 2, -2.0)] + [
                add_unit_jump(M, 0.4, 0.25), add_unit_jump(M, 0.4, 0.25).select(slice(2, 9))]:
            assert path.parts is not None
            assert path.particles is None and path.jump_increments is None

    def test_a_two_axis_list_counts_and_selects_its_paths(self):
        grid = TimeGrid(1.0, 10)
        particles = Particles((2, 3), np.array([1, 1, 5]), np.array([2, 7, 0]),
                              np.array([0.5, -1.5, 2.0]), drift=0.0)
        assert particles.counts().tolist() == [[0, 2, 0], [0, 0, 1]]
        one = particles.select((0, 1))
        assert one.shape == () and one.steps.tolist() == [2, 7]
        jumps = SamplePath(grid, particles=particles).jump_increments
        assert jumps.shape == (2, 3, 10) and jumps[0, 1, [2, 7]].tolist() == [0.5, -1.5]
        assert jumps[1, 2, 0] == 2.0 and np.count_nonzero(jumps) == 3
        assert SamplePath(grid, np.zeros(10)).particles is None


class TestLazyDenseArrays:
    """A jump path's dense arrays, built from its list on read, against the eager
    scatter a jump batch used to make: the list scattered into zeros, then minus dt for
    N~; the compound path's increments were its jump array itself."""

    @staticmethod
    def _eager(path, kind):
        """(increments, jump increments) of the path, scattered eagerly from its list."""
        particles, n_steps = path.particles, path.grid.n_steps
        jumps = np.zeros((math.prod(particles.shape), n_steps))
        jumps[particles.rows, particles.steps] = particles.marks
        jumps = jumps.reshape(particles.shape + (n_steps,))
        return (jumps - path.grid.dt if kind == "poisson" else jumps), jumps

    @staticmethod
    def _unbuilt(path):
        return path._increments is None

    @pytest.mark.parametrize("horizon, n_steps, seed, start, count", [
        (12.0, 400, SEED, 0, 60),  # most rows drawn gap by gap
        (1.0, 1000, SEED, 0, 400),
        (2.0, 40, SEED, 2**32 - 3, 6), (2.0, 40, 2**32, 0, 5),
        (12.0, 400, SEED, 2**64, 60),  # keys past uint32
    ])
    @pytest.mark.parametrize("first", ["increments", "jump_increments"])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_built_on_first_read_bit_for_bit(self, kind, first, horizon, n_steps, seed, start,
                                             count):
        M = martingale_batch(kind, TimeGrid(horizon, n_steps), seed, start, count)
        assert self._unbuilt(M)
        inc, jumps = self._eager(M, kind)
        getattr(M, first)
        # the jump part is scattered on each read and caches nothing
        assert self._unbuilt(M) == (first == "jump_increments")
        assert M.jump_increments is not M.jump_increments
        # N~'s increments are scattered onto -dt directly; M's onto 0.0, its jump array
        assert M.increments.tobytes() == inc.tobytes()
        assert M.jump_increments.tobytes() == jumps.tobytes()
        assert M.increments.shape == jumps.shape == (count, n_steps)

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_select_slices_the_list_and_builds_only_its_rows(self, kind):
        grid = TimeGrid(3.0, 300)
        inc, jumps = self._eager(martingale_batch(kind, grid, SEED, 0, 12), kind)
        M = martingale_batch(kind, grid, SEED, 0, 12)
        counts = M.particles.counts()
        for index in (3, -1, slice(2, 9), counts == 1, np.array([7, 0, 7, 4])):
            sub = M.select(index)
            assert self._unbuilt(sub) and self._unbuilt(M)
            assert sub.jump_increments.tobytes() == jumps[index].tobytes()
            assert sub.increments.tobytes() == inc[index].tobytes()
            assert self._unbuilt(M)
        # a built batch hands its selections slices of its increments
        built = M.increments
        one = M.select(-2)
        assert M._increments is built
        assert one._increments is not None and np.shares_memory(one._increments, built)
        assert one.increments.tobytes() == inc[-2].tobytes()
        assert one.jump_increments.tobytes() == jumps[-2].tobytes()

    @pytest.mark.parametrize("theta", [0.7, -0.7, math.pi / 2])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_rotated_path_is_its_parts_and_keeps_no_jump_part(self, kind, theta):
        grid = TimeGrid(3.0, 300)
        B = martingale_batch("brownian", grid, SEED, 0, 12)
        M = martingale_batch(kind, grid, SEED, 0, 12)
        inc, _ = self._eager(M, kind)
        c, s = drivers._cos_sin(theta)
        Y = rotate(B, M, theta)
        assert Y.parts == (c, B, s, M)
        assert Y.increments.tobytes() == (c * B.increments + s * inc).tobytes()
        assert Y.particles is None and Y.jump_increments is None

    @pytest.mark.parametrize("n_steps", [255, 256, 257, 513, 1000])
    @pytest.mark.parametrize("theta", [0.7, -1e-4, math.pi / 2, 2.0])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_rotation_reads_the_driver_list(self, kind, theta, n_steps):
        # every window is c1 b + c2 d off the jumps and c1 b + c2 (J + d) at each particle:
        # the dense formula's sums bit for bit, while neither the rotation's nor the
        # driver's dense arrays are built
        grid = TimeGrid(1.0, n_steps)
        B = martingale_batch("brownian", grid, SEED, 0, 300)
        M = martingale_batch(kind, grid, SEED, 0, 300)
        inc, _ = self._eager(M, kind)
        c, s = drivers._cos_sin(theta)
        dense = c * B.increments + s * inc
        windows = [slice(j0, min(j0 + STEP_BLOCK, n_steps))  # sde.euler's step blocks
                   for j0 in range(0, n_steps, STEP_BLOCK)] + [slice(3, n_steps - 1)]
        Y = rotate(B, M, theta)
        assert Y.shape == (300,)
        for rows in (slice(0, 300), slice(0, ROW_BLOCK), slice(ROW_BLOCK, 300), slice(7, 8)):
            assert Y.block(rows).tobytes() == dense[rows].tobytes()
            for steps in windows:
                assert Y.block(rows, steps).tobytes() == dense[rows, steps].tobytes()
        assert self._unbuilt(M) and self._unbuilt(Y)
        # a selection of the rotated batch selects B and M, and builds nothing either
        for index in (5, slice(3, 200), M.particles.counts() == 1):
            sub = Y.select(index)
            flat = dense[index].reshape(-1, n_steps)
            for steps in windows:
                window = sub.block(slice(0, len(flat)), steps)
                assert window.tobytes() == flat[:, steps].tobytes()
            assert self._unbuilt(sub) and self._unbuilt(Y) and self._unbuilt(M)
            assert sub.increments.tobytes() == dense[index].tobytes()
        assert Y.increments.tobytes() == dense.tobytes()
        assert self._unbuilt(M)
        # one driver path against a batch reads as its one row against every row, and
        # neither the pair nor its selections build anything
        one = M.select(5)
        pair = rotate(B, one, theta)
        broadcast = c * B.increments + s * inc[5]
        assert pair.shape == (300,)
        for rows in (slice(0, 300), slice(7, 9)):
            for steps in windows:
                assert pair.block(rows, steps).tobytes() == broadcast[rows, steps].tobytes()
        for index in (4, slice(3, 9)):
            sub = pair.select(index)
            assert sub.parts[3] is one and sub.shape == broadcast[index].shape[:-1]
            flat = broadcast[index].reshape(-1, n_steps)
            assert sub.block(slice(0, len(flat))).tobytes() == flat.tobytes()
            assert self._unbuilt(sub) and self._unbuilt(pair) and self._unbuilt(one)
            assert sub.increments.tobytes() == broadcast[index].tobytes()
        assert self._unbuilt(pair) and self._unbuilt(one)
        assert pair.increments.tobytes() == broadcast.tobytes()

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_lent_jump_is_a_one_particle_path(self, kind):
        grid = TimeGrid(3.0, 300)
        M = martingale_batch(kind, grid, SEED, 0, 12)
        inc, _ = self._eager(M, kind)
        k = grid.index_at_or_after(0.4)
        bumped = add_unit_jump(M, 0.4, 0.25)
        one, path, a, jump = bumped.parts
        assert (one, path, a) == (1.0, M, 0.25) and jump.shape == ()
        assert jump.particles.steps.tolist() == [k - 1] and jump.particles.marks.tolist() == [1.0]
        assert jump.particles.drift == 0.0
        expected = inc.copy()
        expected[:, k - 1] += 0.25
        assert bumped.increments.tobytes() == expected.tobytes()
        assert self._unbuilt(M) and bumped.jump_increments is None

    def test_a_path_needs_increments_or_a_driver_list(self, unit_grid):
        M = martingale_batch("poisson", unit_grid, SEED, 0, 3)
        with pytest.raises(ConfigurationError, match="needs increments"):
            SamplePath(unit_grid)
        with pytest.raises(ConfigurationError, match="exactly one of them"):
            SamplePath(unit_grid, M.increments, particles=M.particles)
        with pytest.raises(ConfigurationError, match="exactly one of them"):
            SamplePath(unit_grid, particles=M.particles, parts=(1.0, M, 1.0, M))


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

    @pytest.mark.parametrize("seed, start", [(SEED, 0), (2**32, 0), (SEED, 2**32 - 5)],
                             ids=["hashed", "wide-seed", "wide-index"])
    def test_rows_drawn_alone_match_the_batch(self, unit_grid, seed, start):
        batch = brownian_batch(unit_grid, seed, start, 12).increments
        for rows in ([0, 3, 4, 11], [7], []):
            drawn = brownian_rows(unit_grid, seed, start + np.array(rows, dtype=int))
            assert drawn.increments.shape == (len(rows), unit_grid.n_steps)
            np.testing.assert_array_equal(drawn.increments, batch[rows])

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
        marks = path.jump_increments[path.jump_increments != 0.0]
        assert marks.size > 0 and np.all(np.abs(marks) == 1.0)
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
            with pytest.raises(ConfigurationError):
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
        np.testing.assert_array_equal(rotated.increments, mart.increments)

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


class TestCombinations:
    """A jump lent to a rotated path is a combination of combinations, read off its parts."""

    THETA, U, A = 0.7, 0.4001, 0.125

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_jump_lent_to_a_rotation_is_exact_and_unbuilt(self, unit_grid, kind):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 6)
        M = martingale_batch(kind, unit_grid, SEED, 0, 6)
        c, s = drivers._cos_sin(self.THETA)
        k = unit_grid.index_at_or_after(self.U)
        levels = c * B.values + s * M.values
        levels[..., k:] += self.A  # c B + s M, plus a from the snap step on
        dense = c * B.increments + s * M.increments
        dense[..., k - 1] += self.A  # the dense formula, a added at the snap step only
        B = martingale_batch("brownian", unit_grid, SEED, 0, 6)
        M = martingale_batch(kind, unit_grid, SEED, 0, 6)
        path = add_unit_jump(rotate(B, M, self.THETA), self.U, self.A)
        single = add_unit_jump(rotate(B.select(2), M.select(2), self.THETA), self.U, self.A)
        paths = [(path.select(4), 4), (path.select(slice(1, 3)), slice(1, 3)),
                 (path, slice(None)), (single, 2)]
        for sub, index in paths:
            rotated = sub.parts[1]
            for p in (sub, rotated, rotated.parts[3], M):
                assert p._increments is None and p._values is None
            assert B._values is None
            assert sub.particles is None and sub.jump_increments is None
            assert sub.values.tobytes() == levels[index].tobytes()
            assert sub.increments.tobytes() == dense[index].tobytes()

    @pytest.mark.parametrize("combine", [lambda p1, p2: rotate(p1, p2, 0.7),
                                         lambda p1, p2: combine_paths(p1, p2, 0.6, -0.8)],
                             ids=["rotate", "combine_paths"])
    def test_unpaired_shapes_are_refused(self, unit_grid, combine):
        rng = np.random.default_rng(SEED)
        B = SamplePath(unit_grid, rng.standard_normal((3, unit_grid.n_steps)))
        M = SamplePath(unit_grid, rng.standard_normal((2, 3, unit_grid.n_steps)))
        for p1, p2 in ((B, M), (M, B)):
            with pytest.raises(ConfigurationError, match=r"\(3,\) and \(2, 3\)|"
                                                         r"\(2, 3\) and \(3,\)"):
                combine(p1, p2)
        # a single path pairs with a batch of any shape, read as its one row
        assert combine(B.select(1), M).shape == combine(M, B.select(1)).shape == (2, 3)


class TestLazyLevels:
    """Built paths compute their levels on first read, bit for bit the eager expression."""

    THETA, U, A = 0.7, 0.4001, 0.125

    def built(self, how, B, M):
        """(path built by ``how``, the expression that used to compute its levels)."""
        if how == "rotate":
            c, s = np.cos(self.THETA), np.sin(self.THETA)
            return rotate(B, M, self.THETA), lambda: c * B.values + s * M.values
        if how == "combine_paths":
            return combine_paths(B, M, 0.6, -0.8), lambda: 0.6 * B.values + -0.8 * M.values
        k = B.grid.index_at_or_after(self.U)

        def shifted():
            values = M.values.copy()
            values[..., k:] += self.A
            return values

        return add_unit_jump(M, self.U, self.A), shifted

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    @pytest.mark.parametrize("how", ["rotate", "combine_paths", "add_unit_jump"])
    def test_levels_equal_the_eager_expression(self, unit_grid, how, kind):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 6)
        M = martingale_batch(kind, unit_grid, SEED, 0, 6)
        path, eager = self.built(how, B, M)
        assert path._values is None
        assert path.values.tobytes() == eager().tobytes()
        # through select on a batch whose levels were never read: the selection
        # stays lazy, and so does the batch until the selection is read
        path, eager = self.built(how, martingale_batch("brownian", unit_grid, SEED, 0, 6),
                                 martingale_batch(kind, unit_grid, SEED, 0, 6))
        one, rows = path.select(4), path.select(slice(1, 3))
        assert one._values is None and rows._values is None and path._values is None
        assert one.values.tobytes() == eager()[4].tobytes()
        assert rows.values.tobytes() == eager()[1:3].tobytes()
        # a single path built from single paths
        single, eager = self.built(how, B.select(2), M.select(2))
        assert single.values.tobytes() == eager().tobytes()

    def test_rotated_path_read_by_chaos_keeps_no_levels(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 8)
        M = martingale_batch("compound", unit_grid, SEED, 0, 8)
        Y = rotate(B, M, self.THETA)
        evaluate_chaos(make_functional("three-term"), Y)
        assert Y._values is None
        assert B._values is None and M._values is None
