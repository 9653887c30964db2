"""Time discretization, reproducible random streams and sampled paths.

All driving processes live on a shared uniform grid of [0, T].  A path is
stored as per-step increments; its levels at the grid points are computed on
first read and cached.  A jump-type driver is stored as its list of particles
and the drift between them, from which its increments are built on first
read; the list is the one record of a path's jumps, so downstream code
separates jumps from continuous drift by reading it.  A combination of two
paths (a rotation) is stored as its two parts and read window by window.

Arrays may carry a leading batch dimension: ``increments`` has shape
``(n_steps,)`` for a single path or ``(n_paths, n_steps)`` for a batch, and
every operation in this package is written against the last axis.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Channel tags keep the streams of distinct drivers / purposes disjoint.
CHANNEL_BROWNIAN = 0
CHANNEL_POISSON = 1
CHANNEL_COMPOUND = 2
CHANNEL_HAT = 3  # independent Brownian copy (inner / rotation streams)

# rows per block of reduce_rows, which bounds every paths x steps temporary of a batch
# reduction (the chaos layer's among them) to ROW_BLOCK rows; each row reduces as it would alone
ROW_BLOCK = 256
BATCH_BYTES = 16 * 2**20  # bytes of one paths x steps float64 array of a Monte Carlo batch
MAX_BATCH_ROWS = 4096  # paths per batch on a grid small enough that the budget allows more


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, T] with t_k = k * dt."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")
        try:
            dt = self.horizon / self.n_steps
        except OverflowError:  # an n_steps no float can hold
            dt = 0.0
        if not dt > 0.0:  # finite, as the horizon is
            raise ConfigurationError(f"the step horizon / n_steps must be a positive finite "
                                     f"float, got {self.horizon} / {self.n_steps}")
        if self.n_steps > BATCH_BYTES // 8:  # not one path fits the batch budget
            raise ConfigurationError(f"n_steps must be at most {BATCH_BYTES // 8}, so that one "
                                     f"path of float64 steps fits the {BATCH_BYTES}-byte batch "
                                     f"budget; got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def batch_rows(self) -> int:
        """Paths per Monte Carlo batch: as many as keep one paths x steps float64 array
        within BATCH_BYTES, and at most MAX_BATCH_ROWS."""
        return min(MAX_BATCH_ROWS, BATCH_BYTES // (8 * self.n_steps))

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_{n_steps} = T."""
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_at_or_after(self, u: float) -> int:
        """Smallest k >= 1 with t_k >= u.  Valid for u in (0, T]."""
        if not (0.0 < u <= self.horizon + 1e-12 * self.horizon):
            raise ConfigurationError(f"time {u} outside (0, {self.horizon}]")
        k = int(np.ceil(u / self.dt - 1e-9))
        return min(max(k, 1), self.n_steps)

    def index_of(self, t: float) -> int:
        """The step k with t_k = t; ConfigurationError for a t that is no grid point."""
        # every grid time lies in [0, T]; a t outside [-T, 2T] (or NaN) is refused
        # before t / dt, which can overflow, and so is an int that no float holds
        try:
            near = abs(t) - self.horizon <= self.horizon
        except OverflowError:
            near = False
        k = round(t / self.dt) if near else -1
        if not 0 <= k <= self.n_steps or abs(k * self.dt - t) > 1e-9 * self.horizon:
            raise ConfigurationError(
                f"time {t} is not a point of the {self.n_steps}-step grid of [0, {self.horizon}]")
        return int(k)


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream keyed on (master_seed, channel, stream_index, subindex).

    The generator produced is a pure function of the key, so paths are
    reproducible independently of the order in which they are generated or
    of how work is split across workers.
    """

    master_seed: int
    stream_index: int
    channel: int = CHANNEL_BROWNIAN
    subindex: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.master_seed, self.channel, self.stream_index, self.subindex)
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True, eq=False)
class Particles:
    """The jumps of a path or batch as a list of particles, N = sum_i eps_(u_i, J_i).

    Particle i is a jump of size ``marks[i]`` over step ``steps[i]`` (the
    increment over (t_s, t_{s+1}]) of path ``rows[i]``, a row of the batch's
    leading axes ``shape`` flattened in C order (row 0 for a single path).  The
    list is sorted by row, then by step, and holds no zero mark.  ``drift`` is
    the increment of every step without a jump when the path is exactly its
    jumps plus that constant, as a driver path is (-dt for the compensated
    Poisson driver, 0 for the compound one); None on any other path.
    """

    shape: tuple
    rows: np.ndarray
    steps: np.ndarray
    marks: np.ndarray
    drift: float | None = None

    def counts(self) -> np.ndarray:
        """The number of jumps of each path, shaped as the batch."""
        return np.bincount(self.rows, minlength=math.prod(self.shape)).reshape(self.shape)

    def select(self, index) -> "Particles":
        """The particles of the paths a batch index picks, renumbered in the picked order."""
        n = math.prod(self.shape)
        picked = np.arange(n).reshape(self.shape)[index]
        starts = np.searchsorted(self.rows, np.arange(n + 1))
        first, counts = starts[picked.ravel()], np.diff(starts)[picked.ravel()]
        rows = np.repeat(np.arange(picked.size), counts)
        take = np.arange(rows.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        return Particles(picked.shape, rows, self.steps[take], self.marks[take], self.drift)

    def scatter(self, n_steps: int, values, fill: float = 0.0) -> np.ndarray:
        """The (shape..., n_steps) array of ``fill`` with ``values`` at the particles."""
        out = np.full(self.shape + (n_steps,), fill)
        out.reshape(-1, n_steps)[self.rows, self.steps] = values
        return out

    def block(self, rows: slice, steps: slice | None = None) -> "Particles":
        """The particles of the flat rows ``rows`` and, if given, the steps ``steps`` (slices
        with start and stop), renumbered from their starts: the list of those alone."""
        lo, hi = np.searchsorted(self.rows, (rows.start, rows.stop))
        at, on, marks = self.rows[lo:hi] - rows.start, self.steps[lo:hi], self.marks[lo:hi]
        if steps is not None:
            kept = (steps.start <= on) & (on < steps.stop)
            at, on, marks = at[kept], on[kept] - steps.start, marks[kept]
        return Particles((rows.stop - rows.start,), at, on, marks, self.drift)

    def scaled(self, c: float) -> "Particles":
        """The jumps times c, as on c * path plus a continuous part: no drift."""
        marks = c * self.marks
        kept = marks != 0.0
        return Particles(self.shape, self.rows[kept], self.steps[kept], marks[kept])


class SamplePath:
    """One driver path (or a batch of them) on a shared grid.

    ``increments[..., j]`` is the change over (t_j, t_{j+1}]; ``particles`` is
    the list of the path's jumps (None for continuous drivers, Brownian paths
    included), the one record of them.  A jump driver's path is its list alone:
    the particles it drew and the drift between them.  A combination
    c1 * p1 + c2 * p2 of two paths of one shape (drivers.rotate) holds
    (c1, p1, c2, p2) and its list from theirs.  ``block`` reads either a window
    of rows and steps at a time.  Their ``increments`` are built on first read
    and cached, and ``select`` slices the list, or p1 and p2, so a selection
    builds only its own rows.
    ``jump_increments``, the pure-jump part of each increment, is the list
    scattered into zeros, built on each read (None without a list).
    ``values`` holds the levels at the grid points, with value 0 at t_0.  They
    are computed on first read and cached: by ``_levels`` when a path built
    from others records how (so the levels stay bit-exact at every grid point),
    else as the cumulative sum of the increments.
    """

    def __init__(self, grid: TimeGrid, increments=None, *, particles: Particles | None = None,
                 _levels: Callable[[], np.ndarray] | None = None, _parts: tuple | None = None):
        self.grid, self.particles, self._levels, self._values = grid, particles, _levels, None
        self._parts = _parts  # (c1, p1, c2, p2) of a combination of two paths of one shape
        self._increments = None if increments is None else np.asarray(increments, dtype=float)
        if increments is None and _parts is None and getattr(particles, "drift", None) is None:
            raise ConfigurationError("a path needs increments or a driver's particle list")
        last = grid.n_steps if increments is None else self._increments.shape[-1]
        if last != grid.n_steps:
            raise ConfigurationError(f"increments last axis {last} != n_steps {grid.n_steps}")

    @property
    def shape(self) -> tuple:
        """The batch's leading axes, () for a single path, without building any array."""
        if self._increments is not None:
            return self._increments.shape[:-1]
        return self.particles.shape if self._parts is None else self._parts[1].shape

    def block(self, rows: slice, steps: slice | None = None) -> np.ndarray:
        """The increments of the flat rows ``rows`` (C order over the batch axes) on the steps
        ``steps`` (all if None) as a (rows, steps) array, the values ``increments`` would
        hold: a view of built increments, else, building nothing, a driver's list scattered
        into the window or c1 * p1 + c2 * p2 on the window."""
        if self._increments is not None:
            return self._increments.reshape(-1, self.grid.n_steps)[rows, steps or slice(None)]
        if self._parts is not None:
            c1, p1, c2, p2 = self._parts
            return c1 * p1.block(rows, steps) + c2 * p2.block(rows, steps)
        jumps = self.particles.block(rows, steps)  # a driver's list
        width = self.grid.n_steps if steps is None else steps.stop - steps.start
        return jumps.scatter(width, jumps.marks + jumps.drift, jumps.drift)

    @property
    def increments(self) -> np.ndarray:
        if self._increments is None:
            shape = self.shape + (self.grid.n_steps,)
            self._increments = self.block(slice(0, math.prod(shape[:-1]))).reshape(shape)
        return self._increments

    @property
    def jump_increments(self) -> np.ndarray | None:
        jumps = self.particles
        return None if jumps is None else jumps.scatter(self.grid.n_steps, jumps.marks)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            if self._levels is not None:
                self._values, self._levels = self._levels(), None
            else:
                self._values = np.zeros(self.increments.shape[:-1] + (self.grid.n_steps + 1,))
                np.cumsum(self.increments, axis=-1, out=self._values[..., 1:])
        return self._values

    def select(self, index) -> "SamplePath":
        """Extract one path (or a sub-batch) from a batch; only its built arrays, or the
        parts of a combination, are sliced."""
        increments = None if self._increments is None else self._increments[index]
        parts = self._parts if increments is None else None
        if parts is not None:
            parts = parts[0], parts[1].select(index), parts[2], parts[3].select(index)
        particles = None if self.particles is None else self.particles.select(index)
        path = SamplePath(self.grid, increments, particles=particles, _parts=parts)
        if self._values is not None:
            path._values = self._values[index]
        elif self._levels is not None:  # stays lazy; one read fills this batch's cache
            path._levels = lambda: self.values[index]
        return path


def reduce_rows(shape: tuple, width: int, reduce, count: int = 1) -> list:
    """reduce(rows, buffer) per ROW_BLOCK flat rows of a batch with leading axes ``shape`` (a
    single path, shape (), is one block of one row): ``rows`` is the slice of those rows in
    C order, and one (block, width) buffer is reused.  ``count`` per-row results, each shaped
    as ``shape``; a result of one row is that value on every row of its block."""
    n_rows = math.prod(shape)
    out, buf = np.empty((count, n_rows)), np.empty((min(n_rows, ROW_BLOCK), width))
    for start in range(0, n_rows, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n_rows))
        for o, value in zip(out, reduce(rows, buf[: rows.stop - start]), strict=True):
            o[rows] = value
    return [o.reshape(shape)[()] for o in out]


def require_same_grid(*paths: SamplePath) -> TimeGrid:
    grid = paths[0].grid
    for p in paths[1:]:
        if p.grid != grid:
            raise ConfigurationError(f"grid mismatch: {p.grid} vs {grid}")
    return grid
