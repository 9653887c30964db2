"""Time discretization, reproducible random streams and sampled paths.

All driving processes live on a shared uniform grid of [0, T].  A path is
stored as per-step increments together with a cached array of levels at the
grid points; jump-type drivers additionally carry the pure-jump part of each
increment so that downstream code can separate jumps from continuous drift.

Arrays may carry a leading batch dimension: ``increments`` has shape
``(n_steps,)`` for a single path or ``(n_paths, n_steps)`` for a batch, and
every operation in this package is written against the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, DomainError

# Channel tags keep the streams of distinct drivers / purposes disjoint.
CHANNEL_BROWNIAN = 0
CHANNEL_POISSON = 1
CHANNEL_COMPOUND = 2
CHANNEL_HAT = 3  # independent Brownian copy (inner / rotation streams)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, T] with t_k = k * dt."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_{n_steps} = T."""
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_at_or_after(self, u: float) -> int:
        """Smallest k >= 1 with t_k >= u.  Valid for u in (0, T]."""
        if not (0.0 < u <= self.horizon + 1e-12 * self.horizon):
            raise DomainError(f"time {u} outside (0, {self.horizon}]")
        k = int(np.ceil(u / self.dt - 1e-9))
        return min(max(k, 1), self.n_steps)

    def summary(self) -> dict:
        return {"horizon": self.horizon, "n_steps": self.n_steps}


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


@dataclass
class SamplePath:
    """One driver path (or a batch of them) on a shared grid.

    ``increments[..., j]`` is the change over (t_j, t_{j+1}];
    ``jump_increments`` is the pure-jump part of each increment (zero array
    for continuous drivers); ``values`` caches the levels at the grid points,
    with value 0 at t_0.
    """

    grid: TimeGrid
    increments: np.ndarray
    jump_increments: np.ndarray | None = None
    _values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=float)
        if self.increments.shape[-1] != self.grid.n_steps:
            raise DimensionMismatchError(
                f"increments last axis {self.increments.shape[-1]} != n_steps {self.grid.n_steps}"
            )
        if self.jump_increments is not None:
            self.jump_increments = np.asarray(self.jump_increments, dtype=float)
            if self.jump_increments.shape != self.increments.shape:
                raise DimensionMismatchError("jump_increments shape mismatch")

    @classmethod
    def from_values(cls, grid: TimeGrid, values, jump_increments=None) -> "SamplePath":
        """Build from levels at grid points; values[..., 0] must be 0."""
        values = np.asarray(values, dtype=float)
        path = cls(grid, np.diff(values, axis=-1), jump_increments)
        path._values = values
        return path

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            zero = np.zeros(self.increments.shape[:-1] + (1,))
            self._values = np.concatenate([zero, np.cumsum(self.increments, axis=-1)], axis=-1)
        return self._values

    @property
    def is_batch(self) -> bool:
        return self.increments.ndim > 1

    @property
    def n_paths(self) -> int:
        return 1 if not self.is_batch else int(np.prod(self.increments.shape[:-1]))

    @property
    def jump_times(self) -> np.ndarray:
        """Jump times of a single path (grid points carrying a mark)."""
        if self.is_batch:
            raise DimensionMismatchError("jump_times is defined for single paths only")
        if self.jump_increments is None:
            return np.empty(0)
        idx = np.nonzero(self.jump_increments)[0]
        return (idx + 1) * self.grid.dt

    @property
    def jump_marks(self) -> np.ndarray:
        if self.is_batch:
            raise DimensionMismatchError("jump_marks is defined for single paths only")
        if self.jump_increments is None:
            return np.empty(0)
        idx = np.nonzero(self.jump_increments)[0]
        return self.jump_increments[idx]

    def select(self, index) -> "SamplePath":
        """Extract one path (or a sub-batch) from a batch."""
        jumps = None if self.jump_increments is None else self.jump_increments[index]
        path = SamplePath(self.grid, self.increments[index], jumps)
        if self._values is not None:
            path._values = self._values[index]
        return path


def require_same_grid(*paths: SamplePath) -> TimeGrid:
    grid = paths[0].grid
    for p in paths[1:]:
        if p.grid != grid:
            raise DimensionMismatchError(f"grid mismatch: {p.grid} vs {grid}")
    return grid
