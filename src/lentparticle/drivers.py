"""Simulation of the driving processes.

Three drivers are supported: standard Brownian motion B, the compensated
unit-rate Poisson process N~_t = N_t - t, and the symmetric compound Poisson
process M_t = sum_{n <= N_t} J_n with marks J_n = +-1.  Rotations
Y^theta = B cos(theta) + M sin(theta) and jump-augmented Brownian paths
(omega + a 1_{. >= u}) are built on top of them.

Jump times are drawn as unit-rate exponential gaps and snapped forward to the
nearest grid point strictly after the previous jump; the compensator -t of N~
is carried analytically as a continuous drift of -dt per step, not as
pseudo-jumps.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grid import (
    CHANNEL_BROWNIAN,
    CHANNEL_COMPOUND,
    CHANNEL_HAT,
    CHANNEL_POISSON,
    RngStream,
    SamplePath,
    TimeGrid,
    require_same_grid,
)


def _jump_step_indices(gen: np.random.Generator, grid: TimeGrid) -> list[int]:
    """Arrival times as exponential gaps, snapped forward to distinct grid points."""
    out: list[int] = []
    t = 0.0
    prev = 0
    while True:
        t += gen.standard_exponential()
        if t > grid.horizon:
            return out
        k = max(int(np.ceil(t / grid.dt - 1e-9)), prev + 1)
        if k > grid.n_steps:
            return out
        out.append(k)
        prev = k


def _cos_sin(theta: float) -> tuple[float, float]:
    # Clamp values that are zero up to the representation error of pi/2
    # multiples, so that rotate(B, M, pi/2) returns the martingale exactly.
    c, s = np.cos(theta), np.sin(theta)
    if abs(c) < 1e-15:
        c = 0.0
    if abs(s) < 1e-15:
        s = 0.0
    return float(c), float(s)


def _combine(p1: SamplePath, p2: SamplePath, c1: float, c2: float) -> SamplePath:
    """c1 * p1 + c2 * p2 for a continuous p1, combined at the level of grid values.

    The identity (c1 p1 + c2 p2)_{t_k} = c1 p1_{t_k} + c2 p2_{t_k} holds
    bit-for-bit at every grid point because the levels are combined directly;
    the jump part is c2 times that of p2.
    """
    grid = require_same_grid(p1, p2)
    values = c1 * p1.values + c2 * p2.values
    increments = c1 * p1.increments + c2 * p2.increments
    jumps = None if p2.jump_increments is None else c2 * p2.jump_increments
    out = SamplePath(grid, increments, jump_increments=jumps)
    out._values = values
    return out


def rotate(brownian: SamplePath, martingale: SamplePath, theta: float) -> SamplePath:
    """Y^theta = B cos(theta) + M sin(theta), exact at every grid point."""
    return _combine(brownian, martingale, *_cos_sin(theta))


def add_unit_jump(path: SamplePath, u: float, a: float) -> SamplePath:
    """Path perturbed by a * 1_{. >= u}, with u snapped forward to the grid.

    Levels at every grid point t_k >= u are increased by exactly a; the
    increments are unchanged except at the snap step, whose increment grows
    by a.
    """
    grid = path.grid
    k = grid.index_at_or_after(u)
    inc = path.increments.copy()
    inc[..., k - 1] += a
    values = path.values.copy()
    values[..., k:] += a
    jumps = None if path.jump_increments is None else path.jump_increments.copy()
    out = SamplePath(grid, inc, jumps)
    out._values = values
    return out


# --- batch simulation -------------------------------------------------------
#
# Every path has its own stream, keyed (master_seed, channel, i, 0) for path i
# of a driver and (master_seed, CHANNEL_HAT, i, j + 1) for hat copy j of
# outer path i, regardless of batch boundaries, so any chunking or worker
# layout produces bitwise-identical paths.  A single path is a batch of one:
# martingale_batch(kind, grid, seed, i, 1).select(0).

def _normal_batch(grid: TimeGrid, streams) -> SamplePath:
    """One Brownian path of N(0, dt) increments per stream, in order."""
    streams = list(streams)
    inc = np.empty((len(streams), grid.n_steps))
    for i, stream in enumerate(streams):
        inc[i] = stream.generator().standard_normal(grid.n_steps)
    inc *= np.sqrt(grid.dt)
    return SamplePath(grid, inc)


def _jump_batch(grid: TimeGrid, master_seed: int, start: int, count: int,
                channel: int, signed: bool) -> np.ndarray:
    """Jump part of each path: unit marks, or fair +-1 marks when ``signed``."""
    jumps = np.zeros((count, grid.n_steps))
    for i in range(count):
        gen = RngStream(master_seed, start + i, channel).generator()
        idx = np.asarray(_jump_step_indices(gen, grid), dtype=int)
        marks = gen.integers(0, 2, size=idx.size) * 2.0 - 1.0 if signed else 1.0
        jumps[i, idx - 1] = marks
    return jumps


def brownian_batch(
    grid: TimeGrid, master_seed: int, start: int, count: int, channel: int = CHANNEL_BROWNIAN
) -> SamplePath:
    return _normal_batch(grid, (RngStream(master_seed, start + i, channel) for i in range(count)))


def inner_hat_batch(grid: TimeGrid, master_seed: int, outer_index: int, count: int) -> SamplePath:
    """Batch of independent Brownian copies keyed (seed, outer index, inner index)."""
    return _normal_batch(
        grid, (RngStream(master_seed, outer_index, CHANNEL_HAT, j + 1) for j in range(count))
    )


def compensated_poisson_batch(grid: TimeGrid, master_seed: int, start: int, count: int) -> SamplePath:
    jumps = _jump_batch(grid, master_seed, start, count, CHANNEL_POISSON, signed=False)
    return SamplePath(grid, jumps - grid.dt, jump_increments=jumps)


def compound_poisson_batch(grid: TimeGrid, master_seed: int, start: int, count: int) -> SamplePath:
    jumps = _jump_batch(grid, master_seed, start, count, CHANNEL_COMPOUND, signed=True)
    return SamplePath(grid, jumps.copy(), jump_increments=jumps)


DRIVER_BATCHES = {
    "brownian": brownian_batch,
    "poisson": compensated_poisson_batch,
    "compound": compound_poisson_batch,
}


def martingale_batch(kind: str, grid: TimeGrid, master_seed: int, start: int, count: int) -> SamplePath:
    """Batch of normal-martingale paths; kind in {brownian, poisson, compound}."""
    try:
        return DRIVER_BATCHES[kind](grid, master_seed, start, count)
    except KeyError:
        raise DomainError(f"unknown driver kind {kind!r}") from None
