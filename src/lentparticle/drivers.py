"""Simulation of the driving processes.

Three drivers are supported: standard Brownian motion B, the compensated
unit-rate Poisson process N~_t = N_t - t, and the symmetric compound Poisson
process M_t = sum_{n <= N_t} J_n with marks J_n = +-1.  Rotations
Y^theta = B cos(theta) + M sin(theta) and jump-augmented Brownian paths
(omega + a 1_{. >= u}) are built on top of them.

Jump times are drawn as unit-rate exponential gaps and snapped forward to the
nearest grid point strictly after the previous jump; the compensator -t of N~
is carried analytically as a continuous drift of -dt per step, not as
pseudo-jumps.  ``_jump_step_indices`` is that rule, one gap at a time, and the
reference.  A batch draws each path's first ``_GAP_BLOCK`` gaps with one call
(6 cover the N_T + 1 draws of all but ~6e-4 of paths at T = 1) and snaps the
whole batch at once: arrival times by a row cumsum, steps by
k_i = i + max(1, running max of ceil(t_j / dt - 1e-9) - j), and a stop at the
first arrival past T or past the last step.  A path whose block does not reach
its stop is drawn again by ``_jump_step_indices``.  The marks of a compound
path follow its gaps in the same stream, so a path with arrivals replays
exactly its N + 1 gaps before it draws its marks (``_fair_signs``, the draw of
``integers(0, 2)`` read off raw words).  A batch is the list of particles
(row, step, mark) it snapped, sorted by row and then by step, with the drift
between jumps (-dt for N~, 0 for M): ``SamplePath.particles``, which ``select``
slices.  Its dense increments are built from that list on first read.

Per-path draws hold the interpreter lock, one short call per path, while the
vectorized reductions around them release it.  Every per-key loop therefore
runs under one module lock, ``_DRAW_LOCK``: threads take turns at whole
batches of draws and overlap them with each other's reductions, instead of
handing the interpreter lock back and forth at every path.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ConfigurationError
from .grid import (
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


def _jump_step_indices(gen: np.random.Generator, grid: TimeGrid) -> list[int]:
    """Arrival times as exponential gaps, snapped forward to distinct grid points."""
    out: list[int] = []
    t = 0.0
    prev = 0
    while True:
        t += gen.standard_exponential()
        if t > grid.horizon:
            return out
        k = max(math.ceil(t / grid.dt - 1e-9), prev + 1)
        if k > grid.n_steps:
            return out
        out.append(k)
        prev = k


def _cos_sin(theta: float) -> tuple[float, float]:
    if not np.isfinite(theta):
        raise ConfigurationError(f"rotation angle must be finite, got {theta}")
    # Clamp values that are zero up to the representation error of pi/2
    # multiples, so that rotate(B, M, pi/2) returns the martingale exactly.
    c, s = np.cos(theta), np.sin(theta)
    if abs(c) < 1e-15:
        c = 0.0
    if abs(s) < 1e-15:
        s = 0.0
    return float(c), float(s)


def _combine(p1: SamplePath, p2: SamplePath, c1: float, c2: float) -> SamplePath:
    """c1 * p1 + c2 * p2, stored as its parts and read a window at a time (SamplePath);
    its levels are c1 p1_{t_k} + c2 p2_{t_k}, bit for bit, at every grid point."""
    return SamplePath(require_same_grid(p1, p2), parts=(c1, p1, c2, p2))


def rotate(brownian: SamplePath, martingale: SamplePath, theta: float) -> SamplePath:
    """Y^theta = B cos(theta) + M sin(theta), exact at every grid point; it holds
    (cos, B, sin, M) and is read a window at a time (_combine)."""
    return _combine(brownian, martingale, *_cos_sin(theta))


def add_unit_jump(path: SamplePath, u: float, a: float) -> SamplePath:
    """Path perturbed by a * 1_{. >= u}, with u snapped forward to the grid: the lent jump
    is a particle, 1 * path + a * (one particle of mark 1 at the snap step, drift 0)."""
    k = path.grid.index_at_or_after(u)
    jump = Particles((), np.zeros(1, np.intp), np.full(1, k - 1, np.intp), np.ones(1), 0.0)
    return _combine(path, SamplePath(path.grid, particles=jump), 1.0, a)


# --- batch simulation -------------------------------------------------------
#
# Every path has its own stream, keyed (master_seed, channel, i, 0) for path i
# of a driver and (master_seed, CHANNEL_HAT, i, j + 1) for hat copy j of
# outer path i, regardless of batch boundaries, so any chunking or worker
# layout produces bitwise-identical paths.  A single path is a batch of one:
# martingale_batch(kind, grid, seed, i, 1).select(0).
#
# RngStream.generator() is the reference for a key's stream, but building a
# SeedSequence and a Philox per path costs more than drawing 1000 normals.  A
# batch therefore derives the Philox keys of all its paths in one vectorized
# pass of the SeedSequence hash (numpy NEP 19) and builds one Philox, whose
# full state it resets to each path's key: exactly where a fresh
# RngStream(...).generator() starts.  Keys with a word outside [0, 2**32) do
# not hash as four uint32 words; their batches take the per-key route.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy-pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmixer(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; each call advances the hash constant."""
    const = init

    def hashmix(h: np.ndarray) -> np.ndarray:
        nonlocal const
        h = h ^ np.uint32(const)
        const = const * mult & _MASK32
        h = h * np.uint32(const)
        return h ^ (h >> np.uint32(16))

    return hashmix


def _philox_keys(words: list) -> np.ndarray:
    """SeedSequence(key).generate_state(2, np.uint64) for a batch of 4-word keys.

    ``words`` holds the four key words, each an int or an array with one
    entry per key (at least one an array), all in [0, 2**32); the result has
    shape (n_keys, 2).
    """
    words = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint32) for w in words))
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    output = _hashmixer(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (output(w).astype(np.uint64) for w in pool)
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=-1)


def _keyed_generators(master_seed: int, channel: int, index, subindex):
    """Generators in the start state of RngStream(...).generator(), key by key.

    One of ``index`` and ``subindex`` is a sorted sequence of keys (a ``range``,
    a list or an integer array), the other an int; key k takes the sequence's
    k-th entry.  A generator is valid until the next one is requested: on the
    vectorized route it is one Philox, reset to each key.  Keys past uint32 take
    the per-key route as exact Python ints.
    """
    words = [master_seed, channel, index, subindex]
    pos = next(p for p, w in enumerate(words) if not isinstance(w, (int, np.integer)))
    seq = words[pos]
    n = len(seq)
    fits = n > 0 and 0 <= seq[0] and seq[-1] <= _MASK32 and all(
        0 <= w <= _MASK32 for p, w in enumerate(words) if p != pos)
    if not fits:
        keys = [words[:pos] + [int(key)] + words[pos + 1:] for key in seq]
        return (RngStream(seed, i, ch, sub).generator() for seed, ch, i, sub in keys)
    words[pos] = np.arange(seq.start, seq.stop) if isinstance(seq, range) else seq
    return _reset_to_each(_philox_keys(words).tolist())


def _reset_to_each(philox_keys: list):
    """Yield one Generator whose Philox is reset to each key in turn."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # the full state of a fresh Philox; lists set faster than arrays
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in philox_keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


# Held by every per-key loop, so that threads take turns at the per-path draws.
_DRAW_LOCK = threading.Lock()
_GAP_BLOCK = 6  # exponential gaps drawn per path in the first pass of a jump batch


def _normal_batch(grid: TimeGrid, count: int, generators) -> SamplePath:
    """One Brownian path of N(0, dt) increments for each of ``count`` generators."""
    inc = np.empty((count, grid.n_steps))
    with _DRAW_LOCK:
        for row, gen in zip(inc, generators):
            gen.standard_normal(out=row)
    inc *= np.sqrt(grid.dt)
    return SamplePath(grid, inc)


def _fair_signs(gen: np.random.Generator, n: int) -> list:
    """``gen.integers(0, 2, size=n) * 2.0 - 1.0`` bit for bit, as a list of floats.

    integers draws a range of 2 by Lemire's method on the generator's uint32s,
    which keeps the top bit of each; Philox hands out the low half of a 64-bit
    word, then the high half.  So the k-th mark is bit 31, then bit 63, of the
    raw words, read without the per-call cost of integers (~5 us, most of it a
    Python-level size computation).
    """
    out = []
    for word in gen.bit_generator.random_raw((n + 1) // 2).tolist():
        out += (float(word >> 30 & 2) - 1.0, float(word >> 62 & 2) - 1.0)
    return out[:n]


def _jump_batch(grid: TimeGrid, master_seed: int, start: int, count: int,
                channel: int, signed: bool, drift: float) -> Particles:
    """The jumps of each path as particles: unit marks, or fair +-1 marks when
    ``signed``; ``drift`` is the path's increment between jumps."""
    gaps = np.empty((count, _GAP_BLOCK))
    with _DRAW_LOCK:
        for row, gen in zip(gaps, _keyed_generators(master_seed, channel,
                                                    range(start, start + count), 0)):
            gen.standard_exponential(out=row)
    # _jump_step_indices on every row at once, up to the block's last gap
    arrivals = np.cumsum(gaps, axis=1)
    order = np.arange(_GAP_BLOCK)
    snapped = np.maximum(np.ceil(arrivals / grid.dt - 1e-9) - order, 1)
    steps = order + np.maximum.accumulate(snapped, axis=1)
    kept = (arrivals <= grid.horizon) & (steps <= grid.n_steps)  # a prefix of each row
    n_kept = kept.sum(axis=1)
    unstopped = n_kept == _GAP_BLOCK  # drawn again, gap by gap
    kept[unstopped] = False
    rows, cols = np.nonzero(kept)
    steps = steps[rows, cols].astype(np.intp) - 1
    signs = []  # the marks of the kept jumps, in their order, when signed
    redrawn = []  # (row, steps, marks) of each path drawn gap by gap
    redo = np.flatnonzero(n_kept > 0 if signed else unstopped)
    keys = start + redo if start + count <= _MASK32 else [start + int(i) for i in redo]
    with _DRAW_LOCK:
        for i, gen in zip(redo, _keyed_generators(master_seed, channel, keys, 0)):
            if unstopped[i]:
                idx = np.asarray(_jump_step_indices(gen, grid), dtype=np.intp) - 1
                redrawn.append((i, idx, _fair_signs(gen, idx.size) if signed else 1.0))
            else:  # replay the gaps, up to the one past the stop, then draw the marks
                gen.standard_exponential(n_kept[i] + 1)
                signs += _fair_signs(gen, n_kept[i])
    marks = np.array(signs) if signed else np.ones(rows.size)
    if redrawn:  # merged in by row; a row's steps come from one route, in order
        rows = np.concatenate([rows] + [np.full(idx.size, i) for i, idx, _ in redrawn])
        by_row = np.argsort(rows, kind="stable")
        rows = rows[by_row]
        steps = np.concatenate([steps] + [idx for _, idx, _ in redrawn])[by_row]
        marks = np.concatenate([marks] + [np.broadcast_to(m, idx.shape)
                                          for _, idx, m in redrawn])[by_row]
    return Particles((count,), rows, steps, marks, drift)


def brownian_batch(
    grid: TimeGrid, master_seed: int, start: int, count: int, channel: int = CHANNEL_BROWNIAN
) -> SamplePath:
    gens = _keyed_generators(master_seed, channel, range(start, start + count), 0)
    return _normal_batch(grid, count, gens)


def brownian_rows(grid: TimeGrid, master_seed: int, indices) -> SamplePath:
    """The rows ``indices`` (sorted path indices) of a Brownian batch, drawn alone."""
    indices = np.asarray(indices, dtype=np.intp)
    gens = _keyed_generators(master_seed, CHANNEL_BROWNIAN, indices, 0)
    return _normal_batch(grid, indices.size, gens)


def inner_hat_batch(grid: TimeGrid, master_seed: int, outer_index: int, count: int) -> SamplePath:
    """Batch of independent Brownian copies keyed (seed, outer index, inner index)."""
    gens = _keyed_generators(master_seed, CHANNEL_HAT, outer_index, range(1, count + 1))
    return _normal_batch(grid, count, gens)


def compensated_poisson_batch(grid: TimeGrid, master_seed: int, start: int, count: int) -> SamplePath:
    return SamplePath(grid, particles=_jump_batch(grid, master_seed, start, count,
                                                  CHANNEL_POISSON, signed=False, drift=-grid.dt))


def compound_poisson_batch(grid: TimeGrid, master_seed: int, start: int, count: int) -> SamplePath:
    return SamplePath(grid, particles=_jump_batch(grid, master_seed, start, count,
                                                  CHANNEL_COMPOUND, signed=True, drift=0.0))


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
        raise ConfigurationError(f"unknown driver kind {kind!r}") from None
