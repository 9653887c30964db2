"""Batch reductions one row block at a time: every row of a batch reduces as that
path alone does, at every block boundary, and a batch holds no paths x steps
temporary beyond its drivers."""

import math
import tracemalloc

import numpy as np
import pytest

from lentparticle import chaos
from lentparticle.chaos import (
    RotatedChaos,
    _partition_table,
    exponential_vector,
    iterated_integrals,
)
from lentparticle.drivers import inner_hat_batch, martingale_batch, rotate
from lentparticle.experiments import make_config, run_experiment
from lentparticle.functionals import make_functional
from lentparticle.grid import ROW_BLOCK, SamplePath, TimeGrid
from lentparticle.kernels import ChaosVector, SimplexKernel
from lentparticle.stepfn import StepFunction

SEED = 43
GRID = TimeGrid(1.0, 24)
ONE = StepFunction.constant(1.0, 1.0)
H = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
G = StepFunction((0.25, 1.0), (-1.0,))
# covariance-decay's h = 1 power kernels, whose blocks of every size have byte-equal
# weights, next to a higher power and a kernel of two factor classes
KERNELS = (*(SimplexKernel.power(ONE, n) for n in (1, 2, 3)),
           SimplexKernel.power(H, 4, weight=0.9), SimplexKernel(3, (H, G, G), weight=1.3))
F = ChaosVector(0.25, KERNELS + tuple(make_functional("three-term").kernels))
ANGLES = (0.0, 1e-3, 0.7, math.pi / 2, -2.0)
# around each block boundary, and a batch selected from a larger one
SIZES = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, "selected"]


def _batch(kind: str, size, start: int = 0) -> SamplePath:
    """A driver batch of ``size`` rows, or every other row of 2 * ROW_BLOCK + 2 rows."""
    count = 2 * ROW_BLOCK + 2 if size == "selected" else size
    batch = (inner_hat_batch(GRID, SEED, start, count) if kind == "brownian-copy"
             else martingale_batch(kind, GRID, SEED, start, count))
    return batch.select(np.arange(count) % 2 == 1) if size == "selected" else batch


def _unbuilt(path: SamplePath) -> bool:
    return path._increments is None


def _assert_rows_alone(batch_values, alone):
    """Each row of each batch value is, bit for bit, that value on its path alone."""
    for i in range(len(batch_values[0])):
        for got, want in zip(batch_values, alone(i), strict=True):
            assert np.shape(want) == ()
            assert got[i].tobytes() == want.tobytes(), i


class TestSamplePathBlocks:
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_a_driver_block_is_its_increments_rows(self, kind):
        lazy = martingale_batch(kind, GRID, SEED, 0, 2 * ROW_BLOCK + 1)
        built = martingale_batch(kind, GRID, SEED, 0, 2 * ROW_BLOCK + 1).increments
        for start, stop in [(0, 1), (0, ROW_BLOCK), (ROW_BLOCK, 2 * ROW_BLOCK),
                            (2 * ROW_BLOCK, 2 * ROW_BLOCK + 1), (3, 300)]:
            rows = slice(start, stop)
            assert lazy.block(rows).tobytes() == built[rows].tobytes()
        assert _unbuilt(lazy)
        single = lazy.select(7)
        assert single.shape == () and single.block(slice(0, 1)).tobytes() == built[7].tobytes()
        assert _unbuilt(single)

    def test_a_built_block_is_a_view(self):
        path = martingale_batch("brownian", GRID, SEED, 0, 300)
        assert np.shares_memory(path.block(slice(256, 300)), path.increments)


class TestRowsAlone:
    """Every blocked function, on each batch, against the function on each path alone."""

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    def test_rotated_chaos(self, kind, size):
        B, M = _batch("brownian", size), _batch(kind, size)
        rotated = RotatedChaos(F, B, M)
        values = [rotated(theta) for theta in ANGLES] + rotated.integrals(0.7)
        assert kind == "brownian-copy" or _unbuilt(M)

        def alone(i):
            single = RotatedChaos(F, B.select(i), M.select(i))
            return [single(theta) for theta in ANGLES] + single.integrals(0.7)

        _assert_rows_alone(values, alone)

    @pytest.mark.parametrize("size", SIZES)
    def test_mehler_rotation_of_one_path_against_hats(self, size):
        # mehler's route: one outer path, broadcast against a batch of Brownian copies
        outer = martingale_batch("brownian", GRID, SEED, 5, 1).select(0)
        hats = _batch("brownian-copy", size, start=5)
        rotated = RotatedChaos(F, outer, hats)
        values = [rotated(theta) for theta in ANGLES]

        def alone(i):
            single = RotatedChaos(F, outer, hats.select(i))
            return [single(theta) for theta in ANGLES]

        _assert_rows_alone(values, alone)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", ["brownian", "poisson", "compound"])
    def test_iterated_integrals(self, kind, size):
        path = _batch(kind, size)
        values = iterated_integrals(KERNELS, path)
        assert kind == "brownian" or _unbuilt(path)
        _assert_rows_alone(values, lambda i: iterated_integrals(KERNELS, path.select(i)))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_iterated_integrals_of_a_rotation(self, kind, size):
        # isometry's fourth driver: each row block of rotate(B, N, 0.7) is read off B's
        # rows and N's list, and neither the rotation nor N builds its dense increments
        B, M = _batch("brownian", size), _batch(kind, size)
        rotated = rotate(B, M, 0.7)
        values = iterated_integrals(KERNELS, rotated)
        assert _unbuilt(rotated) and _unbuilt(M)
        _assert_rows_alone(values, lambda i: iterated_integrals(
            KERNELS, rotate(B.select(i), M.select(i), 0.7)))
        assert _unbuilt(rotated) and _unbuilt(M)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    def test_exponential_vector(self, kind, size):
        B, M = _batch("brownian", size), _batch(kind, size)
        values = exponential_vector(H, B, M, ANGLES)
        assert kind == "brownian-copy" or _unbuilt(M)
        _assert_rows_alone(values, lambda i: exponential_vector(H, B.select(i), M.select(i),
                                                                ANGLES))


def whole_batch_mixed_sums(weights, b, m):
    """The mixed sums as one pass over the whole batch, each power a batch array."""
    top = max(k for k, _ in weights.values())
    bpow, mpow = chaos._powers(b, top), chaos._powers(m, top)
    out = {}
    for key, (k, w) in weights.items():
        if k == 1:
            out[key] = [np.einsum("...j,j->...", m, w), np.einsum("...j,j->...", b, w)]
            continue
        pairs = [(mpow[k - 1], m)] + [(bpow[a], mpow[k - a]) for a in range(1, k)]
        pairs.append((bpow[k - 1], b))
        out[key] = [np.einsum("...j,...j,j->...", x, y, w) for x, y in pairs]
    return out


def whole_batch_particle_sums(weights, b, jumps):
    """The particle route's sums as one pass over the whole batch: its power sums
    sum_j w b^a two-operand and cached per (w's bytes, a), its pure-b sums apart."""
    top = max(k for k, _ in weights.values())
    d, n = jumps.drift, b.shape[-1]
    bpow = chaos._powers(b, top)
    b_at = b.reshape(-1, n)[jumps.rows, jumps.steps]
    bpow_at = [np.ones_like(b_at)] + chaos._powers(b_at, top)[1:]
    m_at, shift, jump_terms = d + jumps.marks, d, [None]
    for m_r in chaos._powers(m_at, top + 1)[1:]:
        jump_terms.append(m_r - shift)
        shift = shift * d
    power_sums, out = {}, {}
    for key, (k, w) in weights.items():
        sums, w_at, shift = [], w[jumps.steps], d
        for a in range(k - 1, -1, -1):
            terms = w_at * bpow_at[a] * jump_terms[k - a]
            S = np.bincount(jumps.rows, weights=terms, minlength=len(b))
            if d:
                tag = (w.tobytes(), a)
                if tag not in power_sums:
                    power_sums[tag] = (np.einsum("...j,j->...", bpow[a], w) if a
                                       else math.fsum(w))
                S = shift * power_sums[tag] + S
                shift = shift * d
            sums.append(S)
        sums.reverse()
        sums.append(np.einsum("...j,j->...", b, w) if k == 1
                    else np.einsum("...j,...j,j->...", bpow[k - 1], b, w))
        out[key] = sums
    return out


class TestSumsOfTheWholeBatch:
    """The blocked sums are the whole-batch sums bit for bit, each in its einsum form."""

    @staticmethod
    def _weights(kernels):
        """{block key: (block size, block weight)} of the kernels, as RotatedChaos builds it."""
        weights = {}
        for kernel in kernels:
            classes, full, gvals = chaos._factor_classes(kernel, GRID)
            for _, types in _partition_table(full):
                for counts in types:
                    w = np.ones(GRID.n_steps)
                    for g, k in zip(gvals, counts):
                        for _ in range(k):
                            w = w * g
                    weights[frozenset((classes[c], k) for c, k in enumerate(counts) if k)] = (
                        sum(counts), w)
        return weights

    @pytest.mark.parametrize("kernels", [KERNELS[:3], KERNELS], ids=["h=1, orders 1-3", "all"])
    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    def test_blocked_sums_are_the_whole_batch_sums(self, kind, kernels):
        size = 2 * ROW_BLOCK + 1
        B, M = _batch("brownian", size), _batch(kind, size)
        weights = self._weights(kernels)
        if kind == "brownian-copy":
            got = chaos._mixed_sums(weights, B, M, (size,))
            want = whole_batch_mixed_sums(weights, B.increments, M.increments)
        else:
            got = chaos._particle_sums(weights, B, M.particles, (size,))
            assert _unbuilt(M)
            want = whole_batch_particle_sums(weights, B.increments, M.particles)
        assert list(got) == list(want)
        for key in want:
            for S, T in zip(got[key], want[key], strict=True):
                assert S.tobytes() == T.tobytes(), key


class TestBatchMemory:
    """One 4096-path batch at 500 steps holds its drivers and block-sized temporaries:
    a tracemalloc peak within 1.25 times the bytes of its Brownian increments."""

    BROWNIAN_BYTES = 4096 * 500 * 8

    @pytest.mark.parametrize("name", ["covariance-decay", "chaos-energy",
                                      "exp-vector-covariance"])
    def test_one_batch_peaks_near_its_brownian_bytes(self, name):
        run_experiment(make_config(name, n_paths=16, n_steps=500, workers=1))  # first calls
        cfg = make_config(name, n_paths=4096, n_steps=500, workers=1)
        assert cfg.grid.batch_rows == 4096
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * self.BROWNIAN_BYTES, peak / self.BROWNIAN_BYTES

    def test_iterated_integrals_leave_a_jump_driver_unbuilt(self):
        N = martingale_batch("poisson", TimeGrid(1.0, 1000), SEED, 0, 2048)
        (value,) = iterated_integrals([SimplexKernel.power(ONE, 2)], N)
        assert value.shape == (2048,)
        assert N._increments is None
