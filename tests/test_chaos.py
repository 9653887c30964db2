import dataclasses
import itertools
import math
import operator
from collections import Counter

import numpy as np
import pytest

from lentparticle import chaos
from lentparticle.chaos import (
    RotatedChaos,
    chaotic_extension,
    evaluate_chaos,
    exponential_vector,
    iterated_integral,
    iterated_integrals,
    stochastic_integral,
)
from lentparticle.drivers import (
    _cos_sin,
    add_unit_jump,
    inner_hat_batch,
    martingale_batch,
    rotate,
)
from lentparticle.errors import ConfigurationError
from lentparticle.experiments import make_config, run_experiment
from lentparticle.functionals import evaluate_functional, make_functional, make_square
from lentparticle.gradients import chaos_gradient_contraction
from lentparticle.grid import SamplePath, TimeGrid
from lentparticle.kernels import MAX_ORDER, ChaosVector, SimplexKernel
from lentparticle.stepfn import StepFunction

SEED = 31


def brute_force_integral(kernel: SimplexKernel, path: SamplePath) -> float:
    """Independent oracle: explicit sum over ordered index tuples and factor
    orderings, I_n(sym g_1 x ... x g_n) = sum_{j_1<...<j_n} sum_perm
    prod_i g_{perm(i)}(t_{j_i}) dX_{j_i}."""
    grid = path.grid
    inc = path.increments
    gvals = [g.on_grid(grid) for g in kernel.factors]
    n = kernel.order
    total = 0.0
    for combo in itertools.combinations(range(grid.n_steps), n):
        dx = math.prod(inc[j] for j in combo)
        for perm in itertools.permutations(range(n)):
            total += dx * math.prod(gvals[perm[i]][combo[i]] for i in range(n))
    return kernel.weight * total


def _drivers(kind, grid, count):
    """A Brownian batch and a martingale batch of the given kind on the same keys."""
    B = martingale_batch("brownian", grid, SEED, 0, count)
    if kind == "brownian-copy":
        return B, inner_hat_batch(grid, SEED, 0, count)
    return B, martingale_batch(kind, grid, SEED, 0, count)


@pytest.fixture
def tiny_path():
    grid = TimeGrid(1.0, 8)
    inc = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.6, -0.1])
    return SamplePath(grid, inc)


class TestIteratedIntegral:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_power_kernel_vs_brute_force(self, tiny_path, order):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -2.0))
        k = SimplexKernel.power(h, order, weight=0.7)
        assert iterated_integral(k, tiny_path) == pytest.approx(
            brute_force_integral(k, tiny_path), rel=1e-12
        )

    def test_distinct_factors_vs_brute_force(self, tiny_path):
        g1 = StepFunction.constant(1.0, 1.0)
        g2 = StepFunction((0.0, 0.5, 1.0), (2.0, 0.5))
        g3 = StepFunction((0.25, 1.0), (-1.0,))
        # eight distinct factors: the 8-step path leaves one index tuple and
        # all 40320 orderings
        distinct = tuple(StepFunction((0.0, 0.5, 1.0), (1.0 + i, 0.5 - 0.3 * i)) for i in range(8))
        for factors in [(g1, g2), (g1, g2, g3), (g1, g1, g2), (g1, g2, g1, g3),
                        (g2, g2, g2, g3), (g1, g2, g1, g3, g2), (g3, g1, g3, g3, g1),
                        distinct]:
            k = SimplexKernel(len(factors), factors, weight=0.7)
            assert iterated_integral(k, tiny_path) == pytest.approx(
                brute_force_integral(k, tiny_path), rel=1e-12
            ), factors

    @pytest.mark.parametrize("kind", ["brownian", "poisson", "compound"])
    def test_bit_identical_to_simplex_chain(self, kind):
        # Power kernels and the order-2 kernel of two distinct factors are the
        # plain simplex chain (the sum of its two orderings), bit for bit.
        def chain(gvals, inc):
            J = np.ones(inc.shape[:-1] + (inc.shape[-1] + 1,))
            zero = np.zeros(inc.shape[:-1] + (1,))
            for g in gvals:
                contrib = J[..., :-1] * g * inc
                J = np.concatenate([zero, np.cumsum(contrib, axis=-1)], axis=-1)
            return J[..., -1]

        grid = TimeGrid(1.0, 200)
        batch = martingale_batch(kind, grid, SEED, 0, 40)
        h = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
        kernels = [SimplexKernel.power(h, n, weight=0.9) for n in range(1, MAX_ORDER + 1)]
        kernels += make_functional("three-term").kernels
        kernels += [r for k in kernels for _, r in k.contractions() if r.order > 0]
        for path in (batch, batch.select(7)):
            for k in kernels:
                gvals = [g.on_grid(grid) for g in k.factors]
                if all(f == k.factors[0] for f in k.factors):
                    expected = k.weight * math.factorial(k.order) * chain(gvals, path.increments)
                else:
                    assert k.order == 2
                    expected = k.weight * (
                        chain(gvals, path.increments) + chain(gvals[::-1], path.increments)
                    )
                got = iterated_integral(k, path)
                assert type(got) is type(expected)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), k

    def test_order_zero_is_constant(self, tiny_path):
        assert iterated_integral(SimplexKernel(0, (), weight=2.5), tiny_path) == 2.5

    def test_discrete_power_sum_identities(self, brownian):
        # With g = 1 the recursion reduces to elementary symmetric polynomials
        # of the increments: I_2 = s1^2 - s2, I_3 = s1^3 - 3 s1 s2 + 2 s3.
        one = StepFunction.constant(1.0, 1.0)
        d = brownian.increments
        s1, s2, s3 = d.sum(), (d**2).sum(), (d**3).sum()
        i2 = iterated_integral(SimplexKernel.power(one, 2), brownian)
        i3 = iterated_integral(SimplexKernel.power(one, 3), brownian)
        assert i2 == pytest.approx(s1**2 - s2, rel=1e-10)
        assert i3 == pytest.approx(s1**3 - 3 * s1 * s2 + 2 * s3, rel=1e-10)

    def test_batch_matches_per_path(self, unit_grid):
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 5)
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        k = SimplexKernel.power(h, 2)
        batched = iterated_integral(k, batch)
        singles = [iterated_integral(k, batch.select(i)) for i in range(5)]
        np.testing.assert_allclose(batched, singles, rtol=1e-12)

    def test_isometry_small_monte_carlo(self, unit_grid):
        n = 4000
        g1 = StepFunction.constant(1.0, 1.0)
        g2 = StepFunction((0.0, 0.5, 1.0), (2.0, 0.5))
        k = SimplexKernel(2, (g1, g2))
        batch = martingale_batch("brownian", unit_grid, SEED, 0, n)
        sq = iterated_integral(k, batch) ** 2
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - k.isometry_target) < 5 * se


class TestIteratedIntegrals:
    # One walk per class list: each kernel reads what it reads alone.
    @staticmethod
    def _paths(kind, grid):
        if kind == "rotation":
            B, N = _drivers("poisson", grid, 12)
            return rotate(B, N, 0.7)
        return martingale_batch(kind, grid, SEED, 0, 12)

    @staticmethod
    def _counting_transitions(monkeypatch):
        """Counts of the walk's transitions: cumsums, and einsums for final states."""
        calls = Counter()
        for name in ("cumsum", "einsum"):
            def counted(*args, _name=name, _original=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["brownian", "poisson", "compound", "rotation"])
    def test_each_kernel_reads_its_one_kernel_walk(self, kind):
        grid = TimeGrid(1.0, 120)
        h = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
        g = StepFunction((0.25, 1.0), (-1.0,))
        chains = [SimplexKernel.power(h, n, weight=0.9 - 0.2 * n) for n in range(5)]
        kernels = chains + [
            SimplexKernel(3, (h, g, g), weight=1.3),
            SimplexKernel(3, (g, h, h), weight=-0.4),
            SimplexKernel.power(h, 2, weight=chains[2].weight),  # equal to chains[2]
            SimplexKernel(2, (h, g), weight=2.0),
            SimplexKernel(3, (h, g, g), weight=1.3),
            SimplexKernel(3, (h, h, g)),
        ]
        batch = self._paths(kind, grid)
        for path in (batch, batch.select(5)):
            together = iterated_integrals(kernels, path)
            assert len(together) == len(kernels)
            for kernel, got in zip(kernels, together):
                alone = iterated_integrals((kernel,), path)[0]
                assert type(got) is type(alone), kernel
                assert np.asarray(got).tobytes() == np.asarray(alone).tobytes(), kernel
                assert np.asarray(iterated_integral(kernel, path)).tobytes() == (
                    np.asarray(alone).tobytes())

    def test_no_kernels_give_no_values(self, brownian):
        assert iterated_integrals((), brownian) == []

    def test_chaos_vector_of_one_chain_takes_one_walk(self, unit_grid, monkeypatch):
        path = martingale_batch("brownian", unit_grid, SEED, 0, 8)
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        F = ChaosVector(0.0, tuple(SimplexKernel.power(h, n) for n in (1, 2, 3)))
        calls = self._counting_transitions(monkeypatch)
        evaluate_chaos(F, path)
        # one chain to order 3, not 1 + 2 + 3 steps; only the last step is final
        assert calls == {"cumsum": 2, "einsum": 1}

    def test_contraction_copies_are_read_once(self, unit_grid, monkeypatch):
        # power(h, 3).contractions() holds three equal order-2 kernels
        B, N = _drivers("poisson", unit_grid, 8)
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        F = ChaosVector(0.0, (SimplexKernel.power(h, 3),))
        calls = self._counting_transitions(monkeypatch)
        chaos_gradient_contraction(F, B, N)
        assert calls == {"cumsum": 1, "einsum": 1}

    def test_class_lists_walk_apart_and_share_only_reached_states(self, unit_grid, monkeypatch):
        path = martingale_batch("compound", unit_grid, SEED, 0, 4)
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        g = StepFunction.constant(0.5, 1.0)
        calls = self._counting_transitions(monkeypatch)
        # (h, g, g) and (g, h, h) list their classes in opposite orders: 7 steps each,
        # 2 of them into the final state
        iterated_integrals([SimplexKernel(3, (h, g, g)), SimplexKernel(3, (g, h, h))], path)
        assert calls == {"cumsum": 10, "einsum": 4}
        calls.clear()
        # counts (1, 2) and (2, 1) on one class list: the walk never builds (2, 2)
        iterated_integrals([SimplexKernel(3, (h, g, g)), SimplexKernel(3, (h, h, g))], path)
        assert calls == {"cumsum": 6, "einsum": 4}


def reference_walk(kernel: SimplexKernel, path: SamplePath):
    """I_n(f_n) off the full cumulative-sum array of every state, final states
    included, visited in the order of ``iterated_integrals``."""
    classes = list(dict.fromkeys(kernel.factors))
    full = tuple(map(kernel.factors.count, classes))
    gvals = [g.on_grid(path.grid) for g in classes]
    inc = path.increments
    zero = np.zeros(inc.shape[:-1] + (1,))
    level = {(0,) * len(classes): np.ones(inc.shape[-1] + 1)}
    for _ in range(kernel.order):
        nxt = {}
        for m, J in level.items():
            for c, g in enumerate(gvals):
                target = m[:c] + (m[c] + 1,) + m[c + 1 :]
                if all(map(operator.le, target, full)):
                    out = np.concatenate([zero, np.cumsum(J[..., :-1] * g * inc, axis=-1)],
                                         axis=-1)
                    nxt[target] = out + nxt[target] if target in nxt else out
        level = nxt
    return kernel.weight * math.prod(map(math.factorial, full)) * level[full][..., -1]


class TestFinalStateReduction:
    # A final state is one reduction, not a cumulative sum: the same bits.
    H = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
    G = StepFunction((0.25, 1.0), (-1.0,))
    KERNELS = [
        SimplexKernel.power(H, 1, weight=0.7),  # level 0 is final
        SimplexKernel.power(H, 3, weight=0.9),
        SimplexKernel(2, (H, G), weight=2.0),  # (1, 1) reached from (1, 0) and (0, 1)
        SimplexKernel(3, (H, G, G), weight=1.3),
        SimplexKernel(3, (G, H, StepFunction.constant(0.5, 1.0))),
    ]

    @staticmethod
    def _paths():
        grid = TimeGrid(1.0, 90)
        batch = martingale_batch("compound", grid, SEED, 0, 12)
        rows = np.random.default_rng(SEED).standard_normal((2, 3, 90))
        return [batch, batch.select(5), batch.select(slice(3, 4)),
                martingale_batch("poisson", grid, SEED, 0, 7), SamplePath(grid, rows)]

    @pytest.mark.parametrize("index", range(5))
    def test_bitwise_the_cumsum_chain(self, index):
        path = self._paths()[index]
        together = iterated_integrals(self.KERNELS, path)
        for kernel, got in zip(self.KERNELS, together):
            expected = reference_walk(kernel, path)
            assert type(got) is type(expected), kernel
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), kernel

    def test_a_row_of_negative_zero_products_reads_positive_zero(self):
        # g < 0 on a row without increments: every product is -0.0, which the
        # cumulative sum keeps and the reduction, starting from +0.0, does not
        grid = TimeGrid(1.0, 10)
        rows = np.random.default_rng(SEED).standard_normal((3, 10))
        rows[1] = 0.0
        path = SamplePath(grid, rows)
        kernel = SimplexKernel.power(StepFunction.constant(-2.0, 1.0), 1)
        got, expected = iterated_integral(kernel, path), reference_walk(kernel, path)
        assert np.array_equal(got, expected)
        assert np.signbit(expected[1]) and not np.signbit(got[1])
        assert got[[0, 2]].tobytes() == expected[[0, 2]].tobytes()


class TestRotatedChaos:
    # The power-sum route against the recursion and the brute-force oracle.
    # Its partition sum cancels more as the order grows, and most where the
    # values are small next to the power sums: near pi/2 a Poisson path with
    # fewer jumps than the order.  So the recursion test bounds each error by
    # the largest value on the batch over every tested kernel and angle, and
    # by each kernel's own values only at a generic angle: at pi/2, order 8
    # on jump paths reaches ~1e-6 of that angle's largest value.
    ANGLES = (1e-3, 0.7, math.pi / 2)

    @staticmethod
    def _kernels(order):
        h = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
        distinct = tuple(StepFunction((0.0, 0.5, 1.0), (1.0 + i, 0.5 - 0.3 * i))
                         for i in range(order))
        return [SimplexKernel.power(h, order, weight=0.9),
                SimplexKernel(order, distinct, weight=0.9)]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_vs_brute_force_on_rotated_increments(self, tiny_path, order, jump_path):
        g1 = StepFunction.constant(1.0, 1.0)
        g2 = StepFunction((0.0, 0.5, 1.0), (2.0, 0.5))
        g3 = StepFunction((0.25, 1.0), (-1.0,))
        jumps = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0])
        mart = jump_path(tiny_path.grid, jumps)
        factor_sets = [(g1,) * order, (g1, g2, g3, g2, g1)[:order], (g2, g3, g3, g1, g3)[:order]]
        for factors in factor_sets:
            F = ChaosVector(0.0, (SimplexKernel(order, factors, weight=0.7),))
            rotated = RotatedChaos(F, tiny_path, mart)
            for theta in (0.3, -1e-3, 2.0):
                (got,) = rotated.integrals(theta)
                expected = brute_force_integral(F.kernels[0], rotate(tiny_path, mart, theta))
                assert got == pytest.approx(expected, rel=1e-12), (factors, theta)

    @pytest.mark.parametrize("kind", ["brownian-copy", "poisson", "compound"])
    def test_matches_the_recursion_on_rotated_paths(self, kind):
        grid = TimeGrid(1.0, 200)
        B, M = _drivers(kind, grid, 40)
        pairs = []
        for order in range(1, MAX_ORDER + 1):
            for kernel in self._kernels(order):
                F = ChaosVector(0.25, (kernel,))
                rotated = RotatedChaos(F, B, M)
                for theta in self.ANGLES:
                    pairs.append(((order, theta), rotated(theta),
                                  evaluate_chaos(F, rotate(B, M, theta))))
        scale = max(np.max(np.abs(e)) for _, _, e in pairs)
        for label, got, expected in pairs:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-11 * scale, label
            if label[1] == 0.7:  # away from the axes, each kernel against its own values
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_several_kernels_share_the_sums(self):
        grid = TimeGrid(1.0, 200)
        B, M = _drivers("poisson", grid, 40)
        F = make_functional("three-term")
        rotated = RotatedChaos(F, B, M)
        for theta in self.ANGLES:
            values = rotated.integrals(theta)
            Y = rotate(B, M, theta)
            for value, kernel in zip(values, F.kernels):
                np.testing.assert_allclose(value, iterated_integral(kernel, Y),
                                           rtol=0, atol=1e-12)
            assert np.array_equal(rotated(theta), F.constant + sum(values))

    @pytest.mark.parametrize("kind", ["brownian-copy", "poisson", "compound"])
    def test_each_row_is_its_path_alone(self, kind):
        grid = TimeGrid(1.0, 200)
        B, M = _drivers(kind, grid, 12)
        F = ChaosVector(0.5, tuple(make_functional("three-term").kernels) + tuple(
            k for n in (4, 6) for k in self._kernels(n)))
        batch = RotatedChaos(F, B, M)
        for i in (0, 5, 11):
            single = RotatedChaos(F, B.select(i), M.select(i))
            outer = RotatedChaos(F, B.select(i), M)  # one Brownian path, a batch of M
            for theta in self.ANGLES + (-0.7,):
                assert batch(theta)[i].tobytes() == single(theta).tobytes()
                assert outer(theta)[i].tobytes() == single(theta).tobytes()
            for got, alone in zip(batch.integrals(0.7), single.integrals(0.7)):
                assert got[i].tobytes() == alone.tobytes()

    def test_angle_zero_reads_the_brownian_path(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 6)
        M = martingale_batch("compound", unit_grid, SEED, 0, 6)
        F = make_functional("three-term")
        rotated = RotatedChaos(F, B, M)
        np.testing.assert_allclose(rotated(0.0), evaluate_chaos(F, B), rtol=1e-12)
        np.testing.assert_allclose(rotated(math.pi / 2), evaluate_chaos(F, M),
                                   rtol=0, atol=1e-12)

    def test_order_zero_and_constant(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 3)
        M = martingale_batch("poisson", unit_grid, SEED, 0, 3)
        F = ChaosVector(1.5, (SimplexKernel(0, (), weight=2.0),))
        rotated = RotatedChaos(F, B, M)
        assert [v.tolist() for v in rotated.integrals(0.4)] == [[2.0] * 3]
        assert rotated(0.4).tolist() == [3.5] * 3
        assert RotatedChaos(F, B.select(0), M.select(0))(0.4) == 3.5

    def test_rejects_a_grid_mismatch_and_a_bad_angle(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 3)
        other = martingale_batch("poisson", TimeGrid(1.0, 7), SEED, 0, 3)
        F = make_functional("second-chaos")
        with pytest.raises(ConfigurationError):
            RotatedChaos(F, B, other)
        with pytest.raises(ConfigurationError, match="finite"):
            RotatedChaos(F, B, B)(math.nan)

    def test_rejects_unpaired_shapes(self, unit_grid):
        # (3,) against (2, 3): neither one shape nor a single path against a batch
        B = martingale_batch("brownian", unit_grid, SEED, 0, 3)
        M = martingale_batch("compound", unit_grid, SEED, 0, 6)
        M = SamplePath(unit_grid, particles=dataclasses.replace(M.particles, shape=(2, 3)))
        with pytest.raises(ConfigurationError, match=r"\(3,\) and \(2, 3\)"):
            RotatedChaos(make_functional("second-chaos"), B, M)


class TestParticleRoute:
    """RotatedChaos on a driver's particle list against the dense mixed sums of the
    same path, handed over as its increments alone; the recursion tests above read the
    list route too, since their jump drivers carry one."""

    ANGLES = (0.0, math.pi / 2, 0.7)

    @staticmethod
    def _functional():
        kernels = TestRotatedChaos._kernels
        return ChaosVector(0.25, tuple(make_functional("three-term").kernels)
                           + tuple(k for n in range(1, 6) for k in kernels(n)))

    @classmethod
    def _largest_gap(cls, F, B, M, particles):
        """max |list route - dense route| over kernels and angles, over the largest |value|."""
        dense = RotatedChaos(F, B, SamplePath(M.grid, M.increments))
        listed = RotatedChaos(F, B, SamplePath(M.grid, particles=particles))
        pairs = [(got, want) for theta in cls.ANGLES
                 for got, want in zip(listed.integrals(theta), dense.integrals(theta))]
        scale = max(np.max(np.abs(want)) for _, want in pairs)
        return max(np.max(np.abs(got - want)) for got, want in pairs) / scale

    @pytest.mark.parametrize("rows", ["all", "jump-free"])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_matches_the_dense_sums(self, monkeypatch, kind, rows):
        grid = TimeGrid(1.0, 200)
        B, M = _drivers(kind, grid, 64)
        counts = M.particles.counts()
        assert set(np.minimum(counts, 3).tolist()) == {0, 1, 2, 3}
        if rows == "jump-free":
            B, M = B.select(counts == 0), M.select(counts == 0)
            assert M.particles.rows.size == 0 and M.increments.shape[0] > 0
        F = self._functional()
        dense_sums = chaos._mixed_sums

        def dense_only_without_a_list(weights, b, m):
            raise AssertionError("a driver path took the dense route")

        monkeypatch.setattr(chaos, "_mixed_sums", dense_only_without_a_list)
        listed = RotatedChaos(F, B, M)
        monkeypatch.setattr(chaos, "_mixed_sums", dense_sums)
        assert listed(0.7).shape == (M.increments.shape[0],)
        assert self._largest_gap(F, B, M, M.particles) <= 1e-12

    def test_a_list_without_the_compensator_fails(self):
        grid = TimeGrid(1.0, 200)
        B, N = _drivers("poisson", grid, 64)
        assert N.particles.drift == -grid.dt
        dropped = dataclasses.replace(N.particles, drift=0.0)  # N~ read as N alone
        assert self._largest_gap(self._functional(), B, N, dropped) > 1e-3

    @pytest.mark.parametrize("how", ["hand-built", "rotated", "single-M-batch-B"])
    def test_other_martingales_take_the_dense_route(self, monkeypatch, how):
        grid = TimeGrid(1.0, 50)
        B, M = _drivers("poisson", grid, 6)
        martingale = {"hand-built": SamplePath(grid, M.increments),
                      "rotated": rotate(B, M, 0.7), "single-M-batch-B": M.select(2)}[how]
        called = []

        def particle_sums(*args):
            called.append(1)

        monkeypatch.setattr(chaos, "_particle_sums", particle_sums)
        RotatedChaos(make_functional("three-term"), B, martingale)
        assert not called


class TestChaosEvaluation:
    def test_first_order_is_stochastic_integral(self, brownian):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        F = ChaosVector(2.0, (SimplexKernel(1, (h,)),))
        expected = 2.0 + stochastic_integral(h, brownian)
        assert evaluate_chaos(F, brownian) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1,), (255,), (257,), (4097,), (3, 130), ()])
    def test_stochastic_integral_is_bitwise_the_whole_array_sum(self, shape):
        grid = TimeGrid(1.0, 40)
        path = SamplePath(grid, np.random.default_rng(SEED).standard_normal(shape + (40,)))
        h = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
        got = stochastic_integral(h, path)
        expected = np.sum(h.on_grid(grid) * path.increments, axis=-1)
        assert type(got) is type(expected)
        assert np.shape(got) == shape
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_constant_integrand(self, brownian):
        g = StepFunction.constant(3.0, 1.0)
        assert stochastic_integral(g, brownian) == pytest.approx(
            3.0 * brownian.values[-1], rel=1e-12
        )

    def test_extension_at_zero_matches_brownian(self, unit_grid, brownian):
        # at TestRotatedChaos's bound: the extension reads power sums, not the recursion
        mart = martingale_batch("poisson", unit_grid, SEED, 0, 1).select(0)
        h = StepFunction.constant(1.0, 1.0)
        F = ChaosVector(0.0, (SimplexKernel.power(h, 2),))
        assert chaotic_extension(F, brownian, mart)(0.0) == pytest.approx(
            evaluate_chaos(F, brownian), rel=1e-12)

    def test_extension_rotation_covariance(self, unit_grid):
        # first chaos: F^theta = cos(theta) I_1(h; B) + sin(theta) I_1(h; M)
        B = martingale_batch("brownian", unit_grid, SEED, 0, 6)
        M = martingale_batch("poisson", unit_grid, SEED, 0, 6)
        h = StepFunction.constant(1.0, 1.0)
        F = ChaosVector(0.0, (SimplexKernel(1, (h,)),))
        theta = 0.6
        expected = math.cos(theta) * stochastic_integral(h, B) + math.sin(
            theta
        ) * stochastic_integral(h, M)
        np.testing.assert_allclose(
            chaotic_extension(F, B, M)(theta), expected, rtol=1e-12
        )

    def test_extension_is_the_rotation(self, unit_grid):
        # a chaos vector's extension is its RotatedChaos; any other functional is read
        # on each rotated path, bit for bit
        B = martingale_batch("brownian", unit_grid, SEED, 0, 6)
        M = martingale_batch("compound", unit_grid, SEED, 0, 6)
        F = make_functional("three-term")
        extension = chaotic_extension(F, B, M)
        assert isinstance(extension, RotatedChaos)
        for theta in (0.0, 1e-3, -0.7, math.pi / 2):
            assert extension(theta).tobytes() == RotatedChaos(F, B, M)(theta).tobytes()
        square = make_square(1.0)
        extension = chaotic_extension(square, B, M)
        for theta in (0.0, 1e-3, -0.7, math.pi / 2):
            expected = evaluate_functional(square, rotate(B, M, theta))
            assert extension(theta).tobytes() == expected.tobytes()


class TestExponentialVector:
    def test_brownian_only_closed_form(self, unit_grid, brownian):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -0.5))
        flat = SamplePath(unit_grid, np.zeros(unit_grid.n_steps))
        (value,) = exponential_vector(h, brownian, flat, [0.0])
        manual = math.exp(stochastic_integral(h, brownian) - 0.5 * h.norm_sq)
        assert value == pytest.approx(manual, rel=1e-12)

    def test_poisson_jump_product(self, jump_path):
        # Hand-built compensated Poisson path with jumps at steps 3 and 7.
        grid = TimeGrid(1.0, 10)
        jumps = np.zeros(10)
        jumps[2] = 1.0
        jumps[6] = 1.0
        mart = jump_path(grid, jumps, -grid.dt)
        flatB = SamplePath(grid, np.zeros(10))
        c = 0.4
        h = StepFunction.constant(c, 1.0)
        # theta = pi/2 reads the integrand against the martingale alone:
        # E_T = exp(-c T) (1 + c)^{N_T}
        (value,) = exponential_vector(h, flatB, mart, [math.pi / 2])
        assert value == pytest.approx(math.exp(-c) * (1 + c) ** 2, rel=1e-12)

    def test_zero_factor_flags(self, jump_path):
        grid = TimeGrid(1.0, 10)
        jumps = np.zeros(10)
        jumps[4] = 1.0
        mart = jump_path(grid, jumps, -grid.dt)
        flatB = SamplePath(grid, np.zeros(10))
        h = StepFunction.constant(-1.0, 1.0)  # factor 1 + h * jump = 0
        # the factor at the jump vanishes, so the value is 0 on this path
        assert exponential_vector(h, flatB, mart, [math.pi / 2]) == [0.0]

    def test_bracket_reads_h_on_the_horizon_only(self, unit_grid, brownian):
        # h reaches outside [0, T] on both sides; its bracket is int_0^T h^2
        h = StepFunction((-0.5, 0.5, 2.0), (1.0, -0.5))
        flat = SamplePath(unit_grid, np.zeros(unit_grid.n_steps))
        (value,) = exponential_vector(h, brownian, flat, [0.0])
        manual = math.exp(stochastic_integral(h, brownian) - 0.5 * (0.5 * 1.0 + 0.5 * 0.25))
        assert value == pytest.approx(manual, rel=1e-12)


def dense_exponential_vector(h, brownian, martingale, theta):
    """Reference: the per-angle closed product form at T, every step of every array."""
    c, s = np.cos(theta), np.sin(theta)
    hg = h.on_grid(brownian.grid)
    jumps = martingale.jump_increments
    if jumps is None:
        jumps = np.zeros_like(martingale.increments)
    cont = martingale.increments - jumps
    v_cont = c * np.sum(hg * brownian.increments, axis=-1) + s * np.sum(hg * cont, axis=-1)
    product = np.prod(1.0 + s * hg * jumps, axis=-1)
    return np.exp(v_cont - 0.5 * c**2 * h.norm_sq) * product


def two_function_exponential_vector(h, brownian, martingale, thetas):
    """The stochastic exponential of int h dY^theta + int h2 dY^{theta + pi/2} at T with
    h2 = 0, in plain numpy as the two-function form reduced it: four row sums, two of them
    against h2's zeros, and h's pieces merged with those of h2 = 0 on [0, T]."""
    grid = brownian.grid
    T, n = grid.horizon, grid.n_steps
    h1_g, h2_g = h.on_grid(grid), np.zeros(n)
    bp = np.unique(np.concatenate([h.breakpoints, (0.0, T)]))
    h1_left, h2_left = np.asarray(h(bp[:-1])), np.zeros(len(bp) - 1)
    widths = np.clip(np.minimum(bp[1:], T) - bp[:-1], 0.0, None)
    jumps = martingale.jump_increments
    cont = martingale.increments
    if jumps is not None:
        cont = cont - jumps
        jumps = jumps.reshape(-1, n)
        rows, steps = np.nonzero(jumps)
        sizes = jumps[rows, steps]
    sb1, sb2, sm1, sm2 = (np.einsum("...j,j->...", x, g)
                          for x in (brownian.increments, cont) for g in (h1_g, h2_g))
    out = []
    for theta in thetas:
        c, s = _cos_sin(theta)
        bracket = float(np.dot(widths, (c * h1_left + -s * h2_left) ** 2))
        value = np.exp(c * (sb1 + sm2) + s * (sm1 - sb2) - 0.5 * bracket)
        if jumps is not None:
            product = np.ones(len(jumps))
            np.multiply.at(product, rows, 1.0 + (s * h1_g + c * h2_g)[steps] * sizes)
            value = value * product.reshape(cont.shape[:-1])[()]
        out.append(value)
    return out


class TestExponentialVectorAngles:
    # Every angle from two row reductions and the list of jumps, against the
    # dense per-angle formula and the two-function form above.
    ANGLES = (0.0, 0.4, -1.1, math.pi / 3, math.pi / 2, 2.5)
    H = StepFunction((0.0, 0.3, 1.0), (0.9, -0.6))

    @staticmethod
    def _hand_drivers(jump_path):
        # three paths on 10 steps, with three jumps, none and two jumps
        grid = TimeGrid(1.0, 10)
        jumps = np.zeros((3, 10))
        jumps[0, [1, 4, 8]] = (0.7, -1.3, 2.1)
        jumps[2, [7, 8]] = (-0.45, 1.9)
        return SamplePath(grid, np.zeros((3, 10))), jump_path(grid, jumps)

    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    def test_matches_the_dense_formula(self, kind):
        grid = TimeGrid(1.0, 200)
        B, M = _drivers(kind, grid, 64)
        values = exponential_vector(self.H, B, M, self.ANGLES)
        assert len(values) == len(self.ANGLES)
        for theta, value in zip(self.ANGLES, values):
            dense = dense_exponential_vector(self.H, B, M, theta)
            np.testing.assert_allclose(value, dense, rtol=0,
                                       atol=1e-13 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    @pytest.mark.parametrize("h, horizon", [
        (H, 1.0), (StepFunction.constant(math.sqrt(2.0 / 2.5), 2.5), 2.5),
        (StepFunction((0.2, 0.6, 3.0), (1.3, -0.4)), 2.5)],
        ids=["two-piece", "constant", "from-inside-to-past-T"])
    @pytest.mark.parametrize("shape", [(64,), (), (2, 3)])
    def test_is_bitwise_the_two_function_form_at_h2_zero(self, kind, h, horizon, shape):
        grid = TimeGrid(horizon, 200)
        B, M = _drivers(kind, grid, math.prod(shape))
        # the flat rows of a list are those of any batch shape of as many paths
        B, M = (SamplePath(grid, p.increments.reshape(shape + (200,))) if p.particles is None
                else SamplePath(grid, particles=dataclasses.replace(p.particles, shape=shape))
                for p in (B, M))
        angles = (0.0, math.pi / 2, -1.0, 2.5, -math.pi / 2)
        got = exponential_vector(h, B, M, angles)
        want = two_function_exponential_vector(h, B, M, angles)
        for value, expected in zip(got, want):
            assert np.shape(value) == np.shape(expected) == shape
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    def test_each_row_is_its_path_alone(self, kind):
        grid = TimeGrid(1.0, 200)
        B, M = _drivers(kind, grid, 12)
        batch = exponential_vector(self.H, B, M, self.ANGLES)
        for i in (0, 5, 11):
            single = exponential_vector(self.H, B.select(i), M.select(i), self.ANGLES)
            outer = exponential_vector(self.H, B.select(i), M, self.ANGLES)
            for got, across, alone in zip(batch, outer, single):
                assert np.shape(alone) == ()
                assert got[i].tobytes() == alone.tobytes()
                assert across[i].tobytes() == alone.tobytes()

    def test_sparse_product_is_the_dense_product(self, jump_path):
        # At pi/2, with zero Brownian increments and a pure-jump M, the
        # exponential part is exp(0) = 1, so the value is the product alone.
        B, M = self._hand_drivers(jump_path)
        h = StepFunction((0.0, 0.25, 0.65, 1.0), (0.37, -0.81, 0.23))
        (value,) = exponential_vector(h, B, M, [math.pi / 2])
        dense = np.prod(1.0 + h.on_grid(M.grid) * M.jump_increments, axis=-1)
        assert value.tobytes() == dense.tobytes()
        assert value[1] == 1.0

    def test_vanishing_factor_is_exactly_zero(self, jump_path):
        B, M = self._hand_drivers(jump_path)
        h = StepFunction((0.0, 0.5, 1.0), (1.0 / 1.3, 0.2))  # 1 + h * (-1.3) = 0 at step 4
        (value,) = exponential_vector(h, B, M, [math.pi / 2])
        assert 1.0 + h.on_grid(M.grid)[4] * -1.3 == 0.0
        assert value[0] == 0.0
        assert value[1] != 0.0 and value[2] != 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected_before_any_reduction(self, unit_grid, monkeypatch, bad):
        B, M = _drivers("poisson", unit_grid, 4)

        def no_reduction(*args, **kwargs):
            raise AssertionError("reduced the batch before checking the angles")

        monkeypatch.setattr(np, "einsum", no_reduction)
        with pytest.raises(ConfigurationError, match="finite"):
            exponential_vector(self.H, B, M, [0.0, 0.3, bad])

    def test_no_angles_give_no_values(self, unit_grid):
        B, M = _drivers("compound", unit_grid, 4)
        assert exponential_vector(self.H, B, M, []) == []

    @pytest.mark.parametrize("how", ["rotated", "lent-jump"])
    @pytest.mark.parametrize("kind", ["poisson", "compound", "brownian-copy"])
    def test_a_combination_is_refused_before_any_sum(self, unit_grid, monkeypatch, kind, how):
        # a rotated or jump-augmented path has no list of its jumps: read as a continuous
        # martingale, a lent jump would ride in V as drift
        B, M = _drivers(kind, unit_grid, 4)
        martingale = rotate(B, M, 0.7) if how == "rotated" else add_unit_jump(M, 0.4, 0.25)
        assert martingale.parts is not None and martingale.particles is None

        def no_reduction(*args, **kwargs):
            raise AssertionError("reduced the batch before refusing the martingale")

        monkeypatch.setattr(np, "einsum", no_reduction)
        with pytest.raises(ConfigurationError, match="must be a driver path"):
            exponential_vector(self.H, B, martingale, [0.3])

    @pytest.mark.parametrize("kind", ["poisson", "brownian-copy"])
    def test_unpaired_shapes_are_refused_before_any_sum(self, unit_grid, monkeypatch, kind):
        B, M = _drivers(kind, unit_grid, 6)
        B = B.select(slice(0, 3))
        M = (SamplePath(unit_grid, M.increments.reshape(2, 3, -1)) if M.particles is None
             else SamplePath(unit_grid, particles=dataclasses.replace(M.particles, shape=(2, 3))))

        def no_reduction(*args, **kwargs):
            raise AssertionError("reduced the batch before refusing the shapes")

        monkeypatch.setattr(np, "einsum", no_reduction)
        with pytest.raises(ConfigurationError, match=r"\(3,\) and \(2, 3\)"):
            exponential_vector(self.H, B, M, [0.3])


class TestCovarianceCurve:
    # The covariance-decay experiment with I_2(h x h), h = 1 on [0, 1]; its
    # rows are normalized by 2! ||h x h||^2 = 2, so the target is cos^2(phi).
    def test_matches_cos_decay(self, unit_grid):
        cfg = make_config("covariance-decay", n_paths=4000, n_steps=unit_grid.n_steps,
                          master_seed=SEED, params={"orders": (2,), "phis": (0.0, math.pi / 3)})
        rows = run_experiment(cfg).rows
        assert [r["phi"] for r in rows] == [0.0, math.pi / 3]
        for r in rows:
            assert r["exact"] == pytest.approx(math.cos(r["phi"]) ** 2)
            assert abs(r["empirical"] - r["exact"]) < 5 * r["std_error"]

    def test_requires_paths(self, unit_grid):
        cfg = make_config("covariance-decay", n_paths=1, n_steps=unit_grid.n_steps,
                          master_seed=SEED, params={"orders": (2,), "phis": (0.0,)})
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)
