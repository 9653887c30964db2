import itertools
import math

import numpy as np
import pytest

from lentparticle.chaos import (
    chaotic_extension,
    evaluate_chaos,
    exponential_vector,
    iterated_integral,
    stochastic_integral,
)
from lentparticle.drivers import martingale_batch
from lentparticle.errors import DomainError
from lentparticle.experiments import make_config, run_experiment
from lentparticle.grid import SamplePath, TimeGrid
from lentparticle.kernels import ChaosVector, SimplexKernel
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
        g3 = StepFunction.indicator(0.25, 1.0, -1.0)
        for factors in [(g1, g2), (g1, g2, g3), (g1, g1, g2)]:
            k = SimplexKernel(len(factors), factors)
            assert iterated_integral(k, tiny_path) == pytest.approx(
                brute_force_integral(k, tiny_path), rel=1e-12
            ), factors

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


class TestChaosEvaluation:
    def test_first_order_is_stochastic_integral(self, brownian):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        F = ChaosVector(2.0, (SimplexKernel(1, (h,)),))
        expected = 2.0 + stochastic_integral(h, brownian)
        assert evaluate_chaos(F, brownian) == pytest.approx(expected, rel=1e-12)

    def test_constant_integrand(self, brownian):
        g = StepFunction.constant(3.0, 1.0)
        assert stochastic_integral(g, brownian) == pytest.approx(
            3.0 * brownian.values[-1], rel=1e-12
        )

    def test_extension_at_zero_matches_brownian(self, unit_grid, brownian):
        mart = martingale_batch("poisson", unit_grid, SEED, 0, 1).select(0)
        h = StepFunction.constant(1.0, 1.0)
        F = ChaosVector(0.0, (SimplexKernel.power(h, 2),))
        assert chaotic_extension(F, brownian, mart, 0.0) == evaluate_chaos(F, brownian)

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
            chaotic_extension(F, B, M, theta), expected, rtol=1e-12
        )


class TestExponentialVector:
    def test_brownian_only_closed_form(self, unit_grid, brownian):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -0.5))
        zero = StepFunction.constant(0.0, 1.0)
        flat = SamplePath(unit_grid, np.zeros(unit_grid.n_steps),
                          jump_increments=np.zeros(unit_grid.n_steps))
        value = exponential_vector(h, zero, brownian, flat, 0.0, 1.0)
        manual = math.exp(
            stochastic_integral(h, brownian) - 0.5 * h.integral_sq(upto=1.0)
        )
        assert value == pytest.approx(manual, rel=1e-12)

    def test_poisson_jump_product(self):
        # Hand-built compensated Poisson path with jumps at steps 3 and 7.
        grid = TimeGrid(1.0, 10)
        jumps = np.zeros(10)
        jumps[2] = 1.0
        jumps[6] = 1.0
        mart = SamplePath(grid, jumps - grid.dt, jump_increments=jumps)
        flatB = SamplePath(grid, np.zeros(10))
        c = 0.4
        h = StepFunction.constant(c, 1.0)
        zero = StepFunction.constant(0.0, 1.0)
        # theta = pi/2 reads the integrand against the martingale alone:
        # E_t = exp(-c t) (1 + c)^{N_t}
        value = exponential_vector(h, zero, flatB, mart, math.pi / 2, 1.0)
        assert value == pytest.approx(math.exp(-c) * (1 + c) ** 2, rel=1e-12)

    def test_zero_factor_flags(self):
        grid = TimeGrid(1.0, 10)
        jumps = np.zeros(10)
        jumps[4] = 1.0
        mart = SamplePath(grid, jumps - grid.dt, jump_increments=jumps)
        flatB = SamplePath(grid, np.zeros(10))
        h = StepFunction.constant(-1.0, 1.0)  # factor 1 + h * jump = 0
        zero = StepFunction.constant(0.0, 1.0)
        value, flags = exponential_vector(
            h, zero, flatB, mart, math.pi / 2, 1.0, return_zero_flags=True
        )
        assert value == 0.0
        assert bool(flags) is True

    def test_off_grid_time_rejected(self, unit_grid, brownian):
        h = StepFunction.constant(1.0, 1.0)
        flat = SamplePath(unit_grid, np.zeros(unit_grid.n_steps),
                          jump_increments=np.zeros(unit_grid.n_steps))
        with pytest.raises(DomainError):
            exponential_vector(h, h, brownian, flat, 0.0, 0.1234567)


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
        with pytest.raises(DomainError):
            run_experiment(cfg)
