import math

import numpy as np
import pytest

from lentparticle.drivers import martingale_batch, rotate
from lentparticle.errors import DomainError
from lentparticle.functionals import evaluate_functional, make_b1, make_second_chaos
from lentparticle.ou import (
    carre_du_champ,
    combine_paths,
    inner_hat_batch,
    mehler_samples,
    mehler_semigroup,
    richardson_limit,
    rotation_gradient_samples,
    semigroup_bracket_samples,
    semigroup_limit_gamma,
)

SEED = 505


@pytest.fixture
def outer(unit_grid):
    return martingale_batch("brownian", unit_grid, SEED, 0, 1).select(0)


@pytest.fixture
def hats(unit_grid):
    return inner_hat_batch(unit_grid, SEED, 0, 400)


class TestInnerStreams:
    def test_disjoint_from_outer(self, unit_grid, outer):
        hats = inner_hat_batch(unit_grid, SEED, 0, 2)
        assert not np.array_equal(hats.increments[0], outer.increments)
        assert not np.array_equal(hats.increments[0], hats.increments[1])

    def test_reproducible(self, unit_grid):
        a = inner_hat_batch(unit_grid, SEED, 7, 3)
        b = inner_hat_batch(unit_grid, SEED, 7, 3)
        np.testing.assert_array_equal(a.increments, b.increments)


class TestMehler:
    def test_t_zero_is_identity(self, outer):
        F = make_second_chaos(1.0)
        assert mehler_semigroup(F, outer, 0.0, None) == evaluate_functional(F, outer)

    def test_t_positive_needs_hats(self, outer):
        with pytest.raises(DomainError):
            mehler_semigroup(make_b1(1.0), outer, 0.5, None)

    def test_linear_functional_mixes_exactly(self, outer, hats):
        # B_T is linear, so each Mehler sample is the mixed terminal level
        t = 0.4
        samples = mehler_samples(make_b1(1.0), outer, t, hats)
        expected = (
            math.exp(-t / 2.0) * outer.values[-1]
            + math.sqrt(-math.expm1(-t)) * hats.values[:, -1]
        )
        np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12)

    def test_eigenvalue_decay_second_chaos(self, outer, hats):
        # P_t I_2 = e^{-t} I_2 holds conditionally; check within inner-MC error
        t = 0.3
        F = make_second_chaos(1.0)
        samples = mehler_samples(F, outer, t, hats)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        target = math.exp(-t) * evaluate_functional(F, outer)
        assert abs(samples.mean() - target) < 5 * se

    def test_negative_t_rejected(self, outer, hats):
        with pytest.raises(DomainError):
            mehler_samples(make_b1(1.0), outer, -0.1, hats)


class TestRotationGradient:
    def test_linear_gradient_is_hat_level(self, outer, hats):
        grads = rotation_gradient_samples(make_b1(1.0), outer, hats, theta=1e-4)
        np.testing.assert_allclose(grads, hats.values[:, -1], rtol=1e-6)

    def test_carre_du_champ_b1_near_one(self, unit_grid, outer):
        hats = inner_hat_batch(unit_grid, SEED, 0, 800)
        gamma = carre_du_champ(make_b1(1.0), outer, hats)
        # inner average of hat_T^2 -> 1 with SE ~ sqrt(2/800)
        assert abs(gamma - 1.0) < 5 * math.sqrt(2.0 / 800)

    def test_carre_needs_two_inner(self, unit_grid, outer):
        single = inner_hat_batch(unit_grid, SEED, 0, 1)
        with pytest.raises(DomainError):
            carre_du_champ(make_b1(1.0), outer, single)


class TestBracket:
    def test_bracket_limits_to_carre(self, unit_grid, outer):
        hats = inner_hat_batch(unit_grid, SEED, 0, 512)
        F = make_second_chaos(1.0)
        gamma = carre_du_champ(F, outer, hats)
        curve = semigroup_limit_gamma(F, outer, [1e-1, 1e-2, 1e-3], hats)
        extrapolated = richardson_limit(list(zip([1e-1, 1e-2, 1e-3], curve)))
        # shared inner streams make the comparison nearly paired
        assert extrapolated == pytest.approx(gamma, rel=0.05)

    def test_bracket_rejects_nonpositive_t(self, outer, hats):
        with pytest.raises(DomainError):
            semigroup_bracket_samples(make_b1(1.0), outer, 0.0, hats)

    def test_richardson_is_exact_on_affine_data(self):
        gamma, slope = 2.5, -0.7
        pairs = [(t, gamma + slope * t) for t in (0.2, 0.05, 0.01)]
        assert richardson_limit(pairs) == pytest.approx(gamma, rel=1e-12)

    def test_richardson_needs_two_points(self):
        with pytest.raises(DomainError):
            richardson_limit([(0.1, 1.0)])

    def test_richardson_needs_two_distinct_t(self):
        with pytest.raises(DomainError):
            richardson_limit([(0.1, 1.0), (0.1, 1.0)])
        gamma, slope = 2.5, -0.7
        pairs = [(t, gamma + slope * t) for t in (0.01, 0.2, 0.01)]
        assert richardson_limit(pairs) == pytest.approx(gamma, rel=1e-12)


class TestCombinePaths:
    def test_levels_and_increments_consistent(self, unit_grid, outer, hats):
        mixed = combine_paths(outer, hats, 0.6, 0.8)
        np.testing.assert_allclose(
            mixed.values, 0.6 * outer.values + 0.8 * hats.values, rtol=1e-12
        )
        np.testing.assert_allclose(np.diff(mixed.values, axis=-1), mixed.increments)

    @pytest.mark.parametrize("theta", [0.3, 1e-4, -1e-4, math.pi / 6])
    def test_same_combination_as_rotate(self, unit_grid, outer, theta):
        M = martingale_batch("compound", unit_grid, SEED, 0, 1).select(0)
        mixed = combine_paths(outer, M, math.cos(theta), math.sin(theta))
        rotated = rotate(outer, M, theta)
        np.testing.assert_array_equal(mixed.increments, rotated.increments)
        np.testing.assert_array_equal(mixed.values, rotated.values)
        np.testing.assert_array_equal(mixed.jump_increments, rotated.jump_increments)
