import math

import numpy as np
import pytest

from lentparticle.chaos import RotatedChaos, chaotic_extension, evaluate_chaos
from lentparticle.drivers import martingale_batch, rotate
from lentparticle.errors import ConfigurationError
from lentparticle.functionals import evaluate_functional, make_b1, make_second_chaos
from lentparticle.functionals import make_functional, make_square
from lentparticle.ou import (
    carre_du_champ,
    combine_paths,
    inner_hat_batch,
    mehler_samples,
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
    def test_t_zero_is_identity(self, outer, hats):
        F = make_second_chaos(1.0)
        (samples,) = mehler_samples(chaotic_extension(F, outer, hats), (0.0,))
        np.testing.assert_allclose(samples, evaluate_functional(F, outer), rtol=0, atol=1e-12)

    def test_linear_functional_mixes_exactly(self, outer, hats):
        # B_T is linear, so each Mehler sample is the mixed terminal level
        t = 0.4
        (samples,) = mehler_samples(chaotic_extension(make_b1(1.0), outer, hats), (t,))
        expected = (
            math.exp(-t / 2.0) * outer.values[-1]
            + math.sqrt(-math.expm1(-t)) * hats.values[:, -1]
        )
        np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=1e-12)

    def test_eigenvalue_decay_second_chaos(self, outer, hats):
        # P_t I_2 = e^{-t} I_2 holds conditionally; check within inner-MC error
        t = 0.3
        F = make_second_chaos(1.0)
        (samples,) = mehler_samples(chaotic_extension(F, outer, hats), (t,))
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        target = math.exp(-t) * evaluate_functional(F, outer)
        assert abs(samples.mean() - target) < 5 * se

    def test_negative_t_rejected(self, outer, hats):
        with pytest.raises(ConfigurationError):
            mehler_samples(chaotic_extension(make_b1(1.0), outer, hats), (0.3, -0.1))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_rejected(self, outer, hats, t):
        with pytest.raises(ConfigurationError, match="t must be >= 0 and finite"):
            mehler_samples(chaotic_extension(make_b1(1.0), outer, hats), (t,))


class TestMehlerIsARotation:
    # P_t reads F on the rotation of (B, Bhat) by theta_t, cos(theta_t) = e^{-t/2}
    FUNCTIONALS = ("b1", "second-chaos", "three-term")
    TIMES = (1e-3, 0.3, 5.0)

    @staticmethod
    def _theta(t):
        return math.atan2(math.sqrt(-math.expm1(-t)), math.exp(-t / 2.0))

    @staticmethod
    def _mixed(outer, hats, t):
        return combine_paths(outer, hats, math.exp(-t / 2.0), math.sqrt(-math.expm1(-t)))

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("name", FUNCTIONALS)
    def test_chaos_vector_reads_the_rotated_sums(self, outer, hats, name, t):
        F = make_functional(name, 1.0)
        expected = RotatedChaos(F, outer, hats)(self._theta(t))
        (samples,) = mehler_samples(chaotic_extension(F, outer, hats), (t,))
        np.testing.assert_array_equal(samples, expected)

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("name", FUNCTIONALS)
    def test_chaos_vector_matches_the_recursion_on_the_mixed_path(self, outer, hats, name, t):
        F = make_functional(name, 1.0)
        expected = evaluate_chaos(F, self._mixed(outer, hats, t))
        scale = np.max(np.abs(expected))
        (samples,) = mehler_samples(chaotic_extension(F, outer, hats), (t,))
        np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-11 * scale)

    @pytest.mark.parametrize("t", TIMES)
    def test_cylindrical_functional_on_the_mixed_path(self, outer, hats, t):
        F = make_square(1.0)
        expected = evaluate_functional(F, self._mixed(outer, hats, t))
        (samples,) = mehler_samples(chaotic_extension(F, outer, hats), (t,))
        np.testing.assert_allclose(samples, expected, rtol=1e-12)

    @pytest.mark.parametrize("name", FUNCTIONALS + ("square",))
    def test_several_times_read_one_rotation(self, monkeypatch, outer, hats, name):
        # a call with every time is bit for bit the one-time calls on fresh extensions;
        # it reads the extension it is handed, which holds one RotatedChaos (none for
        # the cylindrical square), built by chaotic_extension
        from lentparticle import chaos

        F = make_functional(name, 1.0)
        f0 = float(evaluate_functional(F, outer))
        samples, brackets = [], []
        for t in self.TIMES:
            samples += mehler_samples(chaotic_extension(F, outer, hats), (t,))
            brackets += semigroup_bracket_samples(chaotic_extension(F, outer, hats), f0, (t,))
        built = []
        original = chaos.RotatedChaos

        def recording(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(chaos, "RotatedChaos", recording)
        extension = chaotic_extension(F, outer, hats)
        assert len(built) == (name != "square")
        for got, want in zip(mehler_samples(extension, self.TIMES), samples, strict=True):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(semigroup_bracket_samples(extension, f0, self.TIMES), brackets,
                             strict=True):
            np.testing.assert_array_equal(got, want)
        assert len(built) == (name != "square")


class TestRotationGradient:
    def test_linear_gradient_is_hat_level(self, outer, hats):
        grads = rotation_gradient_samples(chaotic_extension(make_b1(1.0), outer, hats), 1e-4)
        np.testing.assert_allclose(grads, hats.values[:, -1], rtol=1e-6)

    def test_carre_du_champ_b1_near_one(self, unit_grid, outer):
        hats = inner_hat_batch(unit_grid, SEED, 0, 800)
        gamma = carre_du_champ(chaotic_extension(make_b1(1.0), outer, hats))
        # inner average of hat_T^2 -> 1 with SE ~ sqrt(2/800)
        assert abs(gamma - 1.0) < 5 * math.sqrt(2.0 / 800)

    def test_carre_du_champ_of_a_cylindrical_functional(self, outer, hats):
        # F = B_T^2: F' = 2 B_T Bhat_T, so Gamma[F] = 4 B_T^2 (inner mean of Bhat_T^2)
        gamma = carre_du_champ(chaotic_extension(make_square(1.0), outer, hats))
        expected = 4.0 * outer.values[-1] ** 2 * np.mean(hats.values[:, -1] ** 2)
        assert gamma == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("make", [make_b1, make_square])
    def test_carre_needs_two_inner(self, unit_grid, outer, make):
        single = inner_hat_batch(unit_grid, SEED, 0, 1)
        for hats in (single, single.select(0)):  # a batch of one path, and one 1-D path
            with pytest.raises(ConfigurationError, match="needs at least 2 inner paths"):
                carre_du_champ(chaotic_extension(make(1.0), outer, hats))

    @pytest.mark.parametrize("theta", [0.0, -1e-4, math.nan, math.inf])
    @pytest.mark.parametrize("make", [make_second_chaos, make_square])
    def test_carre_rejects_a_step_that_is_not_positive_and_finite(self, outer, hats, make,
                                                                   theta):
        with pytest.raises(ConfigurationError, match="theta0 must be positive and finite"):
            carre_du_champ(chaotic_extension(make(1.0), outer, hats), theta)


class TestBracket:
    def test_bracket_limits_to_carre(self, unit_grid, outer):
        hats = inner_hat_batch(unit_grid, SEED, 0, 512)
        F = make_second_chaos(1.0)
        extension = chaotic_extension(F, outer, hats)
        gamma = carre_du_champ(extension)
        curve = semigroup_limit_gamma(extension, float(evaluate_functional(F, outer)),
                                      [1e-1, 1e-2, 1e-3])
        extrapolated = richardson_limit(list(zip([1e-1, 1e-2, 1e-3], curve)))
        # shared inner streams make the comparison nearly paired
        assert extrapolated == pytest.approx(gamma, rel=0.05)

    def test_bracket_rejects_nonpositive_t(self, outer, hats):
        with pytest.raises(ConfigurationError):
            semigroup_bracket_samples(chaotic_extension(make_b1(1.0), outer, hats), 0.0,
                                      (0.1, 0.0))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_bracket_rejects_non_finite_t(self, outer, hats, t):
        with pytest.raises(ConfigurationError, match="t must be positive and finite"):
            semigroup_bracket_samples(chaotic_extension(make_b1(1.0), outer, hats), 0.0, (t,))

    def test_richardson_is_exact_on_affine_data(self):
        gamma, slope = 2.5, -0.7
        pairs = [(t, gamma + slope * t) for t in (0.2, 0.05, 0.01)]
        assert richardson_limit(pairs) == pytest.approx(gamma, rel=1e-12)

    def test_richardson_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            richardson_limit([(0.1, 1.0)])

    def test_richardson_needs_two_distinct_t(self):
        with pytest.raises(ConfigurationError):
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
