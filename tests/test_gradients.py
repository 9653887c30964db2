import numpy as np
import pytest

from lentparticle.chaos import chaotic_extension
from lentparticle.drivers import add_unit_jump, martingale_batch, rotate
from lentparticle.errors import ConfigurationError
from lentparticle.experiments import make_config, run_experiment
from lentparticle.functionals import (
    CylindricalFunctional,
    evaluate_functional,
    make_functional,
    make_square,
    make_three_term,
)
from lentparticle.gradients import (
    chaos_gradient_contraction,
    gradient_chaos,
    integration_by_parts_pair,
    lent_particle_sde,
    lent_particle_sde_poisson,
    lent_particle_sde_table,
    supremum_decomposition,
    supremum_gradient,
    supremum_quotient,
)
from lentparticle.grid import SamplePath, TimeGrid
from lentparticle.kernels import ChaosVector, SimplexKernel
from lentparticle.sde import make_sde
from lentparticle.stepfn import StepFunction

SEED = 404


def jump_difference(F, path, u, a=1e-4):
    """(F(path + a 1_{. >= u}) - F(path - a 1_{. >= u})) / 2a, u snapped forward to the grid."""
    plus = evaluate_functional(F, add_unit_jump(path, u, a))
    minus = evaluate_functional(F, add_unit_jump(path, u, -a))
    return (plus - minus) / (2.0 * a)


class TestJumpDifference:
    """The lent jump lands in the increment of the snap step k, so D_u F reads each
    h at the left endpoint t_{k-1} of that step (the chain rule at u-)."""

    def test_square_matches_chain_rule(self, brownian):
        # D_u (int h dB)^2 = 2 (int h dB) h(u-) = 2 B_T for h = 1; the jump difference of
        # a quadratic has no third-order bias term, so agreement is tight
        B_T = brownian.values[-1]
        assert jump_difference(make_square(1.0), brownian, 0.4) == pytest.approx(2.0 * B_T,
                                                                                 rel=1e-9)

    @pytest.mark.parametrize("u, h_left", [(0.25, 2.0), (0.5, 2.0), (0.5001, -1.0),
                                           (0.75, -1.0)])
    def test_linear_functional_reads_h_left_of_the_snap_step(self, brownian, u, h_left):
        # u = 0.5 is a grid time: its step (0.498, 0.5] lies left of the breakpoint;
        # u = 0.5001 snaps forward to 0.502, whose step lies right of it
        h = StepFunction((0.0, 0.5, 1.0), (2.0, -1.0))
        F = CylindricalFunctional((h,), phi=lambda x: x, phi_grad=lambda x: (1.0,))
        assert jump_difference(F, brownian, u) == pytest.approx(h_left, abs=1e-10)

    def test_nonlinear_smooth_functional(self, brownian):
        F = CylindricalFunctional((StepFunction.constant(1.0, 1.0),), phi=np.sin,
                                  phi_grad=lambda x: (np.cos(x),))
        assert jump_difference(F, brownian, 0.6) == pytest.approx(np.cos(brownian.values[-1]),
                                                                  rel=1e-6)

    def test_second_chaos_drops_the_self_pair_of_the_snap_step(self, brownian):
        # the discrete I_2(1 x 1) = 2 sum_{i<j} dB_i dB_j has no diagonal, so its jump
        # difference is the contraction 2 B_T less 2 dB_{k-1}, exactly for a quadratic
        F = ChaosVector(0.0, (SimplexKernel.power(StepFunction.constant(1.0, 1.0), 2),))
        k = brownian.grid.index_at_or_after(0.5)
        expected = 2.0 * brownian.values[-1] - 2.0 * brownian.increments[k - 1]
        assert jump_difference(F, brownian, 0.5) == pytest.approx(expected, abs=1e-9)


class TestChaosGradient:
    def test_first_order_matches_contraction_pathwise(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        M = martingale_batch("compound", unit_grid, SEED, 0, 16)
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        F = ChaosVector(0.0, (SimplexKernel(1, (h,)),))
        sharp = gradient_chaos(chaotic_extension(F, B, M), theta0=1e-3)
        contraction = chaos_gradient_contraction(F, B, M)
        np.testing.assert_allclose(sharp, contraction, atol=1e-5)

    def test_second_order_diagonal_correction(self, unit_grid):
        # the theta-difference and the contraction differ pathwise by exactly
        # the diagonal term 2 sum h_j^2 dB_j dM_j (up to O(theta^2))
        B = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        M = martingale_batch("compound", unit_grid, SEED, 0, 16)
        h = StepFunction.constant(1.0, 1.0)
        F = ChaosVector(0.0, (SimplexKernel.power(h, 2),))
        sharp = gradient_chaos(chaotic_extension(F, B, M), theta0=1e-4)
        contraction = chaos_gradient_contraction(F, B, M)
        hv = h.on_grid(unit_grid)
        diagonal = 2.0 * np.sum(hv**2 * B.increments * M.increments, axis=-1)
        np.testing.assert_allclose(sharp, contraction - diagonal, atol=1e-5)

    def test_constant_term_has_zero_gradient(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 4)
        M = martingale_batch("poisson", unit_grid, SEED, 0, 4)
        F = ChaosVector(5.0, ())
        np.testing.assert_allclose(gradient_chaos(chaotic_extension(F, B, M)), 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(chaos_gradient_contraction(F, B, M), 0.0)

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_chaos_vector_matches_the_rotated_paths(self, unit_grid, kind):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        M = martingale_batch(kind, unit_grid, SEED, 0, 16)
        F = make_three_term(1.0)
        theta = 1e-3
        on_paths = (evaluate_functional(F, rotate(B, M, theta))
                    - evaluate_functional(F, rotate(B, M, -theta))) / (2.0 * theta)
        np.testing.assert_allclose(gradient_chaos(chaotic_extension(F, B, M), theta), on_paths,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("theta0", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["three-term", "square"])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, unit_grid, name, theta0):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 4)
        M = martingale_batch("poisson", unit_grid, SEED, 0, 4)
        with pytest.raises(ConfigurationError, match="theta0 must be positive and finite"):
            gradient_chaos(chaotic_extension(make_functional(name), B, M), theta0)


class TestPoissonSde:
    def test_no_jump_path_refused(self, unit_grid, brownian, jump_path):
        flat = jump_path(unit_grid, np.zeros(unit_grid.n_steps))
        no_jump_part = SamplePath(unit_grid, np.zeros(unit_grid.n_steps))
        B = martingale_batch("brownian", unit_grid, SEED, 0, 8)
        M = martingale_batch("compound", unit_grid, SEED, 0, 8)
        spec = make_sde("gbm")
        for b, m in ((brownian, flat), (brownian, no_jump_part), (B, M)):
            with pytest.raises(ConfigurationError, match="every martingale path needs a jump"):
                lent_particle_sde_poisson(spec, b, m, 1.0)

    def test_records_first_jump_time(self, unit_grid, brownian, jump_path):
        jumps = np.zeros(unit_grid.n_steps)
        jumps[99] = 1.0
        mart = jump_path(unit_grid, jumps)
        spec = make_sde("additive", sigma=1.0)
        est = lent_particle_sde_poisson(spec, brownian, mart, 1.0, theta=1e-5)
        assert est.u == pytest.approx(100 * unit_grid.dt)
        # additive SDE: d/dtheta X(Y^theta) at 0 = M_T for the additive flow
        assert est.value == pytest.approx(mart.values[-1], abs=1e-6)

    @pytest.mark.parametrize("mark", [1.0, -1.0, 2.0])
    def test_value_is_the_derivative_at_the_first_jump(self, unit_grid, brownian, mark,
                                                       jump_path):
        # the difference tends to mark * D_{U_1} X_T; value divides the mark out
        jumps = np.zeros(unit_grid.n_steps)
        jumps[99] = mark
        mart = jump_path(unit_grid, jumps)
        est = lent_particle_sde_poisson(make_sde("gbm"), brownian, mart, 1.0)
        assert est.value == pytest.approx(est.analytic, rel=1e-6)
        flipped = jump_path(unit_grid, -jumps)
        assert lent_particle_sde_poisson(make_sde("gbm"), brownian, flipped, 1.0).value \
            == pytest.approx(est.value, rel=1e-6)

    def test_off_grid_t_rejected(self, unit_grid, brownian, jump_path):
        jumps = np.zeros(unit_grid.n_steps)
        jumps[99] = 1.0
        mart = jump_path(unit_grid, jumps)
        with pytest.raises(ConfigurationError, match="not a point"):
            lent_particle_sde_poisson(make_sde("gbm"), brownian, mart, 0.5005)

    def test_batch_matches_single_paths(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 8)
        M = martingale_batch("compound", unit_grid, SEED, 0, 8)
        jumped = np.flatnonzero((M.jump_increments != 0.0).any(axis=-1))
        assert 0 < len(jumped) < 8  # the case the selection serves
        spec = make_sde("gbm")
        batch = lent_particle_sde_poisson(spec, B.select(jumped), M.select(jumped), 1.0)
        for row, i in enumerate(jumped):
            single = lent_particle_sde_poisson(spec, B.select(i), M.select(i), 1.0)
            assert batch.u[row] == single.u
            assert batch.value[row] == single.value
            flow = lent_particle_sde(spec, B.select(i), single.u, 1.0).analytic
            assert batch.analytic[row] == single.analytic == flow


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("estimator", [
    "gradient_chaos", "lent_particle_sde_table",
    "lent_particle_sde_poisson", "supremum_gradient", "supremum_quotient"])
def test_difference_step_must_be_positive_and_finite(unit_grid, estimator, step):
    B = martingale_batch("brownian", unit_grid, SEED, 0, 4)
    M = martingale_batch("compound", unit_grid, SEED, 0, 4)
    jumped = (M.jump_increments != 0.0).any(axis=-1)
    B, M = B.select(jumped), M.select(jumped)  # the Poisson estimator needs a jump
    spec = make_sde("gbm")
    calls = {
        "gradient_chaos": ("theta0", lambda: gradient_chaos(
            chaotic_extension(make_square(1.0), B, M), step)),
        "lent_particle_sde_table": ("theta", lambda: lent_particle_sde_table(
            spec, B, (0.5,), (1.0,), step)),
        "lent_particle_sde_poisson": ("theta", lambda: lent_particle_sde_poisson(
            spec, B, M, 1.0, step)),
        "supremum_gradient": ("a", lambda: supremum_gradient(None, B, 0.5, step)),
        "supremum_quotient": ("a", lambda: supremum_quotient(np.zeros(4), step)),
    }
    name, call = calls[estimator]
    with pytest.raises(ConfigurationError, match=f"^{name} must be positive and finite, got "):
        call()


class TestIntegrationByParts:
    # Analytic expectations of the registered pairs (Gaussian moments):
    # (B_T, G=1):        E[B_T^2] = T = 1 and rhs = <1,1> = 1 exactly;
    # (I_2(h(x)h), G=h): chaoses of different order are orthogonal -> 0;
    # ((int h dB)^2, 1): odd Gaussian moment E[X^2 B_T] = 0.
    ORACLES = {"b1": 1.0, "second": 0.0, "square": 0.0}

    @pytest.fixture(scope="class")
    def rows(self):
        # the ibp experiment runs exactly these (F, G) pairs with h = 1 on [0, 1]
        cfg = make_config("ibp", n_paths=4000, n_steps=500, master_seed=SEED)
        return {r["pair"]: r for r in run_experiment(cfg).rows}

    def test_b1_pair(self, rows):
        r = rows["b1_unit"]
        lhs, rhs, se = r["lhs"], r["rhs"], r["pooled_std_error"]
        assert rhs == pytest.approx(1.0, abs=1e-12)  # deterministic side
        assert abs(lhs - self.ORACLES["b1"]) < 5 * max(se, 0.02)
        assert abs(lhs - rhs) < 5 * se

    def test_second_chaos_pair(self, rows):
        r = rows["second_chaos_h"]
        lhs, rhs, se = r["lhs"], r["rhs"], r["pooled_std_error"]
        assert abs(lhs - rhs) < 5 * se
        assert abs(lhs - self.ORACLES["second"]) < 0.2

    def test_square_pair(self, rows):
        r = rows["square_unit"]
        lhs, rhs, se = r["lhs"], r["rhs"], r["pooled_std_error"]
        assert abs(lhs - rhs) < 5 * se
        assert abs(lhs - self.ORACLES["square"]) < 0.2

    def test_rejects_unsupported(self, unit_grid, brownian):
        G = StepFunction.constant(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            integration_by_parts_pair(object(), G, brownian)

    def test_kernel_argument_rejected(self, brownian):
        # a cylindrical argument is a first-order integral; a kernel is a ChaosVector's
        k = SimplexKernel(2, (StepFunction.constant(1.0, 1.0), StepFunction((0.0, 0.5), (2.0,))))
        F = CylindricalFunctional((k,), phi=lambda x: x, phi_grad=lambda x: (1.0,))
        with pytest.raises(ConfigurationError,
                           match="^a cylindrical argument must be a StepFunction, got "):
            integration_by_parts_pair(F, StepFunction.constant(1.0, 1.0), brownian)


class TestSupremum:
    def test_gradient_is_exact_difference_quotient(self, unit_grid, brownian):
        u, a = 0.5, 1e-6
        grad = supremum_gradient(None, brownian, u, a)
        # brute-force perturbation of the running supremum
        k = unit_grid.index_at_or_after(u)
        bumped = brownian.values.copy()
        bumped[k:] += a
        brute = (bumped.max() - brownian.values.max()) / a
        assert grad == pytest.approx(brute, abs=1e-9)

    def test_binary_values_away_from_ties(self, unit_grid):
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 512)
        a = 1e-9
        grads = supremum_gradient(None, batch, 0.5, a)
        before, after = supremum_decomposition(None, batch, 0.5)
        clear = np.abs(after - before) > a
        assert np.all(np.isin(grads[clear], [0.0, 1.0]))
        assert np.all((grads >= 0.0) & (grads <= 1.0))

    def test_quotient_clips_the_gap(self, unit_grid):
        # 1 where the post-u supremum leads or ties, 0 where it trails by more than a
        a = 1e-6
        gap = np.array([0.5, 0.0, -5e-7, -a, -2e-6])
        np.testing.assert_array_equal(supremum_quotient(gap, a), [1.0, 1.0, 0.5, 0.0, 0.0])
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 64)
        before, after = supremum_decomposition(None, batch, 0.5)
        assert (supremum_gradient(None, batch, 0.5, a).tobytes()
                == supremum_quotient(after - before, a).tobytes())

    @pytest.mark.parametrize("shape", [(1,), (255,), (257,), (4097,), (3, 130), ()])
    @pytest.mark.parametrize("u", [0.01, 0.5, 1.0])
    def test_decomposition_is_bitwise_the_whole_array_maxima(self, shape, u):
        grid = TimeGrid(1.0, 40)
        inc = np.random.default_rng(SEED).standard_normal(shape + (40,))
        k = grid.index_at_or_after(u)
        levels = np.concatenate([np.zeros(shape + (1,)), np.cumsum(inc, axis=-1)], axis=-1)
        path = SamplePath(grid, inc)
        before, after = supremum_decomposition(None, path, u)
        for got, expected in zip((before, after), (np.max(levels[..., :k], axis=-1),
                                                   np.max(levels[..., k:], axis=-1))):
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert path._values is None  # the block route leaves the levels unread

    @staticmethod
    def _maxima(levels, grid, u):
        k = grid.index_at_or_after(u)
        return tuple(np.max(part, axis=-1).tobytes() for part in (levels[..., :k], levels[..., k:]))

    def test_decomposition_reads_the_recorded_levels_of_a_jump_path(self, unit_grid):
        # add_unit_jump's levels are the recipe's, not a fresh cumsum of its increments
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        levels = add_unit_jump(batch, 0.3, 0.25).values
        path = add_unit_jump(batch, 0.3, 0.25)
        assert SamplePath(unit_grid, path.increments).values.tobytes() != levels.tobytes()
        recipe, reads = path._levels, []
        path._levels = lambda: reads.append(1) or recipe()
        got = supremum_decomposition(None, path, 0.5)
        assert reads == [1]
        assert tuple(g.tobytes() for g in got) == self._maxima(levels, unit_grid, 0.5)

    def test_decomposition_reads_cached_levels(self, unit_grid):
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        path = SamplePath(unit_grid, batch.increments)
        path._values = batch.values + 1.0
        got = supremum_decomposition(None, path, 0.5)
        assert tuple(g.tobytes() for g in got) == self._maxima(batch.values + 1.0, unit_grid, 0.5)

    def test_drift_shifts_decomposition(self, unit_grid, brownian):
        K = StepFunction.constant(100.0, 0.25)  # huge head start before u
        grad = supremum_gradient(K, brownian, 0.5, 1e-6)
        assert grad == 0.0  # supremum fixed before the perturbation point

    def test_rejects_nonpositive_step(self, unit_grid, brownian):
        with pytest.raises(ConfigurationError):
            supremum_gradient(None, brownian, 0.5, 0.0)


class TestFunctionalRegistry:
    def test_known_names(self):
        for name in ("b1", "first-chaos", "second-chaos", "third-chaos",
                     "three-term", "square"):
            F = make_functional(name, 1.0)
            assert F is not None

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_functional("martingale-soup", 1.0)

    def test_three_term_energy_value(self):
        # gradient energy assembled from exact kernel norms
        F = make_three_term(1.0)
        k1, k2, k3 = F.kernels
        expected = (
            1 * 1 * k1.norm_sq + 2 * 2 * k2.norm_sq + 3 * 6 * k3.norm_sq
        )
        assert F.gradient_energy == pytest.approx(expected, rel=1e-12)
