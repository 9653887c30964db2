import numpy as np
import pytest

from lentparticle.drivers import martingale_batch
from lentparticle.errors import ConfigurationError, DomainError
from lentparticle.experiments import make_config, run_experiment
from lentparticle.functionals import (
    CylindricalFunctional,
    make_functional,
    make_square,
    make_three_term,
)
from lentparticle.gradients import (
    chaos_gradient_contraction,
    gradient_chaos,
    gradient_cylindrical,
    integration_by_parts_pair,
    lent_particle_sde_poisson,
    supremum_decomposition,
    supremum_gradient,
)
from lentparticle.grid import SamplePath
from lentparticle.kernels import ChaosVector, SimplexKernel
from lentparticle.sde import flow_oracle, make_sde
from lentparticle.stepfn import StepFunction

SEED = 404


class TestCylindricalGradient:
    def test_square_matches_chain_rule(self, brownian):
        F = make_square(1.0)
        est = gradient_cylindrical(F, brownian, 0.4)
        # D_u (int h dB)^2 = 2 (int h dB) h(u); the jump difference of a
        # quadratic has no third-order bias term, so agreement is tight
        assert est.value == pytest.approx(est.analytic, rel=1e-9)
        assert est.method == "jump_difference"

    def test_linear_functional_is_exact(self, brownian):
        h = StepFunction((0.0, 0.5, 1.0), (2.0, -1.0))
        F = CylindricalFunctional((h,), phi=lambda x: x, phi_grad=lambda x: (1.0,))
        est = gradient_cylindrical(F, brownian, 0.25)
        assert est.analytic == pytest.approx(2.0)
        assert est.value == pytest.approx(2.0, abs=1e-10)
        est_late = gradient_cylindrical(F, brownian, 0.75)
        assert est_late.analytic == pytest.approx(-1.0)

    def test_snap_flag(self, brownian):
        F = make_square(1.0)
        assert gradient_cylindrical(F, brownian, 0.5).snapped is False
        assert gradient_cylindrical(F, brownian, 0.5001).snapped is True

    def test_nonlinear_smooth_functional(self, brownian):
        h = StepFunction.constant(1.0, 1.0)
        F = CylindricalFunctional(
            (h,), phi=np.sin, phi_grad=lambda x: (np.cos(x),)
        )
        est = gradient_cylindrical(F, brownian, 0.6)
        assert est.value == pytest.approx(est.analytic, rel=1e-6)

    def test_kernel_argument(self, brownian):
        h = StepFunction.constant(1.0, 1.0)
        F = CylindricalFunctional(
            (SimplexKernel.power(h, 2),), phi=lambda x: x, phi_grad=lambda x: (1.0,)
        )
        est = gradient_cylindrical(F, brownian, 0.5)
        # the jump difference of the discrete I_2 excludes the self-pair of
        # the perturbed step, so it equals the contraction value minus the
        # diagonal term 2 h(u)^2 dB_u exactly
        grid = brownian.grid
        k = grid.index_at_or_after(0.5)
        u_left = grid.times[k - 1]
        diagonal = 2.0 * h(u_left) ** 2 * brownian.increments[k - 1]
        assert est.value == pytest.approx(est.analytic - diagonal, abs=1e-9)


class TestChaosGradient:
    def test_first_order_matches_contraction_pathwise(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        M = martingale_batch("compound", unit_grid, SEED, 0, 16)
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        F = ChaosVector(0.0, (SimplexKernel(1, (h,)),))
        sharp = gradient_chaos(F, B, M, theta0=1e-3)
        contraction = chaos_gradient_contraction(F, B, M)
        np.testing.assert_allclose(sharp, contraction, atol=1e-5)

    def test_second_order_diagonal_correction(self, unit_grid):
        # the theta-difference and the contraction differ pathwise by exactly
        # the diagonal term 2 sum h_j^2 dB_j dM_j (up to O(theta^2))
        B = martingale_batch("brownian", unit_grid, SEED, 0, 16)
        M = martingale_batch("compound", unit_grid, SEED, 0, 16)
        h = StepFunction.constant(1.0, 1.0)
        F = ChaosVector(0.0, (SimplexKernel.power(h, 2),))
        sharp = gradient_chaos(F, B, M, theta0=1e-4)
        contraction = chaos_gradient_contraction(F, B, M)
        hv = h.on_grid(unit_grid)
        diagonal = 2.0 * np.sum(hv**2 * B.increments * M.increments, axis=-1)
        np.testing.assert_allclose(sharp, contraction - diagonal, atol=1e-5)

    def test_constant_term_has_zero_gradient(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 4)
        M = martingale_batch("poisson", unit_grid, SEED, 0, 4)
        F = ChaosVector(5.0, ())
        np.testing.assert_allclose(gradient_chaos(F, B, M), 0.0, atol=1e-12)
        np.testing.assert_allclose(chaos_gradient_contraction(F, B, M), 0.0)


class TestPoissonSde:
    def test_no_jump_path_skipped(self, unit_grid, brownian):
        flat = SamplePath(unit_grid, np.zeros(unit_grid.n_steps),
                          jump_increments=np.zeros(unit_grid.n_steps))
        spec = make_sde("gbm")
        assert lent_particle_sde_poisson(spec, brownian, flat, 1.0) is None

    def test_records_first_jump_time(self, unit_grid, brownian):
        jumps = np.zeros(unit_grid.n_steps)
        jumps[99] = 1.0
        mart = SamplePath(unit_grid, jumps.copy(), jump_increments=jumps)
        spec = make_sde("additive", sigma=1.0)
        est = lent_particle_sde_poisson(spec, brownian, mart, 1.0, theta=1e-5)
        assert est.u == pytest.approx(100 * unit_grid.dt)
        # additive SDE: d/dtheta X(Y^theta) at 0 = M_T for the additive flow
        assert est.value == pytest.approx(mart.values[-1], abs=1e-6)

    def test_batch_matches_single_paths(self, unit_grid):
        B = martingale_batch("brownian", unit_grid, SEED, 0, 8)
        M = martingale_batch("compound", unit_grid, SEED, 0, 8)
        spec = make_sde("gbm")
        batch = lent_particle_sde_poisson(spec, B, M, 1.0)
        skipped = 0
        for i in range(8):
            single = lent_particle_sde_poisson(spec, B.select(i), M.select(i), 1.0)
            if single is None:
                skipped += 1
                assert np.isnan(batch.u[i]) and np.isnan(batch.analytic[i])
                continue
            assert batch.u[i] == single.u
            assert batch.value[i] == single.value
            oracle = flow_oracle(spec, B.select(i), single.u, 1.0)
            assert batch.analytic[i] == single.analytic == oracle.value
        assert 0 < skipped < 8


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

    def test_drift_shifts_decomposition(self, unit_grid, brownian):
        K = StepFunction.constant(100.0, 0.25)  # huge head start before u
        grad = supremum_gradient(K, brownian, 0.5, 1e-6)
        assert grad == 0.0  # supremum fixed before the perturbation point

    def test_rejects_nonpositive_step(self, unit_grid, brownian):
        with pytest.raises(DomainError):
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
