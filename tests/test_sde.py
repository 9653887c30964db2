import numpy as np
import pytest

from lentparticle import experiments
from lentparticle.drivers import martingale_batch
from lentparticle.errors import (
    ConfigurationError,
    DomainError,
    NumericalBlowupError,
    SingularFlowError,
)
from lentparticle.gradients import lent_particle_sde
from lentparticle.grid import RngStream, SamplePath, TimeGrid
from lentparticle.sde import (
    STEP_BLOCK,
    SdeSpec,
    euler,
    first_variation,
    flow_oracle,
    make_sde,
    solve_sde,
)

SEED = 202


def reference_euler(spec, grid, inc):
    """The left-endpoint scheme and its first variation, one loop per driver."""
    x = np.full(inc.shape[:-1], spec.x0)
    y = np.ones(inc.shape[:-1])
    xs, ys = [x], [y]
    for j in range(grid.n_steps):
        t = grid.times[j]
        y = y * (1.0 + spec.sigma_x(t, x) * inc[..., j] + spec.b_x(t, x) * grid.dt)
        x = x + spec.sigma(t, x) * inc[..., j] + spec.b(t, x) * grid.dt
        xs.append(x)
        ys.append(y)
    return np.stack(xs, axis=-1), np.stack(ys, axis=-1)


class TestRegistry:
    def test_known_specs(self):
        for name in ("gbm", "additive", "sine-diffusion"):
            spec = make_sde(name)
            spec.check_derivatives(RngStream(SEED, 0))

    def test_parameter_overrides(self):
        spec = make_sde("gbm", sigma=0.5, b=0.0, x0=2.0)
        assert spec.params == {"sigma": 0.5, "b": 0.0, "x0": 2.0}
        assert spec.sigma(0.0, 4.0) == pytest.approx(2.0)

    def test_unknown_name_and_params(self):
        with pytest.raises(ConfigurationError):
            make_sde("heston")
        with pytest.raises(ConfigurationError):
            make_sde("gbm", kappa=1.0)

    def test_inconsistent_derivatives_detected(self):
        bad = SdeSpec(
            "bad", 1.0,
            sigma=lambda t, x: x**2,
            b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),  # wrong
            b_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        with pytest.raises(ConfigurationError):
            bad.check_derivatives(RngStream(SEED, 1))


class TestSolver:
    def test_additive_solution_is_exact(self, unit_grid, brownian):
        spec = make_sde("additive", sigma=2.0, b=0.5, x0=1.5)
        x = solve_sde(spec, brownian)
        expected = 1.5 + 2.0 * brownian.values + 0.5 * unit_grid.times
        np.testing.assert_allclose(x, expected, rtol=1e-12)

    def test_gbm_against_closed_form(self):
        # strong Euler error is O(sqrt(dt)); on a fine grid the terminal
        # value should sit close to the exact exponential solution
        grid = TimeGrid(1.0, 20_000)
        B = martingale_batch("brownian", grid, SEED, 3, 1).select(0)
        spec = make_sde("gbm", sigma=0.3, b=0.1)
        x = solve_sde(spec, B)
        exact = np.exp((0.1 - 0.5 * 0.3**2) * grid.times + 0.3 * B.values)
        assert abs(x[-1] - exact[-1]) / exact[-1] < 0.02

    def test_batch_matches_single(self, unit_grid):
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 4)
        spec = make_sde("sine-diffusion")
        xb = solve_sde(spec, batch)
        for i in range(4):
            np.testing.assert_array_equal(xb[i], solve_sde(spec, batch.select(i)))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_single_path_blowup_raises_with_step(self, unit_grid):
        exploding = SdeSpec(
            "exploding", 1.0,
            sigma=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            b=lambda t, x: x**3 * 1e6,
            sigma_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            b_x=lambda t, x: 3e6 * x**2,
        )
        B = martingale_batch("brownian", unit_grid, SEED, 4, 1).select(0)
        with pytest.raises(NumericalBlowupError) as err:
            solve_sde(exploding, B)
        assert 0 < err.value.step <= unit_grid.n_steps

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_batch_blowup_returns_nonfinite(self, unit_grid):
        exploding = SdeSpec(
            "exploding", 1.0,
            sigma=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            b=lambda t, x: x**3 * 1e6,
            sigma_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            b_x=lambda t, x: 3e6 * x**2,
        )
        batch = martingale_batch("brownian", unit_grid, SEED, 0, 3)
        x = solve_sde(exploding, batch)
        assert not np.all(np.isfinite(x[:, -1]))


class TestFirstVariation:
    def test_gbm_flow_is_relative_state(self, unit_grid, brownian):
        # for gbm the linearized flow coincides with X_t / x0
        spec = make_sde("gbm", x0=2.0)
        x = solve_sde(spec, brownian)
        y = first_variation(spec, brownian)
        np.testing.assert_allclose(y, x / 2.0, rtol=1e-10)

    def test_additive_flow_is_one(self, unit_grid, brownian):
        spec = make_sde("additive")
        y = first_variation(spec, brownian)
        np.testing.assert_array_equal(y, np.ones_like(y))


class TestFlowOracle:
    @pytest.mark.parametrize("name", ["gbm", "additive", "sine-diffusion"])
    def test_matches_jump_difference(self, name):
        grid = TimeGrid(1.0, 2000)
        B = martingale_batch("brownian", grid, SEED, 5, 1).select(0)
        spec = make_sde(name)
        for u, t in [(0.25, 0.75), (0.5, 1.0), (0.7131, 0.9)]:
            oracle = flow_oracle(spec, B, u, t)
            jump = lent_particle_sde(spec, B, u, t, theta=1e-5)
            assert jump.value == pytest.approx(oracle.value, rel=1e-5), (u, t)
            assert jump.analytic == oracle.value  # the same flow form from one pass
            assert jump.u == oracle.u and jump.t == oracle.t

    def test_additive_is_exact(self, unit_grid, brownian):
        spec = make_sde("additive", sigma=1.7)
        oracle = flow_oracle(spec, brownian, 0.3, 0.9)
        jump = lent_particle_sde(spec, brownian, 0.3, 0.9)
        assert oracle.value == pytest.approx(1.7, abs=1e-12)
        assert jump.value == pytest.approx(1.7, abs=1e-8)

    def test_rejects_bad_times(self, unit_grid, brownian):
        spec = make_sde("gbm")
        with pytest.raises(DomainError):
            flow_oracle(spec, brownian, 0.8, 0.5)
        with pytest.raises(DomainError):
            lent_particle_sde(spec, brownian, 0.8, 0.5)

    def test_singular_flow_detected(self):
        # craft an increment that drives the first variation to exactly zero:
        # with sigma_x = 1 and b_x = 0 the step factor is 1 + dW
        grid = TimeGrid(1.0, 10)
        ones = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
        zeros = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
        spec = SdeSpec("affine", 1.0, sigma=lambda t, x: x + 1.0, b=zeros,
                       sigma_x=ones, b_x=zeros)
        inc = np.zeros(10)
        inc[0] = -1.0
        B = SamplePath(grid, inc)
        with pytest.raises(SingularFlowError):
            flow_oracle(spec, B, 0.1, 1.0)


class TestEngine:
    @pytest.mark.parametrize("name", ["gbm", "additive", "sine-diffusion"])
    def test_rows_match_reference_loop(self, name):
        grid = TimeGrid(1.0, 2 * STEP_BLOCK + 50)  # crosses two block boundaries
        B = martingale_batch("brownian", grid, SEED, 0, 5)
        spec = make_sde(name)
        theta = 1e-3
        # bumps at the first step, the first step of a block and the last step
        bumps = [(k, a) for k in (1, STEP_BLOCK + 1, grid.n_steps) for a in (theta, -theta)]
        steps = range(grid.n_steps + 1)
        xs, ys = euler(spec, grid, [B.increments], bumps, x_steps=steps, y_steps=steps)
        x = np.stack(xs, axis=-1)
        x_ref, y_ref = reference_euler(spec, grid, B.increments)
        np.testing.assert_array_equal(x[0], x_ref)
        np.testing.assert_array_equal(np.stack(ys, axis=-1), y_ref)
        for row, (k, a) in enumerate(bumps, start=1):
            inc = B.increments.copy()
            inc[:, k - 1] += a
            np.testing.assert_array_equal(x[row], reference_euler(spec, grid, inc)[0])
            np.testing.assert_array_equal(x[row][:, :k], x_ref[:, :k])

    def test_per_path_columns(self):
        grid = TimeGrid(1.0, STEP_BLOCK + 50)
        B = martingale_batch("brownian", grid, SEED, 0, 5)
        spec = make_sde("sine-diffusion")
        steps = np.array([0, 3, STEP_BLOCK + 50, STEP_BLOCK + 1, 3])
        (x,), (y,) = euler(spec, grid, [B.increments], x_steps=(steps,), y_steps=(steps,))
        x_ref, y_ref = reference_euler(spec, grid, B.increments)
        np.testing.assert_array_equal(x[0], x_ref[np.arange(5), steps])
        np.testing.assert_array_equal(y, y_ref[np.arange(5), steps])

    def test_rejects_bad_steps(self, unit_grid, brownian):
        spec = make_sde("gbm")
        n = unit_grid.n_steps
        for bumps, steps in [([(0, 1e-3)], ()), ([(n + 1, 1e-3)], ()), ((), (n + 1,))]:
            with pytest.raises(DomainError):
                euler(spec, unit_grid, [brownian.increments], bumps, x_steps=steps)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_exploding_path_stays_nonfinite(self, unit_grid):
        # dX = dB - X^3 dt is stable, but Euler diverges once X^2 dt > 2:
        # one kicked path explodes and the rest of the batch is untouched
        spec = SdeSpec("cubic", 0.0, sigma=lambda t, x: 1.0, b=lambda t, x: -x**3,
                       sigma_x=lambda t, x: 0.0, b_x=lambda t, x: -3.0 * x**2)
        inc = martingale_batch("brownian", unit_grid, SEED, 0, 3).increments.copy()
        inc[1, 10] = 50.0
        x = solve_sde(spec, SamplePath(unit_grid, inc))
        assert np.all(np.isfinite(x[[0, 2]]))
        assert not np.isfinite(x[1, -1])
        np.testing.assert_array_equal(x[0], reference_euler(spec, unit_grid, inc[0])[0])
        with pytest.raises(NumericalBlowupError) as err:
            solve_sde(spec, SamplePath(unit_grid, inc[1]))
        assert err.value.step > 11

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_experiment_counts_exploding_path(self, monkeypatch):
        real = experiments.martingale_batch

        def kicked(kind, grid, seed, start, count):
            B = real(kind, grid, seed, start, count)
            if start == 0:
                B.increments[0, :2] = 1e200  # gbm overflows at step 2
            return B

        monkeypatch.setattr(experiments, "martingale_batch", kicked)
        cfg = experiments.make_config("sde-lent-particle", n_paths=64, n_steps=200,
                                      params={"sde": "gbm"})
        res = experiments.run_experiment(cfg)
        assert res.excluded_paths == 25  # the kicked path, at every (u, t) pair
        checks = {c["name"]: c["passed"] for c in res.checks}
        assert checks == {"sde_gbm_frac_ok": True, "sde_exclusion_rate": False}
