import numpy as np
import pytest

from lentparticle import experiments
from lentparticle.drivers import _cos_sin, martingale_batch, rotate
from lentparticle.errors import ConfigurationError
from lentparticle.gradients import lent_particle_sde
from lentparticle.grid import SamplePath, TimeGrid
from lentparticle.sde import (
    STEP_BLOCK,
    SdeSpec,
    euler,
    first_variation,
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


def inconsistent_derivatives(spec, seed, n_points=25, tol=1e-5):
    """The names of sigma_x and b_x that central differences at random (t, x) contradict."""
    gen = np.random.default_rng(seed)
    ts = gen.uniform(0.0, 1.0, n_points)
    xs = gen.uniform(-2.0, 2.0, n_points) + spec.x0
    eps = 1e-6
    bad = []
    for fn, dfn, label in ((spec.sigma, spec.sigma_x, "sigma_x"), (spec.b, spec.b_x, "b_x")):
        fd = (fn(ts, xs + eps) - fn(ts, xs - eps)) / (2 * eps)
        exact = dfn(ts, xs) * np.ones_like(xs)
        if np.any(np.abs(fd - exact) / (np.abs(exact) + 1.0) > tol):
            bad.append(label)
    return bad


class TestRegistry:
    @pytest.mark.parametrize("name", ["gbm", "additive", "sine-diffusion"])
    def test_known_specs(self, name):
        assert inconsistent_derivatives(make_sde(name), SEED) == []

    def test_parameter_overrides(self):
        spec = make_sde("gbm", sigma=0.5, b=0.0, x0=2.0)
        assert spec.x0 == 2.0
        assert spec.sigma(0.0, 4.0) == pytest.approx(2.0)
        assert spec.b(0.0, 4.0) == 0.0

    def test_unknown_name_and_params(self):
        with pytest.raises(ConfigurationError):
            make_sde("heston")
        with pytest.raises(ConfigurationError):
            make_sde("gbm", kappa=1.0)

    @pytest.mark.parametrize("value", ["x", True, None])
    def test_non_number_parameter(self, value):
        with pytest.raises(ConfigurationError, match="'gbm' parameter 'sigma' must be a number"):
            make_sde("gbm", sigma=value)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parameter(self, value):
        with pytest.raises(ConfigurationError, match="'gbm' parameter 'sigma' must be finite"):
            make_sde("gbm", sigma=value)

    def test_inconsistent_derivatives_detected(self):
        bad = SdeSpec(
            1.0,
            sigma=lambda t, x: x**2,
            b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),  # wrong
            b_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        assert inconsistent_derivatives(bad, SEED) == ["sigma_x"]


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

    def test_single_path_blowup_returns_its_batch_row(self, unit_grid):
        exploding = SdeSpec(
            1.0,
            sigma=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            b=lambda t, x: x**3 * 1e6,
            sigma_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            b_x=lambda t, x: 3e6 * x**2,
        )
        batch = martingale_batch("brownian", unit_grid, SEED, 4, 1)
        x = solve_sde(exploding, batch.select(0))
        np.testing.assert_array_equal(x, solve_sde(exploding, batch)[0])
        assert not np.isfinite(x[-1])

    def test_batch_blowup_returns_nonfinite(self, unit_grid):
        exploding = SdeSpec(
            1.0,
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
            jump = lent_particle_sde(spec, B, u, t, theta=1e-5)
            # the jump difference against the flow form from the same pass
            assert jump.value == pytest.approx(jump.analytic, rel=1e-5), (u, t)
            assert jump.u == grid.index_at_or_after(u) * grid.dt
            assert jump.t == grid.index_of(t) * grid.dt

    def test_additive_is_exact(self, unit_grid, brownian):
        spec = make_sde("additive", sigma=1.7)
        jump = lent_particle_sde(spec, brownian, 0.3, 0.9)
        assert jump.analytic == pytest.approx(1.7, abs=1e-12)
        assert jump.value == pytest.approx(1.7, abs=1e-8)

    def test_rejects_bad_times(self, unit_grid, brownian):
        spec = make_sde("gbm")
        with pytest.raises(ConfigurationError):
            lent_particle_sde(spec, brownian, 0.8, 0.5)

    def test_rejects_off_grid_t(self, unit_grid, brownian):
        spec = make_sde("gbm")
        with pytest.raises(ConfigurationError, match="not a point"):
            lent_particle_sde(spec, brownian, 0.3, 0.9001)

    def test_singular_flow_detected(self):
        # craft an increment that drives the first variation to exactly zero:
        # with sigma_x = 1 and b_x = 0 the step factor is 1 + dW
        grid = TimeGrid(1.0, 10)
        ones = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
        zeros = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
        spec = SdeSpec(1.0, sigma=lambda t, x: x + 1.0, b=zeros,
                       sigma_x=ones, b_x=zeros)
        inc = np.zeros(10)
        inc[0] = -1.0
        B = SamplePath(grid, inc)
        assert not np.isfinite(lent_particle_sde(spec, B, 0.1, 1.0).analytic)


def time_dependent():
    """Coefficients that read t, unlike the built-in SDEs: a step that took the time of
    its neighbour would change every row."""
    return SdeSpec(1.0,
                   sigma=lambda t, x: np.cos(3.0 * t) * np.sin(x) + t,
                   b=lambda t, x: np.exp(-t) * x,
                   sigma_x=lambda t, x: np.cos(3.0 * t) * np.cos(x),
                   b_x=lambda t, x: np.exp(-t) * np.ones_like(x))


class TestEngine:
    def test_time_dependent_derivatives(self):
        assert inconsistent_derivatives(time_dependent(), SEED) == []

    @pytest.mark.parametrize("name", ["gbm", "additive", "sine-diffusion", "time-dependent"])
    def test_rows_match_reference_loop(self, name):
        grid = TimeGrid(1.0, 2 * STEP_BLOCK + 50)  # crosses two block boundaries
        B = martingale_batch("brownian", grid, SEED, 0, 5)
        spec = time_dependent() if name == "time-dependent" else make_sde(name)
        theta = 1e-3
        # bumps at the first step, the first step of a block and the last step
        bumps = [(k, a) for k in (1, STEP_BLOCK + 1, grid.n_steps) for a in (theta, -theta)]
        steps = range(grid.n_steps + 1)
        xs, ys = euler(spec, grid, [B], bumps, x_steps=steps, y_steps=steps)
        x = np.stack(xs, axis=-1)
        x_ref, y_ref = reference_euler(spec, grid, B.increments)
        np.testing.assert_array_equal(x[0], x_ref)
        np.testing.assert_array_equal(np.stack(ys, axis=-1), y_ref)
        for row, (k, a) in enumerate(bumps, start=1):
            inc = B.increments.copy()
            inc[:, k - 1] += a
            np.testing.assert_array_equal(x[row], reference_euler(spec, grid, inc)[0])
            np.testing.assert_array_equal(x[row][:, :k], x_ref[:, :k])

    @pytest.mark.parametrize("theta", [1e-4, 0.7])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    @pytest.mark.parametrize("paths", [40, "one"])
    def test_rotated_rows_match_reference_loop(self, kind, theta, paths):
        # sde-poisson's rows: B and Y^{+-theta}, each rotation read one step block at a
        # time off B and M's list, against the reference loop on its dense increments
        grid = TimeGrid(1.0, 2 * STEP_BLOCK + 50)
        B = martingale_batch("brownian", grid, SEED, 0, 40)
        M = martingale_batch(kind, grid, SEED, 0, 40)
        if paths == "one":
            B, M = B.select(3), M.select(3)
        rows = [B, rotate(B, M, theta), rotate(B, M, -theta)]
        spec = time_dependent()
        steps = range(grid.n_steps + 1)
        xs, ys = euler(spec, grid, rows, x_steps=steps, y_steps=steps)
        assert all(path._increments is None for path in (M, *rows[1:]))
        x = np.stack(xs, axis=-1)
        for row, a in enumerate((0.0, theta, -theta)):
            c, s = _cos_sin(a)
            inc = c * B.increments + s * M.increments if row else B.increments
            np.testing.assert_array_equal(x[row], reference_euler(spec, grid, inc)[0])
        np.testing.assert_array_equal(np.stack(ys, axis=-1),
                                      reference_euler(spec, grid, B.increments)[1])

    def test_bumps_in_any_order(self):
        # listed in descending step order, two at one step, one at a block's first step
        grid = TimeGrid(1.0, STEP_BLOCK + 50)
        B = martingale_batch("brownian", grid, SEED, 0, 4)
        spec = time_dependent()
        bumps = [(grid.n_steps, 1e-3), (STEP_BLOCK + 1, -2e-3), (7, 1e-3), (7, -1e-3),
                 (1, 3e-3)]
        steps = range(grid.n_steps + 1)
        xs, ys = euler(spec, grid, [B], bumps, x_steps=steps, y_steps=steps)
        x = np.stack(xs, axis=-1)
        x_ref, y_ref = reference_euler(spec, grid, B.increments)
        np.testing.assert_array_equal(x[0], x_ref)
        np.testing.assert_array_equal(np.stack(ys, axis=-1), y_ref)
        for row, (k, a) in enumerate(bumps, start=1):
            inc = B.increments.copy()
            inc[:, k - 1] += a
            np.testing.assert_array_equal(x[row], reference_euler(spec, grid, inc)[0])

    def test_rows_advance_from_their_bump(self):
        # only the driver row is advanced before the first bump step
        live = []

        def sigma(t, x):
            live.append(np.shape(x)[0])
            return np.sin(x) + 2.0

        base = make_sde("sine-diffusion")
        spec = SdeSpec(base.x0, sigma, base.b, base.sigma_x, base.b_x)
        grid = TimeGrid(1.0, STEP_BLOCK + 20)
        B = martingale_batch("brownian", grid, SEED, 0, 3)
        bumps = [(STEP_BLOCK + 5, 1e-3), (9, 1e-3), (9, -1e-3)]
        (x,), _ = euler(spec, grid, [B], bumps, x_steps=(5,))
        assert live == [1] * 8 + [3] * (STEP_BLOCK - 4) + [4] * (grid.n_steps - STEP_BLOCK - 4)
        # a row that is not live yet reads row 0
        np.testing.assert_array_equal(x, np.repeat(x[:1], 4, axis=0))

    def test_per_path_columns(self):
        grid = TimeGrid(1.0, STEP_BLOCK + 50)
        B = martingale_batch("brownian", grid, SEED, 0, 5)
        spec = make_sde("sine-diffusion")
        steps = np.array([0, 3, STEP_BLOCK + 50, STEP_BLOCK + 1, 3])
        (x,), (y,) = euler(spec, grid, [B], x_steps=(steps,), y_steps=(steps,))
        x_ref, y_ref = reference_euler(spec, grid, B.increments)
        np.testing.assert_array_equal(x[0], x_ref[np.arange(5), steps])
        np.testing.assert_array_equal(y, y_ref[np.arange(5), steps])

    def test_rejects_bad_steps(self, unit_grid, brownian):
        spec = make_sde("gbm")
        n = unit_grid.n_steps
        for bumps, steps in [([(0, 1e-3)], ()), ([(n + 1, 1e-3)], ()), ((), (n + 1,))]:
            with pytest.raises(ConfigurationError):
                euler(spec, unit_grid, [brownian], bumps, x_steps=steps)

    def test_exploding_path_stays_nonfinite(self, unit_grid):
        # dX = dB - X^3 dt is stable, but Euler diverges once X^2 dt > 2:
        # one kicked path explodes and the rest of the batch is untouched
        spec = SdeSpec(0.0, sigma=lambda t, x: 1.0, b=lambda t, x: -x**3,
                       sigma_x=lambda t, x: 0.0, b_x=lambda t, x: -3.0 * x**2)
        inc = martingale_batch("brownian", unit_grid, SEED, 0, 3).increments.copy()
        inc[1, 10] = 50.0
        x = solve_sde(spec, SamplePath(unit_grid, inc))
        assert np.all(np.isfinite(x[[0, 2]]))
        assert not np.isfinite(x[1, -1])
        np.testing.assert_array_equal(x[0], reference_euler(spec, unit_grid, inc[0])[0])
        np.testing.assert_array_equal(solve_sde(spec, SamplePath(unit_grid, inc[1])), x[1])

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
        # the kicked path spoils all 25 (u, t) pairs and is counted once
        assert res.excluded_paths == 1
        checks = {c["name"]: c["passed"] for c in res.checks}
        assert checks == {"sde_gbm_frac_ok": True, "sde_exclusion_rate": False}
