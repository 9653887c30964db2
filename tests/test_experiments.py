import re

import numpy as np
import pytest

from lentparticle.errors import ConfigurationError
from lentparticle.experiments import (
    EXPERIMENTS,
    JOINED_BYTES,
    ExperimentConfig,
    list_experiments,
    make_config,
    parallel_batches,
    run_experiment,
)
from lentparticle.reporting import render_csv, render_json, write_result


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            make_config("voodoo")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(experiment="voodoo")

    def test_unknown_param_rejected_before_simulation(self):
        with pytest.raises(ConfigurationError):
            make_config("isometry", params={"tolerance": 99})

    def test_invalid_numbers(self):
        with pytest.raises(ConfigurationError):
            make_config("isometry", n_paths=0)
        with pytest.raises(ConfigurationError, match="master_seed must be non-negative"):
            make_config("supremum", master_seed=-1)
        make_config("supremum", master_seed=0)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("horizon, n_steps", [(1.0, int("1" * 401)), (5e-324, 2)],
                             ids=["n_steps-past-every-float", "step-underflows-to-0"])
    def test_step_no_float_holds_rejected(self, name, horizon, n_steps):
        # the grid's rule, also for bessel, which builds no grid
        with pytest.raises(ConfigurationError,
                           match="horizon / n_steps must be a positive finite float"):
            make_config(name, horizon=horizon, n_steps=n_steps)

    @pytest.mark.parametrize("name", [
        "isometry", "covariance-decay", "bessel", "exp-vector-covariance", "ibp",
        "supremum", "reproducibility",
    ])
    def test_theta_rejected_where_unread(self, name):
        assert "theta" not in make_config(name).describe()["params"]
        with pytest.raises(ConfigurationError, match="unknown parameters"):
            make_config(name, params={"theta": 0.5})
        with pytest.raises(ConfigurationError, match="unknown config fields"):
            make_config(name, theta=0.5)  # no longer a config field

    @pytest.mark.parametrize("name", ["chaos-energy", "sde-lent-particle", "sde-poisson",
                                      "mehler"])
    def test_theta_accepted_where_read(self, name):
        step = {"chaos-energy": 1e-3}.get(name, 1e-4)
        desc = make_config(name).describe()
        assert "theta" not in desc
        assert desc["params"]["theta"] == step  # the default is written out
        assert make_config(name, params={"theta": 0.5}).describe()["params"]["theta"] == 0.5

    def test_registered_difference_step(self):
        def thetas(**params):
            cfg = make_config("chaos-energy", n_paths=16, n_steps=20, params=params)
            return {r["theta"] for r in run_experiment(cfg).rows}, cfg.param("theta")

        assert thetas() == ({1e-3}, 1e-3)
        assert thetas(theta=2e-3) == ({2e-3}, 2e-3)

    @pytest.mark.parametrize("fields, message", [
        ({"n_paths": "100"}, "n_paths must be an integer, got '100'"),
        ({"n_steps": 10.0}, "n_steps must be an integer"),
        ({"n_steps": True}, "n_steps must be an integer, got True"),
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"workers": 1.5}, "workers must be an integer"),
        ({"horizon": "1"}, "horizon must be a number"),
        ({"horizon": True}, "horizon must be a number"),
        ({"theta": 1e-3}, "unknown config fields: \\['theta'\\]"),
        ({"params": [1]}, "params must be an object"),
        ({"surprise": 1}, "unknown config fields: \\['surprise'\\]"),
    ])
    def test_field_kinds(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            make_config("chaos-energy", **fields)

    def test_field_kinds_accepted(self):
        cfg = make_config("chaos-energy", horizon=2, n_paths=np.int64(5), params={"theta": 1})
        assert (cfg.horizon, cfg.param("theta"), cfg.n_paths) == (2, 1, 5)
        with pytest.raises(ConfigurationError, match="experiment must be a string"):
            ExperimentConfig(experiment=1)

    @pytest.mark.parametrize("name, params, message", [
        ("covariance-decay", {"phis": ["a"]}, "phis\\[0\\] must be a number, got 'a'"),
        ("covariance-decay", {"orders": [1, 2.5]}, "orders\\[1\\] must be an integer"),
        ("covariance-decay", {"orders": [True]}, "orders\\[0\\] must be an integer"),
        ("isometry", {"rotation_theta": "x"}, "rotation_theta must be a number, got 'x'"),
        ("mehler", {"n_outer": 4.5}, "n_outer must be an integer, got 4.5"),
        ("chaos-energy", {"functional": 3}, "functional must be a string"),
        ("chaos-energy", {"theta": "x"}, "theta must be a number, got 'x'"),
        ("sde-lent-particle", {"sde": ["gbm", 1]}, "sde\\[1\\] must be a string"),
        ("sde-poisson", {"sde_params": []}, "sde_params must be an object"),
        ("sde-poisson", {"sde_params": {"gbm": 1}}, "sde_params\\['gbm'\\] must be an object"),
    ])
    def test_param_kinds(self, name, params, message):
        with pytest.raises(ConfigurationError, match=message):
            make_config(name, params=params)

    def test_param_kinds_accepted(self):
        cfg = make_config("covariance-decay", params={"orders": [2], "phis": [0, 0.5]})
        assert cfg.param("phis") == [0, 0.5]  # an int is a number
        assert make_config("isometry", params={"rotation_theta": 1}).param("rotation_theta") == 1

    @pytest.mark.parametrize("name, key, value", [
        ("isometry", "orders", 2),
        ("bessel", "h_norm_sq", 1.0),
        ("sde-lent-particle", "sde", "gbm"),
    ])
    def test_single_value_for_a_tuple_param(self, name, key, value):
        cfg = make_config(name, params={key: value})
        assert cfg.param(key) == (value,)
        assert cfg.describe()["params"][key] == (value,)

    def test_caller_params_left_unmodified(self):
        params = {"orders": 2, "phis": [0.0]}
        cfg = make_config("covariance-decay", params=params)
        assert params == {"orders": 2, "phis": [0.0]}
        assert cfg.params is not params
        assert cfg.param("orders") == (2,)

    def test_sde_defaults_applied(self):
        cfg = make_config("sde-lent-particle")
        assert cfg.n_steps == 10_000
        assert cfg.n_paths == 1000

    def test_describe_includes_all_params(self):
        cfg = make_config("supremum", n_paths=10)
        desc = cfg.describe()
        assert desc["params"] == {"u": 0.5, "a": 1e-6}
        assert desc["n_paths"] == 10

    def test_listing(self):
        names = [n for n, _, _ in list_experiments()]
        assert len(names) == 11
        assert names == sorted(names)
        assert list_experiments("bessel")[0][0] == "bessel"
        assert list_experiments("nothing-here") == []


class TestParallelBatches:
    def test_partition_covers_range(self):
        def fn(s, c):
            return {"index": np.arange(s, s + c), "start": np.full(c, s)}

        joined = parallel_batches(fn, 10_001, 1, chunk=4096, width=2)
        np.testing.assert_array_equal(joined["index"], np.arange(10_001))
        starts, counts = np.unique(joined["start"], return_counts=True)
        assert starts.tolist() == [0, 4096, 8192]
        assert counts.tolist() == [4096, 4096, 1809]

    def test_worker_count_does_not_change_results(self):
        def fn(s, c):
            return {"x": np.arange(s, s + c, dtype=float), "rows": np.full((c, 2), s)}

        serial = parallel_batches(fn, 1000, 1, chunk=64, width=3)
        threaded = parallel_batches(fn, 1000, 8, chunk=64, width=3)
        assert list(threaded) == ["x", "rows"]
        np.testing.assert_array_equal(threaded["x"], np.arange(1000.0))
        for key in serial:
            np.testing.assert_array_equal(serial[key], threaded[key])

    def test_no_paths_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one path"):
            parallel_batches(lambda s, c: {"x": np.zeros(c)}, 0, 1, chunk=64, width=1)

    def test_joined_results_past_the_budget_are_refused_before_any_batch(self):
        def fn(start, count):
            raise AssertionError("a batch ran")

        most = JOINED_BYTES // (8 * 3)  # paths of 3 values each that fit
        with pytest.raises(ConfigurationError, match=f"results pass {JOINED_BYTES} bytes"):
            parallel_batches(fn, most + 1, 1, chunk=4096, width=3)
        with pytest.raises(AssertionError, match="a batch ran"):
            parallel_batches(fn, most, 1, chunk=4096, width=3)


# every experiment that calls parallel_batches, small but with every kind of result
JOINING = [
    *[pytest.param(name, {"n_paths": 300, "n_steps": 50}, id=name) for name in (
        "isometry", "covariance-decay", "exp-vector-covariance", "chaos-energy",
        "ibp", "supremum", "sde-lent-particle", "sde-poisson")],
    pytest.param("mehler", {"n_steps": 50, "params": {
        "n_outer": 8, "n_inner": 16, "n_eigen_paths": 8}}, id="mehler"),
]


class TestJoinedBudget:
    """n_paths, target_n_paths and n_outer are bounded by the bytes of the joined results."""

    @pytest.mark.parametrize("name, overrides", JOINING)
    def test_width_bounds_the_joined_results(self, monkeypatch, name, overrides):
        from lentparticle import experiments

        original, calls = experiments.parallel_batches, []

        def recorded(fn, n_paths, workers, chunk, width):
            joined = original(fn, n_paths, workers, chunk=chunk, width=width)
            calls.append((sum(v.nbytes for v in joined.values()), n_paths * width * 8))
            return joined

        monkeypatch.setattr(experiments, "parallel_batches", recorded)
        run_experiment(make_config(name, **overrides))
        assert calls
        for joined_bytes, bound in calls:
            assert joined_bytes <= bound

    @pytest.mark.parametrize("name, overrides", [
        *[pytest.param(name, {"n_paths": 10**9}, id=name) for name in (
            "isometry", "covariance-decay", "exp-vector-covariance", "chaos-energy",
            "ibp", "supremum", "sde-lent-particle", "sde-poisson")],
        pytest.param("mehler", {"params": {"n_outer": 10**9}}, id="mehler-n_outer"),
        pytest.param("reproducibility", {"params": {"target_n_paths": 10**9}},
                     id="reproducibility-target_n_paths"),
    ])
    def test_too_many_paths_are_refused_before_any_draw(self, monkeypatch, name, overrides):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError("a path was drawn")

        for driver in ("martingale_batch", "brownian_rows", "inner_hat_batch"):
            monkeypatch.setattr(experiments, driver, drawn)
        with pytest.raises(ConfigurationError, match=f"results pass {JOINED_BYTES} bytes"):
            run_experiment(make_config(name, **overrides))


class TestBatchBudget:
    """Every runner sizes its batches from the grid's byte budget, here cut to 64 KiB."""

    BUDGET = 64 * 2**10

    @pytest.fixture
    def small_budget(self, monkeypatch):
        from lentparticle import grid

        monkeypatch.setattr(grid, "BATCH_BYTES", self.BUDGET)

    # every experiment that calls parallel_batches, past one batch at the small budget
    @pytest.mark.parametrize("name, overrides", [
        *[pytest.param(name, {"n_paths": 300, "n_steps": 50}, id=name) for name in (
            "isometry", "covariance-decay", "exp-vector-covariance", "chaos-energy",
            "ibp", "supremum", "sde-lent-particle", "sde-poisson")],
        pytest.param("mehler", {"n_steps": 50, "params": {
            "n_outer": 8, "n_inner": 16, "n_eigen_paths": 2}}, id="mehler"),
    ])
    def test_every_batch_fits_the_budget(self, small_budget, monkeypatch, name, overrides):
        from lentparticle import experiments

        original, calls = experiments.parallel_batches, []

        def recorded(fn, n_paths, workers, chunk=None, **kwargs):
            calls.append((n_paths, chunk))
            return original(fn, n_paths, workers, chunk=chunk, **kwargs)

        monkeypatch.setattr(experiments, "parallel_batches", recorded)
        cfg = make_config(name, **overrides)
        run_experiment(cfg)
        assert calls
        for n_paths, chunk in calls:
            assert chunk is not None and chunk * cfg.n_steps * 8 <= self.BUDGET
            assert n_paths > chunk or name == "mehler"

    def test_ibp_peak_does_not_grow_with_the_grid(self, small_budget):
        import tracemalloc

        run_experiment(make_config("ibp", n_paths=16, n_steps=64))  # first-call allocations
        peaks = []
        for n_steps in (64, 256):
            cfg = make_config("ibp", n_paths=1024, n_steps=n_steps)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    # the benchmark's shapes: chaos-rotation (500 steps), sde-flow (4000 steps) and
    # ou-nested (32 outer paths) keep the batches of the fixed 4096 rows (512 for the
    # SDEs) that preceded the budget; stream-scan's 1000 steps take 2097 rows
    @pytest.mark.parametrize("name, overrides, batches", [
        pytest.param(*case, id=case[0]) for case in [
            ("covariance-decay", {"n_paths": 8192, "n_steps": 500}, [4096, 4096]),
            ("chaos-energy", {"n_paths": 8192, "n_steps": 500}, [4096, 4096]),
            ("sde-lent-particle", {"n_paths": 128, "n_steps": 4000}, [128]),
            ("sde-poisson", {"n_paths": 512, "n_steps": 4000}, [512]),
            ("mehler", {"params": {"n_outer": 32}}, [32]),
            ("supremum", {"n_paths": 8192}, [2097, 2097, 2097, 1901]),
            ("ibp", {"n_paths": 4096}, [2097, 1999]),
            ("exp-vector-covariance", {"n_paths": 4096}, [2097, 1999]),
        ]])
    def test_batches_of_the_benchmark_shapes(self, monkeypatch, name, overrides, batches):
        from lentparticle import experiments

        class Batched(Exception):
            pass

        def recorded(fn, n_paths, workers, chunk=None, **_):
            raise Batched([min(chunk, n_paths - s) for s in range(0, n_paths, chunk)])

        monkeypatch.setattr(experiments, "parallel_batches", recorded)
        with pytest.raises(Batched) as raised:
            run_experiment(make_config(name, **overrides))
        assert raised.value.args[0] == batches


class TestReporting:
    def test_csv_column_order_and_floats(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0, "c": True}]
        text = render_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.5,"
        assert lines[2] == "2,1.0,true"

    def test_json_is_sorted(self):
        # a summary holds Python values; a numpy float is one, a float subclass
        text = render_json({"b": np.float64(1.5), "a": 2, "c": True})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "1.5" in text and "true" in text

    def test_write_result_files(self, tmp_path):
        res = run_experiment(make_config("bessel"))
        csv_path, json_path = write_result(res, str(tmp_path))
        assert (tmp_path / "bessel.csv").read_text().startswith("h_norm_sq,n,c_n_sq")
        assert '"passed": true' in (tmp_path / "bessel.json").read_text()


class TestRunners:
    def test_bessel_checks_pass_where_e_to_the_x_is_large(self):
        res = run_experiment(make_config("bessel", params={
            "h_norm_sq": (14.0, 20.0, 40.0, 100.0, 700.0)}))
        assert res.passed, [c for c in res.checks if not c["passed"]]

    @pytest.mark.parametrize("x", [10.0, 14.0, 100.0, 700.0])
    def test_bessel_checks_fail_on_a_scaled_coefficient(self, monkeypatch, x):
        from dataclasses import replace

        from lentparticle import experiments

        original = experiments.bessel_spectrum

        def scaled(h_norm_sq, n_max):
            report = original(h_norm_sq, n_max)
            coefficients = report.coefficients.copy()
            coefficients[1] *= 1.0 + 1e-9
            return replace(report, coefficients=coefficients)

        monkeypatch.setattr(experiments, "bessel_spectrum", scaled)
        checks = {c["name"]: c["passed"]
                  for c in run_experiment(make_config("bessel", params={
                      "h_norm_sq": (x,)})).checks}
        assert not checks[f"parseval_x{x}"]
        assert not checks[f"fourier_x{x}_phi0.0000"]

    def test_small_isometry(self):
        # structural check at a small path count; the statistical pass/fail
        # at the full 1e5 paths lives in the acceptance suite (higher-order
        # squares are heavy-tailed, so 4 SE is not reliable at 3000 paths)
        res = run_experiment(make_config("isometry", n_paths=3000))
        assert len(res.rows) == 12  # 3 orders x 4 drivers
        assert {r["driver"] for r in res.rows} == {
            "brownian", "poisson", "compound", "rotation"
        }
        assert all(np.isfinite(r["z_score"]) for r in res.rows)
        order1 = [c for c in res.checks if "order1" in c["name"]]
        assert order1 and all(c["passed"] for c in order1)

    def test_small_supremum(self):
        res = run_experiment(make_config("supremum", n_paths=3000))
        assert res.passed
        assert res.rows[0]["target"] == 0.5
        (binary,) = [c for c in res.checks if c["name"] == "supremum_binary"]
        assert binary["offending_paths"] == 0

    def test_supremum_binary_can_fail(self, monkeypatch):
        from lentparticle import experiments, gradients

        def halved(gap, a):
            return 0.5 * gradients.supremum_quotient(gap, a)

        monkeypatch.setattr(experiments, "supremum_quotient", halved)
        res = run_experiment(make_config("supremum", n_paths=500))
        (binary,) = [c for c in res.checks if c["name"] == "supremum_binary"]
        # every untied path whose quotient should be 1 now reads 0.5
        untied = 500 - res.rows[0]["tied_paths"]
        assert not binary["passed"]
        assert binary["offending_paths"] == round(res.rows[0]["mean_gradient"] * untied) > 0

    # every Monte Carlo experiment, at sizes that span at least two batches
    @pytest.mark.parametrize("name, overrides", [
        *[pytest.param(name, {"n_paths": 4097, "n_steps": 20}, id=name) for name in (
            "isometry", "covariance-decay", "exp-vector-covariance", "chaos-energy",
            "ibp", "supremum")],
        # 4096-path batches; on 50 steps the default t_grid lies on the grid
        *[pytest.param(name, {"n_paths": 4097, "n_steps": 50}, id=name)
          for name in ("sde-lent-particle", "sde-poisson")],
        # 32 outer paths fill one default batch, so this case runs 8-path batches
        pytest.param("mehler", {"n_steps": 20, "params": {"n_outer": 32}}, id="mehler"),
    ])
    def test_report_bytes_stable_across_workers(self, name, overrides, monkeypatch):
        from lentparticle import experiments

        original = experiments.parallel_batches
        runs, joins = [], []
        chunk = {"chunk": 8} if name == "mehler" else {}

        def recorded(*args, **kwargs):
            joined = original(*args, **{**kwargs, **chunk})
            joins[-1].append(joined)
            return joined

        monkeypatch.setattr(experiments, "parallel_batches", recorded)
        for workers in (1, 2):
            joins.append([])
            res = run_experiment(make_config(name, workers=workers, **overrides))
            summary = res.summary()
            summary["config"]["workers"] = None
            runs.append((render_csv(res.rows), render_json(summary)))
        assert runs[0] == runs[1]
        # the per-path arrays themselves, key by key: a report can hide a
        # batch order through an order-free reduction
        serial, threaded = joins
        assert len(serial) == len(threaded) >= 1
        for a, b in zip(serial, threaded):
            assert a.keys() == b.keys()
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    # every experiment that calls parallel_batches, at small sizes
    @pytest.mark.parametrize("name, overrides", [
        *[pytest.param(name, {"n_paths": 700, "n_steps": 60}, id=name) for name in (
            "isometry", "covariance-decay", "exp-vector-covariance", "chaos-energy",
            "ibp", "supremum")],
        pytest.param("sde-lent-particle", {"n_paths": 40, "n_steps": 400},
                     id="sde-lent-particle"),
        # at a chunk of 1 most batches hold no single-jump path
        pytest.param("sde-poisson", {"n_paths": 300, "n_steps": 400}, id="sde-poisson"),
        pytest.param("mehler", {"n_steps": 60, "params": {
            "n_outer": 8, "n_inner": 16, "n_eigen_paths": 2}}, id="mehler"),
    ])
    def test_report_bytes_independent_of_batch_boundaries(self, name, overrides,
                                                          monkeypatch):
        from lentparticle import experiments

        original = experiments.parallel_batches

        def render():
            res = run_experiment(make_config(name, **overrides))
            return render_csv(res.rows), render_json(res.summary())

        default = render()
        for size in (1, 7):
            def rechunked(fn, n_paths, workers, chunk=None, size=size, **kwargs):
                return original(fn, n_paths, workers, chunk=size, **kwargs)

            monkeypatch.setattr(experiments, "parallel_batches", rechunked)
            assert render() == default, f"chunk {size}"

    def test_summary_carries_version_and_config(self):
        import lentparticle

        res = run_experiment(make_config("bessel"))
        summary = res.summary()
        assert summary["version"] == lentparticle.__version__
        assert summary["config"]["experiment"] == "bessel"
        assert all(set(c) >= {"name", "passed"} for c in summary["checks"])

    def test_reproducibility_rejects_self_target(self):
        cfg = make_config("reproducibility", params={"target": "reproducibility"})
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)

    def test_reproducibility_workers_check_can_fail(self, monkeypatch):
        from lentparticle import experiments

        cfg = make_config("reproducibility", n_steps=20)
        assert run_experiment(cfg).passed
        original = experiments.parallel_batches

        def reversed_when_threaded(fn, n_paths, workers, chunk=4096, **kwargs):
            # the same batches, joined last batch first
            joined = original(fn, n_paths, workers, chunk, **kwargs)
            if workers <= 1:
                return joined
            starts = range(0, n_paths, chunk)[::-1]
            return {key: np.concatenate([v[s:s + chunk] for s in starts])
                    for key, v in joined.items()}

        # the default target_n_paths spans two batches, so their order shows; at the
        # default grid too
        default = make_config("reproducibility")
        for grid in (cfg.grid, default.grid):
            assert default.param("target_n_paths") > grid.batch_rows
        monkeypatch.setattr(experiments, "parallel_batches", reversed_when_threaded)
        checks = {c["name"]: c["passed"] for c in run_experiment(cfg).checks}
        assert checks == {"rerun_identical": True, "workers_identical": False}

    @pytest.mark.parametrize("overrides, message", [
        # on 7 steps no default t but 1.0 is a grid time; 0.82 and 0.88 both round to 6/7
        ({"n_steps": 7}, "0.76 is not a point"),
        # t / dt overflows: the default t_grid past a tiny horizon, and a huge t
        ({"n_steps": 1000, "horizon": 1e-310}, "0.76 is not a point"),
        ({"n_steps": 1000, "params": {"t_grid": (1e308,)}}, r"1e\+308 is not a point"),
    ], ids=["off-grid", "tiny-horizon", "huge-t"])
    def test_sde_off_grid_t_rejected_before_drawing(self, monkeypatch, overrides, message):
        from lentparticle import experiments

        drawn = []
        monkeypatch.setattr(experiments, "martingale_batch", lambda *args: drawn.append(args))
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(make_config("sde-lent-particle", n_paths=4, **overrides))
        assert drawn == []

    @pytest.mark.parametrize("u, message", [
        (np.nan, r"u_grid\[0\] must be finite, got nan"),
        (0.0, r"time 0.0 outside"),
    ], ids=["nan", "0.0"])
    def test_sde_u_outside_the_horizon_rejected_before_drawing(self, monkeypatch, u, message):
        from lentparticle import experiments

        drawn = []
        monkeypatch.setattr(experiments, "martingale_batch", lambda *args: drawn.append(args))
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(make_config("sde-lent-particle", n_steps=100, n_paths=600,
                                       params={"u_grid": (u,)}))
        assert drawn == []

    @pytest.mark.parametrize("name, params", [
        ("sde-poisson", {"sde_params": {"gmb": {"sigma": 0.5}}}),
        ("sde-poisson", {"sde_params": {"gbm": {}, "additive": {}}}),  # additive is not run
        ("sde-lent-particle", {"sde": ("gbm",), "sde_params": {"sine-diffusion": {}}}),
    ])
    def test_sde_params_for_an_sde_not_run_rejected_before_drawing(self, monkeypatch, name,
                                                                     params):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        with pytest.raises(ConfigurationError, match="sde_params names SDEs that are not run"):
            run_experiment(make_config(name, n_steps=100, n_paths=4, params=params))

    @pytest.mark.parametrize("name", ["chaos-energy", "sde-lent-particle", "sde-poisson",
                                      "mehler"])
    @pytest.mark.parametrize("theta, message", [
        (0.0, "theta must be positive and finite"),
        (-1.0, "theta must be positive and finite"),
        (float("nan"), "theta must be finite, got nan"),
        (float("inf"), "theta must be finite, got inf"),
    ], ids=["0.0", "-1.0", "nan", "inf"])
    def test_theta_rejected_before_drawing(self, monkeypatch, name, theta, message):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        monkeypatch.setattr(experiments, "inner_hat_batch", drawn)
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(make_config(name, n_steps=100, n_paths=4, params={"theta": theta}))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("name, param", [
        *((name, param) for name, spec in EXPERIMENTS.items()
          for param, default in spec.param_defaults.items()
          if isinstance(default, float)
          or isinstance(default, tuple) and isinstance(default[0], float)),
        *((name, "horizon") for name in EXPERIMENTS),
    ])
    def test_non_finite_number_rejected_before_drawing(self, monkeypatch, name, param, bad):
        # 10**400 is how JSON reads a 401-digit integer: it passed every range check
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        monkeypatch.setattr(experiments, "inner_hat_batch", drawn)
        default = EXPERIMENTS[name].param_defaults.get(param)
        if param == "horizon":
            label, fields = param, {"horizon": bad}
        elif isinstance(default, tuple):  # the bad value after the defaults
            label, fields = f"{param}[{len(default)}]", {"params": {param: [*default, bad]}}
        else:
            label, fields = param, {"params": {param: bad}}
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(label)} must be finite, got "):
            run_experiment(make_config(name, n_steps=20, n_paths=8, **fields))

    @pytest.mark.parametrize("name", ["sde-lent-particle", "sde-poisson"])
    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"),
                                       pytest.param(10**400, id="10**400")])
    def test_non_finite_sde_coefficient_rejected_before_drawing(self, monkeypatch, name,
                                                                sigma):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        with pytest.raises(ConfigurationError, match="'gbm' parameter 'sigma' must be finite"):
            run_experiment(make_config(name, n_steps=100, n_paths=4, params={
                "sde_params": {"gbm": {"sigma": sigma}}}))

    def test_sde_row_without_a_finite_path_is_reported(self):
        # every path blows up: the row is NaN, not a crash, and both checks fail
        with np.errstate(all="ignore"):
            res = run_experiment(make_config("sde-lent-particle", n_steps=100, n_paths=4, params={
                "sde": "gbm", "sde_params": {"gbm": {"sigma": 1e300}},
                "u_grid": 0.5, "t_grid": 1.0}))
        (row,) = res.rows
        assert all(np.isnan(row[key])
                   for key in ("estimate", "oracle", "max_rel_err", "frac_within_1e-2"))
        checks = {c["name"]: c for c in res.checks}
        assert not checks["sde_gbm_frac_ok"]["passed"]  # min(1.0, nan) would read 1.0
        assert np.isnan(checks["sde_gbm_frac_ok"]["worst_frac"])
        assert not checks["sde_exclusion_rate"]["passed"]
        assert res.excluded_paths == checks["sde_exclusion_rate"]["excluded"] == 4
        assert "NaN" in render_json(res.summary())

    def test_sde_excluded_path_counted_once_per_sde(self, monkeypatch):
        from lentparticle import experiments

        original = experiments.lent_particle_sde_table

        def one_nan_path(spec, B, us, ts, theta):
            table = original(spec, B, us, ts, theta)
            for g in table.values():
                g.value[7] = np.nan  # path 7 of the one batch, in every (u, t) row
            return table

        monkeypatch.setattr(experiments, "lent_particle_sde_table", one_nan_path)
        res = run_experiment(make_config("sde-lent-particle", n_steps=100, n_paths=40, params={
            "sde": ["additive", "gbm"], "u_grid": [0.1, 0.2, 0.3], "t_grid": [0.8, 0.9, 1.0]}))
        assert len(res.rows) == 18
        assert res.excluded_paths == 2  # one path of each SDE, not one per row
        (rate,) = [c for c in res.checks if c["name"] == "sde_exclusion_rate"]
        assert rate["excluded"] == 2
        assert {c["name"]: c["passed"] for c in res.checks if c["name"] != "sde_exclusion_rate"
                } == {"sde_additive_frac_ok": True, "sde_additive_exact": True,
                      "sde_gbm_frac_ok": True}

    def test_sde_poisson_counts_blown_up_paths(self):
        with np.errstate(all="ignore"):
            res = run_experiment(make_config("sde-poisson", n_steps=100, n_paths=200, params={
                "sde_params": {"gbm": {"sigma": 1e300}}}))
        (row,) = res.rows
        single = round(row["single_jump_freq"] * 200)
        assert single > 0
        assert res.excluded_paths == single  # every single-jump path blew up
        assert np.isnan(row["frac_within_1e-2"])
        assert not res.passed

    def test_sde_poisson_partial_blow_up_fails(self):
        # some single-jump paths blow up: they count as misses in poisson_frac_ok, so the
        # check cannot pass on the finite paths alone
        with np.errstate(all="ignore"):
            res = run_experiment(make_config("sde-poisson", n_steps=100, n_paths=200, params={
                "sde_params": {"gbm": {"sigma": 3000}}}))
        (row,) = res.rows
        single = round(row["single_jump_freq"] * 200)
        assert 0 < res.excluded_paths < single
        assert row["frac_within_1e-2"] >= 0.99  # the finite paths alone would pass
        checks = {c["name"]: c for c in res.checks}
        assert checks["poisson_frac_ok"]["frac_ok"] <= 1.0 - res.excluded_paths / single + 1e-12
        assert not checks["poisson_frac_ok"]["passed"]

    def test_sde_poisson_draws_b_on_single_jump_paths_only(self, monkeypatch):
        from lentparticle import experiments
        from lentparticle.drivers import brownian_rows, martingale_batch

        drawn = []

        def rows(grid, seed, indices):
            drawn.append(indices.tolist())
            return brownian_rows(grid, seed, indices)

        def compound_only(kind, *args):
            assert kind == "compound", "a whole Brownian batch was drawn"
            return martingale_batch(kind, *args)

        original = experiments.parallel_batches
        monkeypatch.setattr(experiments, "brownian_rows", rows)
        monkeypatch.setattr(experiments, "martingale_batch", compound_only)
        monkeypatch.setattr(experiments, "parallel_batches", lambda fn, n_paths, workers, chunk,
                            width: original(fn, n_paths, workers, 4, width))
        cfg = make_config("sde-poisson", n_steps=100, n_paths=40)
        run_experiment(cfg)
        jumps = martingale_batch("compound", cfg.grid, cfg.master_seed, 0, 40).jump_increments
        single = np.count_nonzero(jumps, axis=-1) == 1
        assert sorted(i for batch in drawn for i in batch) == np.flatnonzero(single).tolist()
        # a 4-path batch without a single-jump path returns before it draws B
        with_single = single.reshape(10, 4).any(axis=1)
        assert not with_single.all()
        assert len(drawn) == with_single.sum()

    @staticmethod
    def _record_jump_batches(monkeypatch):
        """The jump-driver paths the experiments draw, recorded as they are drawn."""
        from lentparticle import experiments
        from lentparticle.drivers import martingale_batch

        drawn = []

        def recorded(kind, *args):
            path = martingale_batch(kind, *args)
            if kind != "brownian":
                drawn.append(path)
            return path

        monkeypatch.setattr(experiments, "martingale_batch", recorded)
        return drawn

    @pytest.mark.parametrize("name", ["covariance-decay", "chaos-energy"])
    def test_rotated_chaos_builds_no_dense_jump_array(self, monkeypatch, name):
        # RotatedChaos reduces over the particle list: the driver's dense increments are
        # never built
        drawn = self._record_jump_batches(monkeypatch)
        run_experiment(make_config(name, n_steps=200, n_paths=300))
        assert len(drawn) == (1 if name == "covariance-decay" else 2)  # one batch per driver
        for path in drawn:
            assert path._increments is None

    def test_sde_poisson_builds_no_dense_jump_array(self, monkeypatch):
        from lentparticle import experiments

        drawn, selected = self._record_jump_batches(monkeypatch), []
        original = experiments.lent_particle_sde_poisson

        def recorded(spec, brownian, martingale, *args):
            selected.append(martingale)
            return original(spec, brownian, martingale, *args)

        monkeypatch.setattr(experiments, "lent_particle_sde_poisson", recorded)
        run_experiment(make_config("sde-poisson", n_steps=400, n_paths=300))
        (M,), (single,) = drawn, selected
        n_single = int((M.particles.counts() == 1).sum())
        assert 0 < n_single < 300
        assert single.particles.shape == (n_single,)
        # rotate reads the selection's particle list: no dense row of M is built
        for path in (M, single):
            assert path._increments is None

    def test_sde_poisson_batch_holds_its_brownian_rows_once(self, monkeypatch):
        # sde.euler reads Y^{+-theta} one step block at a time off B and M's list: one
        # batch at the benchmark's shape holds B's rows and the block temporaries, not
        # the two rotations as dense paths x steps arrays
        import tracemalloc

        from lentparticle import experiments, gradients

        drawn, rotations = [], []
        brownian_rows, rotate = experiments.brownian_rows, gradients.rotate
        monkeypatch.setattr(experiments, "brownian_rows",
                            lambda *args: drawn.append(brownian_rows(*args)) or drawn[-1])
        monkeypatch.setattr(gradients, "rotate",
                            lambda *args: rotations.append(rotate(*args)) or rotations[-1])
        run_experiment(make_config("sde-poisson", n_steps=100, n_paths=16))  # first calls
        drawn.clear(), rotations.clear()
        cfg = make_config("sde-poisson", n_steps=4000, n_paths=512)
        assert cfg.n_paths <= cfg.grid.batch_rows  # one batch
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (B,) = drawn  # the single-jump rows
        assert peak <= 2 * B.increments.nbytes, (peak, B.increments.nbytes)
        assert len(rotations) == 2
        for Y in rotations:
            assert Y._increments is None

    def test_mehler_joins_its_outer_paths_in_one_batch(self, monkeypatch):
        # the outer-path work holds the interpreter lock: more batches only add workers' CPU
        from lentparticle import experiments

        original, batches = experiments.parallel_batches, []

        def recorded(fn, *args, **kwargs):
            return original(lambda s, c: batches.append(c) or fn(s, c), *args, **kwargs)

        monkeypatch.setattr(experiments, "parallel_batches", recorded)
        run_experiment(make_config("mehler", n_steps=20, workers=2, params={
            "n_outer": 32, "n_inner": 8, "n_eigen_paths": 2}))
        assert batches == [32]

    def test_mehler_measures_the_eigenvalues(self):
        res = run_experiment(make_config("mehler", n_steps=100, params={
            "n_outer": 4, "n_eigen_paths": 4}))
        rows = [r for r in res.rows if r["quantity"].startswith("eigenvalue")]
        assert [r["target"] for r in rows] == pytest.approx([np.exp(-0.15), np.exp(-0.3)])
        for r in rows:
            assert np.isfinite(r["std_error"]) and r["std_error"] > 0.0
            assert abs(r["estimate"] - r["target"]) <= 4.0 * r["std_error"]

    def test_mehler_draws_each_outer_path_once(self, monkeypatch):
        # the eigenvalue rows read the first outer paths: no path is drawn twice, and
        # each functional builds one rotation per outer path, which Gamma, the brackets
        # and the eigenvalue rows share
        from lentparticle import chaos, experiments

        keys, outer, orders = [], [], []
        original_hats = experiments.inner_hat_batch
        original_batch = experiments.martingale_batch
        original_rotated = chaos.RotatedChaos

        def recording_hats(grid, master_seed, outer_index, count):
            keys.append(outer_index)
            return original_hats(grid, master_seed, outer_index, count)

        def recording_batch(kind, grid, master_seed, start, count):
            outer.append((kind, start, count))
            return original_batch(kind, grid, master_seed, start, count)

        def recording_rotated(F, brownian, martingale):
            orders.append(max(kernel.order for kernel in F.kernels))
            return original_rotated(F, brownian, martingale)

        monkeypatch.setattr(experiments, "inner_hat_batch", recording_hats)
        monkeypatch.setattr(experiments, "martingale_batch", recording_batch)
        monkeypatch.setattr(chaos, "RotatedChaos", recording_rotated)
        run_experiment(make_config(
            "mehler", n_steps=20, params={"n_outer": 3, "n_inner": 8, "n_eigen_paths": 2}
        ))
        assert sorted(keys) == list(range(3))
        assert {kind for kind, _, _ in outer} == {"brownian"}
        assert sorted(i for _, start, count in outer for i in range(start, start + count)) == (
            list(range(3)))
        assert sorted(orders) == [1, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("params", [
        {"t_bracket": (0.1,)},  # one bracket time
        {"n_eigen_paths": 0},
        {"n_eigen_paths": 3},  # more than n_outer
    ])
    def test_mehler_rejects_unusable_params(self, params):
        cfg = make_config("mehler", n_steps=20, params={
            "n_outer": 2, "n_inner": 8, "n_eigen_paths": 1, **params})
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)

    @pytest.mark.parametrize("params, message", [
        ({"n_eigen_paths": 0}, "n_eigen_paths must be in 1..n_outer = 400, got 0"),
        ({"t_eigen": -1.0}, "t_eigen must be positive and finite, got -1.0"),
        ({"t_eigen": 0.0}, "t_eigen must be positive and finite"),
        # the eigenvalue rows read the first n_eigen_paths outer paths
        ({"n_outer": 4, "n_eigen_paths": 5}, "n_eigen_paths must be in 1..n_outer = 4, got 5"),
        # Gamma and the eigen rows' standard errors need two hat paths per outer path
        ({"n_inner": -3}, "n_inner must be at least 2, got -3"),
        ({"n_inner": 0}, "n_inner must be at least 2, got 0"),
        ({"n_inner": 1}, "n_inner must be at least 2, got 1"),
    ])
    def test_mehler_rejects_params_before_drawing(self, monkeypatch, params, message):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        monkeypatch.setattr(experiments, "inner_hat_batch", drawn)
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(make_config("mehler", n_steps=20, params=params))

    @pytest.mark.parametrize("name, params, message", [
        # an order-0 kernel is a constant: its standard error of 0 failed after every batch
        ("isometry", {"orders": [1, 0]}, "orders must be a non-empty"),
        ("covariance-decay", {"orders": [0]}, "orders must be a non-empty"),
        ("covariance-decay", {"orders": []}, "orders must be a non-empty"),
        ("isometry", {"rotation_theta": float("nan")}, "rotation_theta must be finite, got nan"),
        ("covariance-decay", {"phis": [0.0, float("nan")]}, r"phis\[1\] must be finite, got nan"),
        ("exp-vector-covariance", {"phis": [float("inf")]}, r"phis\[0\] must be finite, got inf"),
        # the target e^h_norm_sq overflowed after every batch had been drawn
        ("exp-vector-covariance", {"h_norm_sq": 800.0}, r"h_norm_sq must be in \[0, 709.78\]"),
        # F-sharp's energy is read off the kernels of a chaos vector
        ("chaos-energy", {"functional": "square"}, "functional must be a chaos vector"),
    ])
    def test_chaos_params_rejected_before_drawing(self, monkeypatch, name, params, message):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(make_config(name, n_steps=20, n_paths=8, params=params))

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_grid_past_the_batch_budget_rejected_before_drawing(self, monkeypatch, name):
        # not one path of 2**21 + 1 float64 steps fits the 16 MiB batch budget
        from lentparticle import experiments

        drawn = []
        monkeypatch.setattr(experiments, "martingale_batch", lambda *args: drawn.append(args))
        with pytest.raises(ConfigurationError, match="n_steps must be at most 2097152"):
            run_experiment(make_config(name, n_steps=2**21 + 1, n_paths=8))
        assert drawn == []

    @pytest.mark.parametrize("name, param", [
        (name, param) for name, spec in EXPERIMENTS.items()
        for param, default in spec.param_defaults.items() if isinstance(default, tuple)
    ])
    def test_repeated_list_entry_rejected_before_drawing(self, monkeypatch, name, param):
        # a repeated entry gave repeated report rows and check names
        from lentparticle import experiments

        drawn = []
        monkeypatch.setattr(experiments, "martingale_batch", lambda *args: drawn.append(args))
        first = EXPERIMENTS[name].param_defaults[param][0]
        with pytest.raises(ConfigurationError,
                           match=rf"{param}\[1\] repeats an earlier entry: {first!r}"):
            run_experiment(make_config(name, n_steps=20, n_paths=8,
                                       params={param: [first, first]}))
        assert drawn == []

    @pytest.mark.parametrize("u_grid, t_grid", [
        ((0.9,), (0.5,)),  # the one pair has u > t: the report would have no row
        ((0.6, 0.9), (0.2, 0.5)),
        ((), (1.0,)),
    ])
    def test_sde_without_a_u_t_pair_rejected_before_drawing(self, monkeypatch, u_grid,
                                                            t_grid):
        from lentparticle import experiments

        def drawn(*args):
            raise AssertionError(f"a path was drawn: {args[2:]}")

        monkeypatch.setattr(experiments, "martingale_batch", drawn)
        # an empty list is rejected with the config's other list rules
        message = "has u <= t" if u_grid else "u_grid must be a non-empty list"
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(make_config("sde-lent-particle", n_steps=10, n_paths=4, params={
                "u_grid": u_grid, "t_grid": t_grid}))

    def test_registry_descriptions(self):
        for name, spec in EXPERIMENTS.items():
            assert spec.description
            assert callable(spec.runner)
