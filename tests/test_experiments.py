import numpy as np
import pytest

from lentparticle.errors import ConfigurationError, DomainError
from lentparticle.experiments import (
    EXPERIMENTS,
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
        with pytest.raises(ConfigurationError):
            make_config("isometry", theta=-1.0)

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
        parts = parallel_batches(lambda s, c: (s, c), 10_001, 1, chunk=4096)
        assert sum(c for _, c in parts) == 10_001
        assert parts[0] == (0, 4096)
        assert parts[-1] == (8192, 1809)

    def test_worker_count_does_not_change_results(self):
        fn = lambda s, c: np.arange(s, s + c, dtype=float)
        serial = np.concatenate(parallel_batches(fn, 1000, 1, chunk=64))
        threaded = np.concatenate(parallel_batches(fn, 1000, 8, chunk=64))
        np.testing.assert_array_equal(serial, threaded)


class TestReporting:
    def test_csv_column_order_and_floats(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0, "c": True}]
        text = render_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.5,"
        assert lines[2] == "2,1.0,true"

    def test_json_is_sorted_and_handles_numpy(self):
        text = render_json({"b": np.float64(1.5), "a": np.int64(2),
                            "c": np.bool_(True)})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "1.5" in text and "true" in text

    def test_write_result_files(self, tmp_path):
        res = run_experiment(make_config("bessel"))
        csv_path, json_path = write_result(res, str(tmp_path))
        assert (tmp_path / "bessel.csv").read_text().startswith("h_norm_sq,n,c_n_sq")
        assert '"passed": true' in (tmp_path / "bessel.json").read_text()


class TestRunners:
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

        def halved(K, brownian, u, a):
            return 0.5 * gradients.supremum_gradient(K, brownian, u, a)

        monkeypatch.setattr(experiments, "supremum_gradient", halved)
        res = run_experiment(make_config("supremum", n_paths=500))
        (binary,) = [c for c in res.checks if c["name"] == "supremum_binary"]
        # every untied path whose quotient should be 1 now reads 0.5
        untied = 500 - res.rows[0]["tied_paths"]
        assert not binary["passed"]
        assert binary["offending_paths"] == round(res.rows[0]["mean_gradient"] * untied) > 0

    def test_report_bytes_stable_across_workers(self):
        runs = []
        for workers in (1, 8):
            res = run_experiment(
                make_config("supremum", n_paths=3000, workers=workers)
            )
            summary = res.summary()
            summary["config"]["workers"] = None
            runs.append((render_csv(res.rows), render_json(summary)))
        assert runs[0] == runs[1]

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

        def reversed_when_threaded(fn, n_paths, workers, chunk=4096):
            parts = original(fn, n_paths, workers, chunk)
            return parts[::-1] if workers > 1 else parts

        # the default target_n_paths spans two batches, so their order shows
        monkeypatch.setattr(experiments, "parallel_batches", reversed_when_threaded)
        checks = {c["name"]: c["passed"] for c in run_experiment(cfg).checks}
        assert checks == {"rerun_identical": True, "workers_identical": False}

    def test_mehler_measures_the_eigenvalues(self):
        res = run_experiment(make_config("mehler", n_steps=100, params={"n_outer": 4}))
        rows = [r for r in res.rows if r["quantity"].startswith("eigenvalue")]
        assert [r["target"] for r in rows] == pytest.approx([np.exp(-0.15), np.exp(-0.3)])
        for r in rows:
            assert np.isfinite(r["std_error"]) and r["std_error"] > 0.0
            assert abs(r["estimate"] - r["target"]) <= 4.0 * r["std_error"]

    def test_mehler_draws_each_outer_path_once(self, monkeypatch):
        from lentparticle import experiments

        keys = []
        original = experiments.inner_hat_batch

        def recording(grid, master_seed, outer_index, count):
            keys.append(outer_index)
            return original(grid, master_seed, outer_index, count)

        monkeypatch.setattr(experiments, "inner_hat_batch", recording)
        run_experiment(make_config(
            "mehler", n_steps=20, params={"n_outer": 3, "n_inner": 8, "n_eigen_paths": 2}
        ))
        assert sorted(keys) == [0, 1, 2, 10_000, 10_001]

    @pytest.mark.parametrize("params, error", [
        ({"t_bracket": (0.1, 0.1)}, DomainError),  # one distinct bracket time
        ({"n_eigen_paths": 0}, ConfigurationError),
    ])
    def test_mehler_rejects_unusable_params(self, params, error):
        cfg = make_config("mehler", n_steps=20, params={
            "n_outer": 2, "n_inner": 8, "n_eigen_paths": 1, **params})
        with pytest.raises(error):
            run_experiment(cfg)

    def test_registry_descriptions(self):
        for name, spec in EXPERIMENTS.items():
            assert spec.description
            assert callable(spec.runner)
