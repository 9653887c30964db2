import json
import warnings

import pytest
from click.testing import CliRunner

from lentparticle.cli import main
from lentparticle.errors import NumericalBlowupError


@pytest.fixture
def runner():
    return CliRunner()


class TestList:
    def test_lists_all(self, runner):
        result = runner.invoke(main, ["list"])
        assert result.exit_code == 0
        for name in ("isometry", "bessel", "mehler", "supremum"):
            assert name in result.output

    def test_filter(self, runner):
        result = runner.invoke(main, ["list", "sde"])
        assert result.exit_code == 0
        assert "sde-lent-particle" in result.output
        assert "bessel" not in result.output

    def test_empty_filter_is_not_an_error(self, runner):
        result = runner.invoke(main, ["list", "zzz"])
        assert result.exit_code == 0
        assert result.output.strip() == ""


class TestRun:
    def test_bessel_passes(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "bessel", "--output", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "PASSED" in result.output
        assert (tmp_path / "bessel.csv").exists()
        assert (tmp_path / "bessel.json").exists()

    def test_output_dir_from_environment(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("LENTPARTICLE_OUTPUT_DIR", str(tmp_path / "env"))
        result = runner.invoke(main, ["run", "bessel"])
        assert result.exit_code == 0
        assert (tmp_path / "env" / "bessel.json").exists()

    def test_flag_overrides(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "supremum", "--n-paths", "2000", "--seed", "42",
            "--grid-steps", "200", "--output", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "supremum.json").read_text())
        assert summary["config"]["n_paths"] == 2000
        assert summary["config"]["master_seed"] == 42
        assert summary["config"]["n_steps"] == 200

    def test_config_file_with_params(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_paths": 2000, "master_seed": 7,
            "params": {"a": 1e-7},
        }))
        result = runner.invoke(main, [
            "run", "supremum", "--config", str(cfg), "--output", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "supremum.json").read_text())
        assert summary["config"]["params"]["a"] == 1e-7
        assert summary["config"]["n_paths"] == 2000

    def test_param_flag(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "bessel", "--param", "h_norm_sq=[1.0]",
            "--output", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output

    def test_unknown_experiment_exit_2(self, runner):
        result = runner.invoke(main, ["run", "nothing"])
        assert result.exit_code == 2
        assert "configuration error" in result.output

    def test_bad_flag_value_exit_2(self, runner):
        result = runner.invoke(main, ["run", "supremum", "--n-paths", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("experiment", ["supremum", "isometry", "ibp"])
    def test_too_few_paths_exit_2(self, runner, tmp_path, experiment):
        # one path has no standard error: a configuration error, not a failed check
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(main, [
                "run", experiment, "--n-paths", "1", "--grid-steps", "20",
                "--output", str(tmp_path),
            ])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert "at least 2 samples" in result.output
        assert not (tmp_path / f"{experiment}.json").exists()

    def test_unknown_param_exit_2(self, runner):
        result = runner.invoke(main, ["run", "bessel", "--param", "wat=1"])
        assert result.exit_code == 2

    def test_bad_config_file_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        result = runner.invoke(main, ["run", "bessel", "--config", str(cfg)])
        assert result.exit_code == 2
        cfg.write_text(json.dumps({"surprise": 1}))
        result = runner.invoke(main, ["run", "bessel", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_numerical_failure_exit_3(self, runner, monkeypatch):
        import lentparticle.cli as cli_mod

        def boom(cfg):
            raise NumericalBlowupError(17)

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        result = runner.invoke(main, ["run", "bessel"])
        assert result.exit_code == 3
        assert "numerical failure" in result.output

    def test_reports_identical_across_invocations(self, runner, tmp_path):
        args = ["run", "supremum", "--n-paths", "2000", "--grid-steps", "200"]
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert runner.invoke(main, args + ["--output", str(out)]).exit_code == 0
            outs.append(
                (out / "supremum.csv").read_bytes()
                + (out / "supremum.json").read_bytes()
            )
        assert outs[0] == outs[1]


class TestExportPaths:
    def test_stdout_csv(self, runner):
        result = runner.invoke(main, ["export-paths", "--grid-steps", "16"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,brownian,martingale,rotated"
        assert len(lines) == 18  # header + 17 grid points

    def test_file_output(self, runner, tmp_path):
        target = tmp_path / "paths.csv"
        result = runner.invoke(main, [
            "export-paths", "--kind", "compound", "--grid-steps", "16",
            "--output", str(target),
        ])
        assert result.exit_code == 0
        assert target.read_text().startswith("t,brownian,martingale,rotated")

    def test_bad_grid_exit_2(self, runner):
        result = runner.invoke(main, ["export-paths", "--grid-steps", "0"])
        assert result.exit_code == 2
