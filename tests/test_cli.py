import json
import warnings

import pytest
from click.testing import CliRunner

from lentparticle.cli import main
from lentparticle.experiments import EXPERIMENTS


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

    def test_registered_theta_listed(self, runner):
        result = runner.invoke(main, ["list", "chaos-energy"])
        assert result.exit_code == 0
        assert '"theta": 0.001' in result.output

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

    ONE_PATH = ["--n-paths", "1", "--grid-steps", "20"]

    @pytest.mark.parametrize("experiment, flags, message", [
        pytest.param("supremum", ONE_PATH, "at least 2 samples", id="supremum"),
        pytest.param("isometry", ONE_PATH, "at least 2 samples", id="isometry"),
        pytest.param("ibp", ONE_PATH, "at least 2 samples", id="ibp"),
        # both paths give the same indicator
        pytest.param("supremum", ["--n-paths", "2", "--grid-steps", "50", "--seed", "2"],
                     "all 2 samples are", id="supremum-equal-samples"),
        # one path is a single-jump frequency of 0 or 1
        pytest.param("sde-poisson", ["--n-paths", "1", "--grid-steps", "100"],
                     "single-jump frequency", id="sde-poisson"),
    ])
    def test_too_few_paths_exit_2(self, runner, tmp_path, experiment, flags, message):
        # no standard error: a configuration error, not a failed check
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(main, ["run", experiment, *flags, "--output", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert message in result.output
        assert "standard error" in result.output
        assert not (tmp_path / f"{experiment}.json").exists()

    def test_negative_seed_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "supremum", "--n-paths", "10", "--grid-steps", "10", "--seed", "-1",
            "--output", str(tmp_path),
        ])
        assert result.exit_code == 2, result.output
        assert "master_seed must be non-negative" in result.output
        assert not (tmp_path / "supremum.json").exists()

    def test_theta_where_unread_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "isometry", "--param", "theta=0.5", "--output", str(tmp_path),
        ])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert "unknown parameters for 'isometry': ['theta']" in result.output
        assert not (tmp_path / "isometry.json").exists()
        # the step is a parameter: there is no --theta flag on run
        result = runner.invoke(main, ["run", "chaos-energy", "--theta", "1e-3"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    # every experiment and value is covered by TestRunners::test_theta_rejected_before_drawing
    @pytest.mark.parametrize("theta", [pytest.param("NaN", id="nan"),
                                       pytest.param("Infinity", id="inf"),
                                       # JSON reads it as an int no float holds
                                       pytest.param(str(10**400), id="10**400")])
    def test_non_finite_theta_exit_2(self, runner, tmp_path, theta):
        result = runner.invoke(main, [
            "run", "chaos-energy", "--param", f"theta={theta}", "--n-paths", "50",
            "--grid-steps", "20", "--output", str(tmp_path),
        ])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "theta must be finite" in result.output
        assert not (tmp_path / "chaos-energy.json").exists()

    def test_integer_past_the_digit_limit_is_a_bare_string(self, runner, tmp_path):
        # json.loads raises a plain ValueError past Python's int-string limit (4300 digits)
        result = runner.invoke(main, [
            "run", "chaos-energy", "--param", f"theta={'1' * 5000}", "--n-paths", "50",
            "--grid-steps", "20", "--output", str(tmp_path),
        ])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "theta must be a number" in result.output
        assert not (tmp_path / "chaos-energy.json").exists()

    def test_theta_param_reaches_rows_and_summary(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "chaos-energy", "--param", "theta=2e-3", "--n-paths", "50",
            "--grid-steps", "20", "--output", str(tmp_path),
        ])
        assert result.exit_code in (0, 1), result.output
        rows = (tmp_path / "chaos-energy.csv").read_text().splitlines()
        assert rows[0].split(",")[1] == "theta"
        assert {row.split(",")[1] for row in rows[1:]} == {"0.002"}
        config = json.loads((tmp_path / "chaos-energy.json").read_text())["config"]
        assert "theta" not in config
        assert config["params"]["theta"] == 0.002

    @pytest.mark.parametrize("experiment, flags", [
        ("sde-lent-particle", ["--n-paths", "4", "--grid-steps", "100"]),
        ("sde-poisson", ["--n-paths", "50", "--grid-steps", "100"]),
        ("mehler", ["--grid-steps", "20", "--param", "n_outer=4", "--param", "n_inner=8",
                    "--param", "n_eigen_paths=2"]),
    ])
    def test_default_report_records_theta(self, runner, tmp_path, experiment, flags):
        result = runner.invoke(main, ["run", experiment, *flags, "--output", str(tmp_path)])
        assert result.exit_code in (0, 1), result.output
        config = json.loads((tmp_path / f"{experiment}.json").read_text())["config"]
        assert "theta" not in config
        assert config["params"]["theta"] == 1e-4  # the step it ran at, not null

    @pytest.mark.parametrize("experiment, params, n_paths, excluded", [
        # the one (u, t) row has no finite path: a report, not a traceback
        ("sde-lent-particle", ['sde=["gbm"]', 'sde_params={"gbm": {"sigma": 1e300}}',
                               "u_grid=[0.5]", "t_grid=[1.0]"], 4, "excluded paths: 4"),
        # 71 of the 200 paths have a single jump, and each of them blows up
        ("sde-poisson", ['sde_params={"gbm": {"sigma": 1e300}}'], 200, "excluded paths: 71"),
        # 38 of the 71 blow up
        ("sde-poisson", ['sde_params={"gbm": {"sigma": 3000}}'], 200, "excluded paths: 38"),
    ])
    def test_blown_up_sde_exits_cleanly(self, runner, tmp_path, experiment, params, n_paths,
                                        excluded):
        flags = [flag for param in params for flag in ("--param", param)]
        with warnings.catch_warnings():
            # the report and the excluded-paths line say it, not a numpy warning
            warnings.simplefilter("error")
            result = runner.invoke(main, ["run", experiment, *flags, "--n-paths", str(n_paths),
                                          "--grid-steps", "100", "--output", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output  # a failed check
        assert excluded in result.output
        assert (tmp_path / f"{experiment}.json").exists()

    @pytest.mark.parametrize("horizon, message", [
        ("nan", "horizon must be finite, got nan"),
        ("inf", "horizon must be finite, got inf"),
        ("0", "horizon must be positive and finite, got 0.0"),
    ], ids=["nan", "inf", "0"])
    def test_bad_horizon_exit_2(self, runner, tmp_path, horizon, message):
        # bessel builds no grid, so only the config rule stops a horizon JSON cannot hold
        result = runner.invoke(main, ["run", "bessel", "--horizon", horizon,
                                      "--output", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "bessel.json").exists()

    @pytest.mark.parametrize("experiment", ["supremum", "exp-vector-covariance"])
    @pytest.mark.parametrize("flags", [["--grid-steps", "1" * 401],
                                       ["--horizon", "5e-324", "--grid-steps", "2"]],
                             ids=["n_steps-past-every-float", "step-underflows-to-0"])
    def test_step_no_float_holds_exit_2(self, runner, tmp_path, experiment, flags):
        result = runner.invoke(main, ["run", experiment, "--n-paths", "10", *flags,
                                      "--output", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "horizon / n_steps must be a positive finite float" in result.output
        assert not (tmp_path / f"{experiment}.json").exists()

    def test_grid_past_the_batch_budget_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "supremum", "--grid-steps", "2097153",
                                      "--output", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "n_steps must be at most 2097152" in result.output
        assert not (tmp_path / "supremum.json").exists()

    def test_joined_results_past_the_budget_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "isometry", "--n-paths", "1000000000",
                                      "--output", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "1000000000 paths of 12 results pass 1073741824 bytes" in result.output
        assert not (tmp_path / "isometry.json").exists()

    @pytest.mark.parametrize("experiment, param", [
        (name, param) for name, spec in EXPERIMENTS.items()
        for param, default in spec.param_defaults.items() if isinstance(default, tuple)
    ])
    def test_empty_list_param_exit_2(self, runner, tmp_path, monkeypatch, experiment, param):
        # an empty list gave a report with no rows or no checks, and PASSED
        from lentparticle import experiments

        drawn = []
        monkeypatch.setattr(experiments, "martingale_batch", lambda *args: drawn.append(args))
        result = runner.invoke(main, ["run", experiment, "--param", f"{param}=[]",
                                      "--grid-steps", "10", "--output", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"{param} must be a non-empty list" in result.output
        assert drawn == []
        assert not (tmp_path / f"{experiment}.json").exists()

    @pytest.mark.parametrize("experiment, param, message", [
        ("isometry", "rotation_theta=NaN", "rotation_theta must be finite, got nan"),
        ("covariance-decay", "phis=[NaN]", "phis[0] must be finite, got nan"),
        ("bessel", "angles=[NaN]", "angles[0] must be finite, got nan"),
        ("exp-vector-covariance", "phis=[Infinity]", "phis[0] must be finite, got inf"),
        # finite, but 40 * angle is not
        ("bessel", "angles=[1e308]", "angle must be finite"),
    ])
    def test_non_finite_angle_exit_2(self, runner, tmp_path, experiment, param, message):
        result = runner.invoke(main, [
            "run", experiment, "--param", param, "--n-paths", "10", "--grid-steps", "10",
            "--output", str(tmp_path),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / f"{experiment}.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid-steps", "7"], "0.76 is not a point of the 7-step grid"),
        # t / dt overflows: the default t_grid past a tiny horizon, and a huge t
        (["--horizon", "1e-310", "--grid-steps", "1000"],
         "0.76 is not a point of the 1000-step grid"),
        (["--param", "t_grid=[1e308]", "--grid-steps", "1000"],
         "1e+308 is not a point of the 1000-step grid"),
    ], ids=["off-grid", "tiny-horizon", "huge-t"])
    def test_off_grid_time_exit_2(self, runner, tmp_path, monkeypatch, flags, message):
        from lentparticle import experiments

        drawn = []
        monkeypatch.setattr(experiments, "martingale_batch", lambda *args: drawn.append(args))
        result = runner.invoke(main, ["run", "sde-lent-particle", *flags, "--n-paths", "4",
                                      "--output", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert drawn == []
        assert not (tmp_path / "sde-lent-particle.json").exists()

    @pytest.mark.parametrize("experiment, params, message", [
        ("covariance-decay", ['phis=["a"]'], "phis[0] must be a number, got 'a'"),
        ("isometry", ['rotation_theta="x"'], "rotation_theta must be a number, got 'x'"),
        ("mehler", ["n_outer=4.5"], "n_outer must be an integer, got 4.5"),
        ("mehler", ["n_outer=4", "n_eigen_paths=5", "n_inner=2"],
         "n_eigen_paths must be in 1..n_outer = 4, got 5"),
        ("mehler", ["n_eigen_paths=0", "n_inner=2"], "n_eigen_paths must be in 1..n_outer"),
        ("mehler", ["t_eigen=-1", "n_inner=2"], "t_eigen must be positive and finite"),
        ("mehler", ["t_bracket=[NaN, 0.01]"], "t_bracket[0] must be finite, got nan"),
        ("mehler", ["t_bracket=[Infinity, 0.01]"], "t_bracket[0] must be finite, got inf"),
        ("mehler", ["t_bracket=[0, 0.01]"], "t_bracket entries must be positive and finite"),
        ("mehler", ["t_bracket=[0.01]"], "t_bracket needs at least two distinct times"),
        ("mehler", ["n_inner=-3"], "n_inner must be at least 2, got -3"),
        ("chaos-energy", ["functional=square"],
         "functional must be a chaos vector, one of ['b1', 'first-chaos', 'second-chaos', "
         "'third-chaos', 'three-term']; got 'square'"),
        ("exp-vector-covariance", ["h_norm_sq=-1"], "h_norm_sq must be positive and finite"),
        ("exp-vector-covariance", ["h_norm_sq=0"], "h_norm_sq must be positive and finite"),
        ("exp-vector-covariance", ["h_norm_sq=NaN"], "h_norm_sq must be finite, got nan"),
        ("exp-vector-covariance", ["h_norm_sq=Infinity"], "h_norm_sq must be finite, got inf"),
        ("exp-vector-covariance", ["h_norm_sq=800"], "h_norm_sq must be in [0, 709.78]"),
        ("bessel", ["h_norm_sq=[NaN]"], "h_norm_sq[0] must be finite, got nan"),
        ("bessel", ["h_norm_sq=[Infinity]"], "h_norm_sq[0] must be finite, got inf"),
        ("bessel", ["h_norm_sq=[1e300]"], "h_norm_sq must be in [0, 709.78]"),
        ("bessel", ["h_norm_sq=[1.0, -2]"], "h_norm_sq must be in [0, 709.78]"),
        ("supremum", ["a=NaN"], "a must be finite, got nan"),
        ("supremum", ["a=Infinity"], "a must be finite, got inf"),
        ("supremum", ["a=-1"], "a must be positive and finite, got -1"),
        ("sde-poisson", ['sde_params={"gmb": {"sigma": 0.5}}'],
         "sde_params names SDEs that are not run: ['gmb']"),
        ("sde-lent-particle", ['sde_params={"gbm": {}, "gmb": {"sigma": 0.5}}'],
         "sde_params names SDEs that are not run: ['gmb']"),
        # JSON reads 1e999 as inf
        ("sde-poisson", ['sde_params={"gbm": {"sigma": 1e999}}'],
         "'gbm' parameter 'sigma' must be finite, got inf"),
        ("sde-lent-particle", ['sde_params={"additive": {"b": NaN}}'],
         "'additive' parameter 'b' must be finite, got nan"),
        ("sde-lent-particle", ["u_grid=[NaN]", "t_grid=[1.0]"],
         "u_grid[0] must be finite, got nan"),
        ("sde-lent-particle", ["u_grid=[0.0]", "t_grid=[1.0]"], "time 0.0 outside (0, 1.0]"),
        ("sde-lent-particle", ["u_grid=[0.9]", "t_grid=[0.5]"],
         "no pair of u_grid [0.9] and t_grid [0.5] has u <= t"),
        ("isometry", ["orders=[0, 1]"], "orders must be a non-empty list of orders >= 1"),
        ("covariance-decay", ["orders=[0]"], "orders must be a non-empty list of orders >= 1"),
        # each entry of a list parameter gives its own report rows and check names
        ("mehler", ["t_bracket=[0.01, 0.01]"], "t_bracket[1] repeats an earlier entry: 0.01"),
        ("covariance-decay", ["orders=[2, 2]"], "orders[1] repeats an earlier entry: 2"),
        ("exp-vector-covariance", ["phis=[0.5, 0.5]"], "phis[1] repeats an earlier entry: 0.5"),
    ])
    def test_bad_param_exit_2(self, runner, tmp_path, experiment, params, message):
        flags = [flag for param in params for flag in ("--param", param)]
        result = runner.invoke(main, [
            "run", experiment, *flags, "--grid-steps", "10", "--output", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_single_value_for_a_list_param(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "isometry", "--param", "orders=2", "--n-paths", "2000",
            "--grid-steps", "50", "--output", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "isometry.json").read_text())
        assert summary["config"]["params"]["orders"] == [2]
        assert {c["name"] for c in summary["checks"]} == {
            f"isometry_order2_{d}" for d in ("brownian", "poisson", "compound", "rotation")}

    SMALL_SDE = {"n_paths": 4, "n_steps": 100}

    @pytest.mark.parametrize("experiment, content, message", [
        ("supremum", {"n_paths": "100"}, "n_paths must be an integer, got '100'"),
        ("supremum", {"horizon": "1"}, "horizon must be a number, got '1'"),
        # a 401-digit horizon ran bessel and was written into its report
        ("bessel", {"horizon": 10**400}, "horizon must be finite, got 1000"),
        ("supremum", {"params": [1]}, "params must be an object, got [1]"),
        ("supremum", {"workers": 1.5, "n_paths": 100}, "workers must be an integer, got 1.5"),
        ("supremum", {"n_steps": True}, "n_steps must be an integer, got True"),
        ("supremum", {"experiment": "bessel"}, "config file is for 'bessel', not 'supremum'"),
        ("supremum", [1, 2], "config file must hold a JSON object"),
        ("sde-poisson", {**SMALL_SDE, "params": {"sde_params": {"gbm": {"sigma": "x"}}}},
         "'gbm' parameter 'sigma' must be a number, got 'x'"),
        ("sde-poisson", {**SMALL_SDE, "params": {"sde_params": {"gbm": 1}}},
         "sde_params['gbm'] must be an object, got 1"),
    ])
    def test_bad_config_field_exit_2(self, runner, tmp_path, experiment, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        result = runner.invoke(main, [
            "run", experiment, "--config", str(cfg), "--output", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_config_file_params_with_param_flag(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "supremum", "n_paths": 2000,
                                   "params": [1]}))
        args = ["run", "supremum", "--config", str(cfg), "--param", "a=1e-7",
                "--output", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "params must be an object, got [1]" in result.output
        # a matching "experiment" key is accepted, and --param merges into params
        cfg.write_text(json.dumps({"experiment": "supremum", "n_paths": 2000,
                                   "params": {"u": 0.5}}))
        assert runner.invoke(main, args).exit_code == 0
        summary = json.loads((tmp_path / "out" / "supremum.json").read_text())
        assert summary["config"]["params"] == {"u": 0.5, "a": 1e-7}

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

    def test_config_integer_past_the_digit_limit_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"horizon": ' + "1" * 5000 + "}")
        result = runner.invoke(main, ["run", "bessel", "--config", str(cfg),
                                      "--output", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert f"cannot read config {cfg}" in result.output
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("flags", [["--grid-steps", "1" * 401],
                                       ["--horizon", "5e-324", "--grid-steps", "2"]],
                             ids=["n_steps-past-every-float", "step-underflows-to-0"])
    def test_step_no_float_holds_exit_2(self, runner, flags):
        result = runner.invoke(main, ["export-paths", *flags])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "horizon / n_steps must be a positive finite float" in result.output

    def test_grid_past_the_batch_budget_exit_2(self, runner):
        result = runner.invoke(main, ["export-paths", "--grid-steps", "2097153"])
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.exit_code == 2, result.output
        assert "n_steps must be at most 2097152" in result.output

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_non_finite_horizon_exit_2(self, runner, horizon):
        result = runner.invoke(main, ["export-paths", "--horizon", horizon])
        assert result.exit_code == 2, result.output
        assert f"horizon must be positive and finite, got {horizon}" in result.output

    @pytest.mark.parametrize("flags", [["--seed", "-3", "--index", "-2"], ["--seed", "-3"],
                                       ["--index", "-2"]])
    def test_negative_seed_or_index_exit_2(self, runner, flags):
        result = runner.invoke(main, ["export-paths", "--grid-steps", "16", *flags])
        assert result.exit_code == 2, result.output
        assert "must be non-negative" in result.output

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_exit_2(self, runner, theta):
        result = runner.invoke(main, ["export-paths", "--grid-steps", "16", "--theta", theta])
        assert result.exit_code == 2, result.output
        assert "rotation angle must be finite" in result.output

    # keys past int64 once went through float64 (index 2**63 - 1 drew the path of key
    # 2**63) or overflowed in the jump batch
    @pytest.mark.parametrize("index", [3, 2**63 - 1, 2**63, 2**64])
    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_columns_are_the_keyed_paths_and_their_rotation(self, runner, kind, index):
        import numpy as np

        from lentparticle.drivers import martingale_batch
        from lentparticle.grid import RngStream, SamplePath, TimeGrid

        result = runner.invoke(main, ["export-paths", "--kind", kind, "--grid-steps", "64",
                                      "--seed", "5", "--index", str(index), "--theta", "0.7"])
        assert result.exit_code == 0, result.output
        grid = TimeGrid(1.0, 64)
        B = SamplePath(grid, RngStream(5, index).generator().standard_normal(64)
                       * np.sqrt(grid.dt))
        M = martingale_batch(kind, grid, 5, index, 1).select(0)
        expected = np.cos(0.7) * B.values + np.sin(0.7) * M.values
        columns = list(zip(*(line.split(",") for line in result.output.strip().split("\n")[1:])))
        assert columns[1:] == [tuple(repr(float(v)) for v in path)
                               for path in (B.values, M.values, expected)]
