"""Command-line interface: run experiments, list them, export sample paths.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .drivers import martingale_batch, rotate
from .errors import ConfigurationError, require_kind
from .experiments import list_experiments, make_config, run_experiment
from .grid import TimeGrid
from .reporting import render_csv, write_result

EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

def _output_dir(flag: str | None) -> str:
    return flag or os.environ.get("LENTPARTICLE_OUTPUT_DIR") or "reports"


def _parse_params(pairs: tuple[str, ...]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--param expects NAME=JSON, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            out[name] = json.loads(raw)
        except ValueError:  # a JSON error, or an integer past Python's digit limit
            out[name] = raw  # bare strings are convenient on the command line
    return out


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Gradient estimators for Brownian functionals, with built-in checks."""


@main.command("run")
@click.argument("experiment")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON file with configuration fields and experiment params.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--n-paths", type=int, default=None, help="Outer Monte Carlo paths.")
@click.option("--grid-steps", type=int, default=None, help="Time steps on [0, T].")
@click.option("--horizon", type=float, default=None, help="Time horizon T.")
@click.option("--workers", type=int, default=None, help="Worker threads.")
@click.option("--param", "params", multiple=True,
              help="Experiment parameter override, NAME=JSON (repeatable).")
@click.option("--output", type=click.Path(), default=None,
              help="Report directory (default: $LENTPARTICLE_OUTPUT_DIR or ./reports).")
def run(experiment, config_path, seed, n_paths, grid_steps, horizon, workers, params,
        output):
    """Run a named experiment and write its CSV + JSON report."""
    try:
        fields: dict = {}
        if config_path is not None:
            try:
                with open(config_path) as fh:
                    fields = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigurationError(f"cannot read config {config_path}: {exc}")
            if not isinstance(fields, dict):
                raise ConfigurationError("config file must hold a JSON object")
            named = fields.pop("experiment", experiment)
            if named != experiment:
                raise ConfigurationError(f"config file is for {named!r}, not {experiment!r}")
        overrides = {
            "master_seed": seed,
            "n_paths": n_paths,
            "n_steps": grid_steps,
            "horizon": horizon,
            "workers": workers,
        }
        fields.update({k: v for k, v in overrides.items() if v is not None})
        if params:
            require_kind("params", fields.get("params", {}), dict)
            fields["params"] = {**fields.get("params", {}), **_parse_params(params)}
        cfg = make_config(experiment, **fields)
        result = run_experiment(cfg)
    except ConfigurationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)

    for check in result.checks:
        status = "PASS" if check["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={v}" for k, v in check.items() if k not in ("name", "passed")
        )
        click.echo(f"[{status}] {check['name']}" + (f"  ({detail})" if detail else ""))
    csv_path, json_path = write_result(result, _output_dir(output))
    click.echo(f"report: {csv_path}")
    click.echo(f"summary: {json_path}")
    if result.excluded_paths:
        click.echo(f"excluded paths: {result.excluded_paths}")
    if not result.passed:
        click.echo("FAILED")
        sys.exit(EXIT_CHECK_FAILED)
    click.echo("PASSED")


@main.command("list")
@click.argument("filter_text", required=False, default="")
def list_cmd(filter_text):
    """List registered experiments (optionally filtered by substring)."""
    for name, description, defaults in list_experiments(filter_text):
        click.echo(f"{name:24s} {description}")
        if defaults:
            click.echo(f"{'':24s} params: {json.dumps(defaults, default=str)}")


@main.command("export-paths")
@click.option("--kind", default="poisson",
              type=click.Choice(["poisson", "compound"]), help="Jump driver kind.")
@click.option("--seed", type=int, default=0, help="Master seed.")
@click.option("--index", type=int, default=0, help="Path index within the seed.")
@click.option("--grid-steps", type=int, default=1000)
@click.option("--horizon", type=float, default=1.0)
@click.option("--theta", type=float, default=0.7, help="Rotation angle.")
@click.option("--output", type=click.Path(), default="-",
              help="CSV file ('-' for stdout).")
def export_paths(kind, seed, index, grid_steps, horizon, theta, output):
    """Export one (B, M, rotated) path triple as CSV for plotting."""
    try:
        if seed < 0 or index < 0:
            raise ConfigurationError(
                f"--seed and --index must be non-negative, got {seed}, {index}")
        grid = TimeGrid(horizon, grid_steps)
        B = martingale_batch("brownian", grid, seed, index, 1).select(0)
        M = martingale_batch(kind, grid, seed, index, 1).select(0)
        Y = rotate(B, M, theta)
    except ConfigurationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    rows = [
        {"t": float(t), "brownian": float(b), "martingale": float(m), "rotated": float(y)}
        for t, b, m, y in zip(grid.times, B.values, M.values, Y.values)
    ]
    text = render_csv(rows)
    if output == "-":
        click.echo(text, nl=False)
    else:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
