"""Properties of the benchmark harness, at small sizes.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import lentparticle
import tracer
import workloads
from lentparticle import experiments

SEED = 11

# Per-workload overrides that keep each pass well under a second.
SMALL = {
    "chaos-rotation": {"n_paths": 64, "n_steps": 50},
    "sde-flow": {"n_paths": 8, "n_steps": 200},
    "ou-nested": {"n_steps": 50, "params": {"n_outer": 4, "n_inner": 16, "n_eigen_paths": 2}},
    "stream-scan": {"n_paths": 64, "n_steps": 50},
}


def _renders(outputs):
    return [(csv, js) for _, csv, js in outputs]


def _package_bindings():
    """Every module attribute and module-level dict entry of the package, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "lentparticle" or name.startswith("lentparticle.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    out[(name, attr, repr(key))] = id(item)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_identical_with_tracing_on_and_off(workload):
    configs = workloads.build_configs(workload, SEED, **SMALL[workload])
    plain = _renders(workloads.run_pass(configs))
    t = tracer.Tracer()
    with t.instrument():
        traced = _renders(workloads.run_pass(configs))
    assert traced == plain
    metrics = t.layer_metrics()
    assert {f"{layer}.self_s" for layer in tracer.LAYERS} <= set(metrics)
    assert metrics["drivers.paths"][0] > 0
    assert metrics["experiments.self_s"][0] > 0


def test_chaos_rotation_identical_at_one_and_two_workers():
    reports = []
    for workers in (1, 2):
        configs = workloads.build_configs(
            "chaos-rotation", SEED, n_paths=4097, n_steps=20, workers=workers
        )
        t = tracer.Tracer()
        with t.instrument():
            outputs = workloads.run_pass(configs)
        assert t.counts["experiments.batches"] == 2 * len(configs)
        rendered = []
        for result, csv, _ in outputs:
            summary = result.summary()
            summary["config"]["workers"] = None
            rendered.append((csv, json.dumps(summary, sort_keys=True)))
        reports.append(rendered)
    assert reports[0] == reports[1]


def test_wrappers_restore_module_attributes():
    before = _package_bindings()
    original = experiments.iterated_integral
    with pytest.raises(RuntimeError):
        with tracer.Tracer().instrument():
            assert experiments.iterated_integral is not original
            assert lentparticle.drivers.DRIVER_BATCHES["brownian"] is not (
                lentparticle.drivers.brownian_batch.__wrapped__
            )
            raise RuntimeError("leave the block early")
    assert _package_bindings() == before
    assert experiments.iterated_integral is original


def test_worker_thread_spans_are_children_of_the_runner():
    configs = workloads.build_configs("chaos-rotation", SEED, n_paths=4097, n_steps=20)
    t = tracer.Tracer()
    with t.instrument():
        workloads.run_pass(configs)
    by_id = {s.id: s for s in t.spans}
    main = threading.get_ident()
    off_main = [s for s in t.spans if s.thread != main]
    assert off_main, "two workers should open spans on pool threads"
    for s in off_main:
        parent = by_id[s.parent]
        assert parent.thread != main or parent.name == "parallel_batches"


def test_self_time_subtracts_overlapping_children():
    t = tracer.Tracer()
    t.spans = [
        tracer.Span(1, None, "experiments", "run_experiment", 0.0, 10.0, 1),
        tracer.Span(2, 1, "chaos", "iterated_integral", 1.0, 5.0, 2),
        tracer.Span(3, 1, "chaos", "iterated_integral", 3.0, 7.0, 3),
        tracer.Span(4, 2, "drivers", "brownian_batch", 2.0, 3.0, 2),
    ]
    self_s = t.self_times()
    assert self_s["experiments"] == pytest.approx(4.0)
    assert self_s["chaos"] == pytest.approx(3.0 + 4.0)
    assert self_s["drivers"] == pytest.approx(1.0)


def test_regenerated_paths_lower_the_unique_key_ratio():
    configs = workloads.build_configs("stream-scan", SEED, **SMALL["stream-scan"])
    t = tracer.Tracer()
    with t.instrument():
        workloads.run_pass(configs)
    # ibp draws the same Brownian batch for each of its three pairs.
    assert t.unique_key_ratio() < 1.0


def test_three_term_energy_matches_the_stated_value():
    assert workloads.three_term_gradient_energy() == pytest.approx(1 + 2.88 + 2.117682)


def test_checks_can_fail():
    (cfg,) = workloads.build_configs("stream-scan", SEED, n_paths=256, n_steps=50)[2:]
    result = experiments.run_experiment(cfg)
    assert all(ok for _, ok in workloads.checks(result))
    for row in result.rows:
        # Far beyond the limit whichever standard error a check uses.
        row["empirical"] += 100.0 * workloads.expvector_variance(1.0, row["phi"]) ** 0.5
    assert not any(ok for _, ok in workloads.independent_checks(result))


def test_every_own_check_is_counted():
    for workload in sorted(workloads.WORKLOADS):
        for cfg in workloads.build_configs(workload, SEED, **SMALL[workload]):
            result = experiments.run_experiment(cfg)
            own = workloads.own_checks(result)
            assert len(own) == len(result.checks)


def test_z_limits_grow_with_the_family_and_with_few_samples():
    assert 4.4 < workloads.z_limit(1) < workloads.z_limit(15) < 5.0
    assert workloads.z_limit(2, dof=31) > workloads.z_limit(2)


def test_exact_variances_match_closed_forms():
    # phi = 0: Var(He_n(x)^2 / n!) with E[He_1^4] = 3, E[He_2^4] = 60, E[He_3^4] = 3348.
    for n, fourth in ((1, 3.0), (2, 60.0), (3, 3348.0)):
        want = fourth / math.factorial(n) ** 2 - 1.0
        assert workloads.covariance_variance(n, 0.0) == pytest.approx(want, rel=1e-10)
    # phi = pi/2: Y is the compensated Poisson process, independent of B, so
    # the variance is E[I_n(M)^2] E[I_n(B)^2] / n!^2 = 1.
    for n in (1, 2, 3):
        assert workloads.covariance_variance(n, math.pi / 2) == pytest.approx(1.0, rel=1e-10)
    assert workloads.expvector_variance(1.0, 0.0) == pytest.approx(math.exp(6) - math.exp(2))


def test_energy_variance_matches_monte_carlo():
    # G from the continuous-time model in workloads.energy_variance's docstring.
    rng = np.random.default_rng(5)
    n = 2_000_000
    ba, bb = rng.normal(0.0, math.sqrt(0.5), (2, n))
    ma, mb = rng.poisson(0.5, (2, n)) - 0.5
    b1, m1 = ba + bb, ma + mb
    g = m1 + m1 * (1.2 * ba + 0.4 * bb) + b1 * (1.2 * ma + 0.4 * mb) + 1.029 * m1 * (b1**2 - 1)
    var = workloads.energy_variance()
    # G^2 is heavy-tailed: allow 5 standard errors for the mean, 15% for the variance.
    assert np.mean(g**2) == pytest.approx(workloads.three_term_gradient_energy(),
                                          abs=5.0 * math.sqrt(var / n))
    assert np.var(g**2) == pytest.approx(var, rel=0.15)


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(os.path.dirname(tracer.__file__), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sde-flow", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
