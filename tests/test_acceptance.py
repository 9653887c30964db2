"""End-to-end acceptance suite.

Each test runs one registered experiment at its full default configuration
(the stated path counts, grids and tolerances) and asserts that every
internal check passes.  These are the heavyweight runs; the unit tests cover
the same code paths at small sizes.
"""

import math

import pytest

from lentparticle.experiments import make_config, run_experiment


def run_and_assert(name, **overrides):
    result = run_experiment(make_config(name, **overrides))
    failing = [c for c in result.checks if not c["passed"]]
    assert result.passed, f"{name}: failing checks {failing}"
    return result


def test_isometry_all_orders_and_drivers():
    # E[I_n(f_n)^2] = n! ||f_n||^2 within 4 SE, n = 1..3, all four drivers,
    # 1e5 paths, dt = 1e-3
    res = run_and_assert("isometry")
    assert res.config.n_paths == 100_000
    assert res.config.grid.dt == pytest.approx(1e-3)


def test_covariance_decay_matches_cos_power():
    # E[I_n^phi I_n^0] / (n! ||f_n||^2) = cos^n(phi) within 4 SE at 5 angles
    res = run_and_assert("covariance-decay")
    phis = sorted({r["phi"] for r in res.rows})
    assert phis == pytest.approx(
        [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
    )


def test_bessel_parseval_and_fourier():
    # sum c_n^2 = e^x to 1e-10 for x in {0.5, 1, 4, 10}; Fourier identity
    # to 1e-8 at four angles
    run_and_assert("bessel")


def test_exponential_vector_covariance_curve():
    # E[E^phi E^0] = exp(||h||^2 cos phi) within 4 SE, ||h||^2 = 1, 1e5 paths
    run_and_assert("exp-vector-covariance")


def test_finite_chaos_gradient_energy():
    # E[((F^t - F^-t)/2t)^2] at t = 1e-3 within 4 SE of sum n n! ||f_n||^2
    # for the three-term chaos vector, under both jump drivers
    run_and_assert("chaos-energy")


def test_sde_lent_particle_vs_flow_form():
    # gbm / additive / sine-diffusion, theta = 1e-4, dt = 1e-4, 1e3 paths,
    # 5x5 (u, t) grid: >= 99% of paths within 1e-2 relative error;
    # additive exact to 1e-10; < 0.1% excluded paths
    res = run_and_assert("sde-lent-particle")
    assert {r["sde"] for r in res.rows} == {"gbm", "additive", "sine-diffusion"}
    assert len([r for r in res.rows if r["sde"] == "gbm"]) == 25


def test_sde_poisson_driver_variant():
    # on single-jump paths J_1 x estimate matches the flow oracle at U_1 with
    # the criterion-6 thresholds; single-jump frequency within 4 SE of 1/e
    res = run_and_assert("sde-poisson")
    freq = res.rows[0]["single_jump_freq"]
    assert abs(freq - math.exp(-1)) < 0.1


def test_integration_by_parts_duality():
    # |lhs - rhs| <= 4 pooled SE for the three registered (F, G) pairs,
    # 1e5 paths
    res = run_and_assert("ibp")
    assert len(res.rows) == 3


def test_mehler_semigroup_suite():
    # Gamma[B_1] within 4 SE of 1; P_t I_n = e^{-nt/2} I_n pathwise to
    # inner-MC error for n = 1, 2; bracket at t in {1e-1, 1e-2, 1e-3} with
    # Richardson extrapolation within 3 SE of the rotation-gradient estimate
    run_and_assert("mehler")


def test_supremum_difference_quotient():
    # quotient exactly 0/1 on non-tied paths; mean within 4 SE of 1/2
    res = run_and_assert("supremum")
    assert res.rows[0]["tied_paths"] <= 0.001 * res.config.n_paths


def test_reports_are_reproducible():
    # byte-identical reports across reruns and across 1-vs-8 workers
    run_and_assert("reproducibility")
