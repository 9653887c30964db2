"""Property-based invariants with hypothesis."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.bessel import bessel_spectrum, default_truncation
from lentparticle.drivers import martingale_batch, rotate
from lentparticle.gradients import supremum_gradient
from lentparticle.grid import RngStream, TimeGrid
from lentparticle.stepfn import StepFunction

GRID = TimeGrid(1.0, 64)

angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)
seeds = st.integers(0, 2**31 - 1)


@given(seed=seeds, index=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_streams_are_pure_functions_of_their_key(seed, index):
    a = RngStream(seed, index).generator().standard_normal(16)
    b = RngStream(seed, index).generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)


@given(theta=angles, phi=angles)
@settings(max_examples=40, deadline=None)
def test_rotation_angle_addition(theta, phi):
    B = martingale_batch("brownian", GRID, 1, 0, 1).select(0)
    M = martingale_batch("poisson", GRID, 1, 0, 1).select(0)
    lhs = rotate(B, M, theta + phi).values
    base = rotate(B, M, theta).values
    quarter = rotate(B, M, theta + math.pi / 2).values
    rhs = base * math.cos(phi) + quarter * math.sin(phi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@given(theta=angles)
@settings(max_examples=40, deadline=None)
def test_rotation_preserves_energy_identity(theta):
    # Y^theta and Y^{theta + pi/2} reconstruct B and M exactly
    B = martingale_batch("brownian", GRID, 2, 0, 1).select(0)
    M = martingale_batch("compound", GRID, 2, 0, 1).select(0)
    y0 = rotate(B, M, theta).values
    y1 = rotate(B, M, theta + math.pi / 2).values
    recovered_b = y0 * math.cos(theta) - y1 * math.sin(theta)
    np.testing.assert_allclose(recovered_b, B.values, atol=1e-9)


@st.composite
def step_functions(draw):
    n = draw(st.integers(1, 4))
    bps = sorted(draw(st.lists(
        st.floats(0.0, 2.0, allow_nan=False), min_size=n + 1, max_size=n + 1,
        unique=True,
    )))
    vals = draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n
    ))
    return StepFunction(tuple(bps), tuple(vals))


@given(f=step_functions(), g=step_functions())
@settings(max_examples=50, deadline=None)
def test_step_inner_product_axioms(f, g):
    assert f.inner(g) == g.inner(f)
    assert f.norm_sq >= 0.0
    # Cauchy-Schwarz
    assert f.inner(g) ** 2 <= f.norm_sq * g.norm_sq + 1e-9


@given(f=step_functions(), g=step_functions(),
       a=st.floats(-2, 2, allow_nan=False), b=st.floats(-2, 2, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_step_combine_is_pointwise_linear(f, g, a, b):
    c = f.combine(g, a, b)
    ts = np.linspace(0.0, 2.0, 23, endpoint=False)
    np.testing.assert_allclose(c(ts), a * f(ts) + b * g(ts), atol=1e-9)


@given(x=st.floats(0.0, 20.0, allow_nan=False))
@example(x=5e-324)  # x / 2 underflows to 0.0
@settings(max_examples=30, deadline=None)
def test_spectrum_is_a_probability_like_mass(x):
    report = bessel_spectrum(x, default_truncation(x))
    assert np.all(report.coefficients >= 0.0)
    assert report.parseval_defect() <= 1e-9 * max(1.0, math.exp(x))
    assert report.fourier(0.0) == report.parseval_total()


@given(seed=seeds, u=st.floats(0.05, 0.95), a=st.floats(1e-9, 1e-3))
@settings(max_examples=30, deadline=None)
def test_supremum_gradient_is_a_proportion(seed, u, a):
    B = martingale_batch("brownian", GRID, seed, 0, 1).select(0)
    grad = supremum_gradient(None, B, u, a)
    assert 0.0 <= grad <= 1.0


@given(u=st.floats(1e-6, 1.0))
@settings(max_examples=50, deadline=None)
def test_snap_index_brackets_the_time(u):
    k = GRID.index_at_or_after(u)
    assert 1 <= k <= GRID.n_steps
    assert GRID.times[k] >= u - 1e-9
    assert GRID.times[k - 1] < u + GRID.dt
