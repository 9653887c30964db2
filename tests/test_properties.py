"""Property-based invariants with hypothesis."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.bessel import bessel_spectrum, default_truncation
from lentparticle.chaos import iterated_integral
from lentparticle.drivers import _jump_step_indices, martingale_batch, rotate
from lentparticle.gradients import supremum_gradient
from lentparticle.grid import CHANNEL_COMPOUND, CHANNEL_POISSON, RngStream, SamplePath, TimeGrid
from lentparticle.kernels import SimplexKernel
from lentparticle.stepfn import StepFunction
from test_chaos import brute_force_integral

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


@given(n_steps=st.integers(1, 20), horizon=st.sampled_from([0.5, 1.0, 3.0]), seed=seeds,
       index=st.integers(0, 1000), kind=st.sampled_from(["poisson", "compound"]))
@example(n_steps=1, horizon=3.0, seed=0, index=0, kind="poisson")  # 2 arrivals, 1 kept
@example(n_steps=2, horizon=3.0, seed=1, index=0, kind="compound")  # 5 arrivals, 2 kept
@settings(max_examples=60, deadline=None)
def test_jump_snapping_on_coarse_grids(n_steps, horizon, seed, index, kind):
    grid = TimeGrid(horizon, n_steps)
    channel = CHANNEL_POISSON if kind == "poisson" else CHANNEL_COMPOUND
    kept = _jump_step_indices(RngStream(seed, index, channel).generator(), grid)
    # replay the key's exponential gaps: the arrival times in [0, T]
    replay, arrivals, t = RngStream(seed, index, channel).generator(), [], 0.0
    while (t := t + replay.standard_exponential()) <= horizon:
        arrivals.append(t)
    assert len(kept) <= len(arrivals)
    assert all(1 <= k <= n_steps for k in kept)
    assert all(a < b for a, b in zip(kept, kept[1:]))
    # arrival j snaps to max(ceil(t_j / dt - 1e-9), k_{j-1} + 1) ...
    prev = 0
    for t, k in zip(arrivals, kept):
        prev = max(math.ceil(t / grid.dt - 1e-9), prev + 1)
        assert k == prev
    # ... and the first arrival not kept is one forced past the last step
    if len(kept) < len(arrivals):
        forced = max(math.ceil(arrivals[len(kept)] / grid.dt - 1e-9), prev + 1)
        assert forced > n_steps
    # the batch route draws the same jumps
    jumps = martingale_batch(kind, grid, seed, index, 1).jump_increments[0]
    assert (np.flatnonzero(jumps) + 1).tolist() == kept


@given(pool=st.lists(step_functions(), min_size=3, max_size=3),
       picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
       seed=seeds, kind=st.sampled_from(["brownian", "poisson", "compound"]))
@settings(max_examples=60, deadline=None)
@example(pool=[StepFunction((0.0, 1.0), (1.0,)),  # terms below the normal range
               StepFunction((0.0, 1.0, 2.0), (1.2505520052218526e-157, 0.0)),
               StepFunction((0.0, 1.0), (0.0,))],
         picks=[0, 1, 1], seed=0, kind="brownian")
def test_iterated_integral_of_any_multiset_vs_brute_force(pool, picks, seed, kind):
    # Factor multisets of up to 5 draws from 3 step functions (equal draws
    # share a class) against the sum over index tuples and orderings.
    grid = TimeGrid(1.0, 7)
    path = martingale_batch(kind, grid, seed, 0, 1).select(0)
    k = SimplexKernel(len(picks), tuple(pool[i] for i in picks), weight=1.3)
    # error scale: the same sum over absolute values of every term
    absolute = SimplexKernel(k.order, tuple(
        StepFunction(f.breakpoints, tuple(abs(v) for v in f.values)) for f in k.factors
    ), weight=1.3)
    scale = brute_force_integral(absolute, SamplePath(grid, np.abs(path.increments)))
    # below the normal range (~2.2e-308) rounding is absolute, in subnormal steps
    # of ~4.9e-324, so the relative bound gets a floor of 1e-12 of the smallest normal
    tol = 1e-12 * scale + 1e-12 * np.finfo(float).tiny
    assert abs(iterated_integral(k, path) - brute_force_integral(k, path)) <= tol
