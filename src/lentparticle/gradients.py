"""Malliavin gradients by jump insertion and their independent cross-checks.

The central move: perturb the driving path by a * 1_{. >= u} ("lend" a jump of
size a at time u), re-evaluate the functional, and difference in a.  Central
differences with a default step of 1e-4 are used throughout, so the bias is
O(step^2) for smooth functionals.  Each estimator is paired with a route that
does not go through the jump difference:

* cylindrical functionals -- the chain-rule value sum_i dPhi_i * h_i(u-);
* chaos vectors           -- the order-lowering kernel contraction integrated
                             against the martingale;
* SDE solutions           -- the first-variation flow (sde.flow_oracle);
* running suprema         -- the closed-form indicator from the piecewise
                             linear structure of the max.
"""

from __future__ import annotations

import numpy as np

from .chaos import chaotic_extension, iterated_integral, stochastic_integral
from .drivers import add_unit_jump, rotate
from .errors import ConfigurationError, DomainError
from .estimates import GradientEstimate
from .functionals import CylindricalFunctional, evaluate_functional
from .grid import SamplePath, require_same_grid
from .kernels import ChaosVector, SimplexKernel
from .sde import SdeSpec, euler, flow_form
from .stepfn import StepFunction

DEFAULT_STEP = 1e-4


def gradient_cylindrical(
    F: CylindricalFunctional, path: SamplePath, u: float, a0: float = DEFAULT_STEP
) -> GradientEstimate:
    """D_u F for F = Phi(...): jump difference plus the chain-rule value.

    The perturbation lands in the increment of the snap step, so the analytic
    value evaluates each h_i at the left endpoint of that step.
    """
    grid = path.grid
    k = grid.index_at_or_after(u)
    snapped = abs(k * grid.dt - u) > 1e-12 * grid.horizon
    u_left = grid.times[k - 1]

    plus = evaluate_functional(F, add_unit_jump(path, u, a0))
    minus = evaluate_functional(F, add_unit_jump(path, u, -a0))
    diff = (plus - minus) / (2.0 * a0)

    args = F.arguments(path)
    grads = F.phi_grad(*args)
    analytic = 0.0
    for g, h in zip(grads, F.h_list):
        analytic = analytic + g * _argument_derivative(h, path, u_left)
    return GradientEstimate(
        u=k * grid.dt, t=grid.horizon, value=diff, method="jump_difference",
        theta=a0, analytic=analytic, snapped=snapped,
    )


def _argument_derivative(h, path: SamplePath, u_left: float):
    """D_u of a single argument, with u taken at the snap step's left endpoint."""
    if isinstance(h, StepFunction):
        return h(u_left)
    if isinstance(h, SimplexKernel):
        total = 0.0
        for g, reduced in h.contractions():
            total = total + g(u_left) * iterated_integral(reduced, path)
        return total
    raise ConfigurationError(f"unsupported argument type {type(h)!r}")


def gradient_chaos(
    F: ChaosVector, brownian: SamplePath, martingale: SamplePath, theta0: float = 1e-3
) -> np.ndarray:
    """F-sharp: central difference of the chaotic extension, (F^t - F^-t)/(2t)."""
    plus = chaotic_extension(F, brownian, martingale, theta0)
    minus = chaotic_extension(F, brownian, martingale, -theta0)
    return (plus - minus) / (2.0 * theta0)


def chaos_gradient_contraction(
    F: ChaosVector, brownian: SamplePath, martingale: SamplePath
) -> np.ndarray:
    """The theta-free route: int D_s F dM_s by kernel contraction.

    D_s F = sum_n sum_i g_i(s) I_{n-1}(sym of the other factors), so the
    integral splits into Brownian iterated integrals times first-order
    integrals of the sliced factors against M.
    """
    require_same_grid(brownian, martingale)
    total = 0.0
    for kernel in F.kernels:
        if kernel.order == 0:
            continue
        for g, reduced in kernel.contractions():
            total = total + iterated_integral(reduced, brownian) * stochastic_integral(
                g, martingale
            )
    return total


def lent_particle_sde(
    spec: SdeSpec, brownian: SamplePath, u: float, t: float, theta: float = DEFAULT_STEP
) -> GradientEstimate:
    """D_u X_t by solving against dB + theta 1_{. >= u} and differencing in theta.

    ``analytic`` carries the flow form (sde.flow_oracle) from the same pass.
    """
    out = lent_particle_sde_table(spec, brownian, (u,), (t,), theta)
    if not out:
        raise DomainError(f"need u <= t <= T on the grid, got u={u}, t={t}")
    return out[u, t]


def lent_particle_sde_table(
    spec: SdeSpec, brownian: SamplePath, us, ts, theta: float = DEFAULT_STEP
) -> dict:
    """lent_particle_sde for every (u, t) in us x ts with u <= t on the grid.

    One stacked Euler pass serves them all: each +-theta perturbation is a
    bumped row, and the flow form reads the base row's first variation.
    """
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    grid = brownian.grid
    ks = [grid.index_at_or_after(u) for u in us]
    ms = [int(round(t / grid.dt)) for t in ts]
    bumps = [(k, a) for k in ks for a in (theta, -theta)]
    xs, ys = euler(spec, grid, [brownian.increments], bumps,
                   x_steps=ms + [k - 1 for k in ks], y_steps=ms + ks)
    n_t = len(ms)
    out = {}
    for i, (u, k) in enumerate(zip(us, ks)):
        for j, (t, m) in enumerate(zip(ts, ms)):
            if m < k:
                continue
            value = (xs[j][1 + 2 * i] - xs[j][2 + 2 * i]) / (2.0 * theta)
            flow = flow_form(spec, grid, k, xs[n_t + i][0], ys[n_t + i], ys[j])
            out[u, t] = GradientEstimate(u=k * grid.dt, t=m * grid.dt, value=value,
                                         method="jump_difference", theta=theta,
                                         analytic=flow)
    return out


def lent_particle_sde_poisson(
    spec: SdeSpec, brownian: SamplePath, martingale: SamplePath, t: float,
    theta: float = DEFAULT_STEP,
) -> GradientEstimate | None:
    """The Poisson-driver variant: solve against Y^theta and difference at 0.

    With the symmetric compound driver on a single-jump path the limit is
    J_1 * D_{U_1} X_t; multiplying by the mark recovers D_{U_1} X_t.  u is
    the first jump time U_1 and ``analytic`` the flow form of D_{U_1} X_t;
    on a batch both are per path and NaN on paths without a jump, and a
    single path without a jump returns None (skip).  B, Y^theta and
    Y^-theta are the rows of one Euler pass.
    """
    grid = require_same_grid(brownian, martingale)
    m = int(round(t / grid.dt))
    if not 1 <= m <= grid.n_steps:
        raise DomainError(f"t={t} not a positive grid time")
    jumps = martingale.jump_increments
    jumped = np.zeros(martingale.increments.shape, bool) if jumps is None else jumps != 0.0
    has_jump = jumped.any(axis=-1)
    if not martingale.is_batch and not has_jump:
        return None
    k = np.where(has_jump, np.argmax(jumped, axis=-1) + 1, 1)
    rows = [brownian.increments, rotate(brownian, martingale, theta).increments,
            rotate(brownian, martingale, -theta).increments]
    (x, x_before), (y_k, y_m) = euler(spec, grid, rows, x_steps=(m, k - 1), y_steps=(k, m))
    flow = flow_form(spec, grid, k, x_before[0], y_k, y_m)
    return GradientEstimate(u=np.where(has_jump, k * grid.dt, np.nan)[()], t=m * grid.dt,
                            value=(x[1] - x[2]) / (2.0 * theta), method="jump_difference",
                            theta=theta, analytic=np.where(has_jump, flow, np.nan)[()])


def integration_by_parts_pair(F, G: StepFunction, brownian: SamplePath):
    """Per-path (lhs, rhs) of E[F int G dB] = E[int D_u F G_u du], G deterministic."""
    lhs = evaluate_functional(F, brownian) * stochastic_integral(G, brownian)
    if isinstance(F, ChaosVector):
        rhs = 0.0
        for kernel in F.kernels:
            if kernel.order == 0:
                continue
            for g, reduced in kernel.contractions():
                rhs = rhs + iterated_integral(reduced, brownian) * g.inner(G)
    elif isinstance(F, CylindricalFunctional):
        args = F.arguments(brownian)
        grads = F.phi_grad(*args)
        rhs = 0.0
        for dphi, h in zip(grads, F.h_list):
            if not isinstance(h, StepFunction):
                raise ConfigurationError("IBP pairs support step-function arguments only")
            rhs = rhs + dphi * h.inner(G)
    else:
        raise ConfigurationError(f"unsupported functional type {type(F)!r}")
    return lhs, rhs


def supremum_decomposition(K, brownian: SamplePath, u: float):
    """(sup_{s < u}, sup_{s >= u}) of B + K over the grid, u snapped forward."""
    grid = brownian.grid
    k = grid.index_at_or_after(u)
    levels = brownian.values + _k_values(K, grid)
    before = np.max(levels[..., :k], axis=-1)
    after = np.max(levels[..., k:], axis=-1)
    return before, after


def _k_values(K, grid) -> np.ndarray:
    if K is None:
        return np.zeros(grid.n_steps + 1)
    if isinstance(K, StepFunction):
        return np.asarray(K(grid.times))
    if callable(K):
        return np.asarray(K(grid.times), dtype=float)
    return np.asarray(K, dtype=float)


def supremum_gradient(K, brownian: SamplePath, u: float, a: float) -> np.ndarray:
    """(M(B + a 1_{. >= u}) - M(B)) / a for M(B) = sup_{s <= T} (B_s + K_s).

    Uses the max decomposition, so the piecewise-linear structure is evaluated
    exactly: the quotient is 1 where the post-u supremum dominates, 0 where it
    trails by more than a, and the transitional value in between.
    """
    if a <= 0.0:
        raise DomainError(f"a must be > 0, got {a}")
    before, after = supremum_decomposition(K, brownian, u)
    gap = after - before
    return np.clip(gap / a + 1.0, 0.0, 1.0)
