"""Malliavin gradients by jump insertion and their independent cross-checks.

The central move: perturb the driving path by a * 1_{. >= u} ("lend" a jump of
size a at time u), re-evaluate the functional, and difference in a.  Every
estimator takes a central difference, so the bias is O(step^2) for smooth
functionals; the default step is 1e-4, and 1e-3 for the rotation angle of
``gradient_chaos`` (on the rotation chaos.chaotic_extension returns).  Each
estimator is paired with a route that does not go through the jump difference:

* chaos vectors           -- the order-lowering kernel contraction integrated
                             against the martingale;
* SDE solutions           -- the first-variation flow (sde.flow_form) from the
                             same Euler pass;
* running suprema         -- the closed-form indicator from the piecewise
                             linear structure of the max.

The kernel contraction and the right-hand side of the integration-by-parts
pair are one pairing <DF, phi> (``_derivative_pairing``), which reads a
cylindrical functional of first-order integrals by the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import iterated_integrals, stochastic_integral
from .drivers import rotate
from .errors import ConfigurationError
from .functionals import CylindricalFunctional, evaluate_functional
from .grid import SamplePath, reduce_rows, require_same_grid
from .kernels import ChaosVector
from .sde import SdeSpec, euler, flow_form
from .stepfn import StepFunction

DEFAULT_STEP = 1e-4


@dataclass
class GradientEstimate:
    """A jump-difference estimate of D_u X_t, with the flow form (sde.flow_form)
    from the same Euler pass in ``analytic``."""

    u: float
    t: float
    value: float | np.ndarray
    analytic: float | np.ndarray


def require_step(name: str, step: float) -> None:
    """ConfigurationError unless the difference step is positive and finite."""
    if not 0.0 < step < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {step}")


def _derivative_pairing(F, path: SamplePath, pair):
    """<DF, phi> on each path, where pair(g) = <g, phi> for a step function g.

    D_s I_n(g_1 ... g_n) = sum_i g_i(s) I_{n-1}(the others), the weight riding
    on the reduced kernel; a cylindrical Phi(int h_1 dB, ...) sums dPhi_j <h_j, phi>.
    """
    if isinstance(F, CylindricalFunctional):
        total = 0.0
        for dphi, h in zip(F.phi_grad(*F.arguments(path)), F.h_list):
            total = total + dphi * pair(h)
        return total
    if not isinstance(F, ChaosVector):
        raise ConfigurationError(f"unsupported functional type {type(F)!r}")
    slices = [s for kernel in F.kernels for s in kernel.contractions()]
    total = 0.0
    for (g, _), value in zip(slices, iterated_integrals([r for _, r in slices], path)):
        total = total + value * pair(g)
    return total


def gradient_chaos(extension, theta0: float = 1e-3) -> np.ndarray:
    """F-sharp: central difference (F^t - F^-t)/(2t) of t -> F^t = chaotic_extension(F, B, M).

    One theta-difference serves every rotation: for a Poisson or compound M,
    a chaos vector; for an independent Brownian copy M = Bhat, any functional
    (ou.carre_du_champ).
    """
    require_step("theta0", theta0)
    return (extension(theta0) - extension(-theta0)) / (2.0 * theta0)


def chaos_gradient_contraction(
    F: ChaosVector, brownian: SamplePath, martingale: SamplePath
) -> np.ndarray:
    """The theta-free route: int D_s F dM_s by kernel contraction.

    D_s F = sum_n sum_i g_i(s) I_{n-1}(sym of the other factors), so the
    integral splits into Brownian iterated integrals times first-order
    integrals of the sliced factors against M.
    """
    require_same_grid(brownian, martingale)
    return _derivative_pairing(F, brownian, lambda g: stochastic_integral(g, martingale))


def lent_particle_sde(
    spec: SdeSpec, brownian: SamplePath, u: float, t: float, theta: float = DEFAULT_STEP
) -> GradientEstimate:
    """D_u X_t by solving against dB + theta 1_{. >= u} and differencing in theta.

    ``analytic`` carries the flow form (sde.flow_form) from the same pass.
    """
    out = lent_particle_sde_table(spec, brownian, (u,), (t,), theta)
    if not out:
        raise ConfigurationError(f"need u <= t <= T on the grid, got u={u}, t={t}")
    return out[u, t]


def lent_particle_sde_table(
    spec: SdeSpec, brownian: SamplePath, us, ts, theta: float = DEFAULT_STEP
) -> dict:
    """lent_particle_sde for every (u, t) in us x ts with u <= t on the grid.

    One stacked Euler pass serves them all: each +-theta perturbation is a
    bumped row, and the flow form reads the base row's first variation.
    """
    require_step("theta", theta)
    grid = brownian.grid
    ks = [grid.index_at_or_after(u) for u in us]
    ms = [grid.index_of(t) for t in ts]
    bumps = [(k, a) for k in ks for a in (theta, -theta)]
    xs, ys = euler(spec, grid, [brownian], bumps,
                   x_steps=ms + [k - 1 for k in ks], y_steps=ms + ks)
    n_t = len(ms)
    out = {}
    for i, (u, k) in enumerate(zip(us, ks)):
        for j, (t, m) in enumerate(zip(ts, ms)):
            if m < k:
                continue
            value = (xs[j][1 + 2 * i] - xs[j][2 + 2 * i]) / (2.0 * theta)
            flow = flow_form(spec, grid, k, xs[n_t + i][0], ys[n_t + i], ys[j])
            out[u, t] = GradientEstimate(u=k * grid.dt, t=m * grid.dt, value=value, analytic=flow)
    return out


def lent_particle_sde_poisson(
    spec: SdeSpec, brownian: SamplePath, martingale: SamplePath, t: float,
    theta: float = DEFAULT_STEP,
) -> GradientEstimate:
    """The Poisson-driver variant: solve against Y^theta, difference at 0 and divide by J_1.

    With the symmetric compound driver on a single-jump path the difference's
    limit is J_1 * D_{U_1} X_t, so ``value`` is D_{U_1} X_t there; for a mark
    J_1 = +-1 the division is exact.  u is the first jump time U_1, J_1 its
    mark (each path's first particle) and ``analytic`` the flow form of
    D_{U_1} X_t, per path on a batch, so every path of M needs a jump.  B,
    Y^theta and Y^-theta are the rows of one Euler pass, which reads each
    rotation a step block at a time off B and M's list, never stored whole.
    """
    require_step("theta", theta)
    grid = require_same_grid(brownian, martingale)
    m = grid.index_of(t)
    if m == 0:
        raise ConfigurationError(f"t={t} not a positive grid time")
    jumps = martingale.particles
    counts = np.zeros(1, int) if jumps is None else jumps.counts().ravel()
    if not counts.all():
        raise ConfigurationError("every martingale path needs a jump")
    first = np.cumsum(counts) - counts  # each path's first particle
    k = (jumps.steps[first] + 1).reshape(jumps.shape)[()]
    mark = jumps.marks[first].reshape(jumps.shape)[()]
    rows = [brownian, rotate(brownian, martingale, theta), rotate(brownian, martingale, -theta)]
    (x, x_before), (y_k, y_m) = euler(spec, grid, rows, x_steps=(m, k - 1), y_steps=(k, m))
    return GradientEstimate(u=k * grid.dt, t=m * grid.dt,
                            value=(x[1] - x[2]) / (2.0 * theta) / mark,
                            analytic=flow_form(spec, grid, k, x_before[0], y_k, y_m))


def integration_by_parts_pair(F, G: StepFunction, brownian: SamplePath):
    """Per-path (lhs, rhs) of E[F int G dB] = E[int D_u F G_u du], G deterministic."""
    lhs = evaluate_functional(F, brownian) * stochastic_integral(G, brownian)
    return lhs, _derivative_pairing(F, brownian, G.inner)


def supremum_decomposition(K, brownian: SamplePath, u: float):
    """(sup_{s < u}, sup_{s >= u}) of B + K over the grid, u snapped forward; a plain
    batch (no K, its levels neither cached nor recorded) is summed a row block at a time."""
    grid = brownian.grid
    k = grid.index_at_or_after(u)
    if K is None and brownian._values is None and brownian._levels is None:
        def split(rows, buf):
            buf[:, 0] = 0.0
            np.cumsum(brownian.block(rows), axis=-1, out=buf[:, 1:])
            return np.max(buf[:, :k], axis=-1), np.max(buf[:, k:], axis=-1)
        return tuple(reduce_rows(brownian.shape, grid.n_steps + 1, split, count=2))
    levels = brownian.values
    if K is not None:
        levels = levels + np.asarray(K(grid.times) if callable(K) else K, dtype=float)
    return np.max(levels[..., :k], axis=-1), np.max(levels[..., k:], axis=-1)


def supremum_quotient(gap, a: float) -> np.ndarray:
    """(M(B + a 1_{. >= u}) - M(B)) / a from gap = sup_{s >= u} - sup_{s < u} of B + K.

    The piecewise-linear structure of the max, exactly: the quotient is 1
    where the post-u supremum dominates, 0 where it trails by more than a,
    and the transitional value in between.
    """
    require_step("a", a)
    return np.clip(gap / a + 1.0, 0.0, 1.0)


def supremum_gradient(K, brownian: SamplePath, u: float, a: float) -> np.ndarray:
    """(M(B + a 1_{. >= u}) - M(B)) / a for M(B) = sup_{s <= T} (B_s + K_s), by the
    max decomposition (supremum_quotient)."""
    before, after = supremum_decomposition(K, brownian, u)
    return supremum_quotient(after - before, a)
