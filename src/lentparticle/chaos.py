"""Iterated stochastic integration and chaotic extensions.

The n-fold integral of an elementary-tensor kernel over the increasing
simplex is computed by the forward recursion

    J_0 = 1,   J_k(t_m) = sum_{j < m} J_{k-1}(t_j) g_k(t_j) dX_{(t_j, t_{j+1}]}

with left-endpoint (predictable) evaluation throughout, then
I_n = n! J_n(T) when the factors coincide and a sum of the ordered-simplex
recursions over distinct factor orderings otherwise.  The chaotic extension
of a finite chaos vector re-reads the same kernels against the rotated
driver Y^theta = B cos(theta) + M sin(theta).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .drivers import rotate
from .errors import DomainError
from .grid import SamplePath, require_same_grid
from .kernels import ChaosVector, SimplexKernel
from .stepfn import StepFunction


def _ordered_simplex(gvals: list[np.ndarray], inc: np.ndarray) -> np.ndarray:
    """J_n(T) for one ordering of the factors; inc has shape (..., n_steps)."""
    shape = inc.shape[:-1]
    J = np.ones(shape + (inc.shape[-1] + 1,))
    zero = np.zeros(shape + (1,))
    for g in gvals:
        contrib = J[..., :-1] * g * inc
        J = np.concatenate([zero, np.cumsum(contrib, axis=-1)], axis=-1)
    return J[..., -1]


def iterated_integral(kernel: SimplexKernel, driver: SamplePath) -> np.ndarray:
    """I_n(f_n) against the driver path(s); returns a scalar or batch array."""
    shape = driver.increments.shape[:-1]
    if kernel.order == 0:
        out = np.full(shape, kernel.weight) if shape else kernel.weight
        return out
    grid = driver.grid
    gvals = [g.on_grid(grid) for g in kernel.factors]
    inc = driver.increments
    distinct = len({id(g) for g in kernel.factors}) > 1 and any(
        f != kernel.factors[0] for f in kernel.factors
    )
    if kernel.symmetrize and distinct:
        # sum of ordered-simplex integrals over distinct orderings, weighted
        # by multiplicity: I_n(sym tensor) = sum_perm Int_simplex (x) g_perm
        labels = _factor_labels(kernel.factors)
        counts = Counter(itertools.permutations(labels))
        total = 0.0
        for ordering, count in counts.items():
            vals = [gvals[labels.index(lab)] for lab in ordering]
            total = total + count * _ordered_simplex(vals, inc)
        return kernel.weight * total
    return kernel.weight * math.factorial(kernel.order) * _ordered_simplex(gvals, inc)


def _factor_labels(factors: tuple[StepFunction, ...]) -> list[int]:
    """Stable labels identifying equal factors."""
    labels: list[int] = []
    seen: list[StepFunction] = []
    for f in factors:
        for i, g in enumerate(seen):
            if f == g:
                labels.append(i)
                break
        else:
            seen.append(f)
            labels.append(len(seen) - 1)
    return labels


def evaluate_chaos(F: ChaosVector, driver: SamplePath) -> np.ndarray:
    """f(0) + sum_n I_n(f_n) against a given driver path."""
    shape = driver.increments.shape[:-1]
    total = np.full(shape, float(F.constant)) if shape else float(F.constant)
    for k in F.kernels:
        total = total + iterated_integral(k, driver)
    return total


def chaotic_extension(
    F: ChaosVector, brownian: SamplePath, martingale: SamplePath, theta: float
) -> np.ndarray:
    """F^theta: the kernels of F read against Y^theta = B cos(theta) + M sin(theta)."""
    return evaluate_chaos(F, rotate(brownian, martingale, theta))


def stochastic_integral(g: StepFunction, driver: SamplePath) -> np.ndarray:
    """First-order integral sum_j g(t_j) dX_j (left endpoints)."""
    return np.sum(g.on_grid(driver.grid) * driver.increments, axis=-1)


def exponential_vector(
    h1: StepFunction,
    h2: StepFunction,
    brownian: SamplePath,
    martingale: SamplePath,
    theta: float,
    t: float,
    return_zero_flags: bool = False,
):
    """Stochastic exponential of V = int h1 dY^theta + int h2 dY^{theta+pi/2} at time t.

    Evaluates the closed product form exp(V - [V,V]^c / 2) prod (1 + dV) e^{-dV}:
    the Brownian component contributes the continuous bracket (computed exactly
    from the step functions), the martingale's jumps contribute the product
    factors, and any continuous drift of the martingale (the compensator of a
    compensated Poisson driver) rides in V through the plain increment sums.

    A vanishing factor (1 + dV) = 0 is legal and yields the value 0; set
    ``return_zero_flags`` to detect those paths.
    """
    grid = require_same_grid(brownian, martingale)
    m = int(round(t / grid.dt))
    if not 0 <= m <= grid.n_steps or abs(m * grid.dt - t) > 1e-9 * grid.horizon:
        raise DomainError(f"t={t} is not a grid point")
    c, s = np.cos(theta), np.sin(theta)
    # Brownian and martingale integrands of V.
    bro = h1.combine(h2, c, -s)
    mar = h1.combine(h2, s, c)
    bro_g = bro.on_grid(grid)[:m]
    mar_g = mar.on_grid(grid)[:m]

    jumps = martingale.jump_increments
    if jumps is None:
        jumps = np.zeros_like(martingale.increments)
    cont = martingale.increments - jumps

    v_cont = np.sum(bro_g * brownian.increments[..., :m], axis=-1)
    v_cont = v_cont + np.sum(mar_g * cont[..., :m], axis=-1)
    bracket = bro.integral_sq(upto=t)
    factors = 1.0 + mar_g * jumps[..., :m]
    product = np.prod(factors, axis=-1)
    value = np.exp(v_cont - 0.5 * bracket) * product
    if return_zero_flags:
        return value, np.any(factors == 0.0, axis=-1)
    return value

