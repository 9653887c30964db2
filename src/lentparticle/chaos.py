"""Iterated stochastic integration and chaotic extensions.

I_n of a symmetrized elementary-tensor kernel is one forward recursion over
factor classes (equal factors form a class), with left-endpoint (predictable)
evaluation throughout.  For m counting the factors of each class used so far,

    J_0 = 1,   J_m(t_k) = sum_c sum_{j < k} J_{m - e_c}(t_j) g_c(t_j) dX_{(t_j, t_{j+1}]}

sums the ordered-simplex integrals over the distinct orderings of those
factors, and I_n = weight * prod_c m_c! * J_full(T).  For a power kernel
h^(x)n the levels are J_k, k = 1, ..., n, so one chain gives I_k(h^(x)k) for
every k <= n.  The chaotic extension of a finite chaos vector re-reads the
same kernels against the rotated driver Y^theta = B cos(theta) + M sin(theta).
"""

from __future__ import annotations

import math

import numpy as np

from .drivers import rotate
from .errors import DomainError
from .grid import SamplePath, require_same_grid
from .kernels import MAX_ORDER, ChaosVector, SimplexKernel
from .stepfn import StepFunction


def _class_levels(gvals: list, full: tuple[int, ...], inc: np.ndarray):
    """Yield levels k = 1, ..., n of the factor-class recursion, each as {m: J_m}, |m| = k.

    ``gvals`` holds each class's factor on the grid and ``full`` its count.
    J_m runs over the grid points, except at the top level, which keeps only
    J_full(T) (a last axis of length 1).  Level k is built from level k - 1
    alone and pops it as it goes, so read a level before resuming.
    """
    shape = inc.shape[:-1]
    n = sum(full)
    level = {(0,) * len(full): np.ones(inc.shape[-1] + 1)}
    for k in range(1, n + 1):
        nxt: dict[tuple[int, ...], np.ndarray] = {}
        for m in list(level):
            J = level.pop(m)
            for c, g in enumerate(gvals):
                if m[c] == full[c]:
                    continue
                out = np.empty(shape + (inc.shape[-1] + 1,))
                out[..., 0] = 0.0
                np.multiply(J[..., :-1], g, out=out[..., 1:])
                out[..., 1:] *= inc
                np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
                if k == n:
                    out = out[..., -1:].copy()
                target = m[:c] + (m[c] + 1,) + m[c + 1 :]
                if target in nxt:
                    nxt[target] += out
                else:
                    nxt[target] = out
        level = nxt
        yield level


def iterated_integral(kernel: SimplexKernel, driver: SamplePath) -> np.ndarray:
    """I_n(f_n) against the driver path(s); returns a scalar or batch array.

    The top level of the factor-class recursion gives J_full(T). A power
    kernel is the plain simplex chain; n distinct factors cost n 2^(n-1)
    cumulative sums.
    """
    inc = driver.increments
    shape = inc.shape[:-1]
    if kernel.order == 0:
        return np.full(shape, kernel.weight) if shape else kernel.weight
    classes = list(dict.fromkeys(kernel.factors))
    full = tuple(kernel.factors.count(g) for g in classes)
    for level in _class_levels([g.on_grid(driver.grid) for g in classes], full, inc):
        pass
    return kernel.weight * math.prod(map(math.factorial, full)) * level[full][..., -1]


def power_integrals(h: StepFunction, orders, driver: SamplePath) -> dict[int, np.ndarray]:
    """{k: I_k(h^(x)k)} for each k in ``orders``, from the levels of one h^(x)max chain.

    I_k = k! J_k(T) is read off level k, bit for bit what
    iterated_integral(SimplexKernel.power(h, k), driver) returns.
    """
    wanted = set(orders)
    if not wanted or not wanted <= set(range(1, MAX_ORDER + 1)):
        raise DomainError(f"orders must be a non-empty set within 1..{MAX_ORDER}, got {orders}")
    top = max(wanted)
    out = {}
    levels = _class_levels([h.on_grid(driver.grid)], (top,), driver.increments)
    for k, level in enumerate(levels, start=1):
        if k in wanted:
            out[k] = math.factorial(k) * level[(k,)][..., -1]
    return out


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
):
    """Stochastic exponential of V = int h1 dY^theta + int h2 dY^{theta+pi/2} at time t.

    Evaluates the closed product form exp(V - [V,V]^c / 2) prod (1 + dV) e^{-dV}:
    the Brownian component contributes the continuous bracket (computed exactly
    from the step functions), the martingale's jumps contribute the product
    factors, and any continuous drift of the martingale (the compensator of a
    compensated Poisson driver) rides in V through the plain increment sums.

    A vanishing factor (1 + dV) = 0 is legal and yields the value 0.
    """
    if not math.isfinite(theta):
        raise DomainError(f"rotation angle must be finite, got {theta}")
    grid = require_same_grid(brownian, martingale)
    m = grid.index_of(t)
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
    return np.exp(v_cont - 0.5 * bracket) * product

