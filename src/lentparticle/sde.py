"""One-dimensional SDEs, their Euler scheme and the first-variation flow.

The solver is the explicit left-endpoint scheme

    X_{k+1} = X_k + sigma(t_k, X_k) dW_k + b(t_k, X_k) dt

and reads its driver paths one step block at a time (``SamplePath.block``), so
any driver (Brownian, rotated, or jump-augmented) can be plugged in, and a
rotation is never stored whole.  The first-variation process

    Y_{k+1} = Y_k (1 + sigma_x(t_k, X_k) dW_k + b_x(t_k, X_k) dt),  Y_0 = 1

yields the flow form of the Malliavin gradient, D_u X_t = sigma(u-) Y_t / Y_u,
with the perturbation point snapped forward to a grid point t_k and the
diffusion coefficient taken at the left-endpoint state of the snap step (the
convention used uniformly by the jump-difference estimators, which makes the
two routes agree path by path up to the difference-step bias).

Every solve runs through one engine, ``euler``: a single loop over
time-major increments that advances a stack of states together with the
first variation of its row 0.  Row 0 follows the base driver; further rows
follow other drivers, or the base driver with a lent jump a 1_{. >= t_k},
which enters as a added to the increment of step k.  A bumped row equals
row 0 bit for bit before its bump step, so it goes live there, on a copy of
row 0's state, and still equals a separate solve on the perturbed
increments bit for bit.  Y advances per block of steps: one vectorized
evaluation of the block's factors, multiplied in step order.  The engine
keeps only the step columns its caller names, so full trajectories are
stored only by ``solve_sde`` and ``first_variation``, which ask for every
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, require_kind
from .grid import SamplePath, TimeGrid


@dataclass(frozen=True)
class SdeSpec:
    """Coefficients and x-derivatives of dX = sigma(t,X) dB + b(t,X) dt.

    A coefficient constant in x may return a float; it broadcasts like an array.
    sigma_x and b_x are also called on a block of steps at once, with t an
    array of shape (block, 1, ...) against x of shape (block, paths...).
    """

    x0: float
    sigma: Callable
    b: Callable
    sigma_x: Callable
    b_x: Callable


# name -> default parameters, each a number
_SDE_DEFAULTS = {
    "gbm": {"sigma": 0.3, "b": 0.1, "x0": 1.0},
    "additive": {"sigma": 1.0, "b": 0.0, "x0": 0.0},
    "sine-diffusion": {"x0": 1.0},
}


def make_sde(name: str, **params) -> SdeSpec:
    """Built-in registry: gbm, additive, sine-diffusion."""
    if name not in _SDE_DEFAULTS:
        raise ConfigurationError(f"unknown SDE spec {name!r}; known: {', '.join(_SDE_DEFAULTS)}")
    unknown = set(params) - set(_SDE_DEFAULTS[name])
    if unknown:
        raise ConfigurationError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    for key, value in params.items():
        require_kind(f"{name!r} parameter {key!r}", value, float)  # JSON reads 1e999 as inf
    p = {key: float(params.get(key, value)) for key, value in _SDE_DEFAULTS[name].items()}
    x0, sig, mu = p["x0"], p.get("sigma"), p.get("b")
    if name == "gbm":
        return SdeSpec(x0, sigma=lambda t, x: sig * x, b=lambda t, x: mu * x,
                       sigma_x=lambda t, x: sig, b_x=lambda t, x: mu)
    if name == "additive":
        return SdeSpec(x0, sigma=lambda t, x: sig, b=lambda t, x: mu,
                       sigma_x=lambda t, x: 0.0, b_x=lambda t, x: 0.0)
    return SdeSpec(x0, sigma=lambda t, x: np.sin(x) + 2.0, b=lambda t, x: 0.0,
                   sigma_x=lambda t, x: np.cos(x), b_x=lambda t, x: 0.0)


# Steps per time-major window of the drivers' increments: a few MB at batch
# shapes, so the window stays bounded whatever the grid.
STEP_BLOCK = 256


def euler(spec: SdeSpec, grid: TimeGrid, drivers, bumps=(), x_steps=(), y_steps=()):
    """The stacked Euler loop; returns the kept columns (xs, ys).

    ``drivers`` holds paths of one batch shape, one per row, row 0 the base,
    each read one STEP_BLOCK of steps at a time.  A bump (k, a), 1 <= k <= n_steps,
    appends a row on the single base driver with a added to the increment of
    step k.  An entry of ``x_steps`` / ``y_steps`` is a step in [0, n_steps], or an
    integer array over the paths giving each path its own step: xs[i] is the
    stacked state (rows, ...) there and ys[i] the first variation of row 0,
    which is advanced only when y_steps is non-empty.  Non-finite states are
    carried on, without numpy warnings, for the caller to mask and count.
    """
    n = grid.n_steps
    if bumps and len(drivers) != 1:
        raise ConfigurationError("bumped rows need a single driver row")
    paths = drivers[0].shape
    every = slice(0, int(np.prod(paths)))  # every row, flat
    rows = len(drivers) + len(bumps)
    bumped: dict[int, list] = {}
    for row, (k, a) in enumerate(bumps, start=len(drivers)):
        if not 1 <= k <= n:
            raise ConfigurationError(f"bump step {k} outside 1..{n}")
        bumped.setdefault(k - 1, []).append((row, a))
    x_plan, xs = _column_plan(x_steps, n, paths, (rows,) + paths)
    y_plan, ys = _column_plan(y_steps, n, paths, paths)

    dt = grid.dt
    times = grid.times.tolist()
    x = np.full((len(drivers),) + paths, float(spec.x0))  # the live rows
    live = np.append(np.arange(len(drivers)), np.zeros(len(bumps), int))  # row 0 until bumped
    y = np.ones(paths) if y_steps else None
    _keep(x_plan, xs, 0, x[live])
    _keep(y_plan, ys, 0, y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j0 in range(0, n, STEP_BLOCK):  # a block of steps, time-major and contiguous
            window = slice(j0, min(j0 + STEP_BLOCK, n))
            dw = np.stack([p.block(every, window).T for p in drivers], 1).reshape(
                (-1, len(drivers)) + paths)
            x_base = np.empty(dw[:, 0].shape)  # row 0 before each step, for Y
            for j, d in enumerate(dw, start=j0):
                if y is not None:
                    x_base[j - j0] = x[0]
                if j in bumped:  # the bumped rows go live on row 0's state
                    new = bumped[j]
                    live[[row for row, _ in new]] = range(len(x), len(x) + len(new))
                    d = np.concatenate([np.broadcast_to(d, x.shape)]
                                       + [d[:1] + a for _, a in new])
                    x = np.concatenate([x, np.repeat(x[:1], len(new), axis=0)])
                drift = spec.b(times[j], x) * dt  # x is advanced in place, so b reads it first
                x += spec.sigma(times[j], x) * d
                x += drift
                if j + 1 in x_plan:
                    _keep(x_plan, xs, j + 1, x[live])
            if y is not None:  # Y over the block: one factor per step, multiplied in order
                t = grid.times[j0:j0 + len(dw)].reshape((-1,) + (1,) * len(paths))
                factors = 1.0 + spec.sigma_x(t, x_base) * dw[:, 0] + spec.b_x(t, x_base) * dt
                factors[0] *= y
                np.multiply.accumulate(factors, axis=0, out=factors)
                y = factors[-1]
                for j in y_plan.keys() & range(j0 + 1, j0 + len(dw) + 1):
                    _keep(y_plan, ys, j, factors[j - j0 - 1])
    return xs, ys


def _column_plan(steps, n: int, paths: tuple, shape: tuple) -> tuple[dict, list]:
    """step -> [(slot, path mask)], and the arrays the kept columns fill."""
    plan: dict[int, list] = {}
    for slot, step in enumerate(steps):
        step = np.broadcast_to(step, paths)
        if not (0 <= step.min() and step.max() <= n):
            raise ConfigurationError(f"steps outside 0..{n}")
        for s in np.unique(step):
            plan.setdefault(int(s), []).append((slot, step == s))
    return plan, [np.empty(shape) for _ in steps]


def _keep(plan: dict, out: list, step: int, value) -> None:
    for slot, mask in plan.get(step, ()):
        out[slot][..., mask] = value[..., mask]


def solve_sde(spec: SdeSpec, driver: SamplePath) -> np.ndarray:
    """Euler path(s) of the SDE; shape (..., n_steps + 1), non-finite where a path blew up."""
    n = driver.grid.n_steps
    xs, _ = euler(spec, driver.grid, [driver], x_steps=range(n + 1))
    return np.stack(xs, axis=-1)[0]


def first_variation(spec: SdeSpec, driver: SamplePath) -> np.ndarray:
    """Linearized flow Y along the Euler path on the same increments; Y_0 = 1."""
    n = driver.grid.n_steps
    _, ys = euler(spec, driver.grid, [driver], y_steps=range(n + 1))
    return np.stack(ys, axis=-1)


def flow_form(spec: SdeSpec, grid: TimeGrid, k, x_before, y_k, y_m):
    """sigma(t_{k-1}, X_{k-1}) Y_m / Y_k: D_u X_t for u snapped to t_k, t = t_m,
    non-finite where Y_k vanished or the path blew up."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return spec.sigma(grid.times[k - 1], x_before) * y_m / y_k
