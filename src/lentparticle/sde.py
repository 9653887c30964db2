"""One-dimensional SDEs, their Euler scheme and the first-variation flow.

The solver is the explicit left-endpoint scheme

    X_{k+1} = X_k + sigma(t_k, X_k) dW_k + b(t_k, X_k) dt

and consumes only increments, so any driver (Brownian, rotated, or
jump-augmented) can be plugged in.  The first-variation process

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
which enters as a added to the increment of step k.  A bumped row shares
every operation with row 0 before its bump step, so it equals a separate
solve on the perturbed increments bit for bit.  The engine keeps only the
step columns its caller names, so full trajectories are stored only by
``solve_sde`` and ``first_variation``, which ask for every column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalBlowupError, SingularFlowError
from .estimates import GradientEstimate
from .grid import RngStream, SamplePath, TimeGrid


@dataclass(frozen=True)
class SdeSpec:
    """Coefficients and x-derivatives of dX = sigma(t,X) dB + b(t,X) dt.

    A coefficient constant in x may return a float; it broadcasts like an array.
    """

    name: str
    x0: float
    sigma: Callable
    b: Callable
    sigma_x: Callable
    b_x: Callable
    params: dict = field(default_factory=dict)

    def check_derivatives(self, rng: RngStream, n_points: int = 25, tol: float = 1e-5) -> None:
        """Spot-check sigma_x / b_x against central differences at random (t, x)."""
        gen = rng.generator()
        ts = gen.uniform(0.0, 1.0, n_points)
        xs = gen.uniform(-2.0, 2.0, n_points) + self.x0
        eps = 1e-6
        for fn, dfn, label in ((self.sigma, self.sigma_x, "sigma"), (self.b, self.b_x, "b")):
            fd = (fn(ts, xs + eps) - fn(ts, xs - eps)) / (2 * eps)
            exact = dfn(ts, xs) * np.ones_like(xs)
            scale = np.abs(exact) + 1.0
            if np.any(np.abs(fd - exact) / scale > tol):
                raise ConfigurationError(f"{label}_x inconsistent with finite differences")


def make_sde(name: str, **params) -> SdeSpec:
    """Built-in registry: gbm, additive, sine-diffusion."""
    if name == "gbm":
        sig = float(params.pop("sigma", 0.3))
        mu = float(params.pop("b", 0.1))
        x0 = float(params.pop("x0", 1.0))
        _reject_extra(name, params)
        return SdeSpec(
            "gbm",
            x0,
            sigma=lambda t, x: sig * x,
            b=lambda t, x: mu * x,
            sigma_x=lambda t, x: sig,
            b_x=lambda t, x: mu,
            params={"sigma": sig, "b": mu, "x0": x0},
        )
    if name == "additive":
        c = float(params.pop("sigma", 1.0))
        mu = float(params.pop("b", 0.0))
        x0 = float(params.pop("x0", 0.0))
        _reject_extra(name, params)
        return SdeSpec(
            "additive",
            x0,
            sigma=lambda t, x: c,
            b=lambda t, x: mu,
            sigma_x=lambda t, x: 0.0,
            b_x=lambda t, x: 0.0,
            params={"sigma": c, "b": mu, "x0": x0},
        )
    if name == "sine-diffusion":
        x0 = float(params.pop("x0", 1.0))
        _reject_extra(name, params)
        return SdeSpec(
            "sine-diffusion",
            x0,
            sigma=lambda t, x: np.sin(x) + 2.0,
            b=lambda t, x: 0.0,
            sigma_x=lambda t, x: np.cos(x),
            b_x=lambda t, x: 0.0,
            params={"x0": x0},
        )
    raise ConfigurationError(f"unknown SDE spec {name!r}; known: gbm, additive, sine-diffusion")


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ConfigurationError(f"unknown parameters for {name!r}: {sorted(params)}")


# Steps per time-major copy of the increments: a few MB at batch shapes,
# so the copy stays bounded whatever the grid.
STEP_BLOCK = 256


def euler(spec: SdeSpec, grid: TimeGrid, drivers, bumps=(), x_steps=(), y_steps=()):
    """The stacked Euler loop; returns the kept columns (xs, ys).

    ``drivers`` holds increment arrays of one shape (..., n_steps), one per
    row, row 0 the base.  A bump (k, a), 1 <= k <= n_steps, appends a row on
    the single base driver with a added to the increment of step k.  An
    entry of ``x_steps`` / ``y_steps`` is a step in [0, n_steps], or an
    integer array over the paths giving each path its own step: xs[i] is the
    stacked state (rows, ...) there and ys[i] the first variation of row 0,
    which is advanced only when y_steps is non-empty.  Non-finite states are
    carried on for the caller to mask and count.
    """
    n = grid.n_steps
    if bumps and len(drivers) != 1:
        raise ConfigurationError("bumped rows need a single driver row")
    paths = np.shape(drivers[0])[:-1]
    rows = len(drivers) + len(bumps)
    bumped: dict[int, list] = {}
    for row, (k, a) in enumerate(bumps, start=len(drivers)):
        if not 1 <= k <= n:
            raise DomainError(f"bump step {k} outside 1..{n}")
        bumped.setdefault(k - 1, []).append((row, a))
    x_plan, xs = _column_plan(x_steps, n, paths, (rows,) + paths)
    y_plan, ys = _column_plan(y_steps, n, paths, paths)

    dt = grid.dt
    times = grid.times
    x = np.full((rows,) + paths, float(spec.x0))
    y = np.ones(paths) if y_steps else None
    _keep(x_plan, xs, 0, x)
    _keep(y_plan, ys, 0, y)
    for j in range(n):
        if j % STEP_BLOCK == 0:  # the next block of steps, time-major and contiguous
            dw = np.stack([np.moveaxis(inc[..., j:j + STEP_BLOCK], -1, 0) for inc in drivers], 1)
        t = times[j]
        d = dw[j % STEP_BLOCK]
        if y is not None:
            x_base = x[0]
            y = y * (1.0 + spec.sigma_x(t, x_base) * d[0] + spec.b_x(t, x_base) * dt)
        if j in bumped:
            d = np.repeat(d, rows, axis=0)
            for row, a in bumped[j]:
                d[row] = d[0] + a
        x = x + spec.sigma(t, x) * d + spec.b(t, x) * dt
        _keep(x_plan, xs, j + 1, x)
        _keep(y_plan, ys, j + 1, y)
    return xs, ys


def _column_plan(steps, n: int, paths: tuple, shape: tuple) -> tuple[dict, list]:
    """step -> [(slot, path mask)], and the arrays the kept columns fill."""
    plan: dict[int, list] = {}
    for slot, step in enumerate(steps):
        step = np.broadcast_to(step, paths)
        if not (0 <= step.min() and step.max() <= n):
            raise DomainError(f"steps outside 0..{n}")
        for s in np.unique(step):
            plan.setdefault(int(s), []).append((slot, step == s))
    return plan, [np.empty(shape) for _ in steps]


def _keep(plan: dict, out: list, step: int, value) -> None:
    for slot, mask in plan.get(step, ()):
        out[slot][..., mask] = value[..., mask]


def solve_sde(spec: SdeSpec, driver: SamplePath) -> np.ndarray:
    """Euler path(s) of the SDE; shape (..., n_steps + 1).

    A single path raises NumericalBlowupError at the first non-finite state;
    batches return non-finite entries for the caller to mask and count.
    """
    n = driver.grid.n_steps
    xs, _ = euler(spec, driver.grid, [driver.increments], x_steps=range(n + 1))
    out = np.stack(xs, axis=-1)[0]
    if not driver.is_batch and not np.all(np.isfinite(out)):
        step = int(np.argmax(~np.isfinite(out)))
        raise NumericalBlowupError(step)
    return out


def first_variation(spec: SdeSpec, driver: SamplePath) -> np.ndarray:
    """Linearized flow Y along the Euler path on the same increments; Y_0 = 1."""
    n = driver.grid.n_steps
    _, ys = euler(spec, driver.grid, [driver.increments], y_steps=range(n + 1))
    return np.stack(ys, axis=-1)


def flow_form(spec: SdeSpec, grid: TimeGrid, k, x_before, y_k, y_m):
    """sigma(t_{k-1}, X_{k-1}) Y_m / Y_k: D_u X_t for u snapped to t_k, t = t_m."""
    return spec.sigma(grid.times[k - 1], x_before) * y_m / y_k


def flow_oracle(spec: SdeSpec, brownian: SamplePath, u: float, t: float) -> GradientEstimate:
    """D_u X_t via the first-variation transfer: sigma(u-, X_{u-}) Y_t / Y_u."""
    grid = brownian.grid
    k = grid.index_at_or_after(u)
    m = int(round(t / grid.dt))
    if not k <= m <= grid.n_steps:
        raise DomainError(f"need u <= t <= T on the grid, got u={u}, t={t}")
    (x_before,), (y_u, y_t) = euler(
        spec, grid, [brownian.increments], x_steps=(k - 1,), y_steps=(k, m)
    )
    if np.any(y_u == 0.0):
        raise SingularFlowError("first variation vanished at the perturbation time")
    value = flow_form(spec, grid, k, x_before[0], y_u, y_t)
    return GradientEstimate(u=k * grid.dt, t=m * grid.dt, value=value, method="flow_oracle")
