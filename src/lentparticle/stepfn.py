"""Piecewise-constant test functions on [0, T].

A step function is constant on right-open intervals [b_i, b_{i+1}) and zero
outside [b_0, b_m).  Inner products and integrals are computed exactly from
the pieces, which keeps the kernel side of every isometry check free of
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import TimeGrid


@dataclass(frozen=True)
class StepFunction:
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) != len(vals) + 1:
            raise ConfigurationError("need len(breakpoints) == len(values) + 1")
        if len(vals) == 0:
            raise ConfigurationError("step function needs at least one piece")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigurationError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float, horizon: float) -> "StepFunction":
        return cls((0.0, horizon), (value,))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breakpoints)
        idx = np.searchsorted(bp, t, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.values))
        out = np.zeros_like(t)
        vals = np.asarray(self.values)
        out[inside] = vals[idx[inside]]
        return out if out.ndim else float(out)

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        """Values at the left endpoints t_0 .. t_{n_steps-1}."""
        return np.asarray(self(grid.times[:-1]))

    def _merged(self, other: "StepFunction") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        bp = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
        left = bp[:-1]
        return np.diff(bp), np.asarray(self(left)), np.asarray(other(left))

    def inner(self, other: "StepFunction") -> float:
        """Exact L2 inner product."""
        widths, f, g = self._merged(other)
        return float(np.dot(widths, f * g))

    @property
    def norm_sq(self) -> float:
        bp = np.asarray(self.breakpoints)
        return float(np.dot(np.diff(bp), np.asarray(self.values) ** 2))
