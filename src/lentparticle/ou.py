"""Ornstein-Uhlenbeck semigroup by Mehler averaging over an independent copy.

For a Brownian rotation the chaotic extension composes with the functional,
so everything here evaluates F directly on mixed paths:

    P_t F (B)  = inner average of F(e^{-t/2} B + sqrt(1 - e^{-t}) Bhat)
    F'         = d/dtheta F(B cos(theta) + Bhat sin(theta)) at 0
    Gamma[F]   = inner average of (F')^2
    Gamma[F]   = lim (1/t) (P_t(F^2) - 2 F P_t F + F^2)

Inner and outer Monte Carlo levels use disjoint stream families keyed on
(seed, outer index, inner index), so conditional expectations over the hat
copy are reproducible at fixed outer path.
"""

from __future__ import annotations

import numpy as np

from .drivers import _combine, inner_hat_batch  # inner_hat_batch: part of this module's API
from .errors import DomainError
from .grid import SamplePath
from .functionals import evaluate_functional


def combine_paths(p1: SamplePath, p2: SamplePath, c1: float, c2: float) -> SamplePath:
    """c1 * p1 + c2 * p2 with levels and increments combined consistently.

    The same combination as drivers.rotate, without its clamping of cos/sin.
    """
    return _combine(p1, p2, c1, c2)


def mehler_samples(F, outer: SamplePath, t: float, hats: SamplePath) -> np.ndarray:
    """Per-inner-sample values of F on the Mehler-mixed path."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    mixed = combine_paths(outer, hats, np.exp(-t / 2.0), np.sqrt(-np.expm1(-t)))
    return np.asarray(evaluate_functional(F, mixed), dtype=float)


def mehler_semigroup(F, outer: SamplePath, t: float, hats: SamplePath | None) -> float:
    """P_t F at the outer path; t = 0 needs no inner sampling."""
    if t == 0.0:
        return float(evaluate_functional(F, outer))
    if hats is None:
        raise DomainError("t > 0 requires inner hat paths")
    return float(np.mean(mehler_samples(F, outer, t, hats)))


def rotation_gradient_samples(
    F, outer: SamplePath, hats: SamplePath, theta: float = 1e-4
) -> np.ndarray:
    """Central theta-difference of F(B cos(theta) + Bhat sin(theta)) per hat path."""
    c, s = np.cos(theta), np.sin(theta)
    plus = evaluate_functional(F, combine_paths(outer, hats, c, s))
    minus = evaluate_functional(F, combine_paths(outer, hats, c, -s))
    return np.asarray((plus - minus) / (2.0 * theta), dtype=float)


def carre_du_champ(F, outer: SamplePath, hats: SamplePath, theta: float = 1e-4) -> float:
    """Gamma[F] at the outer path: inner average of the squared theta-difference."""
    if hats.increments.shape[0] < 2:
        raise DomainError("carre_du_champ needs at least 2 inner paths")
    return float(np.mean(rotation_gradient_samples(F, outer, hats, theta) ** 2))


def semigroup_bracket_samples(F, outer: SamplePath, t: float, hats: SamplePath) -> np.ndarray:
    """Per-inner samples of (1/t)(P_t(F^2) - 2 F P_t F + F^2).

    With the inner streams shared between P_t(F^2) and P_t F the bracket
    collapses to the inner average of (F(mixed) - F)^2 / t, which keeps the
    1/t amplification from blowing up the inner-MC variance.
    """
    if t <= 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    f0 = float(evaluate_functional(F, outer))
    fm = mehler_samples(F, outer, t, hats)
    return (fm - f0) ** 2 / t


def semigroup_limit_gamma(F, outer: SamplePath, t_list, hats: SamplePath) -> list[float]:
    """Bracket value per t; converges to carre_du_champ as t -> 0."""
    return [float(np.mean(semigroup_bracket_samples(F, outer, t, hats))) for t in t_list]


def richardson_limit(t_pairs: list[tuple[float, float]]) -> float:
    """Linear-in-t extrapolation to t = 0 from the two smallest distinct t values.

    A repeated t keeps its last value.
    """
    distinct = sorted(dict(t_pairs).items())
    if len(distinct) < 2:
        raise DomainError("need (t, value) pairs at two distinct t")
    (t1, v1), (t2, v2) = distinct[:2]
    return float((t2 * v1 - t1 * v2) / (t2 - t1))
