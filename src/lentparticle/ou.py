"""Ornstein-Uhlenbeck semigroup as a rotation against an independent copy.

For a Brownian rotation the chaotic extension composes with the functional,
so everything here reads F on Y^theta = B cos(theta) + Bhat sin(theta)
through gradients.rotated_values, which picks the route:

    P_t F (B)  = inner average of F(Y^theta_t),  cos(theta_t) = e^{-t/2}
    F'         = d/dtheta F(Y^theta) at 0
                 (gradients.gradient_chaos with Bhat as the martingale)
    Gamma[F]   = inner average of (F')^2
    Gamma[F]   = lim (1/t) (P_t(F^2) - 2 F P_t F + F^2)

mehler_samples and semigroup_bracket_samples read every t of a sequence off
one rotation of F.  The mehler experiment draws each outer path and its hats
once; the first n_eigen_paths (<= n_outer) also check P_t I_n = e^{-nt/2} I_n.

Inner and outer Monte Carlo levels use disjoint stream families keyed on
(seed, outer index, inner index), so conditional expectations over the hat
copy are reproducible at fixed outer path.
"""

from __future__ import annotations

import math

import numpy as np

from .drivers import _combine, inner_hat_batch  # inner_hat_batch: part of this module's API
from .errors import DomainError
from .functionals import evaluate_functional
from .gradients import gradient_chaos, rotated_values
from .grid import SamplePath


def combine_paths(p1: SamplePath, p2: SamplePath, c1: float, c2: float) -> SamplePath:
    """c1 * p1 + c2 * p2: the combination of drivers.rotate, without its clamping of cos/sin."""
    return _combine(p1, p2, c1, c2)


def mehler_samples(F, outer: SamplePath, ts, hats: SamplePath) -> list:
    """Per-inner-sample values of F on Y^theta_t for each t of ts, from one rotation of F.

    atan2 keeps sin(theta_t) exact as t -> 0; t = 0 reads F at the outer path, to rounding.
    """
    if not all(0.0 <= t < math.inf for t in ts):
        raise DomainError(f"t must be >= 0 and finite, got {ts}")
    thetas = [math.atan2(math.sqrt(-math.expm1(-t)), math.exp(-t / 2.0)) for t in ts]
    return [np.asarray(values, dtype=float) for values in rotated_values(F, outer, hats, thetas)]


def rotation_gradient_samples(
    F, outer: SamplePath, hats: SamplePath, theta: float = 1e-4
) -> np.ndarray:
    """Central theta-difference of F(B cos(theta) + Bhat sin(theta)) per hat path."""
    return np.asarray(gradient_chaos(F, outer, hats, theta), dtype=float)


def carre_du_champ(F, outer: SamplePath, hats: SamplePath, theta: float = 1e-4) -> float:
    """Gamma[F] at the outer path: inner average of the squared theta-difference."""
    if hats.increments.shape[0] < 2:
        raise DomainError("carre_du_champ needs at least 2 inner paths")
    return float(np.mean(rotation_gradient_samples(F, outer, hats, theta) ** 2))


def semigroup_bracket_samples(F, outer: SamplePath, ts, hats: SamplePath) -> list:
    """Per-inner samples of (1/t)(P_t(F^2) - 2 F P_t F + F^2) for each t of ts.

    With the inner streams shared between P_t(F^2) and P_t F the bracket
    collapses to the inner average of (F(Y^theta_t) - F)^2 / t, which keeps the
    1/t amplification from blowing up the inner-MC variance.
    """
    if not all(0.0 < t < math.inf for t in ts):
        raise DomainError(f"t must be positive and finite, got {ts}")
    f0 = float(evaluate_functional(F, outer))
    return [(fm - f0) ** 2 / t for t, fm in zip(ts, mehler_samples(F, outer, ts, hats))]


def semigroup_limit_gamma(F, outer: SamplePath, ts, hats: SamplePath) -> list[float]:
    """Bracket value per t; converges to carre_du_champ as t -> 0."""
    return [float(np.mean(samples)) for samples in semigroup_bracket_samples(F, outer, ts, hats)]


def richardson_limit(t_pairs: list[tuple[float, float]]) -> float:
    """Linear-in-t extrapolation to t = 0 from the two smallest distinct t values.

    A repeated t keeps its last value.
    """
    distinct = sorted(dict(t_pairs).items())
    if len(distinct) < 2:
        raise DomainError("need (t, value) pairs at two distinct t")
    (t1, v1), (t2, v2) = distinct[:2]
    return float((t2 * v1 - t1 * v2) / (t2 - t1))
