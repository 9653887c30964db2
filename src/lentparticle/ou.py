"""Ornstein-Uhlenbeck semigroup as a rotation against an independent copy.

For a Brownian rotation the chaotic extension composes with the functional,
so everything here reads F on Y^theta = B cos(theta) + Bhat sin(theta) off
one extension, chaos.chaotic_extension(F, B, hats), which picks the route:

    P_t F (B)  = inner average of F^theta_t,  cos(theta_t) = e^{-t/2}
    F'         = d/dtheta F^theta at 0 (gradients.gradient_chaos)
    Gamma[F]   = inner average of (F')^2
    Gamma[F]   = lim (1/t) (P_t(F^2) - 2 F P_t F + F^2)

mehler_samples and semigroup_bracket_samples read every t of a sequence off
the extension, and the bracket takes F(B) from its caller.  The mehler
experiment builds one extension per functional per outer path; the first
n_eigen_paths (<= n_outer) also check P_t I_n = e^{-nt/2} I_n.

Inner and outer Monte Carlo levels use disjoint stream families keyed on
(seed, outer index, inner index), so conditional expectations over the hat
copy are reproducible at fixed outer path.
"""

from __future__ import annotations

import math

import numpy as np

from .drivers import _combine, inner_hat_batch  # inner_hat_batch: part of this module's API
from .errors import ConfigurationError
from .gradients import gradient_chaos
from .grid import SamplePath


def combine_paths(p1: SamplePath, p2: SamplePath, c1: float, c2: float) -> SamplePath:
    """c1 * p1 + c2 * p2: the combination of drivers.rotate, without its clamping of cos/sin."""
    return _combine(p1, p2, c1, c2)


def mehler_samples(extension, ts) -> list:
    """Per-inner-sample values of F^theta_t for each t of ts, read off F's extension.

    atan2 keeps sin(theta_t) exact as t -> 0; t = 0 reads F at the outer path, to rounding.
    """
    if not all(0.0 <= t < math.inf for t in ts):
        raise ConfigurationError(f"t must be >= 0 and finite, got {ts}")
    thetas = [math.atan2(math.sqrt(-math.expm1(-t)), math.exp(-t / 2.0)) for t in ts]
    return [np.asarray(extension(theta), dtype=float) for theta in thetas]


def rotation_gradient_samples(extension, theta: float = 1e-4) -> np.ndarray:
    """Central theta-difference of F(B cos(theta) + Bhat sin(theta)) per hat path."""
    return np.asarray(gradient_chaos(extension, theta), dtype=float)


def carre_du_champ(extension, theta: float = 1e-4) -> float:
    """Gamma[F] at the outer path: inner average of the squared theta-difference."""
    samples = rotation_gradient_samples(extension, theta)
    if samples.size < 2:
        raise ConfigurationError("carre_du_champ needs at least 2 inner paths")
    return float(np.mean(samples**2))


def semigroup_bracket_samples(extension, f0: float, ts) -> list:
    """Per-inner samples of (1/t)(P_t(F^2) - 2 F P_t F + F^2) for each t of ts, f0 = F(B).

    With the inner streams shared between P_t(F^2) and P_t F the bracket
    collapses to the inner average of (F(Y^theta_t) - F)^2 / t, which keeps the
    1/t amplification from blowing up the inner-MC variance.
    """
    if not all(0.0 < t < math.inf for t in ts):
        raise ConfigurationError(f"t must be positive and finite, got {ts}")
    return [(fm - f0) ** 2 / t for t, fm in zip(ts, mehler_samples(extension, ts))]


def semigroup_limit_gamma(extension, f0: float, ts) -> list[float]:
    """Bracket value per t; converges to carre_du_champ as t -> 0."""
    return [float(np.mean(samples)) for samples in semigroup_bracket_samples(extension, f0, ts)]


def richardson_limit(t_pairs: list[tuple[float, float]]) -> float:
    """Linear-in-t extrapolation to t = 0 from the two smallest distinct t values.

    A repeated t keeps its last value.
    """
    distinct = sorted(dict(t_pairs).items())
    if len(distinct) < 2:
        raise ConfigurationError("need (t, value) pairs at two distinct t")
    (t1, v1), (t2, v2) = distinct[:2]
    return float((t2 * v1 - t1 * v2) / (t2 - t1))
