"""Spectral coefficients of the rotation process of an exponential vector.

The squared coefficients are the modified-Bessel-type series

    c_n^2 = sum_k  (x/2)^(2k+n) / (k! (n+k)!)        with x = ||h||^2,

evaluated by term-ratio recursion so that no factorial is formed explicitly.
Checks: sum over Z of c_n^2 equals e^x (Parseval) and the Fourier transform
sum c_n^2 e^(i n phi) equals exp(x cos(phi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _coefficient_sq(n: int, x: float, tol: float, max_terms: int = 2000) -> float:
    """Series for c_n^2 with relative-tolerance stopping."""
    half = x / 2.0
    if half == 0.0:  # x == 0, or a subnormal x whose half underflows
        return 1.0 if n == 0 else 0.0
    # k = 0 term: half^n / n!, via logs to stay finite for large n.
    term = math.exp(n * math.log(half) - math.lgamma(n + 1))
    total = term
    ratio_num = half * half
    for k in range(max_terms):
        term *= ratio_num / ((k + 1) * (n + k + 1))
        total += term
        if term < tol * total:
            break
    return total


@dataclass(frozen=True)
class SpectrumReport:
    h_norm_sq: float
    coefficients: np.ndarray  # c_n^2 for n = 0 .. truncation_n
    truncation_n: int
    series_tolerance: float

    def parseval_total(self) -> float:
        """c_0^2 + 2 sum_{n>=1} c_n^2 (the c_n^2 are symmetric in n)."""
        return math.fsum([self.coefficients[0]] + [2.0 * c for c in self.coefficients[1:]])

    def parseval_defect(self) -> float:
        return abs(self.parseval_total() - math.exp(self.h_norm_sq))

    def fourier(self, phi: float) -> float:
        """sum_{n in Z} c_n^2 e^{i n phi}, real by symmetry."""
        terms = [self.coefficients[0]]
        terms += [2.0 * c * math.cos(n * phi) for n, c in enumerate(self.coefficients) if n >= 1]
        return math.fsum(terms)

    def rows(self) -> list[dict]:
        return [{"n": n, "c_n_sq": float(c)} for n, c in enumerate(self.coefficients)]


def bessel_spectrum(h_norm_sq: float, n_max: int, tol: float = 1e-16) -> SpectrumReport:
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if h_norm_sq < 0.0:
        raise DomainError(f"h_norm_sq must be >= 0, got {h_norm_sq}")
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    coeffs = np.array([_coefficient_sq(n, h_norm_sq, tol) for n in range(n_max + 1)])
    return SpectrumReport(h_norm_sq, coeffs, n_max, tol)


def default_truncation(h_norm_sq: float) -> int:
    """n_max that drives the Parseval tail far below 1e-10 absolute."""
    return max(40, int(4.0 * h_norm_sq) + 40)
