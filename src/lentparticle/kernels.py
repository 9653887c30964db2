"""Elementary-tensor kernels and finite chaos vectors.

A kernel of order n is the symmetrization of an elementary tensor
g_1 (x) ... (x) g_n of step functions, scaled by a weight.  Its L2 norm and
the inner product of two such kernels are available in closed form through
the permanent of the Gram matrix of the factors, so every isometry target in
the tests is exact on the kernel side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .stepfn import StepFunction

MAX_ORDER = 8


def permanent(matrix: np.ndarray) -> float:
    """Permanent of a small square matrix (direct sum over permutations)."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    rows = range(n)
    for perm in itertools.permutations(rows):
        total += math.prod(m[i, perm[i]] for i in rows)
    return total


@dataclass(frozen=True)
class SimplexKernel:
    """weight * sym(g_1 (x) ... (x) g_n); order 0 is the constant `weight`."""

    order: int
    factors: tuple[StepFunction, ...]
    weight: float = 1.0
    symmetrize: bool = field(init=False)  # False when the factors are all equal

    def __post_init__(self):
        if self.order < 0:
            raise ConfigurationError(f"order must be >= 0, got {self.order}")
        if self.order > MAX_ORDER:
            raise ConfigurationError(f"order {self.order} above maximum {MAX_ORDER}")
        if len(self.factors) != self.order:
            raise ConfigurationError(
                f"kernel of order {self.order} needs {self.order} factors, got {len(self.factors)}"
            )
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "symmetrize", any(f != self.factors[0] for f in self.factors))
        object.__setattr__(self, "_hash", hash((self.order, self.factors, self.weight,
                                                self.symmetrize)))

    def __hash__(self) -> int:  # the dataclass hash, taken once: it rehashes every factor
        return self._hash

    @classmethod
    def power(cls, h: StepFunction, order: int, weight: float = 1.0) -> "SimplexKernel":
        """h^{(x) order}: the common symmetric special case."""
        return cls(order, (h,) * order, weight)

    def gram(self, other: "SimplexKernel") -> np.ndarray:
        return np.array([[f.inner(g) for g in other.factors] for f in self.factors])

    def inner(self, other: "SimplexKernel") -> float:
        """L2(lambda_n) inner product of the two (symmetrized) kernels."""
        if self.order != other.order:
            return 0.0
        if self.order == 0:
            return self.weight * other.weight
        return self.weight * other.weight * permanent(self.gram(other)) / math.factorial(self.order)

    @property
    def norm_sq(self) -> float:
        if self.order == 0:
            return self.weight**2
        if not self.symmetrize:
            return self.weight**2 * math.prod(g.norm_sq for g in self.factors)
        return self.inner(self)

    @property
    def isometry_target(self) -> float:
        """n! * ||f_n||^2 = E[I_n(f_n)^2]."""
        return math.factorial(self.order) * self.norm_sq

    def contractions(self) -> list[tuple[StepFunction, "SimplexKernel"]]:
        """Slices for the derivative: D_s I_n(f) = sum_i g_i(s) I_{n-1}(sym(others)).

        Returns (g_i, order-lowered kernel) pairs; the weight rides on the
        reduced kernel.
        """
        out = []
        for i, g in enumerate(self.factors):
            rest = self.factors[:i] + self.factors[i + 1 :]
            out.append((g, SimplexKernel(self.order - 1, rest, self.weight)))
        return out


@dataclass(frozen=True)
class ChaosVector:
    """Finite chaos expansion: constant term plus a list of kernels.

    Several kernels may share an order; norms account for cross terms through
    the closed-form inner products.
    """

    constant: float = 0.0
    kernels: tuple[SimplexKernel, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))

    def _gram_blocks(self) -> dict[int, float]:
        """n -> ||f_n||^2 of the order-n part: sum of <a, b> over its kernels a, b."""
        groups: dict[int, list[SimplexKernel]] = {}
        for k in self.kernels:
            groups.setdefault(k.order, []).append(k)
        return {n: sum(a.inner(b) for a in g for b in g) for n, g in groups.items()}

    @property
    def gradient_energy(self) -> float:
        """sum_n n * n! ||f_n||^2, the Ornstein-Uhlenbeck domain norm of F."""
        total = 0.0
        for n, block in self._gram_blocks().items():
            total += n * math.factorial(n) * block
        return total
