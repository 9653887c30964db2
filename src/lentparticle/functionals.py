"""Cylindrical functionals and a shared registry of test functionals.

A cylindrical functional is Phi(A_1, ..., A_k) where each argument A_i is a
first-order integral int h_i dB (step function h_i) or, more generally, an
iterated integral of an elementary-tensor kernel.  Phi and its gradient are
supplied as vectorized callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chaos import evaluate_chaos, iterated_integral, stochastic_integral
from .errors import ConfigurationError
from .grid import SamplePath
from .kernels import ChaosVector, SimplexKernel
from .stepfn import StepFunction

@dataclass(frozen=True)
class CylindricalFunctional:
    """F = Phi(int h_1 dB, ..., int h_k dB); Phi assumed C^1 and Lipschitz.

    Entries of h_list may be step functions (first-order integrals) or
    simplex kernels (iterated integrals), covering the generalized
    cylindrical form.
    """

    h_list: tuple
    phi: Callable
    phi_grad: Callable
    name: str = ""

    def arguments(self, path: SamplePath) -> list[np.ndarray]:
        out = []
        for h in self.h_list:
            if isinstance(h, StepFunction):
                out.append(stochastic_integral(h, path))
            elif isinstance(h, SimplexKernel):
                out.append(iterated_integral(h, path))
            else:
                raise ConfigurationError(f"unsupported argument type {type(h)!r}")
        return out

    def __call__(self, path: SamplePath) -> np.ndarray:
        return self.phi(*self.arguments(path))


def evaluate_functional(F, path: SamplePath) -> np.ndarray:
    """Value of F on a driver path (batch-aware)."""
    if isinstance(F, ChaosVector):
        return evaluate_chaos(F, path)
    if isinstance(F, CylindricalFunctional):
        return F(path)
    raise ConfigurationError(f"unsupported functional type {type(F)!r}")


# --- registry ---------------------------------------------------------------

def _unit(horizon: float) -> StepFunction:
    return StepFunction.constant(1.0, horizon)


def make_b1(horizon: float = 1.0) -> ChaosVector:
    """F = B_T (first chaos with the constant-one kernel)."""
    return ChaosVector(0.0, (SimplexKernel(1, (_unit(horizon),)),))


def make_first_chaos(horizon: float = 1.0) -> ChaosVector:
    h = StepFunction((0.0, 0.5 * horizon, horizon), (np.sqrt(2.0 / horizon), 0.0))
    return ChaosVector(0.0, (SimplexKernel(1, (h,)),))


def make_second_chaos(horizon: float = 1.0) -> ChaosVector:
    h = StepFunction.constant(1.0 / np.sqrt(horizon), horizon)
    return ChaosVector(0.0, (SimplexKernel.power(h, 2),))


def make_third_chaos(horizon: float = 1.0) -> ChaosVector:
    h = StepFunction.constant(1.0 / np.sqrt(horizon), horizon)
    return ChaosVector(0.0, (SimplexKernel.power(h, 3),))


def make_three_term(horizon: float = 1.0) -> ChaosVector:
    """Orders 1..3 with mixed step-function factors."""
    h1 = StepFunction.constant(1.0 / np.sqrt(horizon), horizon)
    h2 = StepFunction((0.0, 0.5 * horizon, horizon), (1.2, 0.4))
    h3 = StepFunction.constant(0.7 / np.sqrt(horizon), horizon)
    return ChaosVector(
        0.0,
        (
            SimplexKernel(1, (h1,)),
            SimplexKernel(2, (h1, h2)),
            SimplexKernel.power(h3, 3),
        ),
    )


def make_square(horizon: float = 1.0) -> CylindricalFunctional:
    """F = (int h dB)^2 with ||h|| = 1."""
    h = StepFunction.constant(1.0 / np.sqrt(horizon), horizon)
    return CylindricalFunctional(
        (h,),
        phi=lambda x: x**2,
        phi_grad=lambda x: (2.0 * x,),
        name="square",
    )


FUNCTIONALS: dict[str, Callable[[float], "ChaosVector | CylindricalFunctional"]] = {
    "b1": make_b1,
    "first-chaos": make_first_chaos,
    "second-chaos": make_second_chaos,
    "third-chaos": make_third_chaos,
    "three-term": make_three_term,
    "square": make_square,
}


def make_functional(name: str, horizon: float = 1.0):
    try:
        return FUNCTIONALS[name](horizon)
    except KeyError:
        raise ConfigurationError(
            f"unknown functional {name!r}; known: {sorted(FUNCTIONALS)}"
        ) from None
