"""Malliavin gradients of Brownian functionals by jump insertion.

The package simulates normal martingales (Brownian, compensated Poisson,
symmetric compound Poisson) on a shared time grid, evaluates finite chaos
expansions and cylindrical functionals on them, and computes Malliavin
gradients by perturbing the driving path with a jump and differencing in the
jump size.  Every estimator ships with an independent cross-check route
(closed-form flow, kernel contraction, spectral series, or Mehler averaging),
and the `experiments` registry packages those checks as reproducible reports.
"""

__version__ = "0.1.0"

from .bessel import SpectrumReport, bessel_spectrum, default_truncation
from .chaos import (
    chaotic_extension,
    evaluate_chaos,
    exponential_vector,
    iterated_integral,
    stochastic_integral,
)
from .drivers import add_unit_jump, martingale_batch, rotate
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    InvalidKernelError,
    NumericalBlowupError,
    SingularFlowError,
)
from .estimates import GradientEstimate
from .functionals import CylindricalFunctional, evaluate_functional, make_functional
from .gradients import (
    chaos_gradient_contraction,
    gradient_chaos,
    gradient_cylindrical,
    lent_particle_sde,
    lent_particle_sde_poisson,
    supremum_gradient,
)
from .grid import RngStream, SamplePath, TimeGrid
from .kernels import ChaosVector, SimplexKernel
from .ou import carre_du_champ, mehler_semigroup, richardson_limit, semigroup_limit_gamma
from .sde import SdeSpec, first_variation, flow_oracle, make_sde, solve_sde
from .stepfn import StepFunction

__all__ = [
    "__version__",
    "SpectrumReport", "bessel_spectrum", "default_truncation",
    "chaotic_extension", "evaluate_chaos", "exponential_vector",
    "iterated_integral", "stochastic_integral",
    "add_unit_jump", "martingale_batch", "rotate",
    "ConfigurationError", "DimensionMismatchError", "DomainError",
    "InvalidKernelError", "NumericalBlowupError", "SingularFlowError",
    "GradientEstimate",
    "CylindricalFunctional", "evaluate_functional", "make_functional",
    "chaos_gradient_contraction", "gradient_chaos", "gradient_cylindrical",
    "lent_particle_sde", "lent_particle_sde_poisson", "supremum_gradient",
    "RngStream", "SamplePath", "TimeGrid",
    "ChaosVector", "SimplexKernel",
    "carre_du_champ", "mehler_semigroup", "richardson_limit", "semigroup_limit_gamma",
    "SdeSpec", "first_variation", "flow_oracle", "make_sde", "solve_sde",
    "StepFunction",
]
