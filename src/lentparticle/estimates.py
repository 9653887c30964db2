"""Result container for pathwise gradient estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradientEstimate:
    """A pathwise estimate of D_u F or D_u X_t.

    ``value`` is the primary estimate for the recorded method; jump-difference
    estimates carry the difference step in ``theta`` and, where available, the
    value of the independent route (chain rule or flow form) in ``analytic``.
    """

    u: float
    t: float
    value: float | np.ndarray
    method: str  # jump_difference | flow_oracle | analytic
    theta: float | None = None
    analytic: float | np.ndarray | None = None
    snapped: bool = False

