"""Container types for two-sided grid fields and the front perturbation.

The two half-plane domains are both mapped to {x1 >= 0}; arrays are indexed
as (component, i1, i2) with i1 = 0 on the interface x1 = 0 and x2 periodic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TwoSidedField:
    """A pair of grid functions, one per side of the interface."""

    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        self.plus = np.asarray(self.plus, dtype=float)
        self.minus = np.asarray(self.minus, dtype=float)
        if self.plus.shape != self.minus.shape:
            raise ValueError("plus/minus shapes differ")

    def side(self, side: int) -> np.ndarray:
        if side not in (+1, -1):
            raise ValueError("side must be +1 or -1")
        return self.plus if side == +1 else self.minus

    @staticmethod
    def zeros(shape) -> "TwoSidedField":
        return TwoSidedField(np.zeros(shape), np.zeros(shape))


@dataclass
class FrontState:
    """Front perturbation phi(x2) on the boundary grid."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.phi))) if self.phi.size else 0.0

    @property
    def is_admissible(self) -> bool:
        return self.sup_norm < 1.0
