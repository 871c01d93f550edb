"""The two-sided grid field container.

The two half-plane domains are both mapped to {x1 >= 0}; arrays are indexed
as (component, i1, i2) with i1 = 0 on the interface x1 = 0 and x2 periodic.
The front perturbation phi(x2) is a plain (N2,) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TwoSidedField:
    """A pair of grid functions, one per side of the interface.  The sides
    cannot be rebound; write them in place."""

    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plus", np.asarray(self.plus, dtype=float))
        object.__setattr__(self, "minus", np.asarray(self.minus, dtype=float))
        if self.plus.shape != self.minus.shape:
            raise ValueError("plus/minus shapes differ")

    def side(self, side: int) -> np.ndarray:
        if side not in (+1, -1):
            raise ValueError("side must be +1 or -1")
        return self.plus if side == +1 else self.minus
