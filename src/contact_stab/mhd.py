"""Pointwise ideal-MHD physics for 2D planar flow.

The governing unknown is the 6-vector U = (p, v1, v2, H1, H2, S): pressure,
in-plane velocity, in-plane magnetic field, entropy.  The gas is polytropic,

    rho(p, S) = A_EOS * p**(1/gamma) * exp(-S/gamma),      c^2 = gamma*p/rho,

and the system is hyperbolic whenever p > 0 and rho > 0.  This module builds
the symbol n0 A0 + n1 A1 + n2 A2 of the quasilinear form

    A0(U) dU/dt + A1(U) dU/dx1 + A2(U) dU/dx2 = 0

at a space-time direction n (A0, A1, A2 are the symbol at the unit
directions) and its derivative along a state direction (needed by the
zero-order operator of the linearization) and characteristic speeds.  The
contact conditions on a constant state pair (continuous p, v, H, nonzero
normal field, rest frame; rho and S free to jump) are checked where such a
pair is built, by spectral.ContactPair.

All quantities are nondimensional.  Functions accept scalars or numpy arrays
for the state components and the direction; the symbol builders return arrays
of shape (6, 6) + field_shape so grid-wise assembly shares the pointwise code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAMMA_DEFAULT = 5.0 / 3.0
A_EOS = 1.0   # the polytropic constant of the equation of state

#: below this, p or rho counts as a hyperbolicity violation
ADMISSIBLE_FLOOR = 1e-12

N_COMP = 6


class InadmissibleStateError(ValueError):
    """Raised when an operation requires p, rho > 0 and the state violates it."""


def eos_density(p, S, gamma=GAMMA_DEFAULT):
    """Polytropic density rho = A_EOS * p**(1/gamma) * exp(-S/gamma)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise InadmissibleStateError("eos_density requires p > 0")
    return A_EOS * p ** (1.0 / gamma) * np.exp(-np.asarray(S, dtype=float) / gamma)


@dataclass(frozen=True)
class PlasmaState:
    """The 6-component state U = (p, v1, v2, H1, H2, S) at a point."""

    p: float
    v1: float
    v2: float
    H1: float
    H2: float
    S: float
    gamma: float = GAMMA_DEFAULT

    @property
    def rho(self) -> float:
        return float(eos_density(self.p, self.S, self.gamma))

    @property
    def is_admissible(self) -> bool:
        if not self.p > ADMISSIBLE_FLOOR:
            return False
        return self.rho > ADMISSIBLE_FLOOR

    def require_admissible(self) -> None:
        if not self.is_admissible:
            raise InadmissibleStateError(
                f"state p={self.p}, S={self.S} violates p, rho > {ADMISSIBLE_FLOOR}"
            )


@dataclass(frozen=True)
class MatrixTriple:
    """The symmetric coefficient matrices of the quasilinear system."""

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray


def _symmetric(upper: dict) -> np.ndarray:
    """The symmetric (6, 6) + broadcast-shape array whose upper triangle
    holds the given (i, j) -> value entries and zeros elsewhere."""
    A = np.zeros((N_COMP, N_COMP) + np.broadcast(*upper.values()).shape)
    for (i, j), value in upper.items():
        A[i, j] = A[j, i] = value
    return A


def symbol(p, v1, v2, H1, H2, rho, n, gamma=GAMMA_DEFAULT):
    """The symbol n0 A0 + n1 A1 + n2 A2 at the space-time direction
    n = (n0, n1, n2), whose entries may be fields; symmetric by construction.

    The diagonal carries the transport symbol vn = n0 + n1 v1 + n2 v2, the
    acoustic row couples p to the velocity through (n1, n2), and the field
    couples to the velocity through n1 H2, n2 H1 and their negatives.
    """
    n0, n1, n2 = n
    vn = n0 + n1 * v1 + n2 * v2
    return _symmetric({
        (0, 0): vn / (gamma * p), (0, 1): n1, (0, 2): n2,
        (1, 1): rho * vn, (1, 3): -n2 * H2, (1, 4): n1 * H2,
        (2, 2): rho * vn, (2, 3): n2 * H1, (2, 4): -n1 * H1,
        (3, 3): vn, (4, 4): vn, (5, 5): vn,
    })


def dsymbol(p, v1, v2, rho, Y, n, gamma=GAMMA_DEFAULT):
    """The derivative of symbol(U, n) along the state direction Y = (y0..y5):
    sum_i y_i d symbol / dU_i at U.  Density enters through
    rho_p = rho/(gamma p) and rho_S = -rho/gamma."""
    n0, n1, n2 = n
    vn = n0 + n1 * v1 + n2 * v2
    dvn = n1 * Y[1] + n2 * Y[2]
    drho = rho / (gamma * p) * Y[0] - rho / gamma * Y[5]
    dmom = drho * vn + rho * dvn
    return _symmetric({
        (0, 0): dvn / (gamma * p) - vn * Y[0] / (gamma * p ** 2),
        (1, 1): dmom, (1, 3): -n2 * Y[4], (1, 4): n1 * Y[4],
        (2, 2): dmom, (2, 3): n2 * Y[3], (2, 4): -n1 * Y[3],
        (3, 3): dvn, (4, 4): dvn, (5, 5): dvn,
    })


def assemble_matrices(state: PlasmaState) -> MatrixTriple:
    """Build (A0, A1, A2), the symbol at the unit directions, at a point;
    requires an admissible state."""
    state.require_admissible()
    U = (state.p, state.v1, state.v2, state.H1, state.H2, state.rho)
    return MatrixTriple(*(symbol(*U, n, state.gamma) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def characteristic_speeds(state: PlasmaState, n1: float, n2: float) -> np.ndarray:
    """Sorted real eigenvalues of A0^{-1}(n1 A1 + n2 A2).

    Computed on the symmetrized pencil A0^{-1/2}(n.A)A0^{-1/2}; A0 is
    diagonal positive so the scaling is exact and the output real.
    """
    state.require_admissible()
    nrm = float(np.hypot(n1, n2))
    if not np.isclose(nrm, 1.0, atol=1e-10):
        raise ValueError("(n1, n2) must be a unit direction")
    U = (state.p, state.v1, state.v2, state.H1, state.H2, state.rho)
    B = symbol(*U, (0, n1, n2), state.gamma)
    d = np.sqrt(np.diag(symbol(*U, (1, 0, 0), state.gamma)))
    sym = B / d[:, None] / d[None, :]
    # An entry below sqrt(tiny) |sym| cannot move an eigenvalue by a
    # representable amount, but eigvalsh mishandles entries whose products
    # are subnormal (a fast speed off by 4e-3 with v1 ~ 1e-183, H2 ~ 1e-161).
    sym[np.abs(sym) < np.sqrt(np.finfo(float).tiny) * np.max(np.abs(sym))] = 0.0
    return np.sort(np.linalg.eigvalsh(sym))
