"""Pointwise ideal-MHD physics for 2D planar flow.

The governing unknown is the 6-vector U = (p, v1, v2, H1, H2, S): pressure,
in-plane velocity, in-plane magnetic field, entropy.  The gas is polytropic,

    rho(p, S) = A_EOS * p**(1/gamma) * exp(-S/gamma),      c^2 = gamma*p/rho,

and the system is hyperbolic whenever p > 0 and rho > 0.  This module builds
the symmetric coefficient matrices A0, A1, A2 of the quasilinear form

    A0(U) dU/dt + A1(U) dU/dx1 + A2(U) dU/dx2 = 0,

their directional derivatives with respect to the state (needed by the
zero-order operator of the linearization), characteristic speeds, and the
jump-condition report for a contact interface (zero mass flux, nonzero
normal magnetic field, continuous p, v, H; rho and S free to jump).

All quantities are nondimensional.  Functions accept scalars or numpy arrays
for the state components; matrix builders return arrays of shape
(6, 6) + field_shape so grid-wise assembly shares the pointwise code path.
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

    @staticmethod
    def from_vector(u, gamma=GAMMA_DEFAULT) -> "PlasmaState":
        u = np.asarray(u, dtype=float)
        return PlasmaState(*[float(c) for c in u[:6]], gamma=gamma)


@dataclass(frozen=True)
class MatrixTriple:
    """The symmetric coefficient matrices of the quasilinear system."""

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray


def a0_matrix(p, rho, gamma=GAMMA_DEFAULT):
    """A0 = diag(1/(gamma p), rho, rho, 1, 1, 1), shape (6, 6) + field_shape."""
    p = np.asarray(p, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), p.shape)
    A = np.zeros((N_COMP, N_COMP) + p.shape)
    A[0, 0] = 1.0 / (gamma * p)
    A[1, 1] = rho
    A[2, 2] = rho
    A[3, 3] = 1.0
    A[4, 4] = 1.0
    A[5, 5] = 1.0
    return A


def a1_matrix(p, v1, H1, H2, rho, gamma=GAMMA_DEFAULT):
    """x1-flux matrix; symmetric by construction."""
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(p.shape, np.shape(v1), np.shape(H1), np.shape(H2))
    A = np.zeros((N_COMP, N_COMP) + shape)
    A[0, 0] = v1 / (gamma * p)
    A[0, 1] = A[1, 0] = 1.0
    A[1, 1] = rho * np.asarray(v1, dtype=float)
    A[1, 4] = A[4, 1] = H2
    A[2, 2] = rho * np.asarray(v1, dtype=float)
    A[2, 4] = A[4, 2] = -np.asarray(H1, dtype=float)
    A[3, 3] = v1
    A[4, 4] = v1
    A[5, 5] = v1
    return A


def a2_matrix(p, v2, H1, H2, rho, gamma=GAMMA_DEFAULT):
    """x2-flux matrix; symmetric by construction."""
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(p.shape, np.shape(v2), np.shape(H1), np.shape(H2))
    A = np.zeros((N_COMP, N_COMP) + shape)
    A[0, 0] = v2 / (gamma * p)
    A[0, 2] = A[2, 0] = 1.0
    A[1, 1] = rho * np.asarray(v2, dtype=float)
    A[1, 3] = A[3, 1] = -np.asarray(H2, dtype=float)
    A[2, 2] = rho * np.asarray(v2, dtype=float)
    A[2, 3] = A[3, 2] = H1
    A[3, 3] = v2
    A[4, 4] = v2
    A[5, 5] = v2
    return A


def assemble_matrices(state: PlasmaState) -> MatrixTriple:
    """Build (A0, A1, A2) at a point; requires an admissible state."""
    state.require_admissible()
    rho = state.rho
    g = state.gamma
    return MatrixTriple(
        A0=a0_matrix(state.p, rho, g),
        A1=a1_matrix(state.p, state.v1, state.H1, state.H2, rho, g),
        A2=a2_matrix(state.p, state.v2, state.H1, state.H2, rho, g),
    )


# Directional state-derivatives of the coefficient matrices: for a direction
# Y = (y0..y5) in state space, dA(U; Y) = sum_i y_i dA/dU_i evaluated at U.
# Density enters through rho_p = rho/(gamma p) and rho_S = -rho/gamma.


def da0_matrix(p, rho, Y, gamma=GAMMA_DEFAULT):
    p = np.asarray(p, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), p.shape)
    drho = rho / (gamma * p) * Y[0] - rho / gamma * Y[5]
    A = np.zeros((N_COMP, N_COMP) + p.shape)
    A[0, 0] = -Y[0] / (gamma * p ** 2)
    A[1, 1] = drho
    A[2, 2] = drho
    return A


def da1_matrix(p, v1, rho, Y, gamma=GAMMA_DEFAULT):
    p = np.asarray(p, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), p.shape)
    drho = rho / (gamma * p) * Y[0] - rho / gamma * Y[5]
    dmom = drho * v1 + rho * Y[1]
    A = np.zeros((N_COMP, N_COMP) + np.broadcast_shapes(p.shape, v1.shape))
    A[0, 0] = Y[1] / (gamma * p) - v1 * Y[0] / (gamma * p ** 2)
    A[1, 1] = dmom
    A[1, 4] = A[4, 1] = Y[4]
    A[2, 2] = dmom
    A[2, 4] = A[4, 2] = -Y[3]
    A[3, 3] = Y[1]
    A[4, 4] = Y[1]
    A[5, 5] = Y[1]
    return A


def da2_matrix(p, v2, rho, Y, gamma=GAMMA_DEFAULT):
    p = np.asarray(p, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), p.shape)
    drho = rho / (gamma * p) * Y[0] - rho / gamma * Y[5]
    dmom = drho * v2 + rho * Y[2]
    A = np.zeros((N_COMP, N_COMP) + np.broadcast_shapes(p.shape, v2.shape))
    A[0, 0] = Y[2] / (gamma * p) - v2 * Y[0] / (gamma * p ** 2)
    A[1, 1] = dmom
    A[1, 3] = A[3, 1] = -Y[4]
    A[2, 2] = dmom
    A[2, 3] = A[3, 2] = Y[3]
    A[3, 3] = Y[2]
    A[4, 4] = Y[2]
    A[5, 5] = Y[2]
    return A


def characteristic_speeds(state: PlasmaState, n1: float, n2: float) -> np.ndarray:
    """Sorted real eigenvalues of A0^{-1}(n1 A1 + n2 A2).

    Computed on the symmetrized pencil A0^{-1/2}(n.A)A0^{-1/2}; A0 is
    diagonal positive so the scaling is exact and the output real.
    """
    state.require_admissible()
    nrm = float(np.hypot(n1, n2))
    if not np.isclose(nrm, 1.0, atol=1e-10):
        raise ValueError("(n1, n2) must be a unit direction")
    tri = assemble_matrices(state)
    B = n1 * tri.A1 + n2 * tri.A2
    d = np.sqrt(np.diag(tri.A0))
    sym = B / d[:, None] / d[None, :]
    # An entry below sqrt(tiny) |sym| cannot move an eigenvalue by a
    # representable amount, but eigvalsh mishandles entries whose products
    # are subnormal (a fast speed off by 4e-3 with v1 ~ 1e-183, H2 ~ 1e-161).
    sym[np.abs(sym) < np.sqrt(np.finfo(float).tiny) * np.max(np.abs(sym))] = 0.0
    return np.sort(np.linalg.eigvalsh(sym))


@dataclass(frozen=True)
class ContactJumpReport:
    """Residuals of the contact jump conditions for a state pair and front."""

    jump_p: float
    jump_v1: float
    jump_v2: float
    jump_H1: float
    jump_H2: float
    front_kinematic_residual: float
    mass_flux: float
    HN_magnitude: float


def contact_jump_report(
    state_plus: PlasmaState,
    state_minus: PlasmaState,
    front_slope: float = 0.0,
    front_speed: float = 0.0,
) -> ContactJumpReport:
    """Jump residuals at the interface with normal N = (1, -front_slope).

    front_slope is d(phi)/dx2 and front_speed is d(phi)/dt.  The mass flux
    is rho^+ (v_N^+ - front_speed); for a contact it vanishes while the
    normal magnetic field stays bounded away from zero.
    """
    state_plus.require_admissible()
    state_minus.require_admissible()
    vN_plus = state_plus.v1 - state_plus.v2 * front_slope
    HN_plus = state_plus.H1 - state_plus.H2 * front_slope
    HN_minus = state_minus.H1 - state_minus.H2 * front_slope
    return ContactJumpReport(
        jump_p=state_plus.p - state_minus.p,
        jump_v1=state_plus.v1 - state_minus.v1,
        jump_v2=state_plus.v2 - state_minus.v2,
        jump_H1=state_plus.H1 - state_minus.H1,
        jump_H2=state_plus.H2 - state_minus.H2,
        front_kinematic_residual=front_speed - vN_plus,
        mass_flux=state_plus.rho * (vN_plus - front_speed),
        HN_magnitude=min(abs(HN_plus), abs(HN_minus)),
    )
