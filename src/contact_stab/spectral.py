"""Constant-coefficient normal-mode analysis for the planar interface.

For a uniform background on each side (shared p, v, H; entropy free to
jump) the linearized system has solutions U = X exp(st + lambda x1 + i w2 x2).
The normal matrix is singular (rank 4): the H1 and S rows carry no x1
derivative, so their equations are algebraic in Fourier space and are
eliminated before root-finding.  The remaining 4x4 linear pencil

    [ s A0 + i w2 A2 + coupling ]  +  lambda (side * A1)   over (p, v1, v2, H2)

has four finite roots; for Re s > 0 they split two-and-two off the
imaginary axis and the two decaying ones per side feed the interface
determinant.  The interface conditions (jumps of p, v1, v2, H2 plus the
front equation) applied to the decaying bases and the front amplitude give
the 5x5 determinant whose nonvanishing for Re s > 0 expresses weak
stability; it degenerates linearly in Re s along the neutral entropy/front
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mhd
from .mhd import PlasmaState

REDUCED = (0, 1, 2, 4)  # p, v1, v2, H2


class DegeneratePointError(ValueError):
    """Pencil or interface matrix numerically singular at this (s, w2)."""


@dataclass(frozen=True)
class LaplaceFourierPoint:
    s: complex
    omega2: float

    def __post_init__(self):
        if self.s == 0 and self.omega2 == 0.0:
            raise ValueError("(s, omega2) = (0, 0) is excluded")


@dataclass(frozen=True)
class ContactPair:
    """Admissible constant contact data: shared p, v, H; S may jump."""

    plus: PlasmaState
    minus: PlasmaState

    def __post_init__(self):
        rep = mhd.contact_jump_report(self.plus, self.minus, 0.0, self.plus.v1)
        jumps = (rep.jump_p, rep.jump_v1, rep.jump_v2, rep.jump_H1, rep.jump_H2)
        if any(abs(j) > 1e-12 for j in jumps):
            raise ValueError("contact data must share p, v, H across the interface")
        if rep.HN_magnitude <= 1e-12:
            raise ValueError("contact data needs a nonzero normal magnetic field")
        if abs(self.plus.v1) > 1e-12:
            raise ValueError("use the interface rest frame (v1 = 0)")

    def side(self, side: int) -> PlasmaState:
        return self.plus if side == +1 else self.minus


@lru_cache(maxsize=16)
def _state_pencil(state: PlasmaState):
    """(P0, P2, Pc): A1^-1 A0, A1^-1 A2 and (A1^-1 c3) c3^T over REDUCED.

    Everything of the pencil that depends on the state alone, built once per
    state.  det A1 = H1^2 over the reduced components, so A1 is inverted
    only after H1 != 0 is checked.  c3 couples the eliminated H1 equation,
    (s + i w2 v2) x_H1 = -i w2 (-H2 x_v1 + H1 x_v2), back into the others.
    """
    state.require_admissible()
    if abs(state.H1) < 1e-12:
        raise DegeneratePointError("normal field H1 = 0 degenerates the pencil")
    tri = mhd.assemble_matrices(state)
    idx = np.ix_(REDUCED, REDUCED)
    inv = np.linalg.inv(tri.A1[idx])
    c3 = np.array([0.0, -state.H2, state.H1, 0.0])
    mats = inv @ tri.A0[idx], inv @ tri.A2[idx], np.outer(inv @ c3, c3)
    for m in mats:
        m.flags.writeable = False
    return mats


def dispersion_roots(point: LaplaceFourierPoint, const_state: PlasmaState, side: int):
    """Finite pencil roots lambda; the two zero-speed rows are algebraic.

    Returns (roots, modes): the four finite generalized eigenvalues of
    (M + lambda side A1) x = 0 over (p, v1, v2, H2), in increasing real
    part, and the corresponding reconstructed 6-component mode vectors
    (columns).  The pencil is solved as the eigenproblem of
    -(side A1)^-1 M = -side (s P0 + i w2 P2 + (w2^2 / sigma) Pc).
    """
    P0, P2, Pc = _state_pencil(const_state)
    s, w2 = point.s, point.omega2
    sigma = s + 1j * w2 * const_state.v2
    if abs(sigma) < 1e-14 * max(abs(s), abs(w2), 1.0):
        raise DegeneratePointError("transport symbol s + i w2 v2 vanishes")
    K = -side * (s * P0 + 1j * w2 * P2 + (w2 ** 2 / sigma) * Pc)
    lam, vecs = np.linalg.eig(K)
    if not np.all(np.isfinite(lam)):
        raise DegeneratePointError("reduced pencil produced non-finite roots")
    order = np.argsort(lam.real)
    modes = np.zeros((6, 4), dtype=complex)
    modes[REDUCED, :] = vecs[:, order]
    modes[3] = -1j * w2 * (-const_state.H2 * modes[1] + const_state.H1 * modes[2]) / sigma
    return lam[order], modes


@dataclass
class ModeResult:
    lopatinski_value: complex
    conditioning: float


def decaying_modes(point: LaplaceFourierPoint, const_state: PlasmaState, side: int):
    """Basis of modes bounded as x1 -> +infinity (Re lambda < 0).

    For Re s > 0 the Hersh splitting guarantees exactly two decaying roots
    per side; a different count signals a degenerate point.
    """
    if point.s.real <= 0.0:
        raise ValueError("decaying-mode selection requires Re s > 0")
    lam, modes = dispersion_roots(point, const_state, side)
    dec = lam.real < 0.0
    if int(np.sum(dec)) != 2:
        raise DegeneratePointError(
            f"expected 2 decaying roots, found {int(np.sum(dec))} at s={point.s}, w2={point.omega2}"
        )
    return lam[dec], modes[:, dec]


def lopatinski_determinant(point: LaplaceFourierPoint, pair: ContactPair) -> ModeResult:
    """Normalized interface determinant over the decaying bases.

    Unknowns: two mode amplitudes per side plus the front amplitude.  Rows:
    jumps of p, v1, v2, H2 and the front (kinematic) equation.  Mode
    columns are scaled to unit norm and the determinant divided by
    |(s, w2)|, which makes the value scale-invariant while keeping the
    linear-in-eta degeneracy of the neutral family visible.
    """
    _, basis_p = decaying_modes(point, pair.plus, +1)
    _, basis_m = decaying_modes(point, pair.minus, -1)
    basis_p = basis_p / np.linalg.norm(basis_p, axis=0)
    basis_m = basis_m / np.linalg.norm(basis_m, axis=0)
    s, w2 = point.s, point.omega2
    Mat = np.zeros((5, 5), dtype=complex)
    Mat[:4, :2] = basis_p[REDUCED, :]
    Mat[4, :2] = -basis_p[1]  # front equation sees -v1 trace of the + side
    Mat[:4, 2:4] = -basis_m[REDUCED, :]
    Mat[4, 4] = s + 1j * w2 * pair.plus.v2
    scale = np.sqrt(abs(s) ** 2 + w2 ** 2)
    delta = np.linalg.det(Mat) / scale
    sing = np.linalg.svd(Mat, compute_uv=False)
    return ModeResult(lopatinski_value=delta, conditioning=float(sing[-1]))


def neutral_mode_residual(omega2: float, pair: ContactPair,
                          S_bar=(1.0, 1.0), phi_bar: float = 1.0) -> float:
    """Residual of the exact neutral entropy/front mode, s = -i w2 v2.

    The mode carries only entropy amplitudes and a front displacement; all
    interior equations and all five interface conditions evaluate to zero
    identically, which this function confirms in floating point.
    """
    s = -1j * omega2 * pair.plus.v2
    res = 0.0
    for side, sbar in ((+1, S_bar[0]), (-1, S_bar[1])):
        st = pair.side(side)
        tri = mhd.assemble_matrices(st)
        X = np.zeros(6, dtype=complex)
        X[5] = sbar
        interior = s * tri.A0 @ X + 1j * omega2 * tri.A2 @ X  # no x1 dependence
        res = max(res, float(np.max(np.abs(interior))))
    # interface rows: all perturbation traces vanish except S and phi
    kinematic = (s + 1j * omega2 * pair.plus.v2) * phi_bar
    res = max(res, abs(kinematic))
    return res

