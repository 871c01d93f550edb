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


def _reduced_pencil(point: LaplaceFourierPoint, state: PlasmaState, side: int):
    """(M, B) with (M + lambda B) x = 0 over the reduced components."""
    state.require_admissible()
    s, w2 = point.s, point.omega2
    tri = mhd.assemble_matrices(state)
    sigma = s + 1j * w2 * state.v2
    if abs(sigma) < 1e-14 * max(abs(s), abs(w2), 1.0):
        raise DegeneratePointError("transport symbol s + i w2 v2 vanishes")
    idx = np.ix_(REDUCED, REDUCED)
    M = s * tri.A0[idx] + 1j * w2 * tri.A2[idx]
    # eliminated H1 equation: (s + i w2 v2) x_H1 = -i w2 (-H2 x_v1 + H1 x_v2)
    c3 = np.array([0.0, -state.H2, state.H1, 0.0])
    M = M + (w2 ** 2 / sigma) * np.outer(c3, c3)
    B = float(side) * tri.A1[idx].astype(complex)
    return M, B


def _full_mode_vector(x_reduced, point: LaplaceFourierPoint, state: PlasmaState):
    """Reconstruct the 6-component mode from the reduced one."""
    s, w2 = point.s, point.omega2
    sigma = s + 1j * w2 * state.v2
    X = np.zeros(6, dtype=complex)
    X[[0, 1, 2, 4]] = x_reduced
    X[3] = -1j * w2 * (-state.H2 * X[1] + state.H1 * X[2]) / sigma
    return X


def dispersion_roots(point: LaplaceFourierPoint, const_state: PlasmaState, side: int):
    """Finite pencil roots lambda; the two zero-speed rows are algebraic.

    Returns (roots, modes): the four finite generalized eigenvalues and the
    corresponding reconstructed 6-component mode vectors (columns).  B is
    +-A1 over (p, v1, v2, H2), with determinant H1^2, so the pencil is
    solved as the eigenproblem of -B^-1 M.
    """
    M, B = _reduced_pencil(point, const_state, side)
    if abs(const_state.H1) < 1e-12:
        raise DegeneratePointError("normal field H1 = 0 degenerates the pencil")
    lam, vecs = np.linalg.eig(np.linalg.solve(B, -M))
    if not np.all(np.isfinite(lam)):
        raise DegeneratePointError("reduced pencil produced non-finite roots")
    order = np.argsort(lam.real)
    lam = lam[order]
    modes = np.stack(
        [_full_mode_vector(vecs[:, j], point, const_state) for j in order], axis=1
    )
    return lam, modes


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
    s, w2 = point.s, point.omega2
    v2 = pair.plus.v2
    rows = [0, 1, 2, 4]
    Mat = np.zeros((5, 5), dtype=complex)
    for j in range(2):
        col = basis_p[:, j] / np.linalg.norm(basis_p[:, j])
        Mat[:4, j] = col[rows]
        Mat[4, j] = -col[1]  # front equation sees -v1 trace of the + side
    for j in range(2):
        col = basis_m[:, j] / np.linalg.norm(basis_m[:, j])
        Mat[:4, 2 + j] = -col[rows]
    Mat[4, 4] = s + 1j * w2 * v2
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

