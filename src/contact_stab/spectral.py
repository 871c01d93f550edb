"""Constant-coefficient normal-mode analysis for the planar interface.

For a uniform background on each side (shared p, v, H; entropy free to
jump) the linearized system has solutions U = X exp(st + lambda x1 + i w2 x2).
The normal matrix is singular (rank 4): the H1 and S rows carry no x1
derivative, so their equations are algebraic in Fourier space and are
eliminated before root-finding.  The remaining 4x4 linear pencil

    [ s A0 + i w2 A2 + coupling ]  +  lambda (side * A1)   over (p, v1, v2, H2)

has four finite roots; for Re s > 0 they split two-and-two off the
imaginary axis and the two decaying ones per side feed the interface
determinant.  Each ContactPair builds its (2, 4, 4) pencil data once for
both sides, so a point solves both sides in one stacked eig and selects
and rebuilds the decaying modes of both at once.  The interface
conditions (jumps of p, v1, v2, H2 plus the front equation) applied to
the decaying bases and the front amplitude give the 5x5 determinant
whose nonvanishing for Re s > 0 expresses weak stability; it degenerates
linearly in Re s along the neutral entropy/front family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mhd
from .mhd import PlasmaState

REDUCED = (0, 1, 2, 4)  # p, v1, v2, H2
_SIDES = np.arange(2)[:, None]  # indexes the side axis of stacked (+, -) arrays


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
        """The contact conditions on the flat front: admissible states,
        [p] = [v] = [H] = 0, normal field H1 != 0 and the rest frame v1 = 0."""
        self.plus.require_admissible()
        self.minus.require_admissible()
        if any(abs(getattr(self.plus, c) - getattr(self.minus, c)) > 1e-12
               for c in ("p", "v1", "v2", "H1", "H2")):
            raise ValueError("contact data must share p, v, H across the interface")
        if min(abs(self.plus.H1), abs(self.minus.H1)) <= 1e-12:
            raise ValueError("contact data needs a nonzero normal magnetic field")
        if abs(self.plus.v1) > 1e-12:
            raise ValueError("use the interface rest frame (v1 = 0)")

    def side(self, side: int) -> PlasmaState:
        return self.plus if side == +1 else self.minus

    @cached_property
    def matrices(self) -> dict[int, mhd.MatrixTriple]:
        """side (+1, -1) -> the side's (A0, A1, A2), built once and read-only."""
        out = {side: mhd.assemble_matrices(self.side(side)) for side in (+1, -1)}
        for tri in out.values():
            for m in (tri.A0, tri.A1, tri.A2):
                m.flags.writeable = False
        return out

    @cached_property
    def _pencil(self):
        """(P0, P2, Pc, c3), stacked over the sides (+1, -1), built once.

        P0, P2, Pc are -side times A1^-1 A0, A1^-1 A2 and (A1^-1 c3) c3^T
        over REDUCED, each (2, 4, 4), complex and read-only; c3 = (-H2, H1)
        is (2, 2, 1).  c3 couples the eliminated H1 equation,
        (s + i w2 v2) x_H1 = -i w2 (-H2 x_v1 + H1 x_v2), back into the
        others.  det A1 = H1^2 over the reduced components, which the
        constructor keeps away from zero.
        """
        idx = np.ix_(REDUCED, REDUCED)
        P, c3 = [], []
        for side, st in ((+1, self.plus), (-1, self.minus)):
            tri = self.matrices[side]
            inv = np.linalg.inv(tri.A1[idx])
            c = np.array([0.0, -st.H2, st.H1, 0.0])
            blocks = (inv @ tri.A0[idx], inv @ tri.A2[idx], np.outer(inv @ c, c))
            P.append([-side * b for b in blocks])
            c3.append(c[1:3, None])
        out = (*np.array(P, dtype=complex).swapaxes(0, 1), np.array(c3))
        for m in out:
            m.flags.writeable = False
        return out


def dispersion_roots(point: LaplaceFourierPoint, pair: ContactPair):
    """Finite pencil roots lambda of both sides; the two zero-speed rows are algebraic.

    Returns (roots, vecs): per side (+1, -1), the four finite generalized
    eigenvalues of (M + lambda side A1) x = 0 over REDUCED = (p, v1, v2,
    H2) in increasing real part, shape (2, 4), and their eigenvectors as
    columns, shape (2, 4, 4).  Both sides are solved in one stacked
    eigenproblem of -(side A1)^-1 M = -side (s P0 + i w2 P2 + (w2^2 /
    sigma) Pc); sigma = s + i w2 v2 is shared, since v2 does not jump.
    """
    P0, P2, Pc, _ = pair._pencil
    s, w2 = point.s, point.omega2
    sigma = s + 1j * w2 * pair.plus.v2
    if abs(sigma) < 1e-14 * max(abs(s), abs(w2), 1.0):
        raise DegeneratePointError("transport symbol s + i w2 v2 vanishes")
    lam, vecs = np.linalg.eig(s * P0 + 1j * w2 * P2 + (w2 ** 2 / sigma) * Pc)
    order = np.argsort(lam.real, axis=1)
    return lam[_SIDES, order], vecs[_SIDES, :, order].transpose(0, 2, 1)


@dataclass
class ModeResult:
    lopatinski_value: complex
    conditioning: float


def decaying_modes(point: LaplaceFourierPoint, pair: ContactPair):
    """Bases of modes bounded as x1 -> +infinity (Re lambda < 0), per side.

    Returns (roots, modes), shapes (2, 2) and (2, 6, 2), per side (+1,
    -1); the modes are the 6-component vectors with the eliminated H1
    row rebuilt and S = 0.  For Re s > 0 the Hersh splitting guarantees
    exactly two decaying roots per side; a different count, or a
    non-finite root, signals a degenerate point.
    """
    if point.s.real <= 0.0:
        raise ValueError("decaying-mode selection requires Re s > 0")
    lam, vecs = dispersion_roots(point, pair)
    re = lam.real.tolist()
    if not all(-np.inf < a <= b < 0.0 <= c <= d < np.inf for a, b, c, d in re):
        raise DegeneratePointError(
            f"expected 2 decaying of 4 finite roots per side, found Re lambda {re} "
            f"at s={point.s}, w2={point.omega2}"
        )
    w2, c3 = point.omega2, pair._pencil[3]
    sigma = point.s + 1j * w2 * pair.plus.v2
    red = vecs[:, :, :2]
    modes = np.zeros((2, 6, 2), dtype=complex)
    modes[:, REDUCED] = red
    modes[:, 3] = -1j * w2 * (c3[:, 0] * red[:, 1] + c3[:, 1] * red[:, 2]) / sigma
    return lam[:, :2], modes


def lopatinski_determinant(point: LaplaceFourierPoint, pair: ContactPair) -> ModeResult:
    """Normalized interface determinant over the decaying bases.

    Unknowns: two mode amplitudes per side plus the front amplitude.  Rows:
    jumps of p, v1, v2, H2 and the front (kinematic) equation.  Mode
    columns are scaled to unit norm and the determinant divided by
    |(s, w2)|, which makes the value scale-invariant while keeping the
    linear-in-eta degeneracy of the neutral family visible.
    """
    _, modes = decaying_modes(point, pair)
    basis = modes[:, REDUCED] / np.linalg.norm(modes, axis=1)[:, None, :]
    s, w2 = point.s, point.omega2
    Mat = np.zeros((5, 5), dtype=complex)
    Mat[:4, :4] = np.concatenate((basis[0], -basis[1]), axis=1)
    Mat[4, :2] = -basis[0, 1]  # front equation sees -v1 trace of the + side
    Mat[4, 4] = s + 1j * w2 * pair.plus.v2
    scale = np.sqrt(abs(s) ** 2 + w2 ** 2)
    delta = np.linalg.det(Mat) / scale
    sing = np.linalg.svd(Mat, compute_uv=False)
    return ModeResult(lopatinski_value=delta, conditioning=float(sing[-1]))


def neutral_mode_residual(omega2: float, pair: ContactPair) -> float:
    """Residual of the exact neutral entropy/front mode, s = -i w2 v2.

    The mode carries only entropy amplitudes and a front displacement; all
    interior equations and all five interface conditions evaluate to zero
    identically, which this function confirms in floating point.
    """
    s = -1j * omega2 * pair.plus.v2
    res = 0.0
    for tri in pair.matrices.values():
        X = np.zeros(6, dtype=complex)
        X[5] = 1.0
        interior = s * tri.A0 @ X + 1j * omega2 * tri.A2 @ X  # no x1 dependence
        res = max(res, float(np.max(np.abs(interior))))
    # interface rows: all perturbation traces vanish except S and phi
    res = max(res, abs(s + 1j * omega2 * pair.plus.v2))
    return res

