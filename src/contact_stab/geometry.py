"""Front-straightening geometry.

The moving interface x1 = phi(t, x2) is flattened by mapping both sides onto
the half-plane {x1 >= 0} through

    Phi_pm(t, x) = pm x1 + Psi_pm,      Psi_pm(t, x) = chi(pm x1) phi(t, x2),

where chi is a C-infinity cutoff equal to 1 on [-1, 1], supported in
[-4, 4], with max |chi'| < 1/2.  When ||phi||_inf < 1 this forces
d1 Phi^+ >= 1/2 and d1 Phi^- <= -1/2, so the map is invertible on each side.
chi is even, so on x1 >= 0 both sides share one lift Psi = chi(x1) phi and
d1 Phi_pm = pm 1 + d1 Psi; LiftedGeometry stores Psi's derivatives once.

The cutoff is built from a plateau-shaped transition density: chi' on [1, 4]
is a constant-height C-infinity bump (height 1/2.4 < 1/2), and chi itself is
its integral, tabulated once on a dense grid by the corrected trapezoid rule
and interpolated by cubic Hermite pieces with the exact slope.  The slope
bound is therefore explicit, not tuned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, d2_line, one_sided_d1_at_wall


class AdmissibilityError(ValueError):
    """Front or geometry violates the invertibility regime."""


# --- smooth transition machinery -------------------------------------------

_EDGE = 0.2  # fraction of the transition used to ramp the density up/down
_SPAN = 3.0  # transition occupies [1, 4]
_DENSITY_HEIGHT = 1.0 / (_SPAN * (1.0 - _EDGE))  # = 1/2.4 < 1/2


def _smoothstep(t):
    """C-infinity monotone 0 -> 1 on [0, 1], flat to all orders at both ends."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    expo = np.clip(1.0 / ti - 1.0 / (1.0 - ti), -700.0, 700.0)
    out[inside] = 1.0 / (1.0 + np.exp(expo))
    out[t >= 1.0] = 1.0
    return out


def _smoothstep_d(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 1e-8) & (t < 1.0 - 1e-8)
    ti = t[inside]
    f = _smoothstep(ti)
    out[inside] = f * (1.0 - f) * (1.0 / ti ** 2 + 1.0 / (1.0 - ti) ** 2)
    return out


def _plateau_bump(u):
    """C-infinity bump on [0, 1]: ramps over [0, EDGE], flat 1, ramps down."""
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    lo = u < _EDGE
    hi = u > 1.0 - _EDGE
    out[lo] = _smoothstep(u[lo] / _EDGE)
    out[hi] = _smoothstep((1.0 - u[hi]) / _EDGE)
    out[(u <= 0.0) | (u >= 1.0)] = 0.0
    return out


def _plateau_bump_d(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    lo = (u > 0.0) & (u < _EDGE)
    hi = (u > 1.0 - _EDGE) & (u < 1.0)
    out[lo] = _smoothstep_d(u[lo] / _EDGE) / _EDGE
    out[hi] = -_smoothstep_d((1.0 - u[hi]) / _EDGE) / _EDGE
    return out


_TABLE_N = 16000   # intervals of the transition table on [0, 1]
_TABLE_H = 1.0 / _TABLE_N


def _build_transition_table():
    """Values and slopes of the normalized integral of the bump at the
    nodes k h of [0, 1].

    Each interval adds the corrected trapezoid rule
    h/2 (B_k + B_k+1) + h^2/12 (B'_k - B'_k+1), exact for cubics."""
    u = np.linspace(0.0, 1.0, _TABLE_N + 1)
    h = _TABLE_H
    B = _plateau_bump(u)
    dB = _plateau_bump_d(u)
    steps = 0.5 * h * (B[:-1] + B[1:]) + h * h / 12.0 * (dB[:-1] - dB[1:])
    IB = np.concatenate(([0.0], np.cumsum(steps)))
    # exact normalization: chi hits 0 at the outer edge
    return IB / IB[-1], B / IB[-1]


_VALUES, _SLOPES = _build_transition_table()


def _transition(u):
    """Cubic Hermite interpolation of the table at u in [0, 1]."""
    h = _TABLE_H
    k = np.clip((u / h).astype(int), 0, _TABLE_N - 1)
    s = u / h - k
    s2, s3 = s * s, s * s * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * _VALUES[k] + (s3 - 2.0 * s2 + s) * h * _SLOPES[k]
            + (3.0 * s2 - 2.0 * s3) * _VALUES[k + 1] + (s3 - s2) * h * _SLOPES[k + 1])


def cutoff_chi(x1):
    """The cutoff chi: 1 on [-1, 1], 0 outside (-4, 4), C-infinity between."""
    x = np.abs(np.asarray(x1, dtype=float))
    out = np.zeros_like(x)
    out[x <= 1.0] = 1.0
    mid = (x > 1.0) & (x < 4.0)
    out[mid] = 1.0 - _transition((x[mid] - 1.0) / _SPAN)
    return out


def cutoff_chi_d(x1):
    """chi': a plateau bump of height 1/2.4 on 1 < |x| < 4, odd in x."""
    x1 = np.asarray(x1, dtype=float)
    x = np.abs(x1)
    out = np.zeros_like(x)
    mid = (x > 1.0) & (x < 4.0)
    out[mid] = -_DENSITY_HEIGHT * _plateau_bump((x[mid] - 1.0) / _SPAN)
    return out * np.sign(x1)


def cutoff_chi_dd(x1):
    """chi''."""
    x1 = np.asarray(x1, dtype=float)
    x = np.abs(x1)
    out = np.zeros_like(x)
    mid = (x > 1.0) & (x < 4.0)
    out[mid] = -_DENSITY_HEIGHT * _plateau_bump_d((x[mid] - 1.0) / _SPAN) / _SPAN
    return out


CHI_SLOPE_BOUND = _DENSITY_HEIGHT  # < 1/2 by construction


# --- lifted geometry --------------------------------------------------------


@dataclass(frozen=True)
class LiftedGeometry:
    """The derivatives of the lift Psi, shared by both sides, on the (N1, N2)
    grid, and the front's slope on the interface line."""

    d1_psi: np.ndarray
    d2_psi: np.ndarray
    dt_psi: np.ndarray
    d11_psi: np.ndarray         # = d^2/dx1^2 of Phi_pm
    d2_phi_boundary: np.ndarray

    def d1_phi(self, side: int) -> np.ndarray:
        """d/dx1 of Phi_pm = pm x1 + Psi."""
        return side + self.d1_psi


def build_lifted_geometry(
    phi, grid: Grid, dt_phi=None, skip_admissibility: bool = False
) -> LiftedGeometry:
    """Lift the front perturbation phi, an (N2,) array, to the straightened
    half-plane.

    dt_phi, if given, is the time derivative of phi on the boundary grid;
    it propagates into dt_Psi = chi(x1) dt_phi.  skip_admissibility
    is for lifting perturbation directions, which need not obey the
    sup-norm bound of an actual front.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.N2,):
        raise ValueError("front resolution does not match grid.N2")
    sup = float(np.max(np.abs(phi)))
    if not skip_admissibility and not sup < 1.0:
        raise AdmissibilityError(
            f"front sup-norm {sup:.3g} >= 1: straightening map degenerates"
        )
    chi = cutoff_chi(grid.x1)[:, None]
    d2phi = d2_line(phi, grid.h2)
    if dt_phi is None:
        dt_phi = np.zeros_like(phi)
    return LiftedGeometry(
        d1_psi=cutoff_chi_d(grid.x1)[:, None] * phi[None, :],
        d2_psi=chi * d2phi[None, :],
        dt_psi=chi * np.asarray(dt_phi, dtype=float)[None, :],
        d11_psi=cutoff_chi_dd(grid.x1)[:, None] * phi[None, :],
        d2_phi_boundary=d2phi,
    )


def normal_component(a1, a2, d2psi):
    return a1 - a2 * d2psi


def tangential_component(a1, a2, d2psi):
    return a1 * d2psi + a2


def normal_jump(field_plus: np.ndarray, field_minus: np.ndarray, h1: float) -> np.ndarray:
    """One-sided-sum jump of the normal derivative at x1 = 0.

    Both sides live in the same half-plane after straightening, so the jump
    of a normal derivative is the SUM of the two one-sided derivatives,
    [d1 a] = d1 a^+|_0 + d1 a^-|_0, not their difference.
    """
    return one_sided_d1_at_wall(field_plus, h1) + one_sided_d1_at_wall(field_minus, h1)
