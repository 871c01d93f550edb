"""Discrete half-plane grid shared by geometry, linearization, and solver.

x1 in [0, X1] with N1 nodes including the interface node x1 = 0; x2 in
[0, X2) with N2 nodes, periodic.  Derivative stencils: 2nd-order centered
interior, first-order one-sided rows at the x1 ends (the combination with
trapezoid weights satisfies exact discrete integration by parts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_NODES = 4   # per direction; the widest stencils reach two nodes away


@dataclass(frozen=True)
class Grid:
    N1: int
    N2: int
    X1: float
    X2: float
    dt: float = 0.0
    T_final: float = 0.0

    def __post_init__(self):
        if self.N1 < MIN_NODES or self.N2 < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes per direction")
        if self.X1 <= 0 or self.X2 <= 0:
            raise ValueError("grid extents must be positive")

    @property
    def h1(self) -> float:
        return self.X1 / (self.N1 - 1)

    @property
    def h2(self) -> float:
        return self.X2 / self.N2

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(0.0, self.X1, self.N1)

    @property
    def x2(self) -> np.ndarray:
        return np.arange(self.N2) * self.h2

    def mesh(self):
        """(x1, x2) coordinate arrays broadcast to shape (N1, N2)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    @property
    def n_steps(self) -> int:
        if self.dt <= 0:
            return 0
        return int(round(self.T_final / self.dt))

    @property
    def p_weights1(self) -> np.ndarray:
        """Trapezoid quadrature weights in x1 (the SBP norm)."""
        w = np.full(self.N1, self.h1)
        w[0] = w[-1] = 0.5 * self.h1
        return w


def _stencil_out(U: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.empty_like(U, order="C")
    if np.may_share_memory(out, U):
        raise ValueError("a stencil's output must not share memory with its input")
    if not out.flags.c_contiguous:
        raise ValueError("a stencil's output must be C-contiguous")
    return out


def d1_diff(U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2 h1 times the x1-derivative along axis -2: U[i+1] - U[i-1] on the
    interior rows, twice the one-sided difference on the end rows.

    Writes into out when it is given (C-contiguous, not overlapping U)."""
    out = _stencil_out(U, out)
    n, u = U.shape[-1], U.reshape(-1)
    # one pass over the flattened array; the rows where it straddles two
    # leading slices are end rows, overwritten below
    np.subtract(u[2 * n:], u[:-2 * n], out=out.reshape(-1)[n:-n])
    for row, hi, lo in ((0, 1, 0), (-1, -1, -2)):
        end = out[..., row, :]
        np.subtract(U[..., hi, :], U[..., lo, :], out=end)
        end *= 2.0
    return out


def d2_diff(U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2 h2 times the periodic centered x2-derivative along the last axis.

    Writes into out when it is given (C-contiguous, not overlapping U)."""
    out = _stencil_out(U, out)
    # one pass over the flattened array, then the two wrap columns, where
    # that pass reached into the neighbouring line
    u = U.reshape(-1)
    np.subtract(u[2:], u[:-2], out=out.reshape(-1)[1:-1])
    np.subtract(U[..., 1], U[..., -1], out=out[..., 0])
    np.subtract(U[..., 0], U[..., -2], out=out[..., -1])
    return out


def d1_field(U: np.ndarray, h1: float, out: np.ndarray | None = None) -> np.ndarray:
    """x1-derivative along axis -2: centered interior, one-sided ends.

    Writes into out when it is given (C-contiguous, not overlapping U)."""
    out = d1_diff(U, out)
    out /= 2.0 * h1
    return out


def d2_field(U: np.ndarray, h2: float, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic centered x2-derivative along the last axis.

    Writes into out when it is given (C-contiguous, not overlapping U)."""
    out = d2_diff(U, out)
    out /= 2.0 * h2
    return out


def d2_line(phi: np.ndarray, h2: float, order: int = 4) -> np.ndarray:
    """Periodic x2-derivative of a boundary line (4th-order by default)."""
    if order == 2:
        return (np.roll(phi, -1) - np.roll(phi, 1)) / (2.0 * h2)
    return (
        -np.roll(phi, -2) + 8.0 * np.roll(phi, -1) - 8.0 * np.roll(phi, 1) + np.roll(phi, 2)
    ) / (12.0 * h2)


def one_sided_d1_at_wall(field: np.ndarray, h1: float) -> np.ndarray:
    """2nd-order one-sided x1-derivative at the interface node (axis -2)."""
    return (-3.0 * field[..., 0, :] + 4.0 * field[..., 1, :] - field[..., 2, :]) / (2.0 * h1)
