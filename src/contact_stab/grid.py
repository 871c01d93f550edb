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


def _stencil_out(U: np.ndarray, out: np.ndarray | None, rows: tuple[int, int]) -> np.ndarray:
    if out is None:
        return np.empty(U.shape[:-2] + (rows[1] - rows[0], U.shape[-1]), dtype=U.dtype)
    if np.may_share_memory(out, U):
        raise ValueError("a stencil's output must not share memory with its input")
    if not out.flags.c_contiguous:
        raise ValueError("a stencil's output must be C-contiguous")
    return out


def d1_diff(U: np.ndarray, out: np.ndarray | None = None,
            rows: tuple[int, int] | None = None) -> np.ndarray:
    """2 h1 times the x1-derivative along axis -2: U[i+1] - U[i-1] on the
    interior rows, twice the one-sided difference on the end rows.

    rows = (r0, r1) gives only the output rows r0 <= i < r1, reading the
    rows next to the range as halo; out then has r1 - r0 rows.  Writes
    into out when it is given (C-contiguous, not overlapping U)."""
    n1 = U.shape[-2]
    r0, r1 = rows or (0, n1)
    out = _stencil_out(U, out, (r0, r1))
    lo, hi = max(r0, 1), min(r1, n1 - 1)   # the interior rows of the range
    np.subtract(U[..., lo + 1:hi + 1, :], U[..., lo - 1:hi - 1, :],
                out=out[..., lo - r0:hi - r0, :])
    for row, above, below in ((0, 1, 0), (n1 - 1, n1 - 1, n1 - 2)):
        if r0 <= row < r1:
            end = out[..., row - r0, :]
            np.subtract(U[..., above, :], U[..., below, :], out=end)
            end *= 2.0
    return out


def d2_diff(U: np.ndarray, out: np.ndarray | None = None,
            rows: tuple[int, int] | None = None) -> np.ndarray:
    """2 h2 times the periodic centered x2-derivative along the last axis.

    rows = (r0, r1) gives only the rows r0 <= i < r1 of axis -2; out then
    has r1 - r0 rows.  Writes into out when it is given (C-contiguous, not
    overlapping U)."""
    r0, r1 = rows or (0, U.shape[-2])
    out = _stencil_out(U, out, (r0, r1))
    # one pass over the range's rows flattened, per leading slice, then each
    # row's two wrap columns, where that pass reached into the neighbouring row
    V = U[..., r0:r1, :]
    n = V.shape[-2] * V.shape[-1]
    u, o = V.reshape(-1, n), out.reshape(-1, n)
    np.subtract(u[:, 2:], u[:, :-2], out=o[:, 1:-1])
    np.subtract(V[..., 1], V[..., -1], out=out[..., 0])
    np.subtract(V[..., 0], V[..., -2], out=out[..., -1])
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


def d2_line(phi: np.ndarray, h2: float) -> np.ndarray:
    """Fourth-order periodic x2-derivative of a boundary line."""
    return (
        -np.roll(phi, -2) + 8.0 * np.roll(phi, -1) - 8.0 * np.roll(phi, 1) + np.roll(phi, 2)
    ) / (12.0 * h2)


def one_sided_d1_at_wall(field: np.ndarray, h1: float) -> np.ndarray:
    """2nd-order one-sided x1-derivative at the interface node (axis -2)."""
    return (-3.0 * field[..., 0, :] + 4.0 * field[..., 1, :] - field[..., 2, :]) / (2.0 * h1)
