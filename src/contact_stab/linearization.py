"""Variable-coefficient linearization about a frozen basic state.

Linearizing the straightened interior system about a background
(U_hat_pm, phi_hat) and passing to the good unknown

    U_dot = U - (Psi / d1Phi_hat) d1U_hat

yields the production operator

    A0(U_hat) dt U_dot + A1_tilde d1 U_dot + A2(U_hat) d2 U_dot + C U_dot = f,

with the effective normal matrix

    A1_tilde = (A1 - A0 dtPsi_hat - A2 d2Psi_hat) / d1Phi_hat

and the pointwise zero-order matrix C built from directional derivatives of
the coefficient matrices contracted with the background gradients.  This
module also houses the boundary algebra on the interface x1 = 0: the exact
sparse form of A1_tilde under the interface-continuity conditions, the
congruence to secondary variables W = (q, v_N, v2, H_N, H2, S) whose
boundary matrix B1 has inertia (2, 2, 2) per side, the five linearized
interface conditions, and the boundary quadratic form identity used by the
energy argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mhd
from .fields import TwoSidedField
from .geometry import (
    LiftedGeometry,
    build_lifted_geometry,
    normal_component,
    normal_jump,
    tangential_component,
)
from .grid import Grid, d1_field, d2_field, d2_line, one_sided_d1_at_wall

ZERO_EIG_REL_TOL = 1e-9
MIN_D1PHI = 0.25

# admissibility floors of the background: rho_hat, p_hat and |H_N| on x1 = 0
RHO_BAR0 = 1e-2
P_BAR0 = 1e-2
KAPPA_BAR0 = 1e-2


class GeometryError(ValueError):
    """Straightening map too close to degenerate for the linearized algebra."""


# --- boundary traces and the exact boundary matrix --------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """Background data entering the boundary algebra at a point of x1 = 0,
    or along the interface line when the fields are (N2,) arrays."""

    H1: float | np.ndarray
    H2: float | np.ndarray
    d2phi: float | np.ndarray = 0.0

    @property
    def HN(self) -> float:
        return self.H1 - self.H2 * self.d2phi


def boundary_A1_exact(trace: BoundaryTrace, side: int) -> np.ndarray:
    """A1_tilde restricted to x1 = 0 under the interface conditions.

    The matrix is side * M with M depending only on (H1, H2, d2phi) of the
    background trace; its sixth row and column vanish identically.  A trace
    of (N2,) lines gives a (6, 6, N2) array.
    """
    h1, h2, fp = trace.H1, trace.H2, trace.d2phi
    M = np.zeros((6, 6) + np.shape(h1))
    M[0, 1] = M[1, 0] = 1.0
    M[0, 2] = M[2, 0] = -fp
    M[1, 3] = M[3, 1] = h2 * fp
    M[1, 4] = M[4, 1] = h2
    M[2, 3] = M[3, 2] = -h1 * fp
    M[2, 4] = M[4, 2] = -h1
    return float(side) * M


def j_matrix(trace: BoundaryTrace) -> np.ndarray:
    """J with U = J W; unit determinant, written out from the definitions."""
    fp = trace.d2phi
    J = np.eye(6)
    J[0, 3] = -trace.H1
    J[0, 4] = -(trace.H1 * fp + trace.H2)
    J[1, 2] = fp
    J[3, 4] = fp
    return J


def b1_structure(trace: BoundaryTrace, side: int) -> np.ndarray:
    """The congruent boundary matrix B1 = J^T A1_tilde J in W variables.

    Block layout over (q | v_N, v2 | H_N, H2 | S): a single (q, v_N)
    coupling, a -H_N a0 coupling between the velocity and magnetic blocks
    with a0 = [[1, d2phi], [d2phi, 1 + d2phi^2]] > 0, and a zero S line.
    At the interface d1Phi_pm = pm 1, giving the overall sign.
    """
    fp = trace.d2phi
    a0 = np.array([[1.0, fp], [fp, 1.0 + fp * fp]])
    B = np.zeros((6, 6))
    B[0, 1] = B[1, 0] = 1.0
    B[1:3, 3:5] = -trace.HN * a0
    B[3:5, 1:3] = -trace.HN * a0
    return float(side) * B


def w_congruence_check(trace: BoundaryTrace, side: int = +1) -> float:
    """Max-norm defect of J^T A1_tilde(exact) J against the B1 structure."""
    J = j_matrix(trace)
    defect = J.T @ boundary_A1_exact(trace, side) @ J - b1_structure(trace, side)
    return float(np.max(np.abs(defect)))


def _inertia(sym: np.ndarray) -> tuple[int, int, int]:
    lam = np.linalg.eigvalsh(sym)
    scale = max(np.max(np.abs(lam)), 1e-300)
    tol = ZERO_EIG_REL_TOL * scale
    n_pos = int(np.sum(lam > tol))
    n_neg = int(np.sum(lam < -tol))
    return n_pos, n_neg, len(lam) - n_pos - n_neg


def two_sided_signature(trace: BoundaryTrace) -> tuple[int, int, int]:
    """Inertia of diag(A1_tilde^+, A1_tilde^-) at the interface."""
    M = np.zeros((12, 12))
    M[:6, :6] = boundary_A1_exact(trace, +1)
    M[6:, 6:] = boundary_A1_exact(trace, -1)
    return _inertia(M)


# --- basic state ------------------------------------------------------------


@dataclass
class BasicState:
    """Frozen background over the straightened half-plane pair.

    u holds the 6 components per side with shape (6, N1, N2); d1_u, d2_u
    are its derivatives on the same grid.  Backgrounds are static.
    Geometry is the lift of the (N2,) front phi_hat.
    """

    grid: Grid
    u: TwoSidedField
    phi_hat: np.ndarray
    geometry: LiftedGeometry
    d1_u: TwoSidedField
    d2_u: TwoSidedField
    dt_phi: np.ndarray
    gamma: float = mhd.GAMMA_DEFAULT

    # -- component access ----------------------------------------------------

    def rho(self, side: int) -> np.ndarray:
        U = self.u.side(side)
        return mhd.eos_density(U[0], U[5], self.gamma)

    def d1phi_map(self, side: int) -> np.ndarray:
        return self.geometry.side("d1_phi", side)

    def d2psi(self, side: int) -> np.ndarray:
        return self.geometry.side("d2_psi", side)

    def dtpsi(self, side: int) -> np.ndarray:
        return self.geometry.side("dt_psi", side)

    def vN(self, side: int) -> np.ndarray:
        U = self.u.side(side)
        return normal_component(U[1], U[2], self.d2psi(side))

    def HN(self, side: int) -> np.ndarray:
        U = self.u.side(side)
        return normal_component(U[3], U[4], self.d2psi(side))

    def Htau(self, side: int) -> np.ndarray:
        U = self.u.side(side)
        return tangential_component(U[3], U[4], self.d2psi(side))

    def u_vec(self, side: int) -> tuple[np.ndarray, np.ndarray]:
        """Straightened transport field u_hat = (v_N, v2 d1Phi)."""
        U = self.u.side(side)
        return self.vN(side), U[2] * self.d1phi_map(side)

    def w_vec(self, side: int) -> tuple[np.ndarray, np.ndarray]:
        """u_hat minus the front motion (dtPsi, 0); its first component
        vanishes on x1 = 0 for a valid background."""
        u1, u2 = self.u_vec(side)
        return u1 - self.dtpsi(side), u2

    def h_vec(self, side: int) -> tuple[np.ndarray, np.ndarray]:
        """Straightened magnetic field h_hat = (H_N, H2 d1Phi)."""
        U = self.u.side(side)
        return self.HN(side), U[4] * self.d1phi_map(side)

    # -- boundary data used by the linearized interface conditions -----------

    def boundary_trace(self) -> BoundaryTrace:
        """Background boundary trace along the interface line (uses the +
        side; valid states agree)."""
        U = self.u.plus[:, 0, :]
        return BoundaryTrace(H1=U[3], H2=U[4], d2phi=self.geometry.d2_phi_boundary)

    def jump_d1_p(self) -> np.ndarray:
        return normal_jump(self.u.plus[0], self.u.minus[0], self.grid.h1)

    def jump_d1_Htau(self) -> np.ndarray:
        return normal_jump(self.Htau(+1), self.Htau(-1), self.grid.h1)

    def d1_vN_plus_wall(self) -> np.ndarray:
        return one_sided_d1_at_wall(self.vN(+1), self.grid.h1)


def basic_state_from_arrays(
    grid: Grid,
    u_plus: np.ndarray,
    u_minus: np.ndarray,
    phi_hat: np.ndarray | None = None,
    dt_phi: np.ndarray | None = None,
    gamma: float = mhd.GAMMA_DEFAULT,
) -> BasicState:
    """Build a BasicState from gridded data; derivatives via grid stencils."""
    phi_hat = np.zeros(grid.N2) if phi_hat is None else np.asarray(phi_hat, dtype=float)
    if dt_phi is None:
        dt_phi = np.zeros(grid.N2)
    geometry = build_lifted_geometry(phi_hat, grid, dt_phi=dt_phi)
    u = TwoSidedField(u_plus, u_minus)
    d1 = TwoSidedField(d1_field(u.plus, grid.h1), d1_field(u.minus, grid.h1))
    d2 = TwoSidedField(d2_field(u.plus, grid.h2), d2_field(u.minus, grid.h2))
    return BasicState(
        grid=grid, u=u, phi_hat=phi_hat, geometry=geometry,
        d1_u=d1, d2_u=d2, dt_phi=np.asarray(dt_phi, dtype=float),
        gamma=gamma,
    )


def constant_basic_state(
    grid: Grid,
    p: float = 1.0,
    v2: float = 0.0,
    H1: float = 1.0,
    H2: float = 0.0,
    S_plus: float = 0.0,
    S_minus: float = 0.0,
    gamma: float = mhd.GAMMA_DEFAULT,
) -> BasicState:
    """Uniform background on both sides with flat static front.

    v1 = 0 is forced: the interface carries no mass flux, so the normal
    velocity must match the (zero) front speed.
    """
    return _static_state(grid, p, v2, H1, H2, S_plus, S_minus, gamma)


def _static_state(grid: Grid, p, v2: float, H1: float, H2: float,
                  S_plus: float, S_minus: float, gamma: float) -> BasicState:
    """Both sides at rest in x1 under a flat static front: v1 = 0, uniform v2,
    H1, H2 and S per side, and p a number or an (N1, 1) profile in x1."""
    up, um = np.zeros((2, 6, grid.N1, grid.N2))
    for arr, S in ((up, S_plus), (um, S_minus)):
        arr[0] = p
        arr[2] = v2
        arr[3] = H1
        arr[4] = H2
        arr[5] = S
    return basic_state_from_arrays(grid, up, um, gamma=gamma)


# --- validation -------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    location: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult]
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        return [
            f"{c.name:<24s} {'PASS' if c.passed else 'FAIL'}  "
            f"max-residual {c.max_residual:.3e}" + (f"  at {c.location}" if c.location else "")
            for c in self.checks
        ]


def _peak(arr) -> float:
    """Largest entry of arr, or +inf when an entry is not finite, so that no
    `<= tol` check passes a NaN or infinite field."""
    arr = np.asarray(arr)
    return float(np.max(arr)) if np.all(np.isfinite(arr)) else np.inf


def _judge(name: str, fields: list, tol: float) -> CheckResult:
    """One check from its residual fields, arrays whose positive entries
    violate it: signed margins, or residuals in absolute value.

    The check's value is the largest entry over the fields, 0 when none is
    positive and +inf when one is not finite; it fails above tol and names
    the node of the first field that holds a positive value."""
    peaks = [_peak(f) for f in fields]
    worst = max([0.0, *peaks])
    loc = ""
    if worst > 0.0:
        f = fields[peaks.index(worst)]
        at = np.argmax(f if np.isfinite(worst) else ~np.isfinite(f))
        loc = "idx" + str(tuple(int(i) for i in np.unravel_index(at, f.shape)))
    return CheckResult(name, worst <= tol, worst, loc)


def validate_basic_state(basic: BasicState, tol: float = 1e-8) -> ValidationReport:
    """Check the background against the admissibility assumptions.

    positivity        p_hat, rho_hat bounded below by P_BAR0, RHO_BAR0
    interface_continuity   [p]=0, [v]=0, [H_tau]=0 and front speed = v_N^+ on x1=0
    normal_field      |H_N| >= KAPPA_BAR0 on the interface
    induction         background magnetic field solves its transport system
    solenoidal        div h_hat = 0 and [H_N] = 0
    normal_velocity_jump   one-sided-sum jump of d1 v_N vanishes
    front_bound       sup |phi_hat| < 1
    """
    g = basic.grid
    u, d1, d2 = basic.u, basic.d1_u, basic.d2_u

    def induction(side):
        U, d1U, d2U = u.side(side), d1.side(side), d2.side(side)
        w1, w2 = basic.w_vec(side)
        hv1, hv2 = basic.h_vec(side)
        u1, u2 = basic.u_vec(side)
        div_u = d1_field(u1[None], g.h1)[0] + d2_field(u2[None], g.h2)[0]
        return [np.abs((w1 * d1U[k] + w2 * d2U[k] - (hv1 * d1U[k - 2] + hv2 * d2U[k - 2])
                        + U[k] * div_u) / basic.d1phi_map(side)) for k in (3, 4)]

    def div_h(side):
        hv1, hv2 = basic.h_vec(side)
        return np.abs(d1_field(hv1[None], g.h1)[0] + d2_field(hv2[None], g.h2)[0])

    continuity = [u.plus[k, 0, :] - u.minus[k, 0, :] for k in range(3)] + [
        basic.Htau(+1)[0, :] - basic.Htau(-1)[0, :], basic.dt_phi - basic.vN(+1)[0, :]]
    hn = np.minimum(np.abs(basic.HN(+1)[0, :]), np.abs(basic.HN(-1)[0, :]))
    residuals = {   # check -> its fields, in the order a location is searched
        "positivity": [np.maximum(P_BAR0 - u.side(s)[0], RHO_BAR0 - basic.rho(s))
                       for s in (+1, -1)],
        "interface_continuity": [np.abs(np.stack(continuity))],
        "normal_field": [KAPPA_BAR0 - hn],
        "induction": induction(+1) + induction(-1),
        "solenoidal": [div_h(+1), div_h(-1),
                       np.abs(basic.HN(+1)[0, :] - basic.HN(-1)[0, :])],
        "normal_velocity_jump": [np.abs(normal_jump(basic.vN(+1), basic.vN(-1), g.h1))],
    }
    checks = [_judge(name, fields, tol) for name, fields in residuals.items()]
    sup = _peak(np.abs(basic.phi_hat))
    checks.append(CheckResult("front_bound", sup < 1.0, sup))
    return ValidationReport(checks=checks, tolerance=tol)


# --- the interior operator of one side --------------------------------------


def _compact(a: np.ndarray) -> np.ndarray:
    """a cut along its last two (x1, x2) axes to the smallest shape that
    broadcasts back to it: a (1, 1) copy when a is uniform on the grid, an
    (N1, 1) copy when it varies in x1 only, otherwise a itself."""
    for cut in (a[..., :1, :1], a[..., :1]):
        if np.all(a == cut):
            return cut.copy()
    return a


@dataclass
class SideCoefficients:
    """The interior operator of one side on the background's grid.

    Every field has the background's own broadcast shape: (1, 1) when the
    background is uniform, (N1, 1) when it varies in x1 only, as the RT
    state does, and (N1, N2) otherwise.  solver.StageWork folds the nonzero
    entries of the 6x6 fields into its kernel.
    """

    A0_diag: np.ndarray      # (6,) + the broadcast shape
    A0_inv_diag: np.ndarray
    At1: np.ndarray          # (6, 6) + the broadcast shape
    A2: np.ndarray
    C: np.ndarray
    d1phi: np.ndarray        # the broadcast shape
    d11phi: np.ndarray
    w1: np.ndarray           # background transport field components
    w2: np.ndarray
    div_u: np.ndarray
    d2psi: np.ndarray


def side_coefficients(basic: BasicState, side: int) -> SideCoefficients:
    """Assemble the interior operator of one side from the background's
    inputs, each compacted once to its smallest broadcast shape, which every
    stored field, A0_diag included, then has.

    At1 is the effective normal matrix (A1 - A0 dtPsi - A2 d2Psi) / d1Phi.
    Column k of the zero-order matrix C is the directional derivative of the
    coefficient matrices in the k-th unit state direction, contracted with
    the gradients of the static background: dA1_tilde d1U_hat + dA2 d2U_hat.
    """
    g = basic.grid
    gamma = basic.gamma
    p, v1, v2, H1, H2, S = _compact(basic.u.side(side))
    d1U, d2U = _compact(basic.d1_u.side(side)), _compact(basic.d2_u.side(side))
    d1phi, d2psi, dtpsi, d11phi = (_compact(basic.geometry.side(name, side))
                                   for name in ("d1_phi", "d2_psi", "dt_psi", "d11_phi"))
    if float(np.min(np.abs(d1phi))) < MIN_D1PHI:
        raise GeometryError("|d1 Phi_hat| dropped below 1/4; lift not usable")
    rho = mhd.eos_density(p, S, gamma)
    A2 = mhd.a2_matrix(p, v2, H1, H2, rho, gamma)
    At1 = (mhd.a1_matrix(p, v1, H1, H2, rho, gamma) - mhd.a0_matrix(p, rho, gamma) * dtpsi
           - A2 * d2psi) / d1phi
    columns = []
    for Y in np.eye(6):
        dA0 = mhd.da0_matrix(p, rho, Y, gamma)
        dA2 = mhd.da2_matrix(p, v2, rho, Y, gamma)
        dA1t = (mhd.da1_matrix(p, v1, rho, Y, gamma) - dA0 * dtpsi - dA2 * d2psi) / d1phi
        columns.append(np.einsum("ij...,j...->i...", dA1t, d1U)
                       + np.einsum("ij...,j...->i...", dA2, d2U))
    A0 = np.stack([1.0 / (gamma * p), rho, rho] + [np.ones_like(rho)] * 3)
    u1, u2 = normal_component(v1, v2, d2psi), v2 * d1phi
    full = (g.N1, g.N2)
    div_u = (d1_field(np.broadcast_to(u1, full)[None], g.h1)[0]
             + d2_field(np.broadcast_to(u2, full)[None], g.h2)[0])
    return SideCoefficients(
        A0_diag=A0,
        A0_inv_diag=1.0 / A0,
        At1=At1,
        A2=A2,
        C=np.stack(columns, axis=1),
        d1phi=d1phi,
        d11phi=d11phi,
        w1=u1 - dtpsi,
        w2=u2,
        div_u=_compact(div_u),
        d2psi=d2psi,
    )


# --- first variation --------------------------------------------------------


def first_variation(
    dU: np.ndarray,
    dphi: np.ndarray,
    basic: BasicState,
    side: int,
) -> np.ndarray:
    """Full first variation of the nonlinear interior operator, for a
    perturbation that does not depend on time.

    Equals the production operator applied to dU plus the front-transport
    term -(A1_tilde d1 dPsi + A2 d2 dPsi) d1U_hat / d1Phi_hat, which the
    production form absorbs into the good unknown.  The front
    perturbation dphi is lifted exactly like the background front (the lift
    is linear in phi), so the derivative fields of dPsi reuse the analytic
    cutoff slope and the boundary-line stencil.  Both parts go through one
    contraction: the transport term shifts its derivative arguments
    by dPsi's derivatives times d1U_hat / d1Phi_hat.
    """
    g = basic.grid
    sc = side_coefficients(basic, side)
    dgeo = build_lifted_geometry(dphi, g, skip_admissibility=True)
    sgn = 1.0 if side == +1 else -1.0
    d1psi = dgeo.side("d1_phi", side) - sgn  # d1 of the lift alone
    d2psi = dgeo.side("d2_psi", side)
    transport = basic.d1_u.side(side) / sc.d1phi
    return sum(np.einsum("ij...,j...->i...", M, X) for M, X in (
        (sc.At1, d1_field(dU, g.h1) - d1psi * transport),
        (sc.A2, d2_field(dU, g.h2) - d2psi * transport),
        (sc.C, dU)))


# --- linearized interface conditions ----------------------------------------


def bc_residual(
    trace_plus: np.ndarray,
    trace_minus: np.ndarray,
    phi: np.ndarray,
    basic: BasicState,
    dt_phi: np.ndarray | None = None,
    g_rows: np.ndarray | None = None,
) -> np.ndarray:
    """The five linearized interface conditions minus the boundary data g.

    Rows: pressure jump with front correction, the two velocity jumps, the
    tangential-field jump with front correction, and the front equation.
    Traces are (6, N2) arrays of perturbation values on x1 = 0, and phi is
    the (N2,) front perturbation.
    """
    gr = basic.grid
    d2phi_hat = basic.geometry.d2_phi_boundary
    if dt_phi is None:
        dt_phi = np.zeros_like(phi)
    res = np.zeros((5, gr.N2))
    res[0] = trace_plus[0] - trace_minus[0] + phi * basic.jump_d1_p()
    res[1] = trace_plus[1] - trace_minus[1]
    res[2] = trace_plus[2] - trace_minus[2]
    htau_p = tangential_component(trace_plus[3], trace_plus[4], d2phi_hat)
    htau_m = tangential_component(trace_minus[3], trace_minus[4], d2phi_hat)
    res[3] = htau_p - htau_m + phi * basic.jump_d1_Htau()
    vN_p = normal_component(trace_plus[1], trace_plus[2], d2phi_hat)
    v2_hat = basic.u.plus[2, 0, :]
    res[4] = dt_phi + v2_hat * d2_line(phi, gr.h2, order=2) - vN_p - phi * basic.d1_vN_plus_wall()
    if g_rows is not None:
        res = res - g_rows
    return res


# --- boundary quadratic form ------------------------------------------------


TRACE_TOL_V = 1e-8   # the velocity jump boundary_quadratic_form accepts as continuous


def boundary_quadratic_form(
    trace_plus: np.ndarray,
    trace_minus: np.ndarray,
    basic: BasicState,
):
    """-1/2 sum_pm (A1_tilde U, U)|_0 in matrix and closed form.

    Requires continuous velocity traces (a jump of at most TRACE_TOL_V);
    under that constraint the matrix form collapses to
    -v_N^+ [p] + (H_N^+ v2^+ - H2^+ v_N^+) [H_tau].
    Returns (matrix_form, closed_form) as boundary grid functions.
    """
    jv = np.max(np.abs(trace_plus[1:3] - trace_minus[1:3]))
    if jv > TRACE_TOL_V:
        raise ValueError(f"velocity traces must agree ([v] max {jv:.3g} > {TRACE_TOL_V:.3g})")
    d2phi_hat = basic.geometry.d2_phi_boundary
    A = boundary_A1_exact(basic.boundary_trace(), +1)
    matrix_form = np.zeros(basic.grid.N2)
    for side, tr in ((+1, trace_plus), (-1, trace_minus)):
        matrix_form -= side * 0.5 * np.einsum("ik,ijk,jk->k", tr, A, tr)

    HN_hat = basic.HN(+1)[0, :]
    H2_hat = basic.u.plus[4, 0, :]
    vN_p = normal_component(trace_plus[1], trace_plus[2], d2phi_hat)
    jump_p = trace_plus[0] - trace_minus[0]
    htau_p = tangential_component(trace_plus[3], trace_plus[4], d2phi_hat)
    htau_m = tangential_component(trace_minus[3], trace_minus[4], d2phi_hat)
    closed_form = -vN_p * jump_p + (HN_hat * trace_plus[2] - H2_hat * vN_p) * (htau_p - htau_m)
    return matrix_form, closed_form
