"""Scenario library: named experiments assembled from the library modules.

Each runner takes a parsed ScenarioConfig and returns a ScenarioResult
holding a text report, CSV tables keyed by file name, optional snapshot
dumps, and the exit status (0 success, 1 check failure, 2 config error,
3 numerical blow-up).  Runners are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import mhd, solver, spectral
from .config import ConfigError, ScenarioConfig
from .grid import Grid, d1_field, d2_field
from .linearization import (
    BasicState,
    _static_state,
    basic_state_from_arrays,
    constant_basic_state,
    validate_basic_state,
)
from .solver import Snapshot, Sources, source_h1_norm


@dataclass
class ScenarioResult:
    exit_code: int
    report: list[str] = dc_field(default_factory=list)
    csv: dict = dc_field(default_factory=dict)          # name -> list[str]
    snapshots: list = dc_field(default_factory=list)    # (name, Snapshot, Grid)
    data: dict = dc_field(default_factory=dict)         # machine-readable extras

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _verdict(ok: bool, report: list[str], fail_code: int = 1, **parts) -> ScenarioResult:
    """A runner's result: report with `overall: PASS|FAIL` appended, and exit
    code 0 when ok, else fail_code."""
    report.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return ScenarioResult(exit_code=0 if ok else fail_code, report=report, **parts)


# --- basic-state builders ---------------------------------------------------


def constant_state_from_config(cfg: ScenarioConfig, grid: Grid) -> BasicState:
    return constant_basic_state(
        grid,
        p=cfg["state.p"], v2=cfg["state.v2"],
        H1=cfg["state.H1"], H2=cfg["state.H2"],
        S_plus=cfg["state.S_plus"], S_minus=cfg["state.S_minus"],
        gamma=cfg["physics.gamma"],
    )


def rt_pressure_profile(x1: np.ndarray) -> np.ndarray:
    """sigma(x1) = x1 exp(-x1^2/2): unit slope at the interface, localized."""
    return x1 * np.exp(-0.5 * x1 ** 2)


def rt_basic_state(grid: Grid, p0: float = 1.0, rt_jump: float = 0.5,
                   v2: float = 0.0, H1: float = 1.0, H2: float = 0.3,
                   S_plus: float = 0.2, S_minus: float = -0.1,
                   gamma: float = mhd.GAMMA_DEFAULT) -> BasicState:
    """Static background whose one-sided-sum pressure-slope jump at the
    interface equals rt_jump; positive values are the stable sign."""
    p = p0 + 0.5 * rt_jump * rt_pressure_profile(grid.x1)[:, None]
    return _static_state(grid, p, v2, H1, H2, S_plus, S_minus, gamma)


def rt_state_from_config(cfg: ScenarioConfig, grid: Grid) -> BasicState:
    return rt_basic_state(
        grid, p0=cfg["state.p0"], rt_jump=cfg["state.rt_jump"],
        v2=cfg["state.v2"], H1=cfg["state.H1"], H2=cfg["state.H2"],
        S_plus=cfg["state.S_plus"], S_minus=cfg["state.S_minus"],
        gamma=cfg["physics.gamma"],
    )


def expression_state_from_config(cfg: ScenarioConfig, grid: Grid) -> BasicState:
    X1g, X2g = grid.mesh()

    def on_grid(key, x1, x2):
        with np.errstate(all="ignore"):   # a non-finite value is reported below
            values = np.broadcast_to(np.asarray(cfg[key](t=0.0, x1=x1, x2=x2), dtype=float),
                                     np.shape(x2))
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{key} is not finite everywhere on the grid")
        return values.copy()

    arrays = {side: np.stack([on_grid(f"state.{comp}_{side}", X1g, X2g)
                              for comp in ("p", "v1", "v2", "H1", "H2", "S")])
              for side in ("plus", "minus")}
    phi = on_grid("front.phi", 0.0, grid.x2)
    dt_phi = on_grid("front.dt_phi", 0.0, grid.x2)
    return basic_state_from_arrays(
        grid, arrays["plus"], arrays["minus"], phi_hat=phi, dt_phi=dt_phi,
        gamma=cfg["physics.gamma"],
    )


def contact_pair_from_config(cfg: ScenarioConfig) -> spectral.ContactPair:
    gamma = cfg["physics.gamma"]

    def st(S):
        return mhd.PlasmaState(cfg["state.p"], 0.0, cfg["state.v2"],
                               cfg["state.H1"], cfg["state.H2"], S, gamma=gamma)

    try:
        return spectral.ContactPair(st(cfg["state.S_plus"]), st(cfg["state.S_minus"]))
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc


def grid_from_config(cfg: ScenarioConfig, basic_builder,
                     epsilon: float | None = None) -> tuple[Grid, BasicState]:
    """The run grid (dt from the background's CFL speed bound) and the
    background on it.  The background does not depend on dt, so it is built
    once on a proto grid and moved onto the final grid."""
    proto = Grid(cfg["grid.N1"], cfg["grid.N2"], cfg["grid.X1"], cfg["grid.X2"])
    if epsilon is None:
        epsilon = cfg["run.epsilon"]
    basic = basic_builder(cfg, proto)
    grid = solver.build_grid(basic, cfg["run.T_final"], epsilon=epsilon,
                             cfl_max=cfg["grid.cfl_max"])
    return grid, replace(basic, grid=grid)


# --- seeded interface/interior forcing --------------------------------------


def smooth_ramp(t, t_ramp: float):
    """C^1 ramp: 0 at t <= 0, 1 for t >= t_ramp."""
    s = np.clip(np.asarray(t, dtype=float) / t_ramp, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * s))


def make_forcing(grid: Grid, seed: int, amplitude: float, t_ramp: float,
                 k2: int) -> Sources:
    """Deterministic smooth forcing: interior f on both sides plus interface
    data g, all ramped from zero so the data vanish for t <= 0.

    Each datum is a fixed spatial shape times cos(wt t + ph); the shapes are
    tabulated here, so a call evaluates only the time factors."""
    rng = np.random.default_rng(seed)
    X1g, X2g = grid.mesh()
    bump = np.exp(-((X1g - 1.5) / 0.5) ** 2)
    f_amp = {s: amplitude * rng.uniform(0.3, 1.0, size=6) for s in (+1, -1)}
    f_ph = {s: rng.uniform(0, 2 * np.pi, size=6) for s in (+1, -1)}
    f_wt = {s: rng.uniform(0.5, 1.5, size=6) for s in (+1, -1)}
    g_amp = amplitude * rng.uniform(0.1, 0.4, size=5)
    g_ph = rng.uniform(0, 2 * np.pi, size=5)
    g_wt = rng.uniform(0.5, 1.5, size=5)

    f_shape = {
        s: f_amp[s][:, None, None] * bump[None] * np.cos(k2 * X2g[None] + f_ph[s][:, None, None])
        for s in (+1, -1)
    }
    g_shape = g_amp[:, None] * np.cos(k2 * grid.x2[None, :] + g_ph[:, None])

    def shape_f(side, t):
        return f_shape[side] * np.cos(f_wt[side] * t + f_ph[side])[:, None, None]

    def f(t):
        r = float(smooth_ramp(t, t_ramp))
        return (r * shape_f(+1, t), r * shape_f(-1, t))

    def g(t):
        r = float(smooth_ramp(t, t_ramp))
        return r * (g_shape * np.cos(g_wt * t + g_ph)[:, None])

    return Sources(f=f, g=g)


# --- manufactured solution --------------------------------------------------


@dataclass
class ManufacturedProblem:
    """Separable smooth exact solution on a uniform contact background.

    Fields A e^(-2 x1) cos(w2 x2 + a) cos(wt t + b) per component and side,
    plus a compatible front; interior and interface sources are generated
    analytically so a solver run against them measures pure scheme error.
    """

    state_plus: mhd.PlasmaState
    state_minus: mhd.PlasmaState
    epsilon: float
    omega2: float = 2.0
    omega_t: float = 1.5
    amplitude: float = 1.0
    seed: int = 7

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self.tri = {
            +1: mhd.assemble_matrices(self.state_plus),
            -1: mhd.assemble_matrices(self.state_minus),
        }
        self.amps = {s: self.amplitude * rng.uniform(0.5, 1.0, size=6) for s in (+1, -1)}
        self.alph = {s: rng.uniform(0, 2 * np.pi, size=6) for s in (+1, -1)}
        self.beta = {s: rng.uniform(0, 2 * np.pi, size=6) for s in (+1, -1)}
        self.front_amp = 0.3 * self.amplitude
        self.front_alpha = rng.uniform(0, 2 * np.pi)
        self.front_beta = rng.uniform(0, 2 * np.pi)

    def _x2_table(self, side, x2, d2_order=0):
        """(6, N2) x2 factors w2^k cos(w2 x2 + a + k pi/2) of one side."""
        w2 = self.omega2
        return w2 ** d2_order * np.cos(
            w2 * x2[None, :] + self.alph[side][:, None] + 0.5 * np.pi * d2_order
        )

    def _t_vector(self, side, t, dt_order=0):
        """(6,) time factors wt^k cos(wt t + b + k pi/2) of one side."""
        wt = self.omega_t
        return wt ** dt_order * np.cos(wt * t + self.beta[side] + 0.5 * np.pi * dt_order)

    def exact(self, side, t, grid: Grid, dt_order=0, d1_order=0, d2_order=0):
        """The exact field (6, N1, N2) or one of its derivatives: the outer
        product of an x1 line, the x2 table and the time vector."""
        fx1 = (-2.0) ** d1_order * np.exp(-2.0 * grid.x1)
        return (
            self.amps[side][:, None, None] * fx1[None, :, None]
            * self._x2_table(side, grid.x2, d2_order)[:, None, :]
            * self._t_vector(side, t, dt_order)[:, None, None]
        )

    def front(self, t, x2, dt_order=0, d2_order=0):
        w2, wt = self.omega2, self.omega_t
        f2 = w2 ** d2_order * np.cos(w2 * x2 + self.front_alpha + 0.5 * np.pi * d2_order)
        ft = wt ** dt_order * np.cos(wt * t + self.front_beta + 0.5 * np.pi * dt_order)
        return self.front_amp * f2 * ft

    def sources(self, grid: Grid) -> Sources:
        """f = A0 dtU + (+-A1 - eps I) d1U + A2 d2U of the exact field, and
        the interface data g of its traces, on the constant background.

        The x1 line and the x2 tables are built here, once per grid; since
        d1 e^(-2 x1) = -2 e^(-2 x1), each side's f is the x1 line times a
        (6, N2) x2 line, and g reads the x1 = 0 trace (x1 factor 1)."""
        fx1 = np.exp(-2.0 * grid.x1)[None, :, None]
        x2 = grid.x2
        v2h = self.state_plus.v2
        # per side, the amplitudes times the x2 table and its x2-derivative
        c2 = {s: self.amps[s][:, None] * self._x2_table(s, x2) for s in (+1, -1)}
        d2c2 = {s: self.amps[s][:, None] * self._x2_table(s, x2, d2_order=1) for s in (+1, -1)}
        B = {s: s * self.tri[s].A1 - self.epsilon * np.eye(6) for s in (+1, -1)}

        def f(t):
            out = []
            for side in (+1, -1):
                tri = self.tri[side]
                ft = self._t_vector(side, t)[:, None]
                line = (
                    tri.A0 @ (c2[side] * self._t_vector(side, t, dt_order=1)[:, None])
                    + B[side] @ (-2.0 * c2[side] * ft)
                    + tri.A2 @ (d2c2[side] * ft)
                )
                out.append(fx1 * line[:, None, :])
            return tuple(out)

        def g(t):
            trp = c2[+1] * self._t_vector(+1, t)[:, None]
            trm = c2[-1] * self._t_vector(-1, t)[:, None]
            rows = np.zeros((5, grid.N2))
            rows[:4] = trp[[0, 1, 2, 4]] - trm[[0, 1, 2, 4]]   # the jumps of p, v1, v2, H2
            rows[4] = self.front(t, x2, dt_order=1) + v2h * self.front(t, x2, d2_order=1) - trp[1]
            return rows

        return Sources(f=f, g=g)

    def initial(self, grid: Grid) -> Snapshot:
        snap = Snapshot.zeros(grid)
        snap.phi[:] = self.front(0.0, grid.x2)
        # companion fields start from the discrete divergence of the initial
        # data (flat background front: h_dot = (H1, H2), d1Phi = +-1)
        for side, Y in zip((+1, -1), snap.sides):
            Y[:6] = self.exact(side, 0.0, grid)
            div_h = (
                d1_field(Y[3][None], grid.h1)[0]
                + side * d2_field(Y[4][None], grid.h2)[0]
            )
            Y[6] = div_h / side  # a = f7 / d1Phi with d1Phi = side
        return snap

    def run_error(self, coeffs: solver.Coefficients):
        """(relative space-time L2 error, max divergence defect) of a run on
        the operator coeffs, measured on the levels sampled every
        n_steps // 8 steps."""
        grid = coeffs.grid
        every = max(grid.n_steps // 8, 1)
        err = norm = div_defect = 0.0
        for n, s, _ in solver.run(coeffs, self.epsilon, sources=self.sources(grid),
                                  initial=self.initial(grid)):
            if not solver.sampled(n, every, grid):
                continue
            for side in (+1, -1):
                E = self.exact(side, s.t, grid)
                err += solver._weighted_l2(s.U.side(side) - E, grid) ** 2
                norm += solver._weighted_l2(E, grid) ** 2
            div_defect = float(np.max([div_defect, *solver.divergence_monitor(s, coeffs)]))
        return float(np.sqrt(err / norm)), div_defect


def mms_problem_from_config(cfg: ScenarioConfig) -> ManufacturedProblem:
    pair = contact_pair_from_config(cfg)
    return ManufacturedProblem(
        state_plus=pair.plus, state_minus=pair.minus,
        epsilon=cfg["run.epsilon"], omega2=cfg["mms.omega2"],
        omega_t=cfg["mms.omega_t"], amplitude=cfg["mms.amplitude"],
        seed=cfg["run.seed"],
    )


def _refined_coefficients(cfg: ScenarioConfig, N: int) -> solver.Coefficients:
    """The operator of cfg's constant background on its N x N run grid."""
    sub = dict(cfg.values)
    sub["grid.N1"], sub["grid.N2"] = N, N
    scfg = ScenarioConfig(kind=cfg.kind, values=sub)
    _, basic = grid_from_config(scfg, constant_state_from_config, epsilon=cfg["run.epsilon"])
    return solver.assemble_coefficients(basic)


def _fit_order(hs, errs) -> float:
    hs = np.log(np.asarray(hs, dtype=float))
    errs = np.log(np.asarray(errs, dtype=float))
    return float(np.polyfit(hs, errs, 1)[0])


# --- scenario runners -------------------------------------------------------


_STATE_BUILDERS = {   # validate-state's state.kind -> its background builder
    "constant": constant_state_from_config,
    "rt": rt_state_from_config,
    "expressions": expression_state_from_config,
}


def run_validate_state(cfg: ScenarioConfig) -> ScenarioResult:
    grid = Grid(cfg["grid.N1"], cfg["grid.N2"], cfg["grid.X1"], cfg["grid.X2"])
    try:
        basic = _STATE_BUILDERS[cfg["state.kind"]](cfg, grid)
    except (ValueError, ConfigError) as exc:
        return ScenarioResult(exit_code=2, report=[f"state construction failed: {exc}"])
    report = validate_basic_state(basic, tol=cfg["tolerance.validate"])
    return _verdict(report.all_passed, report.lines(), data={"report": report})


SPECTRUM_CSV_HEADER = "eta,xi,omega2,re_delta,im_delta,abs_delta_normalized,conditioning"


def run_spectrum(cfg: ScenarioConfig) -> ScenarioResult:
    pair = contact_pair_from_config(cfg)
    w2 = cfg["spectral.omega2"]
    etas = np.linspace(cfg["spectral.eta_min"], cfg["spectral.eta_max"], cfg["spectral.n_eta"])
    xis = np.linspace(cfg["spectral.xi_min"], cfg["spectral.xi_max"], cfg["spectral.n_xi"])
    lines = [SPECTRUM_CSV_HEADER]
    min_abs = np.inf
    values = np.zeros((len(etas), len(xis)))
    for i, eta in enumerate(etas):
        for j, xi in enumerate(xis):
            pt = spectral.LaplaceFourierPoint(complex(eta, xi), w2)
            try:
                mr = spectral.lopatinski_determinant(pt, pair)
                d = mr.lopatinski_value
                cond = mr.conditioning
            except spectral.DegeneratePointError:
                d, cond = complex(np.nan, np.nan), np.nan
            a = abs(d)
            values[i, j] = a
            min_abs = min(min_abs, a)
            lines.append(
                f"{eta:.8e},{xi:.8e},{w2:.8e},{d.real:.8e},{d.imag:.8e},{a:.8e},{cond:.8e}"
            )
    neutral = []
    for eta in (0.05, 0.025, 0.0125):
        pt = spectral.LaplaceFourierPoint(complex(eta, -w2 * pair.plus.v2), w2)
        neutral.append(abs(spectral.lopatinski_determinant(pt, pair).lopatinski_value))
    ok = bool(np.all(np.isfinite(values)) and min_abs > 0.0
              and neutral[0] > neutral[1] > neutral[2])
    report = [
        f"scan {len(etas)}x{len(xis)} at omega2={w2}: min |Delta| = {min_abs:.6e}",
        "neutral-family |Delta| at eta=0.05,0.025,0.0125: "
        + ", ".join(f"{v:.6e}" for v in neutral),
        f"monotone decay toward eta=0: {'yes' if neutral[0] > neutral[1] > neutral[2] else 'no'}",
    ]
    return _verdict(ok, report, csv={"spectrum.csv": lines},
                    data={"min_abs": float(min_abs), "neutral": neutral})


def run_energy_test(cfg: ScenarioConfig) -> ScenarioResult:
    eps = cfg["run.epsilon"]
    grid, basic = grid_from_config(cfg, constant_state_from_config, epsilon=eps)
    init = solver.divergence_free_pulse(
        grid, center=cfg["pulse.center"], width=cfg["pulse.width"],
        k2=cfg["pulse.k2"], amplitude=cfg["pulse.amplitude"], seed=cfg["run.seed"],
    )
    coeffs = solver.assemble_coefficients(basic)
    energies, rows = [], [solver.EnergyReport.CSV_HEADER]
    for _, _, energy, report in solver.monitored(solver.run(coeffs, eps, initial=init),
                                                 coeffs, cfg["run.report_every"]):
        energies.append(energy)
        if report is not None:
            rows.append(report.csv_row())
    energies = np.array(energies)
    E0 = energies[0]
    drift = float(np.max(np.abs(energies - E0)) / E0)
    increase = float(max(np.max(energies) - E0, 0.0) / E0)
    tol = cfg["tolerance.drift"]
    ok = drift <= tol and increase <= tol
    csv = {"energy.csv": rows}
    elines = ["step,E_symmetrizer"] + [f"{i},{e:.16e}" for i, e in enumerate(energies)]
    csv["symmetrizer_energy.csv"] = elines
    report = [
        f"grid {grid.N1}x{grid.N2}, eps={eps}, T={grid.T_final}, steps={grid.n_steps}",
        f"relative drift of the symmetrizer energy: {drift:.3e} (tolerance {tol})",
        f"relative increase: {increase:.3e}",
    ]
    return _verdict(ok, report, csv=csv,
                    data={"drift": drift, "increase": increase, "energies": energies})


def neutral_mode_discrete_error(coeffs: solver.Coefficients, cfg: ScenarioConfig) -> float:
    """Error of the advected entropy/front mode after a fixed horizon, on
    the run grid of coeffs."""
    grid = coeffs.grid
    k = cfg["neutral.omega2"]
    v2 = cfg["state.v2"]
    snap = Snapshot.zeros(grid)
    snap.U.plus[5] = np.cos(k * grid.x2)[None, :]
    snap.U.minus[5] = np.cos(k * grid.x2)[None, :]
    snap.phi[:] = np.cos(k * grid.x2)
    for _, final, _ in solver.run(coeffs, cfg["run.epsilon"], initial=snap):
        pass   # only the last level is read
    T = grid.T_final
    exact_line = np.cos(k * (grid.x2 - v2 * T))
    errS = solver._weighted_l2(final.U.plus[5] - exact_line[None, :], grid)
    err_other = max(
        float(np.max(np.abs(final.U.plus[:5]))),
        float(np.max(np.abs(final.U.minus[:5]))),
    )
    errphi = float(np.max(np.abs(final.phi - exact_line)))
    return max(errS, errphi, err_other)


def run_neutral_mode(cfg: ScenarioConfig) -> ScenarioResult:
    # analytic residual via the spectral module
    pair = contact_pair_from_config(cfg)
    analytic = spectral.neutral_mode_residual(float(cfg["neutral.omega2"]), pair)
    refinements = cfg["neutral.refinements"]
    operators = [_refined_coefficients(cfg, N) for N in refinements]
    errs = [neutral_mode_discrete_error(coeffs, cfg) for coeffs in operators]
    hs = [coeffs.grid.h1 for coeffs in operators]
    slope = _fit_order(hs, errs)
    ok = analytic == 0.0 and slope >= 1.9
    lines = ["N,h,error"] + [
        f"{N},{h:.8e},{e:.8e}" for N, h, e in zip(refinements, hs, errs)
    ]
    report = [
        f"analytic neutral-mode residual: {analytic:.3e}",
        "discrete errors: " + ", ".join(f"{e:.3e}" for e in errs),
        f"refinement slope: {slope:.3f} (need >= 1.9)",
    ]
    return _verdict(ok, report, csv={"neutral_mode.csv": lines},
                    data={"analytic": analytic, "slope": slope, "errors": errs})


def run_rt(cfg: ScenarioConfig) -> ScenarioResult:
    eps = cfg["run.epsilon"]
    grid, basic = grid_from_config(cfg, rt_state_from_config, epsilon=eps)
    sources = make_forcing(grid, cfg["run.seed"], cfg["forcing.amplitude"],
                           cfg["forcing.t_ramp"], cfg["forcing.k2"])
    coeffs = solver.assemble_coefficients(basic)
    rows, J_max = [solver.EnergyReport.CSV_HEADER], 0.0
    try:
        for _, final, _, r in solver.monitored(solver.run(coeffs, eps, sources=sources),
                                               coeffs, cfg["run.report_every"]):
            if r is not None:
                rows.append(r.csv_row())
                J_max = float(np.maximum(J_max, r.J))  # keeps a NaN J
    except solver.BlowUpError as exc:
        return ScenarioResult(exit_code=3, report=[f"blow-up at t = {exc.t:.6g}"],
                              csv={"timeseries.csv": rows})
    # normalization: discrete H1 norm of the interior source plus the
    # interior source induced by lifting the interface data
    times = np.linspace(0.0, grid.T_final, min(grid.n_steps + 1, 33))
    f_norm = source_h1_norm(sources.f, grid, times)
    lift = solver.BoundaryLift(coeffs, sources.g, epsilon=eps)
    lift.front_lift(times)
    F_norm = source_h1_norm(lift.interior_source, grid, times)
    total = f_norm + F_norm
    ratio = J_max / total ** 2 if total > 0 else float("inf")
    bad = [name for name, v in (("sup_t J", J_max), ("normalized ratio", ratio))
           if not np.isfinite(v)]
    report = [
        f"grid {grid.N1}x{grid.N2}, eps={eps}, rt_jump={cfg['state.rt_jump']}",
        f"sup_t J = {J_max:.6e}",
        f"source H1 norms: f {f_norm:.6e}, lifted-g {F_norm:.6e}",
        f"normalized ratio sup J / ||F||^2 = {ratio:.6e}",
        *(f"not finite: {name}" for name in bad),
    ]
    return _verdict(not bad, report, csv={"timeseries.csv": rows},
                    snapshots=[("final", final, grid)], data={"J_max": J_max, "ratio": ratio})


def run_eps_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    eps_list = cfg["sweep.eps_list"]
    grid, basic = grid_from_config(cfg, rt_state_from_config, epsilon=max(eps_list))
    sources = make_forcing(grid, cfg["run.seed"], cfg["forcing.amplitude"],
                           cfg["forcing.t_ramp"], cfg["forcing.k2"])
    result = solver.eps_sweep(solver.assemble_coefficients(basic), eps_list, sources=sources)
    ok = (
        not result.truncated
        and len(result.J_max) == len(eps_list)
        and bool(np.all(np.isfinite(result.J_max)))
        and all(r <= 0.9 for r in result.ratios)
    )
    report = [
        "eps sweep over " + ", ".join(f"{e:g}" for e in eps_list),
        "successive differences: " + ", ".join(f"{d:.6e}" for d in result.diffs),
        "ratios: " + ", ".join(f"{r:.3f}" for r in result.ratios),
        "J_max per eps: " + ", ".join(f"{j:.6e}" for j in result.J_max),
        "trace bound ||eps f7+|_0||: " + ", ".join(f"{t:.6e}" for t in result.trace_bound),
        f"truncated by blow-up: {'yes' if result.truncated else 'no'}",
    ]
    return _verdict(ok, report, 3 if result.truncated else 1,
                    csv={"eps_sweep.csv": result.table_lines()}, data={"result": result})


def run_adjoint_check(cfg: ScenarioConfig) -> ScenarioResult:
    grid = Grid(cfg["grid.N1"], cfg["grid.N2"], cfg["grid.X1"], cfg["grid.X2"])
    basic = constant_state_from_config(cfg, grid)
    defect = solver.discrete_adjoint_check(
        basic, cfg["run.epsilon"], trials=cfg["adjoint.trials"], seed=cfg["run.seed"],
    )
    tol = cfg["tolerance.adjoint"]
    ok = defect <= tol
    report = [
        f"max relative duality defect over {cfg['adjoint.trials']} trials: {defect:.3e}",
        f"tolerance: {tol:g}",
    ]
    return _verdict(ok, report, data={"defect": defect})


def run_mms(cfg: ScenarioConfig) -> ScenarioResult:
    problem = mms_problem_from_config(cfg)
    refinements = cfg["mms.refinements"]
    errs = []
    divs = []
    hs = []
    for N in refinements:
        coeffs = _refined_coefficients(cfg, N)
        err, div = problem.run_error(coeffs)
        errs.append(err)
        divs.append(div)
        hs.append(coeffs.grid.h1)
    order = _fit_order(hs, errs)
    defects = np.asarray(divs)
    if not np.all(np.isfinite(defects)):
        div_slope, unfit = float("nan"), "a defect is not finite"
    elif np.all(defects > 0.0):
        div_slope, unfit = _fit_order(hs, divs), ""
    elif np.all(defects == 0.0):
        div_slope, unfit = float("inf"), "every defect is exactly zero"
    else:
        div_slope, unfit = float("nan"), "zero and nonzero defects have no slope"
    ok = 1.8 <= order <= 2.2 and div_slope >= 0.9
    lines = ["N,h,rel_error,div_defect"] + [
        f"{N},{h:.8e},{e:.8e},{d:.8e}"
        for N, h, e, d in zip(refinements, hs, errs, divs)
    ]
    report = [
        "manufactured-solution errors: " + ", ".join(f"{e:.4e}" for e in errs),
        f"space-time L2 order: {order:.3f} (window [1.8, 2.2])",
        "divergence defects: " + ", ".join(f"{d:.4e}" for d in divs),
        f"divergence defect slope: {div_slope:.3f} (need >= 0.9)"
        + (f", not fitted: {unfit}" if unfit else ""),
    ]
    return _verdict(ok, report, csv={"mms.csv": lines},
                    data={"order": order, "div_slope": div_slope,
                          "errors": errs, "div_defects": divs})


RUNNERS = {
    "validate-state": run_validate_state,
    "spectrum": run_spectrum,
    "energy-test": run_energy_test,
    "neutral-mode": run_neutral_mode,
    "rt-run": run_rt,
    "eps-sweep": run_eps_sweep,
    "adjoint-check": run_adjoint_check,
    "mms": run_mms,
}
