import weakref

import numpy as np
import pytest

from contact_stab import solver
from contact_stab.fields import TwoSidedField
from contact_stab.grid import Grid, d1_field, d2_field, d2_line
from contact_stab.linearization import (
    basic_state_from_arrays,
    bc_residual,
    constant_basic_state,
)
from contact_stab.scenarios import rt_basic_state
from contact_stab.solver import (
    BlowUpError,
    BoundaryLift,
    Snapshot,
    Sources,
    StageWork,
    assemble_coefficients,
    build_grid,
    discrete_adjoint_check,
    divergence_free_pulse,
    divergence_monitor,
    energy_report,
    eps_sweep,
    monitored,
    run,
    source_h1_norm,
    speed_bound,
    step,
    symmetrizer_energy,
)

from test_linearization import curved_background


def small_basic(N1=20, N2=16, v2=0.2, T=0.2, eps=1e-2):
    grid = build_grid(constant_basic_state(Grid(N1, N2, 4.0, 2.0 * np.pi), v2=v2), T,
                      epsilon=eps)
    return constant_basic_state(grid, v2=v2, H1=1.0, H2=0.3,
                                S_plus=0.2, S_minus=-0.1), grid


def work_for(basic, eps):
    return StageWork(assemble_coefficients(basic), eps)


class TestGridBuild:
    def test_cfl_satisfied_and_steps_divide_horizon(self):
        basic, grid = small_basic()
        s = speed_bound(basic, 1e-2)
        assert grid.dt * s <= 0.4 * min(grid.h1, grid.h2) + 1e-14
        assert grid.n_steps * grid.dt == pytest.approx(grid.T_final)

    def test_epsilon_enters_the_speed_bound(self):
        basic, _ = small_basic()
        assert speed_bound(basic, 0.5) >= speed_bound(basic, 0.0)

    def test_impossible_cfl_rejected(self):
        basic = constant_basic_state(Grid(8, 8, 1.0, 1.0))
        with pytest.raises(ValueError):
            solver.build_grid(basic, 1.0, cfl_max=-0.4)


def _layouts(U):
    """U, and copies of it that are not C-contiguous."""
    return U, U[..., ::-1], np.asfortranarray(U)


class TestPeriodicStencil:
    @pytest.mark.parametrize("shape", [(6, 9, 17), (1, 9, 17), (6, 5, 4), (1, 5, 4)])
    def test_d2_field_is_bit_identical_to_the_roll_formula(self, shape):
        h2 = 0.37
        for U in _layouts(np.random.default_rng(3).standard_normal(shape)):
            roll = (np.roll(U, -1, axis=-1) - np.roll(U, 1, axis=-1)) / (2.0 * h2)
            assert np.array_equal(d2_field(U, h2), roll)

    @pytest.mark.parametrize("stencil", [d1_field, d2_field])
    @pytest.mark.parametrize("shape", [(6, 9, 17), (1, 9, 17), (9, 17),
                                       (6, 4, 4), (1, 4, 4), (4, 4)])
    def test_out_gives_the_allocated_result(self, stencil, shape):
        U, *others = _layouts(np.random.default_rng(5).standard_normal(shape))
        out = np.full(shape, np.nan)
        assert stencil(U, 0.37, out=out) is out
        assert np.array_equal(out, stencil(U, 0.37))
        for V in others:
            assert np.array_equal(stencil(V, 0.37, out=np.full(shape, np.nan)),
                                  stencil(np.ascontiguousarray(V), 0.37))

    @pytest.mark.parametrize("stencil", [d1_field, d2_field])
    def test_out_sharing_memory_with_the_input_raises(self, stencil):
        U = np.random.default_rng(5).standard_normal((6, 9, 17))
        for out in (U, U[::-1], U[..., ::-1]):
            with pytest.raises(ValueError, match="share memory"):
                stencil(U, 0.37, out=out)

    @pytest.mark.parametrize("stencil", [d1_field, d2_field])
    def test_non_contiguous_out_raises(self, stencil):
        U = np.random.default_rng(5).standard_normal((6, 9, 17))
        for out in _layouts(np.empty_like(U))[1:]:
            with pytest.raises(ValueError, match="C-contiguous"):
                stencil(U, 0.37, out=out)


class TestSummationByParts:
    def test_first_derivative_matrix_is_exactly_sbp(self):
        g = Grid(17, 8, 2.0, 1.0)
        N = g.N1
        D = np.zeros((N, N))
        for j in range(N):
            e = np.zeros((1, N, 1))
            e[0, j, 0] = 1.0
            D[:, j] = d1_field(e, g.h1)[0, :, 0]
        P = np.diag(g.p_weights1)
        Q = P @ D + D.T @ P
        B = np.zeros((N, N))
        B[0, 0], B[-1, -1] = -1.0, 1.0
        assert np.max(np.abs(Q - B)) <= 1e-14


class TestStep:
    def test_zero_data_stays_exactly_zero(self):
        basic, grid = small_basic()
        snap = Snapshot.zeros(grid)
        work = work_for(basic, 1e-2)
        for _ in range(5):
            snap = step(snap, work, Sources())
        assert np.all(snap.U.plus == 0.0)
        assert np.all(snap.U.minus == 0.0)
        assert np.all(snap.phi == 0.0)

    def test_scheme_is_linear_in_the_data(self):
        basic, grid = small_basic()
        a = divergence_free_pulse(grid, seed=1)
        b = divergence_free_pulse(grid, seed=2)
        combo = Snapshot((grid.N1, grid.N2), 2.0 * a.data - 0.5 * b.data)
        work = work_for(basic, 1e-2)
        sa = step(a, work, Sources())
        sb = step(b, work, Sources())
        sc = step(combo, work, Sources())
        want = 2.0 * sa.U.plus - 0.5 * sb.U.plus
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(sc.U.plus - want)) <= 1e-12 * scale

    def test_nan_triggers_blow_up_signal(self):
        basic, grid = small_basic()
        snap = Snapshot.zeros(grid)
        snap.U.plus[0, 3, 4] = np.nan
        with pytest.raises(BlowUpError):
            step(snap, work_for(basic, 1e-2), Sources())

    def test_run_reports_blow_up_with_partial_series(self):
        # at CFL 4 the scheme is unstable: the energy overflows after a few steps
        coarse = constant_basic_state(Grid(20, 16, 4.0, 2.0 * np.pi), v2=0.2)
        grid = build_grid(coarse, 4.0, epsilon=1e-2, cfl_max=4.0)
        basic = constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3, S_plus=0.2, S_minus=-0.1)
        snap = Snapshot.zeros(grid)
        snap.U.plus[0, 3, 4] = 1e150
        levels = []
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as info:
            for _, s, energy in run(assemble_coefficients(basic), 1e-2, initial=snap):
                levels.append((s, energy))
        assert levels
        assert all(np.all(np.isfinite(s.data)) and np.isfinite(e) for s, e in levels)
        assert all(s.t < info.value.t for s, _ in levels)


class TestSnapshotLayout:
    @staticmethod
    def _views(snap):
        return (snap.sides, snap.U.plus, snap.U.minus, snap.phi, snap.a_plus, snap.a_minus)

    @pytest.mark.parametrize("name", ["U", "phi", "a_plus", "a_minus", "sides"])
    def test_views_cannot_be_reassigned(self, name):
        _, grid = small_basic()
        snap = Snapshot.zeros(grid)
        with pytest.raises(AttributeError):
            setattr(snap, name, getattr(snap, name))

    @pytest.mark.parametrize("name", ["plus", "minus"])
    def test_sides_of_U_cannot_be_rebound(self, name):
        _, grid = small_basic()
        snap = Snapshot.zeros(grid)
        with pytest.raises(AttributeError):
            setattr(snap.U, name, np.ones_like(snap.U.plus))
        assert not snap.data.any()
        assert not snap.U.side(+1 if name == "plus" else -1).any()

    def test_views_are_the_rows_of_data(self):
        _, grid = small_basic()
        snap = divergence_free_pulse(grid, seed=5)
        snap.a_minus[:] = 2.0
        snap.phi[:] = 3.0
        n = 2 * 7 * grid.N1 * grid.N2
        assert np.array_equal(snap.data[:n].reshape(2, 7, grid.N1, grid.N2), snap.sides)
        assert np.array_equal(snap.sides[0, :6], snap.U.plus)
        assert np.array_equal(snap.sides[1, :6], snap.U.minus)
        assert np.all(snap.sides[1, 6] == 2.0) and np.all(snap.data[n:] == 3.0)

    def test_views_share_memory_with_data_and_not_with_copies(self):
        _, grid = small_basic()
        snap = divergence_free_pulse(grid, seed=5)
        snap.t = 0.25
        for view in self._views(snap):
            assert np.shares_memory(view, snap.data)
        for other in (snap.copy(), snap.empty_like()):
            assert other.t == 0.25
            for view in self._views(other):
                assert not np.shares_memory(view, snap.data)
        assert np.array_equal(snap.copy().data, snap.data)

    def test_data_of_the_wrong_size_raises(self):
        _, grid = small_basic()
        data = Snapshot.zeros(grid).data
        with pytest.raises(ValueError, match=r"shape \(20, 17\)"):
            Snapshot((grid.N1, grid.N2 + 1), data)


class TestEnergyReport:
    def test_zero_snapshot_all_zero(self):
        basic, grid = small_basic()
        rep = energy_report(Snapshot.zeros(grid), assemble_coefficients(basic))
        assert rep.I_plus == 0.0 and rep.I_minus == 0.0 and rep.J == 0.0
        assert rep.Q_boundary == 0.0

    def test_j_dominates_the_side_energies(self):
        basic, grid = small_basic()
        snap = divergence_free_pulse(grid, seed=4)
        snap.phi[:] = 0.1 * np.cos(grid.x2)
        rep = energy_report(snap, assemble_coefficients(basic))
        assert rep.J >= rep.I_plus + rep.I_minus

    def test_single_fourier_mode_matches_closed_form(self):
        basic, grid = small_basic(N1=30, N2=32)
        snap = Snapshot.zeros(grid)
        k = 3
        snap.U.plus[5] = np.sin(k * grid.x2)[None, :]
        rep = energy_report(snap, assemble_coefficients(basic))
        area = grid.X1 * grid.X2
        keff = np.sin(k * grid.h2) / grid.h2  # discrete derivative symbol
        want = 0.5 * area * (1.0 + keff ** 2)
        assert rep.I_plus == pytest.approx(want, rel=1e-12)

    def test_csv_row_shape(self):
        basic, grid = small_basic()
        rep = energy_report(Snapshot.zeros(grid), assemble_coefficients(basic))
        assert len(rep.csv_row().split(",")) == len(rep.CSV_HEADER.split(","))


class TestDivergence:
    def test_streamfunction_pulse_is_discretely_divergence_free(self):
        basic, grid = small_basic()
        snap = divergence_free_pulse(grid, seed=9)
        dp, dm = divergence_monitor(snap, assemble_coefficients(basic))
        assert dp <= 1e-11 and dm <= 1e-11

    def test_defect_tracks_injected_divergence(self):
        basic, grid = small_basic()
        snap = divergence_free_pulse(grid, seed=9)
        snap.U.plus[3] += 0.5 * np.exp(-(grid.x1[:, None] - 2.0) ** 2)
        dp, _ = divergence_monitor(snap, assemble_coefficients(basic))
        assert dp > 1e-3


def _direct_sq_norm(field, grid):
    """The squared weighted L2 norm summed directly: field ** 2 summed over
    the leading axes, then over the grid with the trapezoid x1 weights."""
    sq = field ** 2
    while sq.ndim > 2:
        sq = sq.sum(axis=0)
    return float(np.sum(sq * grid.p_weights1[:, None]) * grid.h2)


MONITOR_BACKGROUNDS = {
    "constant": lambda grid: constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3,
                                                  S_plus=0.2, S_minus=-0.1),
    "rt": rt_basic_state,
    "curved": curved_background,
}


class TestMonitorsAgainstDirectSums:
    """The row-sum monitors against their formulas summed directly, with A0
    broadcast to full shape in a three-operand contraction, on a random
    state (and a random previous level) over each background."""

    @pytest.fixture(params=sorted(MONITOR_BACKGROUNDS))
    def case(self, request, rng):
        grid = Grid(20, 16, 4.0, 2.0 * np.pi)
        coeffs = assemble_coefficients(MONITOR_BACKGROUNDS[request.param](grid))
        n = Snapshot.zeros(grid).data.size
        snap = Snapshot((grid.N1, grid.N2), rng.standard_normal(n), t=0.3)
        prev = Snapshot((grid.N1, grid.N2), snap.data + 0.1 * rng.standard_normal(n), t=0.25)
        return request.param, coeffs, snap, prev

    def test_a0_is_uniform_in_x2_but_on_the_curved_background(self, case):
        name, coeffs, _, _ = case
        assert (coeffs.plus.A0_diag.shape[-1] == 1) == (name != "curved")

    def test_symmetrizer_energy(self, case):
        _, coeffs, snap, _ = case
        g = coeffs.grid
        want = 0.0
        for side in (+1, -1):
            U = snap.U.side(side)
            A0 = np.broadcast_to(coeffs.side(side).A0_diag, U.shape)
            dens = np.einsum("ijk,ijk,ijk->jk", A0, U, U)
            want += float(np.sum(dens * g.p_weights1[:, None]) * g.h2)
        assert symmetrizer_energy(snap, coeffs) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("with_prev", [False, True])
    def test_energy_report(self, case, with_prev):
        _, coeffs, snap, prev = case
        g = coeffs.grid
        I, defect = {}, {}
        for side in (+1, -1):
            sc, U = coeffs.side(side), snap.U.side(side)
            I[side] = _direct_sq_norm(U, g) + _direct_sq_norm(d2_field(U, g.h2), g)
            if with_prev:
                I[side] += _direct_sq_norm((U - prev.U.side(side)) / (snap.t - prev.t), g)
            hN = U[3] - U[4] * sc.d2psi
            div_h = d1_field(hN[None], g.h1)[0] + d2_field((U[4] * sc.d1phi)[None], g.h2)[0]
            a = snap.a_plus if side == +1 else snap.a_minus
            defect[side] = np.sqrt(_direct_sq_norm(div_h - a * sc.d1phi, g))
        rep = energy_report(snap, coeffs, prev if with_prev else None)
        phi_sq = (np.sum(snap.phi ** 2) + np.sum(d2_line(snap.phi, g.h2, order=2) ** 2)) * g.h2
        for got, want in ((rep.I_plus, I[+1]), (rep.I_minus, I[-1]),
                          (rep.J, I[+1] + I[-1] + phi_sq),
                          (rep.div_defect_plus, defect[+1]), (rep.div_defect_minus, defect[-1])):
            assert got == pytest.approx(want, rel=1e-13)
        assert divergence_monitor(snap, coeffs) == (rep.div_defect_plus, rep.div_defect_minus)


class TestMonitoredLevels:
    def test_reports_the_sampled_levels_against_the_step_before(self):
        basic, grid = small_basic()
        coeffs = assemble_coefficients(basic)
        every = 2
        assert grid.n_steps > 2 * every and grid.n_steps % every
        init = divergence_free_pulse(grid, seed=4)
        levels = list(monitored(run(coeffs, 1e-2, initial=init), coeffs, every))
        bare = list(run(coeffs, 1e-2, initial=init))
        assert [n for n, *_ in levels] == list(range(grid.n_steps + 1))
        for (n, snap, energy, report), (_, bare_snap, bare_energy) in zip(levels, bare):
            assert energy == bare_energy and np.array_equal(snap.data, bare_snap.data)
            if not solver.sampled(n, every, grid):
                assert report is None
                continue
            prev = levels[n - 1][1] if n else None
            assert report == energy_report(snap, coeffs, prev)
            if n:
                assert report != energy_report(snap, coeffs, None)


def sloped_background(grid):
    """Background with x1-slopes in p and H2 that differ between the sides
    and a curved front, so jump_d1_p, jump_d1_Htau and tau are all nonzero."""
    bump = grid.x1[:, None] * np.exp(-grid.x1[:, None] ** 2)
    shape = (6, grid.N1, grid.N2)
    up, um = np.zeros(shape), np.zeros(shape)
    for arr, a_p, a_h in ((up, 0.4, 0.6), (um, -0.1, -0.3)):
        arr[0] = 1.0 + a_p * bump
        arr[3] = 1.0
        arr[4] = 1.0 + a_h * bump
        arr[5] = 0.1
    return basic_state_from_arrays(grid, up, um, phi_hat=0.3 * np.cos(grid.x2))


class TestInterfaceClosure:
    def test_projection_zeroes_the_jump_rows_of_bc_residual(self, rng):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = sloped_background(grid)
        coeffs = assemble_coefficients(basic)
        for data in (coeffs.jump_d1_p, coeffs.jump_d1_Htau, coeffs.tau1):
            assert np.max(np.abs(data)) > 0.1
        shape = (6, grid.N1, grid.N2)
        U = TwoSidedField(rng.standard_normal(shape), rng.standard_normal(shape))
        phi = rng.standard_normal(grid.N2)
        g_rows = rng.standard_normal((5, grid.N2))
        solver.apply_interface_conditions(U, phi, coeffs, g_rows)
        res = bc_residual(U.plus[:, 0, :], U.minus[:, 0, :], phi, basic,
                          g_rows=g_rows)
        assert np.max(np.abs(res[:4])) <= 1e-12

    def test_front_rhs_zeroes_the_front_row_of_bc_residual(self, rng):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = normal_slope_background(grid)
        coeffs = assemble_coefficients(basic)
        assert np.all(basic.u.plus[1, 0, :] == 0.0)
        assert np.min(np.abs(coeffs.d1_vN_plus)) > 0.5
        assert np.all(coeffs.v2_hat_wall == 0.0)
        tp = rng.standard_normal((6, grid.N2))
        tm = rng.standard_normal((6, grid.N2))
        phi = rng.standard_normal(grid.N2)
        g_rows = rng.standard_normal((5, grid.N2))
        dt_phi = solver._front_rhs(phi, tp, coeffs, g_rows, grid)
        res = bc_residual(tp, tm, phi, basic, dt_phi=dt_phi, g_rows=g_rows)
        assert np.max(np.abs(res[4])) <= 1e-12


def normal_slope_background(grid):
    """Background whose normal velocity vanishes on the interface but has
    an x1-slope there (0.5 on the + side, -0.2 on the - side), with v2 = 0
    and a flat front, so the front equation's phi * d1 v_N term is the only
    background term left in it."""
    bump = grid.x1[:, None] * np.exp(-grid.x1[:, None] ** 2)
    shape = (6, grid.N1, grid.N2)
    up, um = np.zeros(shape), np.zeros(shape)
    for arr, a in ((up, 0.5), (um, -0.2)):
        arr[0] = 1.0
        arr[1] = a * bump
        arr[3] = 1.0
        arr[4] = 0.3
        arr[5] = 0.1
    return basic_state_from_arrays(grid, up, um)


class TestFrontAdvection:
    @pytest.mark.parametrize("speed", [0.7, -0.7])
    def test_upwind_transport_is_dissipative(self, speed):
        """-a D_upwind has the symmetric part -|a| delta^4 / (12 h2) <= 0, so
        the front's x2 transport removes energy for either sign of a."""
        phi = np.random.default_rng(9).standard_normal(16)
        a = np.full(16, speed)
        rate = np.sum(phi * -a * solver._upwind_d2(phi, a, 0.4))
        assert rate < -0.1 * np.sum(phi ** 2)

    @pytest.mark.parametrize("n", [4, 5, 33, 200])
    def test_padded_stencil_equals_the_rolled_one(self, n):
        """The periodic padding reproduces the np.roll form bit for bit."""
        rng = np.random.default_rng(n)
        phi, a, h2 = rng.standard_normal(n), rng.standard_normal(n), 2.0 * np.pi / n
        a[:4] = 0.0, 0.7, -0.0, -0.7  # both branches, and a = +-0 takes dp
        dp = (2.0 * np.roll(phi, -1) + 3.0 * phi - 6.0 * np.roll(phi, 1)
              + np.roll(phi, 2)) / (6.0 * h2)
        dm = (-np.roll(phi, -2) + 6.0 * np.roll(phi, -1) - 3.0 * phi
              - 2.0 * np.roll(phi, 1)) / (6.0 * h2)
        assert np.array_equal(solver._upwind_d2(phi, a, h2), np.where(a >= 0.0, dp, dm))


class TestEnergyAtInterface:
    def test_pulse_through_the_interface_keeps_the_boundary_form_zero(self):
        """energy-test with the pulse started next to x1 = 0: the closure
        keeps the interface quadratic form at rounding level and the energy
        drift small while the pulse crosses the interface."""
        from contact_stab.config import parse_config
        from contact_stab.scenarios import RUNNERS

        cfg = parse_config("configs/energy_test.cfg", "energy-test", overrides=[
            "grid.N1=32", "grid.N2=32", "run.T_final=2", "pulse.center=0.8"])
        res = RUNNERS["energy-test"](cfg)
        assert res.data["drift"] <= 0.05
        lines = res.csv["energy.csv"]
        col = lines[0].split(",").index("Q_boundary")
        q = [abs(float(line.split(",")[col])) for line in lines[1:]]
        assert max(q) <= 1e-12


class TestEnergyDecay:
    def test_symmetrizer_energy_nonincreasing_homogeneous(self):
        basic, grid = small_basic(N1=40, N2=40, T=0.3, eps=1e-3)
        coeffs = assemble_coefficients(basic)
        snap = divergence_free_pulse(grid, seed=3)
        solver.apply_interface_conditions(snap.U, snap.phi, coeffs, None)
        work = StageWork(coeffs, 1e-3)
        E = [symmetrizer_energy(snap, coeffs)]
        for _ in range(grid.n_steps):
            snap = step(snap, work, Sources())
            E.append(symmetrizer_energy(snap, coeffs))
        E = np.array(E)
        assert np.max(E) <= E[0] * (1.0 + 1e-6)


class TestAdjoint:
    def test_defect_at_machine_precision(self):
        basic, _ = small_basic(N1=16, N2=12)
        for eps in (0.0, 1e-2, 0.1):
            assert discrete_adjoint_check(basic, eps, trials=4, seed=2) <= 1e-12


class TestLift:
    def test_zero_data_zero_lift(self):
        basic, grid = small_basic()
        lift = BoundaryLift(assemble_coefficients(basic), lambda t: np.zeros((5, grid.N2)))
        lift.front_lift(np.array([0.3]))
        assert np.all(lift.u_tilde(0.3) == 0.0)
        (source,) = lift.interior_source(0.3)
        assert np.all(source == 0.0)

    def test_source_allocates_no_rk4_snapshots(self):
        basic, grid = small_basic()
        lift = BoundaryLift(assemble_coefficients(basic), lambda t: np.ones((5, grid.N2)))
        lift.front_lift(np.array([0.1]))
        lift.interior_source(0.1)
        snapshots = [v for v in vars(lift._work).values() if isinstance(v, (Snapshot, tuple))]
        assert snapshots == []

    def test_source_is_a_new_plus_array_on_each_call(self):
        # source_h1_norm holds three levels at once, so no level may be overwritten;
        # the - side is zero and is not returned
        basic, grid = small_basic()
        lift = BoundaryLift(assemble_coefficients(basic),
                            lambda t: np.full((5, grid.N2), 1.0 + t))
        lift.front_lift(np.array([0.1, 0.2]))
        (p1,), (p2,) = lift.interior_source(0.1), lift.interior_source(0.2)
        assert p1.shape == (6, grid.N1, grid.N2)
        assert not np.shares_memory(p1, p2) and not np.array_equal(p1, p2)

    def test_a_time_without_a_front_lift_level_raises(self):
        basic, grid = small_basic(v2=0.0, T=0.2)
        lift = BoundaryLift(assemble_coefficients(basic), lambda t: np.ones((5, grid.N2)))
        times = np.linspace(0.0, grid.T_final, 5)
        lift.front_lift(times)
        lift.interior_source(float(times[2]))
        for t in (0.5 * float(times[1]), float(times[1]) + 1e-13, grid.T_final + 1.0):
            with pytest.raises(solver.MissingLiftLevelError):
                lift.u_tilde(t)
            with pytest.raises(solver.MissingLiftLevelError):
                lift.interior_source(t)

    def test_plus_side_carries_the_jump(self):
        basic, grid = small_basic(v2=0.0)

        def g(t):
            rows = np.zeros((5, grid.N2))
            rows[1] = np.cos(grid.x2)  # only the v1 jump
            return rows

        lift = BoundaryLift(assemble_coefficients(basic), g)
        lift.front_lift(np.array([0.0]))
        plus = lift.u_tilde(0.0)
        assert plus.shape == (6, grid.N1, grid.N2)
        assert np.allclose(plus[1, 0, :], np.cos(grid.x2))
        # decay profile in x1
        assert np.all(np.abs(plus[1, -1, :]) < np.abs(plus[1, 0, :]))

    @staticmethod
    def _lift_residual(basic, times):
        """bc_residual of the lifted (U_tilde, phi_tilde) at the middle level."""
        grid = basic.grid

        def g(t):
            rows = np.zeros((5, grid.N2))
            rows[0] = 0.3 * np.sin(grid.x2) * np.sin(t)
            rows[1] = 0.2 * np.cos(grid.x2) * np.sin(t)
            rows[3] = 0.1 * np.cos(2 * grid.x2) * np.sin(t)
            return rows

        lift = BoundaryLift(assemble_coefficients(basic), g)
        phis = lift.front_lift(times)
        n = len(times) // 2
        t = times[n]
        trace_plus = lift.u_tilde(t)[:, 0, :]
        dt_phi = (phis[n + 1] - phis[n - 1]) / (2 * (times[1] - times[0]))
        # the lift's - side is zero
        return bc_residual(trace_plus, np.zeros_like(trace_plus),
                           phis[n], basic, dt_phi=dt_phi,
                           g_rows=g(t))

    def test_lifted_traces_satisfy_the_interface_rows(self):
        basic, grid = small_basic(v2=0.0, T=0.2)
        res = self._lift_residual(basic, np.linspace(0.0, grid.T_final, grid.n_steps + 1))
        # jump rows are satisfied exactly; the front row to ODE accuracy
        assert np.max(np.abs(res[:4])) <= 1e-12
        assert np.max(np.abs(res[4])) <= 5e-3

    def test_lifted_traces_satisfy_the_interface_rows_on_rt_background(self):
        # jump_d1_p != 0 here, so the front feedback enters the jump rows
        basic = rt_basic_state(Grid(20, 16, 4.0, 2.0 * np.pi), rt_jump=0.5)
        assert np.max(np.abs(basic.jump_d1_p())) > 0.5
        res = self._lift_residual(basic, np.linspace(0.0, 0.2, 21))
        assert np.max(np.abs(res[:4])) <= 1e-12
        assert np.max(np.abs(res[4])) <= 5e-3

    def test_induced_source_norm_finite_and_scales(self):
        basic, grid = small_basic(v2=0.0, T=0.2)

        def g_of(a):
            def g(t):
                rows = np.zeros((5, grid.N2))
                rows[1] = a * np.cos(grid.x2) * np.sin(t)
                return rows
            return g

        times = np.linspace(0.0, grid.T_final, 9)
        coeffs = assemble_coefficients(basic)
        norms = []
        for a in (1.0, 2.0):
            lift = BoundaryLift(coeffs, g_of(a))
            lift.front_lift(times)
            norms.append(source_h1_norm(lift.interior_source, grid, times))
        n1, n2 = norms
        assert np.isfinite(n1) and n1 > 0.0
        assert n2 == pytest.approx(2.0 * n1, rel=1e-8)

    def test_interior_source_is_the_dense_operator_on_rt_background(self):
        # C != 0 here; the reference is -(A0 dU/dt + A1_tilde d1U + A2 d2U + C U)
        # + eps d1U, contracted densely
        eps = 1e-2
        grid = build_grid(rt_basic_state(Grid(20, 16, 4.0, 2.0 * np.pi)), 0.2, epsilon=eps)
        coeffs = assemble_coefficients(rt_basic_state(grid, rt_jump=0.5))
        assert coeffs.plus.C.any()

        def g(t):
            rows = np.zeros((5, grid.N2))
            rows[0] = 0.3 * np.sin(grid.x2) * np.sin(t)
            rows[2] = 0.2 * np.cos(grid.x2) * np.cos(t)
            return rows

        lift = BoundaryLift(coeffs, g, epsilon=eps)
        times = np.linspace(0.0, grid.T_final, 9)
        lift.front_lift(times)
        t = float(times[4])
        (F,) = lift.interior_source(t)   # the - side's U_tilde and source are zero
        # dU/dt as the source takes it, from the traces at t +- LIFT_DT_PROBE on a
        # zero phi_tilde: the one level of a front_lift call is zero
        for d in (solver.LIFT_DT_PROBE, -solver.LIFT_DT_PROBE):
            lift.front_lift(np.array([t + d]))
        U, Up, Um = (lift.u_tilde(t + d) for d in (0.0, solver.LIFT_DT_PROBE,
                                                   -solver.LIFT_DT_PROBE))
        assert np.max(np.abs(F)) > 0.0
        sc = coeffs.plus
        d1U = d1_field(U, grid.h1)
        dUdt = (Up - Um) / (2.0 * solver.LIFT_DT_PROBE)
        dense = -(sc.A0_diag * dUdt + sum(
            np.einsum("ijkl,jkl->ikl", M, X)
            for M, X in ((sc.At1, d1U), (sc.A2, d2_field(U, grid.h2)), (sc.C, U))
        )) + eps * d1U
        np.testing.assert_allclose(F, dense, rtol=1e-10,
                                   atol=1e-12 * max(np.max(np.abs(dense)), 1.0))


def _reference_source_h1_norm(f_func, grid, times):
    """The space-time H1 norm term by term, summed over a level's sides: the
    direct squared norm of each level, of its d1_field and d2_field, and of
    the centred time difference."""
    levels = [f_func(t) for t in times]
    dt = float(times[1] - times[0])
    total = 0.0
    for n, pair in enumerate(levels):
        for k in range(len(pair)):
            A = np.asarray(pair[k], dtype=float)
            sq = (_direct_sq_norm(A, grid) + _direct_sq_norm(d1_field(A, grid.h1), grid)
                  + _direct_sq_norm(d2_field(A, grid.h2), grid))
            if 0 < n < len(levels) - 1:
                dA = (np.asarray(levels[n + 1][k]) - np.asarray(levels[n - 1][k])) / (2 * dt)
                sq += _direct_sq_norm(dA, grid)
            total += sq * dt
    return float(np.sqrt(total))


class TestSourceNorm:
    def test_matches_the_term_by_term_reference_on_a_random_source(self, rng):
        grid = Grid(20, 16, 4.0, 2.0 * np.pi)
        shape = (6, grid.N1, grid.N2)
        base = [rng.standard_normal(shape) for _ in range(2)]
        drift = [rng.standard_normal(shape) for _ in range(2)]

        def f(t):   # both sides vary in time
            return tuple(b * np.cos(3.0 * t) + d * t ** 2 for b, d in zip(base, drift))

        times = np.linspace(0.0, 0.4, 9)
        ref = _reference_source_h1_norm(f, grid, times)
        assert source_h1_norm(f, grid, times) == pytest.approx(ref, rel=1e-12)

    def test_holds_three_levels_at_a_time(self):
        grid = Grid(20, 16, 4.0, 2.0 * np.pi)
        refs = []
        held = []   # arrays still alive at each call

        def f(t):
            held.append(sum(r() is not None for r in refs))
            pair = tuple(np.full((6, grid.N1, grid.N2), t) for _ in range(2))
            refs.extend(map(weakref.ref, pair))
            return pair

        source_h1_norm(f, grid, np.linspace(0.0, 0.4, 9))
        assert len(held) == 9
        assert max(held) == 4   # the two levels before, both sides

    def test_matches_the_reference_on_the_rt_lift(self):
        grid = build_grid(rt_basic_state(Grid(20, 16, 4.0, 2.0 * np.pi)), 0.2, epsilon=1e-2)
        coeffs = assemble_coefficients(rt_basic_state(grid, rt_jump=0.5))

        def g(t):
            rows = np.zeros((5, grid.N2))
            rows[0] = 0.3 * np.sin(grid.x2) * np.sin(t)
            rows[3] = 0.1 * np.cos(2 * grid.x2) * np.sin(t)
            return rows

        lift = BoundaryLift(coeffs, g, epsilon=1e-2)
        times = np.linspace(0.0, grid.T_final, 9)
        lift.front_lift(times)
        assert len(lift.interior_source(float(times[4]))) == 1   # the - side is zero
        ref = _reference_source_h1_norm(lift.interior_source, grid, times)
        assert ref > 0.0
        assert source_h1_norm(lift.interior_source, grid, times) == pytest.approx(ref, rel=1e-12)


class TestEpsSweep:
    def test_requires_decreasing_list(self):
        basic, _ = small_basic()
        with pytest.raises(ValueError):
            eps_sweep(assemble_coefficients(basic), [0.1, 0.1])

    def test_zero_sources_give_zero_differences(self):
        basic, grid = small_basic(T=0.1)
        res = eps_sweep(assemble_coefficients(basic), [0.1, 0.05], sources=None)
        assert res.diffs == [0.0]
        assert not res.truncated
        lines = res.table_lines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 3


class _UnmemoizedSources(Sources):
    """Calls the callbacks at every evaluation, as before the memo."""

    def f_eval(self, t):
        return self.f(t)

    def g_eval(self, t):
        return np.asarray(self.g(t), dtype=float)


class TestSourceEvaluation:
    def _forcing(self, grid, calls):
        X1, X2 = grid.mesh()
        bump = np.exp(-((X1 - 1.0) / 0.5) ** 2) * np.cos(X2)

        def f(t):
            calls["f"].append(t)
            return (np.sin(3.0 * t) * np.stack([bump] * 6),
                    np.cos(2.0 * t) * np.stack([bump] * 6))

        def g(t):
            calls["g"].append(t)
            return 0.1 * np.sin(t) * np.stack([np.cos(grid.x2)] * 5)

        return f, g

    def test_each_callback_runs_once_per_distinct_stage_time(self):
        basic, grid = small_basic()
        calls = {"f": [], "g": []}
        f, g = self._forcing(grid, calls)
        snap = divergence_free_pulse(grid, seed=1)
        snap = step(snap, work_for(basic, 1e-2), Sources(f=f, g=g))
        for name in ("f", "g"):
            assert len(calls[name]) == len(set(calls[name])) <= 3

    def test_step_outputs_unchanged_by_the_memo(self):
        basic, grid = small_basic()
        work = work_for(basic, 1e-2)
        f, g = self._forcing(grid, {"f": [], "g": []})
        memo, plain = divergence_free_pulse(grid, seed=1), divergence_free_pulse(grid, seed=1)
        src_memo, src_plain = Sources(f=f, g=g), _UnmemoizedSources(f=f, g=g)
        for _ in range(3):
            memo = step(memo, work, src_memo)
            plain = step(plain, work, src_plain)
        assert np.array_equal(memo.U.plus, plain.U.plus)
        assert np.array_equal(memo.U.minus, plain.U.minus)
        assert np.array_equal(memo.phi, plain.phi)
        assert np.array_equal(memo.a_plus, plain.a_plus)
        assert np.array_equal(memo.a_minus, plain.a_minus)


class TestAssemblyCounts:
    @pytest.mark.parametrize("kind, path", [("rt-run", "configs/rt_stable.cfg"),
                                            ("eps-sweep", "configs/eps_sweep.cfg")],
                             ids=["rt-run", "eps-sweep"])
    def test_scenario_assembles_its_background_once(self, monkeypatch, kind, path):
        """The run, the lift and every eps of a sweep share one operator."""
        from contact_stab.config import parse_config
        from contact_stab.scenarios import RUNNERS

        count = []
        orig = solver.assemble_coefficients
        monkeypatch.setattr(solver, "assemble_coefficients",
                            lambda b: count.append(1) or orig(b))
        cfg = parse_config(path, kind,
                           overrides=["grid.N1=16", "grid.N2=16", "run.T_final=0.05"])
        assert RUNNERS[kind](cfg).exit_code == 0
        assert len(count) == 1

    def test_grid_from_config_builds_the_background_once(self, tmp_path):
        from contact_stab.config import parse_config
        from contact_stab.scenarios import constant_state_from_config, grid_from_config

        p = tmp_path / "e.cfg"
        p.write_text("grid.N1 = 16\ngrid.N2 = 16\nrun.T_final = 0.1\n")
        cfg = parse_config(str(p), "energy-test")
        built = []

        def builder(c, g):
            built.append(g)
            return constant_state_from_config(c, g)

        grid, basic = grid_from_config(cfg, builder)
        assert len(built) == 1
        assert basic.grid is grid and grid.n_steps > 0
        fresh = constant_state_from_config(cfg, grid)
        assert np.array_equal(basic.u.plus, fresh.u.plus)
        assert np.array_equal(basic.d1phi_map(-1), fresh.d1phi_map(-1))
