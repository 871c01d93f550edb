import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from contact_stab import mhd, solver
from contact_stab.geometry import build_lifted_geometry
from contact_stab.grid import Grid, d1_field, d2_field
from contact_stab.linearization import (
    BoundaryTrace,
    basic_state_from_arrays,
    bc_residual,
    boundary_A1_exact,
    boundary_quadratic_form,
    constant_basic_state,
    first_variation,
    side_coefficients,
    validate_basic_state,
    w_congruence_check,
)
from contact_stab.solver import (
    ROWS,
    BoundaryLift,
    StageWork,
    assemble_coefficients,
    build_grid,
)

from conftest import boundary_traces


def curved_background(grid, v2=0.4, H1=1.0, H2=0.3, p=1.2, amp=0.3):
    """Smooth background with a curved front that satisfies the kinematic
    condition: the velocity is tangent to the level sets of the lift, so
    the transport field vanishes identically."""
    phi_hat = amp * np.cos(grid.x2)
    geo = build_lifted_geometry(phi_hat, grid)
    shape = (6, grid.N1, grid.N2)
    up, um = np.zeros(shape), np.zeros(shape)
    for arr, side in ((up, +1), (um, -1)):
        d2psi = geo.side("d2_psi", side)
        arr[0] = p
        arr[1] = v2 * d2psi
        arr[2] = v2
        arr[3] = H1
        arr[4] = H2
        arr[5] = 0.1 * side
    return basic_state_from_arrays(grid, up, um, phi_hat=phi_hat)


class TestBoundaryAlgebra:
    @given(boundary_traces())
    @settings(max_examples=100)
    def test_congruence_defect_below_1e12(self, trace):
        assert w_congruence_check(trace, +1) <= 1e-12
        assert w_congruence_check(trace, -1) <= 1e-12

    def test_exact_boundary_matrix_structure(self):
        tr = BoundaryTrace(H1=1.0, H2=0.5, d2phi=0.2)
        M = boundary_A1_exact(tr, +1)
        assert np.array_equal(M, M.T)
        assert np.all(M[5, :] == 0.0) and np.all(M[:, 5] == 0.0)
        assert np.array_equal(boundary_A1_exact(tr, -1), -M)

    def test_effective_matrix_reduces_to_exact_form_on_the_interface(self):
        grid = Grid(48, 32, 6.0, 2.0 * np.pi)
        basic = curved_background(grid)
        d2phi = basic.geometry.d2_phi_boundary
        worst = 0.0
        for side in (+1, -1):
            At = side_coefficients(basic, side).At1
            for i2 in range(0, grid.N2, 5):
                tr = BoundaryTrace(
                    H1=basic.u.plus[3, 0, i2], H2=basic.u.plus[4, 0, i2],
                    d2phi=float(d2phi[i2]),
                )
                worst = max(worst, float(np.max(np.abs(
                    At[:, :, 0, i2] - boundary_A1_exact(tr, side)
                ))))
        assert worst <= 1e-12


def nonlinear_interior_residual(u_field, front, grid, side, gamma=mhd.GAMMA_DEFAULT):
    """Static interior residual of the straightened quasilinear system."""
    geo = build_lifted_geometry(front, grid, skip_admissibility=True)
    rho = mhd.eos_density(u_field[0], u_field[5], gamma)
    A0 = mhd.a0_matrix(u_field[0], rho, gamma)
    A1 = mhd.a1_matrix(u_field[0], u_field[1], u_field[3], u_field[4], rho, gamma)
    A2 = mhd.a2_matrix(u_field[0], u_field[2], u_field[3], u_field[4], rho, gamma)
    d1phi = geo.side("d1_phi", side)
    At1 = (A1 - A2 * geo.side("d2_psi", side)) / d1phi
    return (
        np.einsum("ij...,j...->i...", At1, d1_field(u_field, grid.h1))
        + np.einsum("ij...,j...->i...", A2, d2_field(u_field, grid.h2))
    )


class TestFirstVariation:
    def test_matches_finite_difference_of_the_nonlinear_operator(self):
        grid = Grid(32, 24, 6.0, 2.0 * np.pi)
        basic = curved_background(grid)
        rng = np.random.default_rng(5)
        X1g, X2g = grid.mesh()
        dU = np.stack([
            rng.uniform(0.3, 1.0) * np.exp(-X1g) * np.cos(X2g + rng.uniform(0, 6))
            for _ in range(6)
        ])
        dphi = 0.2 * np.sin(grid.x2)
        lin = first_variation(dU, dphi, basic, +1)
        errs = []
        eps_list = [1e-2, 1e-3, 1e-4]
        base = nonlinear_interior_residual(basic.u.plus, basic.phi_hat, grid, +1)
        for eps in eps_list:
            pert = nonlinear_interior_residual(
                basic.u.plus + eps * dU,
                basic.phi_hat + eps * dphi, grid, +1,
            )
            fd = (pert - base) / eps
            errs.append(np.max(np.abs(fd - lin)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert slope >= 0.9


class TestInterfaceConditions:
    def test_zero_perturbation_zero_residual(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid, v2=0.3)
        z6 = np.zeros((6, grid.N2))
        res = bc_residual(z6, z6, np.zeros(grid.N2), basic)
        assert np.max(np.abs(res)) == 0.0

    def test_front_row_sees_advection_and_normal_velocity(self):
        grid = Grid(24, 32, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid, v2=0.5)
        phi = np.cos(grid.x2)
        z6 = np.zeros((6, grid.N2))
        tp = z6.copy()
        tp[1] = 0.7  # normal velocity trace feeds row 5 with a minus sign
        res = bc_residual(tp, z6, phi, basic,
                          dt_phi=np.zeros(grid.N2))
        # rows 1-3 pick up the trace jump, row 5 combines advection and v_N
        assert np.allclose(res[1], 0.7)
        assert np.max(np.abs(res[4] - (-0.5 * np.sin(grid.x2) - 0.7))) <= 1e-2

    def test_quadratic_form_matrix_equals_closed_form(self, rng):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = curved_background(grid)
        for _ in range(100):
            tp = rng.standard_normal((6, grid.N2))
            tm = rng.standard_normal((6, grid.N2))
            tm[1] = tp[1]
            tm[2] = tp[2]
            mat, closed = boundary_quadratic_form(tp, tm, basic)
            assert np.max(np.abs(mat - closed)) <= 1e-12 * max(1.0, np.max(np.abs(mat)))

    def test_quadratic_form_requires_continuous_velocity(self, rng):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid)
        tp = rng.standard_normal((6, grid.N2))
        tm = tp + 1.0
        with pytest.raises(ValueError):
            boundary_quadratic_form(tp, tm, basic)


class TestValidation:
    def test_constant_contact_background_passes(self):
        grid = Grid(32, 24, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3,
                                     S_plus=0.2, S_minus=-0.1)
        report = validate_basic_state(basic)
        assert report.all_passed, "\n".join(report.lines())

    def test_static_curved_background_passes_up_to_stencil_error(self):
        # v = 0 with a curved front is exactly steady; the only nonzero
        # residual is the solenoidal check, where the lift differentiates
        # the front line with a higher-order stencil than the grid fields.
        residuals = []
        for N in (32, 64, 128):
            grid = Grid(N + 1, N, 6.0, 2.0 * np.pi)
            report = validate_basic_state(curved_background(grid, v2=0.0), tol=1e30)
            for check in report.checks:
                if check.name == "front_bound":
                    assert check.passed
                elif check.name != "solenoidal":
                    assert check.max_residual <= 1e-12, report.lines()
            residuals.append(report["solenoidal"].max_residual)
        # second-order decay of the stencil mismatch
        assert residuals[1] <= 0.4 * residuals[0]
        assert residuals[2] <= 0.4 * residuals[1]

    def test_vanishing_normal_field_detected(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid, H1=0.0, H2=1.0)
        report = validate_basic_state(basic)
        assert not report["normal_field"].passed

    def test_interface_jump_detected(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        shape = (6, grid.N1, grid.N2)
        up, um = np.zeros(shape), np.zeros(shape)
        up[0], um[0] = 1.2, 1.0  # pressure jump across the interface
        up[3] = um[3] = 1.0
        basic = basic_state_from_arrays(grid, up, um)
        report = validate_basic_state(basic)
        assert not report["interface_continuity"].passed
        assert report["normal_field"].passed

    def test_positivity_violation_detected(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid, p=5e-3)
        report = validate_basic_state(basic)
        assert not report["positivity"].passed

    def test_nan_background_fails_at_its_location(self):
        grid = Grid(8, 8, 6.0, 2.0 * np.pi)
        up, um = np.zeros((6, 8, 8)), np.zeros((6, 8, 8))
        up[0] = um[0] = 1.0
        up[3] = um[3] = 1.0
        up[0, 3:5] = um[0, 3:5] = np.nan  # two x1 rows away from the interface
        report = validate_basic_state(basic_state_from_arrays(grid, up, um))
        assert not report.all_passed
        check = report["positivity"]
        assert not check.passed and check.max_residual == np.inf
        assert check.location == "idx(3, 0)"

    def test_violation_located_past_a_larger_admissible_margin(self):
        # p = 50 has the largest |P_BAR0 - p| but is admissible; p = 1e-4 is not
        grid = Grid(8, 8, 6.0, 2.0 * np.pi)
        up, um = np.zeros((6, 8, 8)), np.zeros((6, 8, 8))
        up[0] = um[0] = 1.0
        up[3] = um[3] = 1.0
        up[0, 6, 2] = um[0, 6, 2] = 50.0
        up[0, 2, 5] = um[0, 2, 5] = 1e-4
        check = validate_basic_state(basic_state_from_arrays(grid, up, um))["positivity"]
        assert not check.passed
        assert check.location == "idx(2, 5)"

    def test_violation_on_the_minus_side_alone_fails_at_its_node(self):
        grid = Grid(8, 8, 6.0, 2.0 * np.pi)
        up, um = np.zeros((6, 8, 8)), np.zeros((6, 8, 8))
        up[0] = um[0] = 1.0
        up[3] = um[3] = 1.0
        um[0, 2, 5] = 1e-4
        report = validate_basic_state(basic_state_from_arrays(grid, up, um))
        check = report["positivity"]
        assert not check.passed and check.location == "idx(2, 5)"
        assert [c.name for c in report.checks if not c.passed] == ["positivity"]

    def test_induction_violation_in_the_h2_row_alone_fails_at_its_node(self):
        # v2 varying in x1 alone on the - side: d1 v2 enters the H2 row of the
        # induction residual, while div u = d2 v2 = 0 keeps the H1 row zero
        grid = Grid(8, 8, 6.0, 2.0 * np.pi)
        up, um = np.zeros((6, 8, 8)), np.zeros((6, 8, 8))
        up[0] = um[0] = 1.0
        up[3] = um[3] = 1.0
        um[2, 3, :] = 0.1   # rows 2 and 4 see +-0.1 / (2 h1)
        report = validate_basic_state(basic_state_from_arrays(grid, up, um))
        check = report["induction"]
        assert not check.passed and check.location == "idx(2, 0)"
        assert check.max_residual == pytest.approx(0.1 / (2.0 * grid.h1), rel=1e-12)
        assert [c.name for c in report.checks if not c.passed] == ["induction"]

    def test_a_zero_residual_names_no_node(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        report = validate_basic_state(constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3))
        assert all(c.passed and c.max_residual == 0.0 for c in report.checks)
        assert [c.location for c in report.checks] == [""] * len(report.checks)


def rt_background(grid):
    from contact_stab.scenarios import rt_basic_state

    return rt_basic_state(grid, rt_jump=0.5)


def expression_background(grid, tmp_path):
    """A config-driven background with every gradient nonzero and a curved
    front, so all three coefficient fields vary over the grid."""
    from contact_stab.config import parse_config
    from contact_stab.scenarios import expression_state_from_config

    lines = ["state.kind = expressions"]
    for side in ("plus", "minus"):
        lines += [
            f"state.p_{side} = 1 + 0.2*exp(-x1)*cos(x2)",
            f"state.v1_{side} = 0.1*exp(-x1)*sin(x2)",
            f"state.v2_{side} = 0.2 + 0.1*exp(-x1)",
            f"state.H1_{side} = 1",
            f"state.H2_{side} = 0.3 + 0.1*exp(-x1)*cos(x2)",
            f"state.S_{side} = 0.1*cos(x2)",
        ]
    lines.append("front.phi = 0.2*cos(x2)")
    p = tmp_path / "expr.cfg"
    p.write_text("\n".join(lines) + "\n")
    return expression_state_from_config(parse_config(str(p), "validate-state"), grid)


def background(kind, grid, tmp_path):
    return {
        "constant": lambda: constant_basic_state(grid, v2=0.3, H2=0.4),
        "rt": lambda: rt_background(grid),
        "expression": lambda: expression_background(grid, tmp_path),
        "curved": lambda: curved_background(grid),
    }[kind]()


# forced interior block sizes on a grid of 23 x 16 = 368 points, and the
# row counts of the blocks they give
BLOCKINGS = {
    "one-row": (1, [1] * 23),
    "uneven-last": (368 // 5, [5, 5, 5, 5, 3]),
    "two": (368 // 2, [12, 11]),
}


class TestStageInterior:
    """StageWork.interior, the one production contraction of the interior
    operator, against A0^-1 (-A1_tilde d1U - A2 d2U - C U + eps d1U)
    contracted densely."""

    @pytest.mark.parametrize("kind", ["constant", "rt", "expression", "curved"])
    def test_matches_the_dense_operator(self, kind, rng, tmp_path):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        coeffs = assemble_coefficients(background(kind, grid, tmp_path))
        for eps in (0.0, 1e-3):
            work = StageWork(coeffs, eps)
            for side in (+1, -1):
                sc = coeffs.side(side)
                Y = rng.standard_normal((ROWS, grid.N1, grid.N2))
                out = np.empty_like(Y)
                work.interior(side, Y, None, out, 1.0)
                U = Y[:6]
                d1U, d2U = d1_field(U, grid.h1), d2_field(U, grid.h2)
                dense = sc.A0_inv_diag * (
                    -np.einsum("ijkl,jkl->ikl", sc.At1, d1U)
                    - np.einsum("ijkl,jkl->ikl", sc.A2, d2U)
                    - np.einsum("ijkl,jkl->ikl", sc.C, U)
                    + eps * d1U
                )
                np.testing.assert_allclose(out[:6], dense, rtol=1e-12,
                                           atol=1e-13 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("kind", ["constant", "rt", "curved"])
    def test_weight_scales_the_stage(self, kind, forced, rng, tmp_path):
        # the RK4 weight is folded into M, the entries and the forced term, not
        # applied to out, so the weighted stage is w times the unweighted one
        # up to rounding
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        work = StageWork(assemble_coefficients(background(kind, grid, tmp_path)), 1e-3)
        Y = rng.standard_normal((ROWS, grid.N1, grid.N2))
        f = rng.standard_normal((6, grid.N1, grid.N2))
        w = 0.0123
        for side in (+1, -1):
            unit, weighted = np.empty_like(Y), np.empty_like(Y)
            for res, weight in ((unit, 1.0), (weighted, w)):
                term = work.forced_term(side, 0.0, f, weight) if forced else None
                work.interior(side, Y, term, res, weight)
            np.testing.assert_allclose(weighted, w * unit, rtol=1e-15,
                                       atol=1e-15 * np.max(np.abs(w * unit)))

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_rt_takes_the_uniform_product_and_rescales_the_field_rows(self, eps):
        # on RT only A0^-1 of rows 0-2 varies: every d1/d2 entry is uniform
        coeffs = assemble_coefficients(rt_background(Grid(24, 16, 6.0, 2.0 * np.pi)))
        work = StageWork(coeffs, eps)
        for side in (+1, -1):
            a0_inv = coeffs.side(side).A0_inv_diag
            _, d1_fields, d2_fields, _, source, rescale = work.entries[side]
            assert d1_fields == [] and d2_fields == []
            field_rows = [i for i in range(6) if np.any(a0_inv[i] != a0_inv[i].flat[0])]
            assert field_rows == [0, 1, 2]
            assert [i for i, _ in rescale] == field_rows
            for i, scale in rescale:
                assert np.array_equal(scale, a0_inv[i])
            assert np.array_equal(source.ravel(), [1.0, 1.0, 1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("name, kind, d2_rows, cols", [
        ("rt_stable", "rt-run", 4, 11), ("energy_test", "energy-test", 7, 14),
        ("mms", "mms", 7, 14)])
    def test_shipped_backgrounds_difference_only_the_rows_they_read(self, name, kind,
                                                                     d2_rows, cols):
        # on RT v2 = 0, so d2 reads p, v1, v2 and H1 (rows 0-3) alone
        from contact_stab import scenarios
        from contact_stab.config import parse_config

        cfg = parse_config(str(CONFIGS / f"{name}.cfg"), kind,
                           overrides=["grid.N1=17", "grid.N2=17"])
        builder = (scenarios.rt_state_from_config if name == "rt_stable"
                   else scenarios.constant_state_from_config)
        _, basic = scenarios.grid_from_config(cfg, builder)
        work = StageWork(assemble_coefficients(basic), cfg["run.epsilon"])
        for side in (+1, -1):
            assert work.spans[side] == [slice(0, ROWS), slice(0, d2_rows)]
            assert work.entries[side][0].shape == (ROWS, cols)

    def test_curved_background_at_zero_eps_leaves_the_companion_d1_out(self):
        # its transport field vanishes: without eps no row reads d1 of rows 5 and 6,
        # while its d1 entries are field-valued
        coeffs = assemble_coefficients(curved_background(Grid(24, 16, 6.0, 2.0 * np.pi)))
        work = StageWork(coeffs, 0.0)
        for side in (+1, -1):
            assert work.spans[side] == [slice(0, 5), slice(0, ROWS)]
            assert work.entries[side][0].shape == (ROWS, 12)
            assert work.entries[side][1]

    def test_expression_background_keeps_field_valued_d1_entries(self, tmp_path):
        coeffs = assemble_coefficients(
            expression_background(Grid(24, 16, 6.0, 2.0 * np.pi), tmp_path))
        work = StageWork(coeffs, 1e-3)
        for side in (+1, -1):
            assert work.entries[side][1]

    @pytest.mark.parametrize("blocking", BLOCKINGS)
    @pytest.mark.parametrize("kind", ["constant", "rt", "expression", "curved"])
    def test_row_blocks_give_the_one_block_result(self, kind, blocking, rng, tmp_path,
                                                  monkeypatch):
        grid = Grid(23, 16, 6.0, 2.0 * np.pi)
        coeffs = assemble_coefficients(background(kind, grid, tmp_path))
        Y = rng.standard_normal((ROWS, grid.N1, grid.N2))
        f = rng.standard_normal((6, grid.N1, grid.N2))
        points, rows = BLOCKINGS[blocking]
        for eps in (0.0, 1e-3):
            monkeypatch.setattr(solver, "_BLOCK_POINTS", grid.N1 * grid.N2)
            whole = StageWork(coeffs, eps)
            monkeypatch.setattr(solver, "_BLOCK_POINTS", points)
            blocked = StageWork(coeffs, eps)
            assert whole.blocks == [(0, grid.N1)]
            assert [r1 - r0 for r0, r1 in blocked.blocks] == rows
            for side in (+1, -1):
                for forcing in (None, f):
                    expected, got = np.empty_like(Y), np.empty_like(Y)
                    for work, res in ((whole, expected), (blocked, got)):
                        term = None if forcing is None else work.forced_term(side, 0.0, forcing, 1.0)
                        work.interior(side, Y, term, res, 1.0)
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("blocking", BLOCKINGS)
    def test_lift_source_is_the_one_block_result(self, blocking, monkeypatch):
        eps = 1e-2
        grid = build_grid(rt_background(Grid(23, 16, 4.0, 2.0 * np.pi)), 0.2, epsilon=eps)
        coeffs = assemble_coefficients(rt_background(grid))
        assert coeffs.plus.C.any()

        def g(t):
            rows = np.zeros((5, grid.N2))
            rows[0] = 0.3 * np.sin(grid.x2) * np.sin(t)
            rows[2] = 0.2 * np.cos(grid.x2) * np.cos(t)
            return rows

        times = np.linspace(0.0, grid.T_final, 9)
        sources = []
        for points in (grid.N1 * grid.N2, BLOCKINGS[blocking][0]):
            monkeypatch.setattr(solver, "_BLOCK_POINTS", points)
            lift = BoundaryLift(coeffs, g, epsilon=eps)
            lift.front_lift(times)
            sources.append(lift.interior_source(float(times[4]))[0])
        assert np.max(np.abs(sources[0])) > 0.0
        assert np.array_equal(sources[1], sources[0])

    def test_large_grids_split_and_small_ones_do_not(self):
        blocks = solver._row_blocks(200, 200)
        assert len(blocks) > 1
        assert [r for b in blocks for r in range(*b)] == list(range(200))
        assert solver._row_blocks(96, 96) == [(0, 96)]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COEFFICIENT_FIELDS = ("A0_inv_diag", "At1", "A2", "C", "d1phi", "d11phi",
                      "w1", "w2", "div_u", "d2psi")


class TestCompactCoefficients:
    """The operator is stored at the background's own broadcast shape."""

    def test_stored_shapes_follow_the_background(self):
        from contact_stab.config import parse_config
        from contact_stab.scenarios import constant_state_from_config, grid_from_config

        cfg = parse_config(str(CONFIGS / "energy_test.cfg"), "energy-test")
        _, constant = grid_from_config(cfg, constant_state_from_config)
        small = Grid(24, 16, 6.0, 2.0 * np.pi)
        for basic, shape in ((constant, (1, 1)),
                             (rt_background(small), (small.N1, 1)),
                             (curved_background(small), (small.N1, small.N2))):
            coeffs = assemble_coefficients(basic)
            for side in (+1, -1):
                sc = coeffs.side(side)
                for M in (sc.At1, sc.A2, sc.C):
                    assert M.shape == (6, 6) + shape
                assert sc.A0_diag.shape == (6,) + shape

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_stage_on_compact_rt_equals_the_stage_on_full_fields(self, eps, rng):
        grid = Grid(23, 16, 6.0, 2.0 * np.pi)
        coeffs = assemble_coefficients(rt_background(grid))

        def expanded(sc):
            return dataclasses.replace(sc, **{
                name: np.broadcast_to(getattr(sc, name),
                                      getattr(sc, name).shape[:-2] + (grid.N1, grid.N2))
                for name in COEFFICIENT_FIELDS})

        full = dataclasses.replace(coeffs, plus=expanded(coeffs.plus),
                                   minus=expanded(coeffs.minus))
        assert coeffs.plus.At1.shape[-1] == 1 and full.plus.At1.shape[-1] == grid.N2
        compact_work, full_work = StageWork(coeffs, eps), StageWork(full, eps)
        Y = rng.standard_normal((ROWS, grid.N1, grid.N2))
        f = rng.standard_normal((6, grid.N1, grid.N2))
        for side in (+1, -1):
            want, got = np.empty_like(Y), np.empty_like(Y)
            for work, res in ((full_work, want), (compact_work, got)):
                work.interior(side, Y, work.forced_term(side, 0.0, f, 1.0), res, 1.0)
            assert np.array_equal(got, want)


class TestZeroOrderMatrix:
    def test_exactly_zero_on_constant_background(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = constant_basic_state(grid, v2=0.3, H2=0.4)
        for side in (+1, -1):
            assert not side_coefficients(basic, side).C.any()

    @pytest.mark.parametrize("kind", ["rt", "expression"])
    def test_compact_matrix_is_the_full_field_sum(self, kind, tmp_path):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = rt_background(grid) if kind == "rt" else expression_background(grid, tmp_path)
        for side in (+1, -1):
            U = basic.u.side(side)
            rho = basic.rho(side)
            d1phi = basic.d1phi_map(side)
            full = np.zeros((6, 6) + U.shape[1:])
            for k in range(6):
                Y = np.eye(6)[k]
                dA0 = mhd.da0_matrix(U[0], rho, Y, basic.gamma)
                dA1 = mhd.da1_matrix(U[0], U[1], rho, Y, basic.gamma)
                dA2 = mhd.da2_matrix(U[0], U[2], rho, Y, basic.gamma)
                dA1t = (dA1 - dA0 * basic.dtpsi(side) - dA2 * basic.d2psi(side)) / d1phi
                full[:, k] = (
                    np.einsum("ij...,j...->i...", dA1t, basic.d1_u.side(side))
                    + np.einsum("ij...,j...->i...", dA2, basic.d2_u.side(side))
                )
            C = side_coefficients(basic, side).C
            assert np.array_equal(np.broadcast_to(C, full.shape), full)
