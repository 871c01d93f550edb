"""Acceptance gate: one test per release criterion, with pinned tolerances
and wall-clock budgets.  Expensive scenario runs are shared through
module-scoped fixtures so each is executed once."""

import time

import numpy as np
import pytest

from contact_stab import mhd, solver, spectral
from contact_stab.config import parse_config
from contact_stab.grid import Grid
from contact_stab.linearization import (
    BoundaryTrace,
    boundary_quadratic_form,
    constant_basic_state,
    first_variation,
    two_sided_signature,
    w_congruence_check,
)
from contact_stab.scenarios import RUNNERS

from test_linearization import curved_background, nonlinear_interior_residual
from test_mhd import closed_form_speeds


def run_scenario(path, kind, overrides=None):
    return RUNNERS[kind](parse_config(path, kind, overrides=overrides))


def random_state(rng):
    return mhd.PlasmaState(
        p=float(rng.uniform(0.05, 10.0)),
        v1=float(rng.uniform(-3.0, 3.0)),
        v2=float(rng.uniform(-3.0, 3.0)),
        H1=float(rng.uniform(-3.0, 3.0)),
        H2=float(rng.uniform(-3.0, 3.0)),
        S=float(rng.uniform(-2.0, 2.0)),
    )


def random_trace(rng):
    d2phi = float(rng.uniform(-0.9, 0.9))
    hn = float(rng.uniform(0.1, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    H2 = float(rng.uniform(-3.0, 3.0))
    return BoundaryTrace(H1=hn + H2 * d2phi, H2=H2, d2phi=d2phi)


@pytest.fixture(scope="module")
def mms_result():
    return run_scenario("configs/mms.cfg", "mms")


@pytest.fixture(scope="module")
def sweep_result():
    return run_scenario("configs/eps_sweep.cfg", "eps-sweep")


class TestCriterion01MatricesAndSpeeds:
    def test_1000_random_states(self):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        for _ in range(1000):
            st = random_state(rng)
            tri = mhd.assemble_matrices(st)
            for A in (tri.A0, tri.A1, tri.A2):
                assert np.array_equal(A, A.T)
            assert np.min(np.linalg.eigvalsh(tri.A0)) > 0.0
            angle = rng.uniform(0.0, 2.0 * np.pi)
            n1, n2 = np.cos(angle), np.sin(angle)
            got = mhd.characteristic_speeds(st, n1, n2)
            assert np.max(np.abs(got - closed_form_speeds(st, n1, n2))) <= 1e-10
        assert time.perf_counter() - t0 < 10.0


class TestCriterion02BoundarySignatures:
    def test_100_random_traces(self):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(100):
            tr = random_trace(rng)
            assert two_sided_signature(tr) == (4, 4, 4)
        assert time.perf_counter() - t0 < 5.0


class TestCriterion03CongruenceAndQuadraticForm:
    def test_congruence_defect(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tr = random_trace(rng)
            assert w_congruence_check(tr, +1) <= 1e-12
            assert w_congruence_check(tr, -1) <= 1e-12

    def test_quadratic_form_matches_closed_form(self):
        grid = Grid(24, 16, 6.0, 2.0 * np.pi)
        basic = curved_background(grid)
        rng = np.random.default_rng(3)
        for _ in range(100):
            tp = rng.standard_normal((6, grid.N2))
            tm = rng.standard_normal((6, grid.N2))
            tm[1], tm[2] = tp[1], tp[2]
            mat, closed = boundary_quadratic_form(tp, tm, basic)
            assert np.max(np.abs(mat - closed)) <= 1e-12 * max(1.0, np.max(np.abs(mat)))


class TestCriterion04FirstVariation:
    def test_finite_difference_slope(self):
        t0 = time.perf_counter()
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
        base = nonlinear_interior_residual(basic.u.plus, basic.phi_hat, grid, +1)
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
        errs = []
        for eps in eps_list:
            pert = nonlinear_interior_residual(
                basic.u.plus + eps * dU,
                basic.phi_hat + eps * dphi, grid, +1,
            )
            errs.append(np.max(np.abs((pert - base) / eps - lin)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert slope >= 0.9
        assert time.perf_counter() - t0 < 60.0


class TestCriterion05NeutralMode:
    def test_analytic_zero_and_discrete_convergence(self):
        res = run_scenario("configs/neutral_mode.cfg", "neutral-mode")
        assert res.exit_code == 0, "\n".join(res.report)
        assert res.data["analytic"] == 0.0
        assert res.data["slope"] >= 1.9


class TestCriterion06EnergyStability:
    def test_symmetrizer_energy_drift(self):
        t0 = time.perf_counter()
        res = run_scenario("configs/energy_test.cfg", "energy-test")
        assert res.exit_code == 0, "\n".join(res.report)
        assert res.data["drift"] <= 0.01
        E = res.data["energies"]
        assert np.max(E) <= E[0] * 1.01
        assert time.perf_counter() - t0 < 300.0


class TestCriterion07DeterminantScan:
    def test_five_data_sets_over_the_window(self):
        cases = [
            dict(p=1.0, v2=0.3, H1=1.0, H2=0.4, S_plus=0.3, S_minus=-0.2),
            dict(p=2.0, v2=0.0, H1=0.7, H2=0.0, S_plus=0.0, S_minus=0.5),
            dict(p=0.5, v2=-0.4, H1=1.5, H2=-0.6, S_plus=-0.3, S_minus=0.1),
            dict(p=1.3, v2=0.8, H1=0.4, H2=0.9, S_plus=0.6, S_minus=0.6),
            dict(p=3.0, v2=0.1, H1=2.0, H2=1.0, S_plus=-1.0, S_minus=0.8),
        ]
        etas = np.linspace(0.05, 2.0, 40)
        xis = np.linspace(-2.0, 2.0, 40)
        for case in cases:
            def st(S):
                return mhd.PlasmaState(case["p"], 0.0, case["v2"],
                                       case["H1"], case["H2"], S)
            pair = spectral.ContactPair(st(case["S_plus"]), st(case["S_minus"]))
            vals = np.empty((40, 40))
            for i, eta in enumerate(etas):
                for j, xi in enumerate(xis):
                    pt = spectral.LaplaceFourierPoint(complex(eta, xi), 1.0)
                    vals[i, j] = abs(
                        spectral.lopatinski_determinant(pt, pair).lopatinski_value
                    )
            assert np.all(np.isfinite(vals))
            assert np.min(vals) > 0.0
            neutral = []
            for eta in (0.05, 0.025, 0.0125):
                pt = spectral.LaplaceFourierPoint(
                    complex(eta, -pair.plus.v2), 1.0)
                neutral.append(abs(
                    spectral.lopatinski_determinant(pt, pair).lopatinski_value))
            assert neutral[0] > neutral[1] > neutral[2]


class TestCriterion08DivergenceControl:
    def test_divergence_defect_converges_in_mms(self, mms_result):
        assert mms_result.data["div_slope"] >= 0.9

    def test_trace_bound_stays_bounded_in_the_sweep(self, sweep_result):
        data = sweep_result.data
        assert np.all(np.isfinite(data["trace_bound"]))
        assert max(data["trace_bound"]) <= max(data["trace_bound"][0], 1.0) * 10.0


class TestCriterion09ManufacturedConvergence:
    def test_order_in_window(self, mms_result):
        assert mms_result.exit_code == 0, "\n".join(mms_result.report)
        assert 1.8 <= mms_result.data["order"] <= 2.2


class TestCriterion10EpsilonSweep:
    def test_cauchy_ratios_and_bounded_energy(self, sweep_result):
        assert sweep_result.exit_code == 0, "\n".join(sweep_result.report)
        data = sweep_result.data
        assert not data["truncated"]
        assert all(r <= 0.9 for r in data["ratios"])
        assert np.all(np.isfinite(data["J_max"]))


class TestCriterion11DiscreteDuality:
    def test_20_random_pairs(self):
        res = run_scenario("configs/adjoint_check.cfg", "adjoint-check")
        assert res.exit_code == 0, "\n".join(res.report)
        assert res.data["defect"] <= 1e-10


class TestCriterion12ForcedRuns:
    def test_stable_sign_ratio_is_refinement_stable(self):
        ratios = []
        for N in (64, 96, 144):
            res = run_scenario(
                "configs/rt_stable.cfg", "rt-run",
                overrides=[f"grid.N1={N}", f"grid.N2={N}"],
            )
            assert res.exit_code == 0, "\n".join(res.report)
            ratios.append(res.data["ratio"])
        base = ratios[0]
        for r in ratios[1:]:
            assert abs(r - base) <= 0.2 * base, ratios

    def test_violated_sign_growth_is_reported_not_gated(self, capsys):
        res = run_scenario("configs/rt_violated.cfg", "rt-run")
        # exploratory probe: blow-up (3) and bounded runs (0) are both
        # legitimate outcomes; only silent failure would be a defect
        assert res.exit_code in (0, 3)
        assert res.report
        stable = run_scenario("configs/rt_stable.cfg", "rt-run")
        if res.exit_code == 0:
            print(f"violated-sign J_max = {res.data['J_max']:.6e} "
                  f"(stable-sign J_max = {stable.data['J_max']:.6e})")
        else:
            print("violated-sign run blew up: " + res.report[0])
