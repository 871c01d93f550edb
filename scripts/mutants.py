#!/usr/bin/env python3
"""Run named textual mutants of the source against the tier-1 suite.

    python3 scripts/mutants.py              # the unmutated tree, then every mutant
    python3 scripts/mutants.py NAME ...     # the unmutated tree, then the named ones
    python3 scripts/mutants.py --list

Each mutant is a list of (file, text, replacement) edits, next to the
recorded tier-1 test that kills it; every text must occur exactly once in
its file, or the script stops with an error naming it.  Per mutant the
source tree is copied to a temporary directory and the edits are applied
there.  The recorded killer runs alone in the copy first; only when it
passes, or the mutant has no killer recorded or it is no longer collected,
does the whole tier-1 command run, with `-x`, so it stops at the first
failure.  A failing test prints `killed` with that test, a passing suite
`survived`.  The unmutated copy runs the whole suite first: if it fails, no
mutant result means anything and the script stops.

Standard library only; not part of tier-1 (a full sweep takes about
80 s on two cores, most mutants one pytest start and one test).
Exits 1 when a mutant survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/contact_stab/solver.py"
FIELDS = "src/contact_stab/fields.py"
SPECTRAL = "src/contact_stab/spectral.py"
GRID = "src/contact_stab/grid.py"
LINEARIZATION = "src/contact_stab/linearization.py"
CONFIG = "src/contact_stab/config.py"
MHD = "src/contact_stab/mhd.py"
GEOMETRY = "src/contact_stab/geometry.py"
SCENARIOS = "src/contact_stab/scenarios.py"
# tests/test_mutants.py checks that each edit applies to the unmutated tree, which
# a mutated copy never passes, so it could kill every mutant; it runs only in tier-1
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 1800
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-*", "out")


class Mutant(NamedTuple):
    killer: str | None                  # the tier-1 test that kills it, run alone first
    edits: list[tuple[str, str, str]]   # (file, text, replacement)


MUTANTS: dict[str, Mutant] = {
    # apply_interface_conditions corrects nothing: all four jump rows dropped
    "drop-jump-projections": Mutant(
        "tests/test_acceptance.py::TestCriterion08DivergenceControl::"
        "test_divergence_defect_converges_in_mms",
        [
            (SOLVER, "    r = _jump_residual(tp, tm, phi, coeffs, g_rows)\n",
             "    r = 0.0 * _jump_residual(tp, tm, phi, coeffs, g_rows)\n"),
        ]),
    # the RT front feedback of rows 0 and 3 with the wrong sign
    "flip-front-feedback": Mutant(
        "tests/test_solver.py::TestInterfaceClosure::"
        "test_projection_zeroes_the_jump_rows_of_bc_residual",
        [
            (SOLVER, "tp[0] - tm[0] + phi * coeffs.jump_d1_p,",
             "tp[0] - tm[0] - phi * coeffs.jump_d1_p,"),
            (SOLVER, "(tm[3] * tau + tm[4]) + phi * coeffs.jump_d1_Htau,",
             "(tm[3] * tau + tm[4]) - phi * coeffs.jump_d1_Htau,"),
        ]),
    "drop-d1-vN-in-front-rhs": Mutant(
        "tests/test_solver.py::TestInterfaceClosure::"
        "test_front_rhs_zeroes_the_front_row_of_bc_residual",
        [
            (SOLVER, "rhs = vN_plus + phi * coeffs.d1_vN_plus - ", "rhs = vN_plus - "),
        ]),
    "swap-upwind-branches": Mutant(
        "tests/test_solver.py::TestFrontAdvection::test_upwind_transport_is_dissipative[0.7]",
        [
            (SOLVER, "return np.where(a >= 0.0, dp, dm)", "return np.where(a >= 0.0, dm, dp)"),
        ]),
    # the companion's c0 entry of the side operator without its - eps * d11phi part
    "drop-eps-d11phi-in-c0": Mutant(
        "tests/test_step_reference.py::test_three_steps_match_the_allocating_rk4[curved]",
        [
            (SOLVER, "-(sc.div_u - epsilon * sc.d11phi) / sc.d1phi)", "-sc.div_u / sc.d1phi)"),
        ]),
    # the companion row 6 without its source term div f_h / d1Phi
    "drop-companion-source": Mutant(
        "tests/test_acceptance.py::TestCriterion08DivergenceControl::"
        "test_divergence_defect_converges_in_mms",
        [
            (SOLVER, '            np.einsum("ksq,ksqij->sij", c[..., 3:5], '
                     'self._row6_basis(sources.f),\n'
                     '                      out=terms[:, 6])\n',
             "            terms[:, 6] = 0.0\n"),
        ]),
    # the row-6 basis of a Forcing's row 4 without its d2 (d1Phi f_4) part
    "forcing-row6-drops-d2": Mutant(
        "tests/test_linearization.py::TestForcedTerms::"
        "test_matches_the_stencils_on_the_full_source[constant-1]",
        [
            (SOLVER, "                d2_field(sc.d1phi * shape[4], g.h2, out=D[k, i, 1])\n",
             "                D[k, i, 1] = 0.0\n"),
        ]),
    # run steps rows 0-5 alone from a nonzero companion row when no source drives it
    "companion-rows-ignore-initial": Mutant(
        "tests/test_step_reference.py::TestRunSteppedRows::"
        "test_unforced_run_from_a_nonzero_companion_evolves_it",
        [
            (SOLVER, "companion_moves = sources.f is not None or snap.sides[:, 6].any()",
             "companion_moves = sources.f is not None"),
        ]),
    # run steps rows 0-5 alone under a source f when the companion row starts zero
    "companion-rows-ignore-source": Mutant(
        "tests/test_acceptance.py::TestCriterion08DivergenceControl::"
        "test_trace_bound_stays_bounded_in_the_sweep",
        [
            (SOLVER, "companion_moves = sources.f is not None or snap.sides[:, 6].any()",
             "companion_moves = snap.sides[:, 6].any()"),
        ]),
    # the forced terms never refilled after their first fill, whatever the stage time
    "stale-source-term": Mutant(
        "tests/test_acceptance.py::TestCriterion09ManufacturedConvergence::test_order_in_window",
        [
            (SOLVER, "        key = (t, w, sources.f)\n", "        key = ()\n"),
        ]),
    # the forced terms refilled for a new stage time or source, but not for a new weight
    "forced-term-key-ignores-weight": Mutant(
        "tests/test_linearization.py::TestStageInterior::"
        "test_weight_scales_the_stage[constant-True]",
        [
            (SOLVER, "key = (t, w, sources.f)", "key = (t, sources.f)"),
        ]),
    # the forced terms refilled for a new stage time or weight, but not for a new source
    "forced-term-key-ignores-source": Mutant(
        "tests/test_step_reference.py::TestForcedTerm::"
        "test_another_source_at_the_held_time_gets_its_own_term",
        [
            (SOLVER, "key = (t, w, sources.f)", "key = (t, w)"),
        ]),
    # the third and fourth stages' weights swapped, dt/6 and dt/3 for dt/3 and dt/6
    "swap-last-stage-weights": Mutant(
        "tests/test_acceptance.py::TestCriterion06EnergyStability::test_symmetrizer_energy_drift",
        [
            (SOLVER, "(half, dt / 3.0, dt), (t + dt, dt / 6.0, None)",
             "(half, dt / 6.0, dt), (t + dt, dt / 3.0, None)"),
        ]),
    # both sides' block differences and planes taken from side +'s scratch, so the
    # worker's side - writes into the buffers side + reads
    "shared-side-scratch": Mutant(
        "tests/test_step_reference.py::TestThreadedStep::"
        "test_the_sides_block_scratch_shares_no_memory",
        [
            (SOLVER, "cols, scratch = self.entries[s][0].shape[1], k * self.apart",
             "cols, scratch = self.entries[s][0].shape[1], 0"),
        ]),
    # the rows a stage differences stop one short of the last row its operator reads
    "drop-last-derivative-row": Mutant(
        "tests/test_acceptance.py::TestCriterion05NeutralMode::"
        "test_analytic_zero_and_discrete_convergence",
        [
            (SOLVER, "lo, hi = (min(read), max(read) + 1) if read else (0, 0)",
             "lo, hi = (min(read), max(read)) if read else (0, 0)"),
        ]),
    # the companion row 6 without its far-wall extrapolation
    "drop-companion-far-wall": Mutant(
        "tests/test_step_reference.py::test_three_steps_match_the_allocating_rk4[constant]",
        [
            (SOLVER, "    y.sides[:, 6, -1, :] = y.sides[:, 6, -2, :]\n", ""),
        ]),
    # the lift's traces fed the front with the wrong sign
    "flip-phi-tilde-in-lift": Mutant(
        "tests/test_solver.py::TestLift::"
        "test_lifted_traces_satisfy_the_interface_rows_on_rt_background",
        [
            (SOLVER, "r = _jump_residual(zero, zero, phi_tilde, self.coeffs, g_rows)",
             "r = _jump_residual(zero, zero, -phi_tilde, self.coeffs, g_rows)"),
        ]),
    "halve-tangential-weight": Mutant(
        "tests/test_solver.py::TestInterfaceClosure::"
        "test_projection_zeroes_the_jump_rows_of_bc_residual",
        [
            (SOLVER, "wt = 0.5 / (1.0 + tau ** 2)", "wt = 0.25 / (1.0 + tau ** 2)"),
        ]),
    # speed_bound's normal speed with the front's own speed |dt psi| subtracted
    "flip-dtpsi-in-speed-bound": Mutant(
        "tests/test_solver.py::TestGridBuild::"
        "test_bound_covers_the_speeds_of_a_moving_or_curved_front[moving-flat]",
        [
            (SOLVER, "np.abs(U[1]) + np.abs(geo.dt_psi)", "np.abs(U[1]) - np.abs(geo.dt_psi)"),
        ]),
    # speed_bound's normal speed with the front slope's |d2 psi| s2 subtracted
    "flip-d2psi-in-speed-bound": Mutant(
        "tests/test_solver.py::TestGridBuild::"
        "test_bound_covers_the_speeds_of_a_moving_or_curved_front[curved]",
        [
            (SOLVER, "+ np.abs(geo.d2_psi) * s2", "- np.abs(geo.d2_psi) * s2"),
        ]),
    # the straightening map's slope d1 Phi_pm = pm 1 - d1 Psi, the lift's slope subtracted
    "flip-lift-slope": Mutant(
        "tests/test_geometry.py::TestLiftedGeometry::"
        "test_map_slope_is_the_derivative_of_the_map[1]",
        [
            (GEOMETRY, "return side + self.d1_psi", "return side - self.d1_psi"),
        ]),
    # a constant contact whose tangential velocity jumps accepted as a contact
    "drop-v2-from-contact-check": Mutant(
        "tests/test_spectral.py::TestContactPair::test_jump_of_a_shared_component_rejected[v2]",
        [
            (SPECTRAL, 'for c in ("p", "v1", "v2", "H1", "H2")',
             'for c in ("p", "v1", "H1", "H2")'),
        ]),
    # the sides of a snapshot's U can be rebound, detaching them from data
    "unfreeze-two-sided-field": Mutant(
        "tests/test_solver.py::TestSnapshotLayout::test_sides_of_U_cannot_be_rebound[plus]",
        [
            (FIELDS, "@dataclass(frozen=True)\nclass TwoSidedField:",
             "@dataclass\nclass TwoSidedField:"),
        ]),
    # run without its check that the symmetrizer energy is finite
    "drop-energy-blowup-check": Mutant(
        "tests/test_cli.py::TestExitCodes::"
        "test_energy_test_blow_up_exits_three[inline-overrides0]",
        [
            (SOLVER, "        if not np.isfinite(energy):\n            raise BlowUpError(snap.t, "
                     "f\"non-finite symmetrizer energy at t = {snap.t:.6g}\")\n", ""),
        ]),
    # d2_diff keeps its flattened pass's differences across line ends at x2 = 0, X2
    "drop-d2-wrap-columns": Mutant(
        "tests/test_acceptance.py::TestCriterion04FirstVariation::test_finite_difference_slope",
        [
            (GRID, "    np.subtract(V[..., 1], V[..., -1], out=out[..., 0])\n"
                   "    np.subtract(V[..., 0], V[..., -2], out=out[..., -1])\n", ""),
        ]),
    # a row range's d1 past the first block reads its own first row, not the halo row above
    "block-halo-own-first-row": Mutant(
        "tests/test_acceptance.py::TestCriterion06EnergyStability::test_symmetrizer_energy_drift",
        [
            (GRID, "                out=out[..., lo - r0:hi - r0, :])\n",
             "                out=out[..., lo - r0:hi - r0, :])\n"
             "    if r0 > 0:\n"
             "        np.subtract(U[..., r0 + 1, :], U[..., r0, :], out=out[..., 0, :])\n"),
        ]),
    # the uniform d2 entries act on raw differences without the stencil's 1/(2 h2)
    "unfold-d2-scale": Mutant(
        "tests/test_acceptance.py::TestCriterion05NeutralMode::"
        "test_analytic_zero_and_discrete_convergence",
        [
            (SOLVER, "M[i, k * rows + j] = c / h\n",
             "M[i, k * rows + j] = c / h if k == 0 else c\n"),
        ]),
    # the field-valued d1 entries of a stage left out of its kernel
    "drop-field-valued-d1-entries": Mutant(
        "tests/test_linearization.py::TestStageInterior::"
        "test_matches_the_dense_operator[expression]",
        [
            (SOLVER, "                fields[k].append((i, j, c / h))\n",
             "                if k:\n                    fields[k].append((i, j, c / h))\n"),
        ]),
    # the -eps d1 regularization put on the diagonal of d2 instead
    "eps-diagonal-on-d2": Mutant(
        "tests/test_acceptance.py::TestCriterion05NeutralMode::"
        "test_analytic_zero_and_discrete_convergence",
        [
            (SOLVER, "eps = epsilon * fold[i] if k == 0 and i == j else 0.0",
             "eps = epsilon * fold[i] if k == 1 and i == j else 0.0"),
        ]),
    # the lift's source without the A0 dU_tilde/dt part
    "drop-lift-time-derivative": Mutant(
        "tests/test_solver.py::TestLift::"
        "test_interior_source_is_the_dense_operator_on_rt_background",
        [
            (SOLVER, "        np.subtract(self._L, rate, out=rate)\n",
             "        np.copyto(rate, self._L)\n"),
        ]),
    # the rows whose A0^-1 is a field left unscaled by it
    "drop-row-rescale": Mutant(
        "tests/test_linearization.py::TestStageInterior::test_matches_the_dense_operator[rt]",
        [
            (SOLVER, "        for i, a0_inv in rescale:\n            out[i] *= a0_inv\n", ""),
        ]),
    # the sampled reports' dtU taken against the previous sample, not the step before
    "report-prev-from-last-sample": Mutant(
        "tests/test_solver.py::TestMonitoredLevels::"
        "test_reports_the_sampled_levels_against_the_step_before",
        [
            (SOLVER, "        yield n, snap, energy, report\n        prev = snap\n",
             "        yield n, snap, energy, report\n        if report is not None:\n"
             "            prev = snap\n"),
        ]),
    # the symmetrizer energy on a background uniform in x2 left unweighted by A0
    "symmetrizer-drops-a0": Mutant(
        "tests/test_acceptance.py::TestCriterion06EnergyStability::test_symmetrizer_energy_drift",
        [
            (SOLVER, 'np.einsum("ij,ij->j", A0[..., 0], np.einsum("ijk,ijk->ij", U, U))',
             'np.einsum("ijk,ijk->j", U, U)'),
        ]),
    # the source H1 norm without its centred time difference
    "drop-source-norm-time-term": Mutant(
        "tests/test_solver.py::TestSourceNorm::"
        "test_matches_the_term_by_term_reference_on_a_random_source",
        [
            (SOLVER, "                s += _sq_norm(scratch, grid) / (2.0 * dt) ** 2\n", ""),
        ]),
    # the growing roots taken as the decaying basis
    "flip-decaying-selection": Mutant(
        "tests/test_spectral.py::TestDispersionRoots::test_modes_satisfy_the_full_system",
        [
            (SPECTRAL, "red = vecs[:, :, :2]", "red = vecs[:, :, 2:]"),
        ]),
    # the pencil without the eliminated H1 equation's w2^2 / sigma coupling
    "drop-eliminated-H1-coupling": Mutant(
        "tests/test_spectral.py::TestDispersionRoots::test_modes_satisfy_the_full_system",
        [
            (SPECTRAL, " + (w2 ** 2 / sigma) * Pc)", ")"),
        ]),
    # the minus side's pencil with the plus side's sign, -A1^-1 M instead of +A1^-1 M
    "drop-side-sign-fold": Mutant(
        "tests/test_acceptance.py::TestCriterion07DeterminantScan::"
        "test_five_data_sets_over_the_window",
        [
            (SPECTRAL, "P.append([-side * b for b in blocks])", "P.append([-b for b in blocks])"),
        ]),
    # the coefficients keep a view into the background's + side, which pins its u arrays
    "coefficients-view-background": Mutant(
        "tests/test_memory.py::test_coefficients_share_no_memory_with_their_background[constant]",
        [
            (SOLVER, "v2_hat_wall=basic.u.plus[2, 0, :].copy(),",
             "v2_hat_wall=basic.u.plus[2, 0, :],"),
        ]),
    # the coefficients' compaction takes a background input that varies in x2 for one that
    # varies in x1 only, keeping its first column
    "compact-x2-as-x1": Mutant(
        "tests/test_acceptance.py::TestCriterion04FirstVariation::test_finite_difference_slope",
        [
            (LINEARIZATION, "            return cut.copy()\n    return a\n",
             "            return cut.copy()\n    return a[..., :1].copy()\n"),
        ]),
    # the validator's peaks read NaN as a value, which no `m > worst` ever beats
    "nan-blind-validation": Mutant(
        "tests/test_linearization.py::TestValidation::test_nan_background_fails_at_its_location",
        [
            (LINEARIZATION, "return float(np.max(arr)) if np.all(np.isfinite(arr)) else np.inf",
             "return float(np.max(arr))"),
        ]),
    # the admissibility checks judged on their first residual field alone
    "judge-first-field-only": Mutant(
        "tests/test_linearization.py::TestValidation::"
        "test_violation_on_the_minus_side_alone_fails_at_its_node",
        [
            (LINEARIZATION, "    peaks = [_peak(f) for f in fields.values()]\n",
             "    peaks = [_peak(f) for f in list(fields.values())[:1]]\n"),
        ]),
    # an expression's ^ left to Python, where it is the unsupported bitwise xor
    "caret-as-xor": Mutant(
        "tests/test_config.py::TestExpression::test_constant_values[2+3*4^2-50.0]",
        [
            (CONFIG, '.replace("^", "**")', ""),
        ]),
    # a number that float() accepts taken as it is, so inf and nan pass every numeric key
    "float-accepts-non-finite": Mutant(
        "tests/test_cli.py::TestExitCodes::"
        "test_non_finite_or_unusable_number_exits_two_without_artifacts"
        "[run.T_final=inf-run.T_final]",
        [
            (CONFIG, "    if not math.isfinite(v):\n"
                     "        raise ConfigError(f\"{key} must be finite, got {text!r}\")\n", ""),
        ]),
    # adjoint-check accepts grid.cfl_max again, though it takes no time step
    "dead-schema-key": Mutant(
        "tests/test_cli.py::TestSchemas::test_each_kind_accepts_only_the_keys_its_run_reads",
        [
            (CONFIG, '        "adjoint.trials": (_as_posint, 20),\n',
             '        "adjoint.trials": (_as_posint, 20),\n'
             '        "grid.cfl_max": (_as_posfloat, 0.4),\n'),
        ]),
    # the energy test's drift gate ten times wider, so a 6% loss of energy passes
    "wide-drift-gate": Mutant(
        "tests/test_cli.py::TestExitCodes::test_failed_check_exits_one",
        [
            (SCENARIOS, "DRIFT_TOLERANCE = 0.01 ", "DRIFT_TOLERANCE = 0.1 "),
        ]),
    # the symbol's transport part without the time component n0, so A0 = 0 on the diagonal
    "drop-n0-in-symbol": Mutant(
        "tests/test_mhd.py::TestCoefficientMatrices::test_a0_positive_definite",
        [
            (MHD, "    vn = n0 + n1 * v1 + n2 * v2\n    return",
             "    vn = n1 * v1 + n2 * v2\n    return"),
        ]),
    # the symbol's n2 H1 coupling of v2 to H1 with the wrong sign
    "flip-n2-H1-coupling": Mutant(
        "tests/test_mhd.py::TestMatrixDerivatives::"
        "test_directional_derivatives_match_finite_differences",
        [
            (MHD, "(2, 3): n2 * H1,", "(2, 3): -n2 * H1,"),
        ]),
    # the state derivative of the momentum entries without the transport symbol's derivative
    "drop-dvn-in-dsymbol-momentum": Mutant(
        "tests/test_mhd.py::TestMatrixDerivatives::"
        "test_directional_derivatives_match_finite_differences",
        [
            (MHD, "dmom = drho * vn + rho * dvn", "dmom = drho * vn"),
        ]),
    # number literals kept as Python reads them, so 3^34 is integer arithmetic
    "integer-constants": Mutant(
        "tests/test_cli.py::TestExitCodes::test_variable_free_division_by_zero_exits_two",
        [
            (CONFIG, "        value = np.float64(literal)\n", "        value = node.value\n"),
        ]),
}


def apply_edits(tree: Path, name: str) -> None:
    for rel, old, new in MUTANTS[name].edits:
        path = tree / rel
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"mutant {name}: {old!r} occurs {count} times in {rel}, not once")
        path.write_text(text.replace(old, new))


def run_suite(tree: Path, tests: tuple[str, ...] = ()) -> tuple[bool, str]:
    """(passed, first failing test or reason) of the given tests, or of the
    whole tier-1, in the tree."""
    env = dict(os.environ, PYTHONPATH="src")
    try:
        proc = subprocess.run([*TIER1, *tests], cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    # only the summary names tests; captured output above it may start with FAILED too
    start = next((i for i, ln in enumerate(lines) if "short test summary info" in ln), len(lines))
    failed = [ln.split(" - ")[0] for ln in lines[start:] if ln.startswith(("FAILED", "ERROR"))]
    if proc.returncode == 0:
        return True, lines[-1] if lines else ""
    return False, failed[0] if failed else (lines[-1] if lines else f"exit {proc.returncode}")


def run_one(name: str | None) -> tuple[bool, str]:
    """(survived, detail) of the named mutant, or of the unmutated tree for
    None.  A recorded killer runs alone first; the whole tier-1 runs only
    when it passes, or when the mutant has none or it is not collected."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if name is not None:
            apply_edits(tree, name)
            killer = MUTANTS[name].killer
            if killer is not None:
                passed, detail = run_suite(tree, (killer,))
                if detail.startswith(("FAILED ", "ERROR ")):   # not a killer gone from the suite
                    return passed, detail
        return run_suite(tree)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(MUTANTS))
        return 0
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        ap.error(f"unknown mutant(s) {', '.join(unknown)}; see --list")
    passed, detail = run_one(None)
    print(f"{'unmutated':30s} {'passes' if passed else 'FAILS'}  {detail}", flush=True)
    if not passed:
        return 2
    survivors = 0
    for name in args.names or MUTANTS:
        passed, detail = run_one(name)
        survivors += passed
        print(f"{name:30s} {'survived' if passed else 'killed'}  {detail}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
