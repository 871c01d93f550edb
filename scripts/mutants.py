#!/usr/bin/env python3
"""Run named textual mutants of the source against the tier-1 suite.

    python3 scripts/mutants.py              # the unmutated tree, then every mutant
    python3 scripts/mutants.py NAME ...     # the unmutated tree, then the named ones
    python3 scripts/mutants.py --list

Each mutant is a list of (file, text, replacement) edits; every text must
occur exactly once in its file, or the script stops with an error naming
it.  Per mutant the source tree is copied to a temporary directory, the
edits are applied there, and the tier-1 command runs in the copy with
`-x`, so it stops at the first failure.  A failing suite prints `killed`
with that test, a passing one `survived`.  The unmutated copy runs first:
if it fails, no mutant result means anything and the script stops.

Standard library only; not part of tier-1 (each mutant runs the whole
suite, about 40 s on two cores).  Exits 1 when a mutant survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/contact_stab/solver.py"
FIELDS = "src/contact_stab/fields.py"
SPECTRAL = "src/contact_stab/spectral.py"
GRID = "src/contact_stab/grid.py"
LINEARIZATION = "src/contact_stab/linearization.py"
CONFIG = "src/contact_stab/config.py"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIMEOUT_S = 1800
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-*", "out")

MUTANTS: dict[str, list[tuple[str, str, str]]] = {
    # apply_interface_conditions corrects nothing: all four jump rows dropped
    "drop-jump-projections": [
        (SOLVER, "    r = _jump_residual(tp, tm, phi, coeffs, g_rows)\n",
         "    r = 0.0 * _jump_residual(tp, tm, phi, coeffs, g_rows)\n"),
    ],
    # the RT front feedback of rows 0 and 3 with the wrong sign
    "flip-front-feedback": [
        (SOLVER, "tp[0] - tm[0] + phi * coeffs.jump_d1_p,",
         "tp[0] - tm[0] - phi * coeffs.jump_d1_p,"),
        (SOLVER, "(tm[3] * tau + tm[4]) + phi * coeffs.jump_d1_Htau,",
         "(tm[3] * tau + tm[4]) - phi * coeffs.jump_d1_Htau,"),
    ],
    "drop-d1-vN-in-front-rhs": [
        (SOLVER, "rhs = vN_plus + phi * coeffs.d1_vN_plus - ", "rhs = vN_plus - "),
    ],
    "swap-upwind-branches": [
        (SOLVER, "return np.where(a >= 0.0, dp, dm)", "return np.where(a >= 0.0, dm, dp)"),
    ],
    # the companion's c0 entry of the side operator without its - eps * d11phi part
    "drop-eps-d11phi-in-c0": [
        (SOLVER, "-(sc.div_u - epsilon * sc.d11phi) / sc.d1phi)", "-sc.div_u / sc.d1phi)"),
    ],
    # the companion row 6 without its source term div f_h / d1Phi
    "drop-companion-source": [
        (SOLVER, "                div *= w / sc.d1phi\n", "                div[...] = 0.0\n"),
    ],
    # run steps rows 0-5 alone from a nonzero companion row when no source drives it
    "companion-rows-ignore-initial": [
        (SOLVER, "companion_moves = sources.f is not None or snap.sides[:, 6].any()",
         "companion_moves = sources.f is not None"),
    ],
    # run steps rows 0-5 alone under a source f when the companion row starts zero
    "companion-rows-ignore-source": [
        (SOLVER, "companion_moves = sources.f is not None or snap.sides[:, 6].any()",
         "companion_moves = snap.sides[:, 6].any()"),
    ],
    # the forced terms never refilled after their first fill, whatever the stage time
    "stale-source-term": [
        (SOLVER, "        key = (t, w, sources.f)\n", "        key = ()\n"),
    ],
    # the forced terms refilled for a new stage time or source, but not for a new weight
    "forced-term-key-ignores-weight": [
        (SOLVER, "key = (t, w, sources.f)", "key = (t, sources.f)"),
    ],
    # the forced terms refilled for a new stage time or weight, but not for a new source
    "forced-term-key-ignores-source": [
        (SOLVER, "key = (t, w, sources.f)", "key = (t, w)"),
    ],
    # the third and fourth stages' weights swapped, dt/6 and dt/3 for dt/3 and dt/6
    "swap-last-stage-weights": [
        (SOLVER, "(half, dt / 3.0, dt), (t + dt, dt / 6.0, None)",
         "(half, dt / 6.0, dt), (t + dt, dt / 3.0, None)"),
    ],
    # both sides' block differences and planes taken from side +'s scratch, so the
    # worker's side - writes into the buffers side + reads
    "shared-side-scratch": [
        (SOLVER, "cols, scratch = self.entries[s][0].shape[1], k * self.apart",
         "cols, scratch = self.entries[s][0].shape[1], 0"),
    ],
    # the rows a stage differences stop one short of the last row its operator reads
    "drop-last-derivative-row": [
        (SOLVER, "lo, hi = (min(read), max(read) + 1) if read else (0, 0)",
         "lo, hi = (min(read), max(read)) if read else (0, 0)"),
    ],
    # the companion row 6 without its far-wall extrapolation
    "drop-companion-far-wall": [
        (SOLVER, "    y.sides[:, 6, -1, :] = y.sides[:, 6, -2, :]\n", ""),
    ],
    # the lift's traces fed the front with the wrong sign
    "flip-phi-tilde-in-lift": [
        (SOLVER, "r = _jump_residual(zero, zero, phi_tilde, self.coeffs, g_rows)",
         "r = _jump_residual(zero, zero, -phi_tilde, self.coeffs, g_rows)"),
    ],
    "halve-tangential-weight": [
        (SOLVER, "wt = 0.5 / (1.0 + tau ** 2)", "wt = 0.25 / (1.0 + tau ** 2)"),
    ],
    # the sides of a snapshot's U can be rebound, detaching them from data
    "unfreeze-two-sided-field": [
        (FIELDS, "@dataclass(frozen=True)\nclass TwoSidedField:", "@dataclass\nclass TwoSidedField:"),
    ],
    # run without its check that the symmetrizer energy is finite
    "drop-energy-blowup-check": [
        (SOLVER, "        if not np.isfinite(energy):\n            raise BlowUpError(snap.t, "
                 "f\"non-finite symmetrizer energy at t = {snap.t:.6g}\")\n", ""),
    ],
    # d2_diff keeps its flattened pass's differences across line ends at x2 = 0, X2
    "drop-d2-wrap-columns": [
        (GRID, "    np.subtract(V[..., 1], V[..., -1], out=out[..., 0])\n"
               "    np.subtract(V[..., 0], V[..., -2], out=out[..., -1])\n", ""),
    ],
    # a row range's d1 past the first block reads its own first row, not the halo row above
    "block-halo-own-first-row": [
        (GRID, "                out=out[..., lo - r0:hi - r0, :])\n",
         "                out=out[..., lo - r0:hi - r0, :])\n"
         "    if r0 > 0:\n"
         "        np.subtract(U[..., r0 + 1, :], U[..., r0, :], out=out[..., 0, :])\n"),
    ],
    # the uniform d2 entries act on raw differences without the stencil's 1/(2 h2)
    "unfold-d2-scale": [
        (SOLVER, "M[i, k * rows + j] = c / h\n", "M[i, k * rows + j] = c / h if k == 0 else c\n"),
    ],
    # the field-valued d1 entries of a stage left out of its kernel
    "drop-field-valued-d1-entries": [
        (SOLVER, "                fields[k].append((i, j, c / h))\n",
         "                if k:\n                    fields[k].append((i, j, c / h))\n"),
    ],
    # the -eps d1 regularization put on the diagonal of d2 instead
    "eps-diagonal-on-d2": [
        (SOLVER, "eps = epsilon * fold[i] if k == 0 and i == j else 0.0",
         "eps = epsilon * fold[i] if k == 1 and i == j else 0.0"),
    ],
    # the lift's source without the A0 dU_tilde/dt part
    "drop-lift-time-derivative": [
        (SOLVER, "        np.subtract(self._L, rate, out=rate)\n",
         "        np.copyto(rate, self._L)\n"),
    ],
    # the rows whose A0^-1 is a field left unscaled by it
    "drop-row-rescale": [
        (SOLVER, "        for i, a0_inv in rescale:\n            out[i] *= a0_inv\n", ""),
    ],
    # the sampled reports' dtU taken against the previous sample, not the step before
    "report-prev-from-last-sample": [
        (SOLVER, "        yield n, snap, energy, report\n        prev = snap\n",
         "        yield n, snap, energy, report\n        if report is not None:\n"
         "            prev = snap\n"),
    ],
    # the symmetrizer energy on a background uniform in x2 left unweighted by A0
    "symmetrizer-drops-a0": [
        (SOLVER, 'np.einsum("ij,ij->j", A0[..., 0], np.einsum("ijk,ijk->ij", U, U))',
         'np.einsum("ijk,ijk->j", U, U)'),
    ],
    # the source H1 norm without its centred time difference
    "drop-source-norm-time-term": [
        (SOLVER, "                s += _sq_norm(scratch, grid) / (2.0 * dt) ** 2\n", ""),
    ],
    # the growing roots taken as the decaying basis
    "flip-decaying-selection": [
        (SPECTRAL, "red = vecs[:, :, :2]", "red = vecs[:, :, 2:]"),
    ],
    # the pencil without the eliminated H1 equation's w2^2 / sigma coupling
    "drop-eliminated-H1-coupling": [
        (SPECTRAL, " + (w2 ** 2 / sigma) * Pc)", ")"),
    ],
    # the minus side's pencil with the plus side's sign, -A1^-1 M instead of +A1^-1 M
    "drop-side-sign-fold": [
        (SPECTRAL, "P.append([-side * b for b in blocks])", "P.append([-b for b in blocks])"),
    ],
    # the coefficients keep a view into the background's + side, which pins its u arrays
    "coefficients-view-background": [
        (SOLVER, "v2_hat_wall=basic.u.plus[2, 0, :].copy(),", "v2_hat_wall=basic.u.plus[2, 0, :],"),
    ],
    # the coefficients' compaction takes a background input that varies in x2 for one that
    # varies in x1 only, keeping its first column
    "compact-x2-as-x1": [
        (LINEARIZATION, "            return cut.copy()\n    return a\n",
         "            return cut.copy()\n    return a[..., :1].copy()\n"),
    ],
    # the validator's peaks read NaN as a value, which no `m > worst` ever beats
    "nan-blind-validation": [
        (LINEARIZATION, "return float(np.max(arr)) if np.all(np.isfinite(arr)) else np.inf",
         "return float(np.max(arr))"),
    ],
    # the admissibility checks judged on their first residual field alone
    "judge-first-field-only": [
        (LINEARIZATION, "    peaks = [_peak(f) for f in fields.values()]\n",
         "    peaks = [_peak(f) for f in list(fields.values())[:1]]\n"),
    ],
    # an expression's ^ left to Python, where it is the unsupported bitwise xor
    "caret-as-xor": [
        (CONFIG, '.replace("^", "**")', ""),
    ],
    # number literals kept as Python reads them, so 3^34 is integer arithmetic
    "integer-constants": [
        (CONFIG, "        value = np.float64(literal)\n", "        value = node.value\n"),
    ],
}


def apply_edits(tree: Path, name: str) -> None:
    for rel, old, new in MUTANTS[name]:
        path = tree / rel
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"mutant {name}: {old!r} occurs {count} times in {rel}, not once")
        path.write_text(text.replace(old, new))


def run_suite(tree: Path) -> tuple[bool, str]:
    """(passed, first failing test or reason) of tier-1 in the tree."""
    env = dict(os.environ, PYTHONPATH="src")
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
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
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if name is not None:
            apply_edits(tree, name)
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
