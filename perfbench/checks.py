"""Correctness of a CLI run, judged from the artifacts it wrote.

`cli.main` returns only an exit code, so the headline values are read back
from report.txt and the CSV tables.  When a run's command line matches the
one recorded in reference.json (the default seed), each value must agree
with the reference to a relative tolerance; otherwise the scenario's own
exit code and verdict are the check.

    python3 perfbench/checks.py --record    # rewrite reference.json

`--record` runs every workload's configs once at the default seed on the
current tree; use it only when the reference itself must change.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Tight enough to catch a wrong answer, loose enough for reordered sums and
# for values the CLI prints with seven significant digits.
RTOL = 1e-5
# Absolute floors: drift is a small difference of energies, the order is
# printed with three decimals, and a zero reference allows rounding noise.
ATOL = {
    "energy_drift": 1e-9,
    "energy_increase": 1e-9,
    "order": 1e-3,
}
ZERO_ATOL = 1e-12
ADJOINT_TOLERANCE = 1e-10
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf"


def _report(outdir: Path) -> list[str]:
    return (outdir / "report.txt").read_text().splitlines()


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _numbers(line: str) -> list[float]:
    return [float(x) for x in re.findall(_NUM, line.split(":", 1)[-1])]


def _line(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line
    raise ValueError(f"report has no line starting with {prefix!r}")


def _energy(outdir: Path) -> dict[str, float]:
    energies = [float(r["E_symmetrizer"]) for r in _rows(outdir / "symmetrizer_energy.csv")]
    e0 = energies[0]
    last = _rows(outdir / "energy.csv")[-1]
    return {
        "steps": len(energies) - 1,
        "E0": e0,
        "E_final": energies[-1],
        "energy_drift": max(abs(e - e0) for e in energies) / e0,
        "energy_increase": max(max(energies) - e0, 0.0) / e0,
        "J_final": float(last["J"]),
        "I_plus_final": float(last["I_plus"]),
        "I_minus_final": float(last["I_minus"]),
    }


def _mms(outdir: Path) -> dict[str, float]:
    out = {}
    for r in _rows(outdir / "mms.csv"):
        out[f"rel_error_N{r['N']}"] = float(r["rel_error"])
        out[f"div_defect_N{r['N']}"] = float(r["div_defect"])
    out["order"] = _numbers(_line(_report(outdir), "space-time L2 order"))[0]
    return out


def _rt(outdir: Path) -> dict[str, float]:
    lines = _report(outdir)
    f_norm, g_norm = _numbers(_line(lines, "source H1 norms"))[-2:]
    last = _rows(outdir / "timeseries.csv")[-1]
    return {
        "J_max": _numbers(_line(lines, "sup_t J"))[0],
        "f_h1_norm": f_norm,
        "lifted_g_h1_norm": g_norm,
        "ratio": _numbers(_line(lines, "normalized ratio"))[-1],
        "J_final": float(last["J"]),
    }


def _eps_sweep(outdir: Path) -> dict[str, float]:
    out = {}
    for r in _rows(outdir / "eps_sweep.csv"):
        for key in ("J_max", "trace_bound", "diff_to_next", "ratio"):
            val = float(r[key])
            if math.isfinite(val):
                out[f"{key}@{r['eps']}"] = val
    return out


def _spectrum(outdir: Path) -> dict[str, float]:
    lines = _report(outdir)
    neutral = _numbers(_line(lines, "neutral-family"))[-3:]
    vals = [float(r["abs_delta_normalized"]) for r in _rows(outdir / "spectrum.csv")]
    finite = [v for v in vals if math.isfinite(v)]
    return {
        "points": len(vals),
        "degenerate_points": len(vals) - len(finite),
        "min_abs_delta": _numbers(_line(lines, "scan"))[-1],
        "sum_abs_delta": math.fsum(finite),
        **{f"neutral_{i}": v for i, v in enumerate(neutral)},
    }


def _validate(outdir: Path) -> dict[str, float]:
    out = {}
    for line in _report(outdir):
        parts = line.split()
        if len(parts) >= 4 and parts[1] in ("PASS", "FAIL") and parts[2] == "max-residual":
            out[parts[0]] = float(parts[3])
    return out


def _adjoint(outdir: Path) -> dict[str, float]:
    return {"defect": _numbers(_line(_report(outdir), "max relative duality defect"))[-1]}


EXTRACTORS = {
    "energy-test": _energy,
    "mms": _mms,
    "rt-run": _rt,
    "eps-sweep": _eps_sweep,
    "spectrum": _spectrum,
    "validate-state": _validate,
    "adjoint-check": _adjoint,
}


def extract(subcommand: str, outdir: Path) -> dict[str, float]:
    return EXTRACTORS[subcommand](outdir)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def check_run(name: str, subcommand: str, overrides: list[str], exit_code: int,
              outdir: Path, reference: dict) -> list[str]:
    """Problems found with one CLI run; an empty list means correct."""
    if exit_code != 0:
        return [f"{name}: exit code {exit_code}"]
    try:
        lines = _report(outdir)
        values = extract(subcommand, outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{name}: unreadable artifacts ({type(exc).__name__}: {exc})"]
    problems = []
    if "overall: PASS" not in lines:
        problems.append(f"{name}: report does not say 'overall: PASS'")
    if subcommand == "adjoint-check" and not values["defect"] <= ADJOINT_TOLERANCE:
        problems.append(f"{name}: duality defect {values['defect']:.3e} > {ADJOINT_TOLERANCE:g}")
    ref = reference.get(name)
    if ref is None or ref["overrides"] != list(overrides):
        return problems                       # not the reference command: verdict only
    for key, want in ref["values"].items():
        got = values.get(key)
        if got is None:
            problems.append(f"{name}: {key} missing from the artifacts")
            continue
        atol = ATOL.get(key, ZERO_ATOL if want == 0 else 0.0)
        if not abs(got - want) <= RTOL * abs(want) + atol:
            problems.append(f"{name}: {key} = {got!r}, reference {want!r}")
    return problems


def _record() -> None:
    import contextlib
    import io
    import shutil
    import sys
    import tempfile

    from workloads import DEFAULT_SEED, WORKLOADS

    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    from contact_stab import cli

    reference = {}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        for runs in WORKLOADS.values():
            for run in runs:
                outdir = tmp / run.name
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(run.argv(root, outdir, DEFAULT_SEED))
                if code != 0:
                    raise SystemExit(f"{run.name} exited {code}; reference not written")
                reference[run.name] = {
                    "overrides": run.overrides_for(root, DEFAULT_SEED),
                    "values": extract(run.subcommand, outdir),
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    if parser.parse_args().record:
        _record()
    else:
        parser.print_help()
