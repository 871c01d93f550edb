"""Command-line front end.

    contact-stab <subcommand> <config> [--out DIR] [--threads N]
                 [--override section.key=value]...

Subcommands are the scenario kinds (validate-state, spectrum, energy-test,
neutral-mode, rt-run, eps-sweep, adjoint-check, mms).  Exit codes: 0
success, 1 check failure, 2 config error or inadmissible background, 3
numerical blow-up (non-finite state or energy).  Each run writes a report,
CSV tables, gnuplot-ready .dat copies, binary snapshot dumps with sidecar
headers, and an execution manifest into the output directory.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, SCENARIO_KINDS, parse_config
from .geometry import AdmissibilityError
from .linearization import GeometryError
from .mhd import InadmissibleStateError
from .scenarios import RUNNERS, ScenarioResult
from .solver import CPUS, BlowUpError, Snapshot

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # --threads is then recorded but not applied
    threadpool_limits = None

# the BLAS and OpenMP thread settings the manifest records as the run saw them
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="contact-stab",
        description="Numerical laboratory for linearized MHD contact interfaces.",
    )
    p.add_argument("subcommand", choices=sorted(SCENARIO_KINDS))
    p.add_argument("config", help="path to a section.key = value config file")
    p.add_argument("--out", default=None, help="output directory (overrides run.out)")
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS thread cap, applied when threadpoolctl is installed "
                        "(the manifest records whether it was)")
    p.add_argument("--override", action="append", default=[],
                   metavar="section.key=value", help="config override (repeatable)")
    return p


def write_snapshot(path_base: Path, snap: Snapshot, grid) -> None:
    """Flat little-endian float64 dump plus a sidecar text header."""
    payload = np.concatenate([
        snap.U.plus.astype("<f8").ravel(),
        snap.U.minus.astype("<f8").ravel(),
        snap.phi.astype("<f8").ravel(),
    ])
    payload.tofile(path_base.with_suffix(".bin"))
    header = [
        f"N1 = {grid.N1}",
        f"N2 = {grid.N2}",
        f"X1 = {grid.X1!r}",
        f"X2 = {grid.X2!r}",
        f"t = {snap.t!r}",
        "layout = plus[6,N1,N2] minus[6,N1,N2] phi[N2]",
        "components = p,v1,v2,H1,H2,S",
        "dtype = little-endian float64",
    ]
    path_base.with_suffix(".hdr").write_text("\n".join(header) + "\n")


def read_snapshot(path_base: Path):
    """Inverse of write_snapshot: returns (plus, minus, phi, t)."""
    meta = {}
    for line in path_base.with_suffix(".hdr").read_text().splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            meta[k.strip()] = v.strip()
    N1, N2 = int(meta["N1"]), int(meta["N2"])
    raw = np.fromfile(path_base.with_suffix(".bin"), dtype="<f8")
    n = 6 * N1 * N2
    plus = raw[:n].reshape(6, N1, N2)
    minus = raw[n:2 * n].reshape(6, N1, N2)
    phi = raw[2 * n:2 * n + N2]
    return plus, minus, phi, float(meta["t"])


def _csv_to_dat(lines: list[str]) -> list[str]:
    """Space-separated copy with a commented header for gnuplot."""
    out = []
    for i, line in enumerate(lines):
        cells = line.split(",")
        if i == 0:
            out.append("# " + " ".join(cells))
        else:
            out.append(" ".join(cells))
    return out


def write_artifacts(outdir: Path, cfg, result: ScenarioResult,
                    wall_time: float, threads: int) -> None:
    (outdir / "report.txt").write_text("\n".join(result.report) + "\n")
    for name, lines in result.csv.items():
        (outdir / name).write_text("\n".join(lines) + "\n")
        dat = _csv_to_dat(lines)
        (outdir / name).with_suffix(".dat").write_text("\n".join(dat) + "\n")
    for name, snap, grid in result.snapshots:
        write_snapshot(outdir / f"snapshot_{name}", snap, grid)
    manifest = [
        f"tool = contact-stab {__version__}",
        f"wall_time_seconds = {wall_time:.3f}",
        f"threads = {threads}",
        f"threads_applied = {'no' if threadpool_limits is None else 'yes'}",
        *(f"{var} = {os.environ.get(var, 'unset')}" for var in _THREAD_VARIABLES),
        f"cpus = {CPUS}",   # a step runs its two sides on two threads
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"exit_code = {result.exit_code}",
        "",
        "# resolved configuration",
        *cfg.echo_lines(),
    ]
    (outdir / "manifest.txt").write_text("\n".join(manifest) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.subcommand, overrides=args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out) if args.out else Path(cfg["run.out"])
    # the directories mkdir makes, deepest first, removed again on a config error
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]
    try:   # before the run, so that an unusable --out costs no computation
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {outdir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    limiter = threadpool_limits(limits=args.threads) if threadpool_limits else None
    t0 = time.perf_counter()
    try:
        result = RUNNERS[args.subcommand](cfg)
    except ConfigError as exc:
        for d in made:
            d.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InadmissibleStateError, AdmissibilityError, GeometryError) as exc:
        result = ScenarioResult(exit_code=2, report=[
            f"inadmissible background ({type(exc).__name__}): {exc}"])
    except BlowUpError as exc:
        result = ScenarioResult(exit_code=3, report=[f"blow-up at t = {exc.t:.6g}"])
    finally:
        if limiter is not None:
            limiter.unregister()
    wall = time.perf_counter() - t0
    write_artifacts(outdir, cfg, result, wall, args.threads)
    for line in result.report:
        print(line)
    if not result.ok:
        print(f"FAILED (exit {result.exit_code}); artifacts in {outdir}", file=sys.stderr)
    else:
        print(f"artifacts written to {outdir}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
