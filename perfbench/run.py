"""contact-stab benchmark: shipped configs run through `contact_stab.cli.main`.

    python3 perfbench/run.py --workload energy|mms|rt|spectral
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Run from the root of a source checkout.  Each call starts SETUP_REPEATS
fresh processes that time set-up only, then one fresh process that runs the
workload's configs in a closed loop with one client for about S seconds,
checking every run's artifacts.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Lines
before it repeat each metric as `name value unit` and record the
environment.  CLI artifacts go to a temporary `.perfbench-*` directory in
the checkout, removed at exit; spans of a traced run are written to
`.perfbench-out/spans-<workload>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
from importlib import metadata
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import ALL_CONFIGS, BLAS_ENV_VARS, BLAS_THREADS, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0          # the whole call, children included

# What `work_rate_norm` counts on each workload.
WORK_UNIT = {"energy": "cell_steps", "mms": "cell_steps", "rt": "cell_steps",
             "spectral": "det_points"}

E2E_UNITS = {"wall_norm_s": "s", "setup_s": "s", "work_rate_norm": "1/s",
             "peak_rss_mb": "MB", "ok_frac": "fraction"}

# per-layer metrics: (layer, suffix) -> unit
_TIMED = ("calls", "count"), ("busy_s", "s"), ("self_s", "s")
_LAYER_EXTRAS = {
    "solver.step": (("per_call_ms", "ms"),),
    "solver.sources.g": (("calls_per_step", "count"),),
    "spectral.det": (("per_call_us", "us"), ("degenerate_frac", "fraction")),
    "cli.artifacts": (("bytes", "B"),),
}
LAYER_ORDER = ("cli.main", "config.parse", "linearization.background", "solver.assemble",
               "solver.step", "grid.stencil", "solver.interface", "solver.sources.f",
               "solver.sources.g", "solver.monitor", "solver.lift", "spectral.det",
               "mhd.assemble_matrices", "scenarios.run", "cli.artifacts")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYER_ORDER:
        for suffix, unit in _TIMED + _LAYER_EXTRAS.get(layer, ()):
            units[f"{layer}.{suffix}"] = unit
    units.update({f"cli.{name}.wall_s": "s" for name in ALL_CONFIGS})
    units.update({"solver.cell_steps": "count", "solver.coeff.bytes": "B",
                  "solver.coeff.nnz_frac": "fraction", "trace.overhead_frac": "fraction"})
    return units


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(child_env: dict) -> dict:
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = metadata.version(mod)
        except metadata.PackageNotFoundError:
            versions[mod] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "blas_threads": {k: child_env[k] for k in BLAS_ENV_VARS},
        "cli_threads_arg": BLAS_THREADS,
        "cli_threads_applied": importlib.util.find_spec("threadpoolctl") is not None,
    }


def _child(mode: str, args, tmp: Path, env: dict, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", str(tmp), "--reference", str(args.reference),
           *extra]
    if args.size == "tiny":
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for the {mode} process")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, setups: list[dict], res: dict) -> dict[str, float | None]:
    rounds = res["plain"]
    wall = _median(r["norm_s"] for r in rounds)
    unit = WORK_UNIT[workload]
    counter = tracing.STEP_TARGET if unit == "cell_steps" else tracing.DET_TARGET
    work = rounds[0][unit] if counter not in res["absent"] else None
    calls = sum(len(r["configs"]) for r in rounds)
    bad = sum(len(r["failed"]) for r in rounds)
    return {
        "wall_norm_s": wall,
        "setup_s": _median(s["setup_s"] for s in setups),
        "work_rate_norm": work / wall if work is not None else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (calls - bad) / calls,
    }


def per_layer(res: dict) -> dict[str, float | None]:
    traced, plain = res["traced"], res["plain"]
    n = len(traced)
    layers = res["layers"]
    absent = set(res["absent_layers"])
    out: dict[str, float | None] = {}
    for layer in LAYER_ORDER:
        if layer in absent:
            out.update({f"{layer}.{s}": None for s, _ in _TIMED + _LAYER_EXTRAS.get(layer, ())})
            continue
        d = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{key}"] = d[key] / n
    step = layers.get("solver.step", {"calls": 0, "busy_s": 0.0})
    det = layers.get("spectral.det", {"calls": 0, "busy_s": 0.0})
    steps, dets = step["calls"], det["calls"]
    degenerate = res["errors"].get("spectral.det:DegeneratePointError", 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    extras = {
        "solver.step.per_call_ms": ratio(step["busy_s"], steps, 1e3),
        "solver.sources.g.calls_per_step": ratio(res["g_in_step"], steps),
        "spectral.det.per_call_us": ratio(det["busy_s"], dets, 1e6),
        "spectral.det.degenerate_frac": ratio(degenerate, dets),
        "cli.artifacts.bytes": res["artifact_bytes"] / n,
    }
    for key, val in extras.items():
        if key.rsplit(".", 1)[0] not in absent:
            out[key] = val
    for name in ALL_CONFIGS:
        out[f"cli.{name}.wall_s"] = _median(r["configs"][name] for r in plain
                                            if name in r["configs"])
    out["solver.cell_steps"] = traced[0]["cell_steps"]
    # no assembly on the workload reads 0; an unrecognized layout is absent
    coeff = res["coeff"] or ({} if res["coeff_layout_unknown"] else {"bytes": 0, "nnz_frac": 0.0})
    out["solver.coeff.bytes"] = coeff.get("bytes")
    out["solver.coeff.nnz_frac"] = coeff.get("nnz_frac")
    out["trace.overhead_frac"] = (_median(r["norm_s"] for r in traced)
                                  / _median(r["norm_s"] for r in plain) - 1.0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every config through overrides (smoke tests)")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="reference values for the default seed")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [str(path) for path in (ROOT / "src" / "contact_stab" / "cli.py", ROOT / "configs")
               if not path.exists()]
    if missing:
        print(f"perfbench: not a contact-stab checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV_VARS})
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = [_child("setup", args, tmp, env, deadline) for _ in range(SETUP_REPEATS)]
        res = _child("run", args, tmp, env, deadline,
                     ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = res["plain"] + res.get("traced", [])
    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(len(r["configs"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    if args.trace:
        values, units = per_layer(res), per_layer_units()
    else:
        values, units = end_to_end(args.workload, setups, res), E2E_UNITS
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values.get(name), "unit": unit}
        if values.get(name) is None:
            metrics[name]["absent"] = True
    env_record = environment(env)
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {len(res['plain'])} timed rounds"
          + (f", {len(res['traced'])} traced rounds" if args.trace else "")
          + f", work unit {WORK_UNIT[args.workload]}")
    plain = res["plain"]
    print(f"raw round wall {_median(r['wall_s'] for r in plain)} s, speed probe "
          f"{_median(r['probe_s'] for r in plain) * 1e3} ms")
    if res["absent"]:
        print("absent targets: " + ", ".join(res["absent"]))
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
