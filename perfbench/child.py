"""One fresh benchmark process; `run.py` starts it and reads its last line.

    child.py setup --workload W --seed N --tmp DIR
        Times the package import plus, per config, everything `cli.main`
        does before the first time step or determinant point.
    child.py run --workload W --seed N --seconds S --trace 0|1 --tmp DIR
        Runs the workload's configs through `cli.main` in a closed loop with
        one client, checks every run's artifacts, and reports round times,
        work counts and peak RSS; with --trace 1 half the time is spent on
        traced rounds, whose spans are written to
        .perfbench-out/spans-<workload>.jsonl.gz.

Only the standard library is imported before the timed package import.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class _ReachedTimeLoop(BaseException):
    """Raised from the first time step or determinant point to end set-up.

    A BaseException, so that no handler in the program mistakes it for a
    failure of its own.
    """


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    from contact_stab import cli

    return cli


def _call_cli(cli, argv) -> tuple[int, str]:
    """Run cli.main with its stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def setup(args) -> dict:
    t0 = time.perf_counter()
    cli = _import_package()
    import_s = time.perf_counter() - t0

    def stop(orig):
        def reached(*a, **k):
            raise _ReachedTimeLoop
        return reached

    patcher = tracing.Patcher()
    for target in (tracing.STEP_TARGET, tracing.DET_TARGET):
        patcher.patch(target, stop)
    per_config = {}
    for run in WORKLOADS[args.workload]:
        argv = run.argv(ROOT, args.tmp / f"setup-{run.name}", args.seed, args.tiny)
        t = time.perf_counter()
        try:
            _call_cli(cli, argv)
        except _ReachedTimeLoop:
            pass
        per_config[run.name] = time.perf_counter() - t
    patcher.undo()
    return {"import_s": import_s, "configs": per_config,
            "setup_s": import_s + sum(per_config.values()), "absent": patcher.absent}


class Calibrator:
    """Machine-speed probe, run from SIGALRM every INTERVAL_S during the rounds.

    The sandbox shares its cores with other tenants, which changes the speed
    of the same code by tens of percent within seconds.  The probe is a
    fixed mix of the kinds of work the workloads do: interpreter loops and
    dict updates, einsums on small and medium fields, periodic rolls,
    cos/exp, a fresh 3 MB allocation, a 4 MB stream from a 16 MB array and
    a 6x6 generalized eigenproblem.  A round's time divided by the probe's
    mean time over that round cancels most of the drift.  REF_S is a fixed
    scale, the probe's typical time on a 2-core Xeon VM, so normalized
    times read roughly as seconds on that machine.
    """

    INTERVAL_S = 0.1
    REF_S = 3.0e-3

    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        self._np, self._eig = np, scipy.linalg.eig
        self._a40 = rng.standard_normal((6, 6, 40, 40))
        self._u40 = rng.standard_normal((6, 40, 40))
        self._a96 = rng.standard_normal((6, 6, 96, 96))
        self._u96 = rng.standard_normal((6, 96, 96))
        self._x = rng.standard_normal(20_000)
        self._m = rng.standard_normal((6, 6))
        self._b = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        self._stream = rng.standard_normal(2_000_000)
        self._pos = 0
        self.total_s = 0.0
        self.samples = 0

    def probe(self, *_) -> None:
        np = self._np
        t = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i
        counts: dict[int, float] = {}
        for i in range(3_000):
            counts[i % 97] = counts.get(i % 97, 0.0) + 1.0
        for _ in range(5):
            np.einsum("ijkl,jkl->ikl", self._a40, self._u40)
        np.einsum("ijkl,jkl->ikl", self._a96, self._u96)
        (np.roll(self._u96, -1, axis=-1) - np.roll(self._u96, 1, axis=-1)) * 0.5
        np.cos(self._x)
        np.exp(self._x)
        np.empty(400_000).fill(1.0)
        chunk = 500_000
        self._stream[self._pos:self._pos + chunk].sum()
        self._pos = (self._pos + chunk) % self._stream.size
        self._eig(self._m, self._b)
        self.total_s += time.perf_counter() - t
        self.samples += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class _Loop:
    """Closed loop over the workload's configs, one round after another."""

    def __init__(self, args, cli, counters, reference, calibrator, tracer=None):
        self.args, self.cli, self.counters = args, cli, counters
        self.reference, self.cal, self.tracer = reference, calibrator, tracer
        self.rounds: list[dict] = []

    def run_for(self, budget_s: float) -> None:
        """At least one round; another only if it is expected to fit the budget."""
        start = time.perf_counter()
        n0 = len(self.rounds)
        while True:
            self._round()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (len(self.rounds) - n0) > budget_s:
                return

    def _round(self) -> None:
        a = self.args
        k = len(self.rounds)
        before = (self.counters.cell_steps, self.counters.det_points)
        cal0 = (self.cal.total_s, self.cal.samples)
        self.cal.probe()                       # at least one probe per round
        walls, net, problems, failed = {}, {}, [], []
        for run in WORKLOADS[a.workload]:
            outdir = a.tmp / f"r{k}-{run.name}"
            overrides = run.overrides_for(ROOT, a.seed, a.tiny)
            argv = run.argv(ROOT, outdir, a.seed, a.tiny)
            if self.tracer is not None:
                self.tracer.run_id = f"{k}/{run.name}"
                idx = self.tracer.open("cli.main")
            probed = self.cal.total_s
            t = time.perf_counter()
            try:
                code, output = _call_cli(self.cli, argv)
            finally:
                walls[run.name] = time.perf_counter() - t
                net[run.name] = walls[run.name] - (self.cal.total_s - probed)
                if self.tracer is not None:
                    self.tracer.close(idx)
            found = checks.check_run(run.name, run.subcommand, overrides, code, outdir,
                                     self.reference)
            if found:
                failed.append(run.name)
                print(output, file=sys.stderr)
            problems += found
            shutil.rmtree(outdir, ignore_errors=True)
        probe_s = (self.cal.total_s - cal0[0]) / (self.cal.samples - cal0[1])
        self.rounds.append({
            "wall_s": sum(walls.values()),
            "norm_s": sum(net.values()) * Calibrator.REF_S / probe_s,
            "probe_s": probe_s,
            "configs": walls,
            "problems": problems,
            "failed": failed,
            "cell_steps": self.counters.cell_steps - before[0],
            "det_points": self.counters.det_points - before[1],
        })


def run(args) -> dict:
    cli = _import_package()
    reference = checks.load_reference(args.reference)
    counters = tracing.Counters()
    patcher = tracing.install(counters)
    cal = Calibrator()
    plain = _Loop(args, cli, counters, reference, cal)
    try:
        with cal:
            plain.run_for(args.seconds / 2 if args.trace else args.seconds)
    finally:
        patcher.undo()
    out = {"plain": plain.rounds, "absent": patcher.absent,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if not args.trace:
        return out
    tracer = tracing.Tracer()
    counters = tracing.Counters()
    patcher = tracing.install(counters, tracer)
    traced = _Loop(args, cli, counters, reference, cal, tracer)
    try:
        with cal:
            traced.run_for(args.seconds / 2)
    finally:
        patcher.undo()
    totals = tracer.layer_totals()
    errors = {f"{layer}:{exc}": n for (layer, exc), n in tracer.errors.items()}
    out.update(
        traced=traced.rounds, layers=totals, errors=errors, g_in_step=tracer.g_in_step,
        artifact_bytes=tracer.artifact_bytes, coeff=tracer.coeff,
        coeff_layout_unknown=tracer.coeff_layout_unknown, absent=patcher.absent,
        absent_layers=patcher.absent_layers,
    )
    tracer.write(ROOT / ".perfbench-out" / f"spans-{args.workload}.jsonl.gz", {
        "workload": args.workload, "seed": args.seed,
        "rounds": len(traced.rounds),
        "median_round_s": statistics.median(r["wall_s"] for r in traced.rounds),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--reference", type=Path, default=checks.REFERENCE_PATH)
    args = p.parse_args(argv)
    result = setup(args) if args.mode == "setup" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
