"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= len(WORKLOADS[workload])
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    lines = proc.stdout.splitlines()
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} {got['value']} {m['unit']}" in lines
    assert [p.name for p in ROOT.glob(".perfbench-*")] in ([], [".perfbench-out"])


def test_perturbed_reference_fails_the_check_and_lowers_ok_frac(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["spectrum"]["values"]["min_abs_delta"] *= 1.001
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    proc = _bench("--workload", "spectral", "--seconds", "1", "--reference", str(path))
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    lines = proc.stdout.splitlines()
    assert any(line.startswith("FAILED spectrum: min_abs_delta") for line in lines)


def test_default_seed_matches_the_reference():
    result = _result(_bench("--workload", "spectral", "--seconds", "1"))
    assert result["correct"] is True
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "energy", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.open("a")
    time.sleep(0.02)
    inner = tracer.open("b")
    time.sleep(0.03)
    tracer.close(inner)
    tracer.close(outer)
    totals = tracer.layer_totals()
    assert totals["a"]["calls"] == 1 and totals["b"]["calls"] == 1
    assert totals["a"]["self_s"] == pytest.approx(totals["a"]["busy_s"] - totals["b"]["busy_s"])
    assert 0.015 < totals["a"]["self_s"] < totals["a"]["busy_s"]


def test_missing_functions_are_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        monkeypatch.setitem(tracing.LAYERS, "gone.layer", ("solver:no_such_function",))
        patcher = tracing.install(tracing.Counters(), tracing.Tracer())
        try:
            assert "solver:no_such_function" in patcher.absent
            assert patcher.absent_layers == ["gone.layer"]
            from contact_stab import grid, solver

            assert solver.d1_field is grid.d1_field      # every binding wrapped alike
            assert solver.d1_field.__wrapped__ is not None
        finally:
            patcher.undo()
        assert not hasattr(solver.d1_field, "__wrapped__")
    finally:
        sys.path.remove(str(ROOT / "src"))
