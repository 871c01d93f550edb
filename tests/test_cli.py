import dataclasses
import importlib.util
import json
import os
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from contact_stab import cli, scenarios, solver
from contact_stab.cli import main, read_snapshot, write_snapshot
from contact_stab.config import ScenarioConfig, parse_config
from contact_stab.grid import Grid
from contact_stab.solver import Snapshot


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(kind, config, out, extra=()):
    return main([kind, config, "--out", str(out), *extra])


def run_cli_warned(kind, config, out, overrides):
    """(exit code, messages of the RuntimeWarnings) of a run with overrides;
    a script run would print those warnings to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(kind, config, out, extra=[a for ov in overrides for a in ("--override", ov)])
    return code, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


# _BLOCK_POINTS of the runs: the shipped value, under which the tests' small grids
# are one block and step runs both sides on this thread, and one that splits them
# into several blocks, where step, told of two CPUs, runs side - on its worker thread
BLOCKING = {"inline": None, "threaded": 64}


def set_blocking(monkeypatch, blocking):
    if BLOCKING[blocking] is not None:
        monkeypatch.setattr(solver, "_BLOCK_POINTS", BLOCKING[blocking])
        monkeypatch.setattr(solver, "CPUS", 2)


def expressions_config(tmp_path, p="1", phi="0"):
    """Path of a 16x8 expressions validate-state config with pressure p and front phi."""
    lines = ["state.kind = expressions", "grid.N1 = 16", "grid.N2 = 8", f"front.phi = {phi}"]
    for side in ("plus", "minus"):
        lines += [f"state.p_{side} = {p}", f"state.v1_{side} = 0", f"state.v2_{side} = 0",
                  f"state.H1_{side} = 1", f"state.H2_{side} = 0", f"state.S_{side} = 0"]
    cfg = tmp_path / "expressions.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return str(cfg)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path, rng):
        g = Grid(12, 8, 3.0, 2.0 * np.pi)
        snap = Snapshot.zeros(g)
        snap.U.plus[:] = rng.standard_normal(snap.U.plus.shape)
        snap.U.minus[:] = rng.standard_normal(snap.U.minus.shape)
        snap.phi[:] = rng.standard_normal(g.N2)
        snap.t = 0.7
        base = tmp_path / "snapshot_test"
        write_snapshot(base, snap, g)
        plus, minus, phi, t = read_snapshot(base)
        assert np.array_equal(plus, snap.U.plus)
        assert np.array_equal(minus, snap.U.minus)
        assert np.array_equal(phi, snap.phi)
        assert t == 0.7

    def test_header_documents_the_layout(self, tmp_path):
        g = Grid(4, 4, 1.0, 1.0)
        write_snapshot(tmp_path / "s", Snapshot.zeros(g), g)
        hdr = (tmp_path / "s.hdr").read_text()
        assert "layout = plus[6,N1,N2] minus[6,N1,N2] phi[N2]" in hdr
        assert "little-endian float64" in hdr


class TestExitCodes:
    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        code = run_cli("adjoint-check", str(tmp_path / "nope.cfg"), tmp_path / "o")
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_semantic_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.N1 = -4\n")
        code = run_cli("adjoint-check", str(cfg), tmp_path / "o")
        assert code == 2
        assert "grid.N1" in capsys.readouterr().err

    def test_grid_below_four_nodes_exits_two_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("energy-test", "configs/energy_test.cfg", out,
                       extra=["--override", "grid.N1=3"])
        assert code == 2
        assert "grid.N1 must be at least 4" in capsys.readouterr().err
        assert not out.exists()

    def test_spacing_whose_square_underflows_exits_two_without_artifacts(self, tmp_path,
                                                                          capsys):
        out = tmp_path / "o"
        code = run_cli("energy-test", "configs/energy_test.cfg", out,
                       extra=["--override", "grid.N1=12", "--override", "grid.N2=12",
                              "--override", "grid.X1=1e-300"])
        err = capsys.readouterr().err
        assert code == 2
        assert "grid.X1" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nosuch.key = 1\n")
        code = run_cli("adjoint-check", str(cfg), tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize("kind, config", [("spectrum", "configs/spectrum.cfg"),
                                              ("neutral-mode", "configs/neutral_mode.cfg"),
                                              ("mms", "configs/mms.cfg"),
                                              ("adjoint-check", "configs/adjoint_check.cfg")])
    def test_zero_normal_field_is_a_config_error(self, tmp_path, capsys, kind, config):
        code = run_cli(kind, config, tmp_path / "o", extra=["--override", "state.H1=0"])
        assert code == 2
        assert "nonzero normal magnetic field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_error_in_a_runner_removes_only_the_directories_it_made(self, tmp_path,
                                                                           capsys):
        # the runner raises the ConfigError after main has made the output directory
        out = tmp_path / "new" / "o"
        code = run_cli("spectrum", "configs/spectrum.cfg", out,
                       extra=["--override", "state.H1=0"])
        assert code == 2
        assert "nonzero normal magnetic field" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        code = run_cli("spectrum", "configs/spectrum.cfg", tmp_path,
                       extra=["--override", "state.H1=0"])
        assert code == 2
        assert tmp_path.is_dir()

    def test_failed_check_exits_one(self, tmp_path, capsys):
        # a coarse grid at a large CFL number loses 6% of the symmetrizer energy,
        # more than the drift gate's fixed 1% allows
        out = tmp_path / "o"
        overrides = ("grid.N1=16", "grid.N2=16", "grid.cfl_max=1.5", "run.T_final=2")
        code = run_cli("energy-test", "configs/energy_test.cfg", out,
                       extra=[a for ov in overrides for a in ("--override", ov)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        assert ("relative drift of the symmetrizer energy: 5.960e-02 (tolerance 0.01)"
                in (out / "report.txt").read_text().splitlines())

    def test_degenerate_neutral_point_fails_the_spectrum_without_traceback(self, tmp_path,
                                                                            capsys):
        # at |w2 v2| = 2e12 the neutral family's |s + i w2 v2| = eta is below 1e-14 |s|
        out = tmp_path / "o"
        overrides = ("state.v2=2e12", "spectral.n_eta=3", "spectral.n_xi=3")
        code = run_cli("spectrum", "configs/spectrum.cfg", out,
                       extra=[a for ov in overrides for a in ("--override", ov)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "report.txt").read_text().splitlines()
        assert report[1].endswith(", nan") and report[2:] == [
            "monotone decay toward eta=0: no", "overall: FAIL"]

    def test_mms_amplitude_whose_square_underflows_exits_two_without_artifacts(self, tmp_path,
                                                                               capsys):
        out = tmp_path / "o"
        overrides = ("mms.refinements=8,9", "run.T_final=0.01", "mms.amplitude=1e-200")
        code = run_cli("mms", "configs/mms.cfg", out,
                       extra=[a for ov in overrides for a in ("--override", ov)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: mms.amplitude = 1e-200") and "Traceback" not in err
        assert not out.exists()

    def test_inadmissible_background_exits_two_with_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        overrides = ("grid.N1=16", "grid.N2=16", "state.p0=0.1", "state.rt_jump=-0.5")
        code = run_cli("rt-run", "configs/rt_stable.cfg", out,
                       extra=[a for ov in overrides for a in ("--override", ov)])
        assert code == 2
        assert "InadmissibleStateError" in (out / "report.txt").read_text()
        assert "exit_code = 2" in (out / "manifest.txt").read_text()
        assert "FAILED (exit 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        # the state itself overflows
        ("grid.N1=16", "grid.N2=16", "grid.cfl_max=3", "run.T_final=400"),
        # the state stays finite while its symmetrizer energy overflows
        ("grid.N1=12", "grid.N2=12", "grid.cfl_max=4", "run.T_final=200"),
    ])
    @pytest.mark.parametrize("blocking", BLOCKING)
    def test_energy_test_blow_up_exits_three(self, tmp_path, capsys, monkeypatch, overrides,
                                             blocking):
        set_blocking(monkeypatch, blocking)
        out = tmp_path / "o"
        code, runtime_warnings = run_cli_warned("energy-test", "configs/energy_test.cfg", out,
                                                overrides)
        assert code == 3
        assert "blow-up at t =" in (out / "report.txt").read_text()
        assert runtime_warnings == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_truncated_eps_sweep_exits_three_with_a_fail_verdict(self, tmp_path, capsys):
        out = tmp_path / "o"
        overrides = ("grid.N1=12", "grid.N2=12", "grid.cfl_max=4", "run.T_final=200")
        code, _ = run_cli_warned("eps-sweep", "configs/eps_sweep.cfg", out, overrides)
        assert code == 3
        report = (out / "report.txt").read_text().splitlines()
        assert report[-2:] == ["truncated by blow-up: yes", "overall: FAIL"]
        assert "exit_code = 3" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("eps_list", ["0.1,0.2", "0.1,0.1", ",", "0.1,-0.05", "0.1"])
    def test_unusable_eps_list_exits_two_without_artifacts(self, tmp_path, capsys, eps_list):
        out = tmp_path / "o"
        overrides = ("grid.N1=16", "grid.N2=16", "run.T_final=0.05", f"sweep.eps_list={eps_list}")
        code = run_cli("eps-sweep", "configs/eps_sweep.cfg", out,
                       extra=[a for ov in overrides for a in ("--override", ov)])
        assert code == 2
        assert "config error: sweep.eps_list" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_expression_background_exits_two(self, tmp_path, capsys):
        # p is NaN for 1 < x1 < 2, where the product under the root is negative
        cfg = expressions_config(tmp_path, p="1 + 0*sqrt((x1 - 1)*(x1 - 2))")
        out = tmp_path / "o"
        assert run_cli("validate-state", cfg, out) == 2
        report = (out / "report.txt").read_text()
        assert report.startswith("state construction failed: state.p_plus is not finite")
        assert "PASS" not in report

    def test_variable_free_division_by_zero_exits_two(self, tmp_path, capsys):
        cfg = expressions_config(tmp_path, p="1 + 0*(1/0)")
        out = tmp_path / "o"
        assert run_cli("validate-state", cfg, out) == 2
        report = (out / "report.txt").read_text()
        assert report.startswith("state construction failed: state.p_plus is not finite")
        assert "Traceback" not in capsys.readouterr().err

    def test_deeply_nested_expression_exits_two_without_traceback(self, tmp_path, capsys):
        cfg = expressions_config(tmp_path, phi="-" * 5000 + "0")
        out = tmp_path / "o"
        assert run_cli("validate-state", cfg, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: front.phi: ") and "nested" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_override_exits_two_without_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = str(Path(__file__).resolve().parent.parent / "configs" / "adjoint_check.cfg")
        assert main(["adjoint-check", config, "--override", "adjoint.trials="]) == 2
        assert "empty value for adjoint.trials" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_exits_two_without_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("adjoint-check", str(CONFIGS / "adjoint_check.cfg"), "") == 2
        assert capsys.readouterr().err == "config error: --out is empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_file_exits_two_before_the_run(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        monkeypatch.setitem(scenarios.RUNNERS, "validate-state",
                            lambda cfg: pytest.fail("the run started"))
        assert run_cli("validate-state", "configs/validate_constant.cfg", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert "Traceback" not in err
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("override, key", [
        ("run.T_final=inf", "run.T_final"), ("run.T_final=nan", "run.T_final"),
        ("run.epsilon=inf", "run.epsilon"), ("grid.X1=inf", "grid.X1"),
        ("state.p=inf", "state.p"), ("state.v2=nan", "state.v2"),
        ("grid.cfl_max=inf", "grid.cfl_max"),
        # finite, but its fast speed overflows, so no time step meets the CFL bound
        ("state.H1=1e200", "grid.cfl_max"),
        # finite, but its time step 1.85e-102 needs 5.4e101 steps, more than MAX_STEPS
        ("grid.X1=1e-100", "run.T_final = 1.0: 5.4e+101 time steps"),
    ])
    def test_non_finite_or_unusable_number_exits_two_without_artifacts(self, tmp_path, capsys,
                                                                       override, key):
        out = tmp_path / "o"
        code = run_cli("energy-test", "configs/energy_test.cfg", out, extra=[
            "--override", "grid.N1=12", "--override", "grid.N2=12", "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and "Traceback" not in err
        assert not out.exists()

    def test_unmet_cfl_bound_names_the_speed_bound(self, tmp_path, capsys):
        code, runtime_warnings = run_cli_warned("rt-run", "configs/rt_stable.cfg", tmp_path / "o",
                                                ("grid.N1=12", "grid.N2=12", "state.H2=1e200"))
        assert code == 2 and runtime_warnings == []
        assert capsys.readouterr().err == (
            "config error: grid.cfl_max = 0.4: CFL constraint cannot be met: speed bound inf\n")

    def test_neutral_mode_blow_up_exits_three(self, tmp_path, capsys):
        out = tmp_path / "o"
        overrides = ("grid.cfl_max=3", "run.T_final=400", "neutral.refinements=9,12")
        code, runtime_warnings = run_cli_warned("neutral-mode", "configs/neutral_mode.cfg", out,
                                                overrides)
        assert code == 3
        assert "blow-up at t =" in (out / "report.txt").read_text()
        assert "exit_code = 3" in (out / "manifest.txt").read_text()
        assert runtime_warnings == []
        assert "RuntimeWarning" not in capsys.readouterr().err


class TestSchemas:
    """Each scenario kind accepts only the keys its run reads."""

    TINY = ("grid.N1=16", "grid.N2=16", "run.T_final=0.05")
    RUNS = [   # (kind, config, overrides): every shipped config at a tiny size
        ("validate-state", "validate_constant", TINY[:2]),
        ("validate-state", "validate_rt", TINY[:2]),
        ("spectrum", "spectrum", ("spectral.n_eta=3", "spectral.n_xi=3")),
        ("energy-test", "energy_test", TINY),
        ("neutral-mode", "neutral_mode", ("neutral.refinements=9,17", "run.T_final=0.05")),
        ("rt-run", "rt_stable", TINY),
        ("rt-run", "rt_violated", TINY),
        ("eps-sweep", "eps_sweep", TINY),
        ("adjoint-check", "adjoint_check", ("adjoint.trials=2",)),
        ("mms", "mms", ("mms.refinements=9,17", "run.T_final=0.05")),
    ]
    REMOVED = [   # (kind, config, key=value) of keys no run of the kind read
        ("mms", "mms", "grid.N1=17"), ("mms", "mms", "grid.N2=17"),
        ("neutral-mode", "neutral_mode", "grid.N1=17"),
        ("neutral-mode", "neutral_mode", "grid.N2=17"),
        ("neutral-mode", "neutral_mode", "run.seed=3"),
        ("eps-sweep", "eps_sweep", "run.epsilon=0.01"),
        ("validate-state", "validate_constant", "grid.cfl_max=0.4"),
        ("adjoint-check", "adjoint_check", "grid.cfl_max=0.4"),
        # the pass thresholds are constants, and --out is the one output directory
        ("energy-test", "energy_test", "tolerance.drift=1e9"),
        ("adjoint-check", "adjoint_check", "tolerance.adjoint=1"),
        *((kind, name, "run.out=elsewhere") for kind, name in {k: n for k, n, _ in RUNS}.items()),
    ]

    def test_each_kind_accepts_only_the_keys_its_run_reads(self, tmp_path, capsys,
                                                            monkeypatch):
        parsed, reads = [], []   # each run's parsed config, and (key, value) of its reads
        parse, getitem = cli.parse_config, ScenarioConfig.__getitem__

        def parse_and_keep(*args, **kwargs):
            parsed.append(parse(*args, **kwargs))
            return parsed[-1]

        def recorded_getitem(cfg, key):
            reads.append((key, getitem(cfg, key)))
            return reads[-1][1]

        monkeypatch.setattr(cli, "parse_config", parse_and_keep)
        monkeypatch.setattr(ScenarioConfig, "__getitem__", recorded_getitem)
        monkeypatch.chdir(tmp_path)   # main writes to ./out when no --out is given
        runs = [(kind, str(CONFIGS / f"{name}.cfg"), overrides)
                for kind, name, overrides in self.RUNS]
        runs.append(("validate-state", expressions_config(tmp_path), ()))
        unread = set()
        for kind, config, overrides in runs:
            reads.clear()
            code = main([kind, config, *(a for ov in overrides for a in ("--override", ov))])
            assert code in (0, 1), (config, capsys.readouterr().err)
            values = parsed[-1].values
            # a key is read when its parsed value is, not a value a runner set in its place
            read = {key for key, value in reads if value is values[key]}
            unread |= {(kind, key) for key in values if key not in read}
        assert not unread, f"accepted but never read: {sorted(unread)}"

    @pytest.mark.parametrize("kind, name, override", REMOVED)
    def test_removed_key_is_unknown(self, tmp_path, capsys, kind, name, override):
        out = tmp_path / "out"
        assert main([kind, str(CONFIGS / f"{name}.cfg"), "--out", str(out),
                     "--override", override]) == 2
        key = override.split("=")[0]
        assert f"unknown key '{key}' for scenario {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["validate_constant", "validate_rt"])
    def test_validate_state_data_holds_plain_values(self, name):
        result = scenarios.run_validate_state(
            parse_config(str(CONFIGS / f"{name}.cfg"), "validate-state"))
        data = json.loads(json.dumps(result.data))
        assert data["all_passed"] is True
        assert set(data["max_residual"]) == {line.split()[0] for line in result.report[:-1]}


class TestNonFiniteVerdicts:
    """A verdict fails, naming the quantity, when what it judges is not finite."""

    RT = ("grid.N1=16", "grid.N2=16", "run.T_final=0.05")
    MMS = ("mms.refinements=9,17", "run.T_final=0.05")

    @staticmethod
    def _run(kind, config, out, overrides):
        return run_cli(kind, config, out, extra=[a for ov in overrides for a in ("--override", ov)])

    def test_rt_run_fails_on_a_nan_energy(self, tmp_path, capsys, monkeypatch):
        report = solver.energy_report
        monkeypatch.setattr(solver, "energy_report",
                            lambda *a: dataclasses.replace(report(*a), J=np.nan))
        out = tmp_path / "o"
        assert self._run("rt-run", "configs/rt_stable.cfg", out, self.RT) == 1
        text = (out / "report.txt").read_text()
        assert "not finite: sup_t J" in text and "overall: FAIL" in text

    def test_rt_run_fails_on_a_nan_source_norm(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenarios, "source_h1_norm", lambda *a: np.nan)
        out = tmp_path / "o"
        assert self._run("rt-run", "configs/rt_stable.cfg", out, self.RT) == 1
        text = (out / "report.txt").read_text()
        assert "not finite: normalized ratio" in text and "not finite: sup_t J" not in text
        assert "overall: FAIL" in text

    def test_eps_sweep_fails_on_a_nan_energy(self, tmp_path, capsys, monkeypatch):
        report = solver.energy_report
        monkeypatch.setattr(solver, "energy_report",
                            lambda *a: dataclasses.replace(report(*a), J=np.nan))
        out = tmp_path / "o"
        assert self._run("eps-sweep", "configs/eps_sweep.cfg", out, self.RT) == 1
        text = (out / "report.txt").read_text()
        assert "J_max per eps: nan, nan, nan, nan" in text and "overall: FAIL" in text

    def test_mms_fails_on_a_nan_divergence_defect(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "divergence_monitor", lambda *a: (np.nan, np.nan))
        out = tmp_path / "o"
        assert self._run("mms", "configs/mms.cfg", out, self.MMS) == 1
        text = (out / "report.txt").read_text()
        assert "not fitted: a defect is not finite" in text and "overall: FAIL" in text

    def test_mms_reports_all_zero_defects(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenarios.ManufacturedProblem, "run_error",
                            lambda self, coeffs: (coeffs.grid.h1 ** 2, 0.0))
        out = tmp_path / "o"
        assert self._run("mms", "configs/mms.cfg", out, self.MMS) == 0
        text = (out / "report.txt").read_text()
        assert "not fitted: every defect is exactly zero" in text and "overall: PASS" in text


class TestNeutralModeTable:
    def test_h_is_the_spacing_of_each_run_grid(self):
        from contact_stab.config import parse_config

        cfg = parse_config("configs/neutral_mode.cfg", "neutral-mode", overrides=[
            "grid.X1=3", "neutral.refinements=9,17", "run.T_final=0.05"])
        rows = scenarios.run_neutral_mode(cfg).csv["neutral_mode.csv"][1:]
        assert [float(row.split(",")[1]) for row in rows] == [3.0 / 8, 3.0 / 16]


class TestEndToEnd:
    def test_adjoint_check_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = tmp_path / "adj.cfg"
        cfg.write_text("grid.N1 = 12\ngrid.N2 = 8\nadjoint.trials = 3\n")
        out = tmp_path / "o"
        assert run_cli("adjoint-check", str(cfg), out) == 0
        assert (out / "report.txt").exists()
        assert (out / "manifest.txt").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "exit_code = 0" in manifest
        assert "grid.N1 = 12" in manifest
        applied = "yes" if importlib.util.find_spec("threadpoolctl") else "no"
        assert f"threads_applied = {applied}" in manifest.splitlines()
        assert f"python = {platform.python_version()}" in manifest.splitlines()
        assert f"numpy = {np.__version__}" in manifest.splitlines()
        openblas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        assert {"OMP_NUM_THREADS = 3", f"OPENBLAS_NUM_THREADS = {openblas}",
                "MKL_NUM_THREADS = unset",
                f"cpus = {solver.CPUS}"} <= set(manifest.splitlines())

    def test_spectrum_artifacts_and_dat_copies(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("spectral.n_eta = 6\nspectral.n_xi = 6\n")
        out = tmp_path / "o"
        assert run_cli("spectrum", str(cfg), out) == 0
        csv = (out / "spectrum.csv").read_text().splitlines()
        dat = (out / "spectrum.dat").read_text().splitlines()
        assert len(csv) == len(dat)
        assert dat[0].startswith("# ")
        assert "," in csv[1] and "," not in dat[1]

    def test_rt_run_writes_snapshot_and_timeseries(self, tmp_path, capsys):
        cfg = tmp_path / "rt.cfg"
        cfg.write_text(
            "grid.N1 = 16\ngrid.N2 = 16\nrun.T_final = 0.05\n"
            "run.epsilon = 1e-2\nstate.rt_jump = 0.5\n"
        )
        out = tmp_path / "o"
        assert run_cli("rt-run", str(cfg), out) == 0
        assert (out / "timeseries.csv").exists()
        assert (out / "snapshot_final.bin").exists()
        plus, minus, phi, t = read_snapshot(out / "snapshot_final")
        assert plus.shape == (6, 16, 16)
        assert np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))
        assert t == pytest.approx(0.05, rel=1e-12)

    def test_mms_runs_the_seed_it_records(self, tmp_path, capsys):
        small = ["--override", "mms.refinements=9,17", "--override", "run.T_final=0.05"]
        reports = []
        for seed in (None, 0):
            out = tmp_path / str(seed)
            extra = small + (["--override", f"run.seed={seed}"] if seed is not None else [])
            assert run_cli("mms", "configs/mms.cfg", out, extra=extra) in (0, 1)
            expected = 7 if seed is None else seed
            assert f"run.seed = {expected}" in (out / "manifest.txt").read_text().splitlines()
            reports.append((out / "report.txt").read_text())
        assert reports[0] != reports[1]

    def test_override_flag_reaches_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "adj.cfg"
        cfg.write_text("grid.N1 = 12\ngrid.N2 = 8\nadjoint.trials = 3\n")
        out = tmp_path / "o"
        code = run_cli("adjoint-check", str(cfg), out,
                       extra=["--override", "grid.N1=16"])
        assert code == 0
        assert "grid.N1 = 16" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("blocking", BLOCKING)
    def test_reruns_are_deterministic(self, tmp_path, capsys, monkeypatch, blocking):
        set_blocking(monkeypatch, blocking)
        cfg = tmp_path / "rt.cfg"
        cfg.write_text(
            "grid.N1 = 16\ngrid.N2 = 16\nrun.T_final = 0.05\n"
            "run.epsilon = 1e-2\nrun.seed = 5\n"
        )
        # at 96x96 the stage's uniform-entry matmul is large enough for a
        # threaded BLAS to split it
        energy = ["--override", "grid.N1=96", "--override", "grid.N2=96",
                  "--override", "run.T_final=0.05"]
        cases = [("rt-run", str(cfg), (), "timeseries.csv"),
                 ("energy-test", "configs/energy_test.cfg", energy, "symmetrizer_energy.csv")]
        for kind, config, extra, csv in cases:
            outs = []
            for name in ("a", "b"):
                out = tmp_path / kind / name
                assert run_cli(kind, config, out, extra=extra) == 0
                outs.append((out / csv).read_bytes())
            assert outs[0] == outs[1]
