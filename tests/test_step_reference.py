"""solver.step against the allocating RK4 it replaces, kept here as the
independent reference: A0^-1 (-A1_tilde d1U - A2 d2U - C U + eps d1U + f)
contracted densely, the companion formula written out, snap + dt k and
(k1 + 2 k2 + 2 k3 + k4) / 6."""

import itertools
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from contact_stab import mhd, solver
from contact_stab.grid import Grid, d1_field, d2_field
from contact_stab.linearization import constant_basic_state
from contact_stab.scenarios import ManufacturedProblem, rt_basic_state
from contact_stab.solver import (
    ROWS,
    Snapshot,
    Sources,
    StageWork,
    apply_interface_conditions,
    assemble_coefficients,
    build_grid,
    divergence_free_pulse,
    monitored,
    run,
    step,
)

from test_linearization import curved_background

N1, N2, X1, X2 = 20, 16, 4.0, 2.0 * np.pi


def _interior_rhs(U, sc, eps, f, grid):
    d1U = d1_field(U, grid.h1)
    rhs = -sum(np.einsum("ij...,j...->i...", M, X)
               for M, X in ((sc.At1, d1U), (sc.A2, d2_field(U, grid.h2)), (sc.C, U)))
    if eps:
        rhs += eps * d1U
    if f is not None:
        rhs += f
    return rhs * sc.A0_inv_diag


def _companion_rhs(a, sc, eps, f, grid):
    d1a = d1_field(a[None], grid.h1)[0]
    d2a = d2_field(a[None], grid.h2)[0]
    rhs = -(sc.w1 * d1a + sc.w2 * d2a + a * (sc.div_u - eps * sc.d11phi)) / sc.d1phi
    if eps:
        rhs += eps * d1a
    if f is not None:
        fN = f[3] - f[4] * sc.d2psi
        fh2 = sc.d1phi * f[4]
        rhs += (d1_field(fN[None], grid.h1)[0] + d2_field(fh2[None], grid.h2)[0]) / sc.d1phi
    return rhs


def _stage_rhs(snap, coeffs, eps, src, grid, t):
    fp, fm = src.f(t) if src.f is not None else (None, None)
    g_rows = np.asarray(src.g(t), dtype=float) if src.g is not None else None
    return (
        _interior_rhs(snap.U.plus, coeffs.plus, eps, fp, grid),
        _interior_rhs(snap.U.minus, coeffs.minus, eps, fm, grid),
        solver._front_rhs(snap.phi, snap.U.plus[:, 0, :], coeffs, g_rows, grid),
        _companion_rhs(snap.a_plus, coeffs.plus, eps, fp, grid),
        _companion_rhs(snap.a_minus, coeffs.minus, eps, fm, grid),
    )


def _advance(snap, k, dt, coeffs, src, t_new):
    out = Snapshot.zeros(coeffs.grid)
    out.t = t_new
    for o, y, dk in zip(arrays(out), arrays(snap), k):
        o[:] = y + dt * dk
    g_rows = np.asarray(src.g(t_new), dtype=float) if src.g is not None else None
    apply_interface_conditions(out.U, out.phi, coeffs, g_rows)
    out.a_plus[-1, :] = out.a_plus[-2, :]
    out.a_minus[-1, :] = out.a_minus[-2, :]
    return out


def reference_step(snap, basic, eps, src, coeffs):
    grid = basic.grid
    dt, t = grid.dt, snap.t
    k1 = _stage_rhs(snap, coeffs, eps, src, grid, t)
    k2 = _stage_rhs(_advance(snap, k1, 0.5 * dt, coeffs, src, t + 0.5 * dt),
                    coeffs, eps, src, grid, t + 0.5 * dt)
    k3 = _stage_rhs(_advance(snap, k2, 0.5 * dt, coeffs, src, t + 0.5 * dt),
                    coeffs, eps, src, grid, t + 0.5 * dt)
    k4 = _stage_rhs(_advance(snap, k3, dt, coeffs, src, t + dt),
                    coeffs, eps, src, grid, t + dt)
    ksum = tuple((k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0 for i in range(5))
    return _advance(snap, ksum, dt, coeffs, src, t + dt)


def arrays(snap):
    return snap.U.plus, snap.U.minus, snap.phi, snap.a_plus, snap.a_minus


def _with_companion(snap, grid):
    """Give the companion fields a smooth nonzero start so their transport
    is exercised too."""
    X1g, X2g = grid.mesh()
    snap.a_plus[:] = np.exp(-(X1g - 1.5) ** 2) * np.cos(X2g)
    snap.a_minus[:] = np.exp(-(X1g - 1.0) ** 2) * np.sin(2.0 * X2g)
    return snap


def constant_case():
    grid = build_grid(constant_basic_state(Grid(N1, N2, X1, X2), v2=0.2), 0.2, epsilon=1e-3)
    basic = constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3, S_plus=0.2, S_minus=-0.1)
    return basic, 1e-3, Sources(), _with_companion(divergence_free_pulse(grid, seed=1), grid)


def rt_case():
    grid = build_grid(rt_basic_state(Grid(N1, N2, X1, X2)), 0.2, epsilon=1e-2)
    basic = rt_basic_state(grid, rt_jump=0.5)
    return basic, 1e-2, Sources(), _with_companion(divergence_free_pulse(grid, seed=2), grid)


def curved_case():
    """Curved front: the companion factors are fields and d11phi != 0."""
    grid = build_grid(curved_background(Grid(N1, N2, X1, X2)), 0.2, epsilon=1e-2)
    basic = curved_background(grid)
    return basic, 1e-2, Sources(), _with_companion(divergence_free_pulse(grid, seed=3), grid)


def mms_case():
    def st(S):
        return mhd.PlasmaState(1.0, 0.0, 0.2, 1.0, 0.3, S)

    eps = 1e-2
    problem = ManufacturedProblem(st(0.2), st(-0.1), eps)
    grid = build_grid(constant_basic_state(Grid(N1, N2, X1, X2), v2=0.2), 0.2, epsilon=eps)
    basic = constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3, S_plus=0.2, S_minus=-0.1)
    return basic, eps, problem.sources(grid), problem.initial(grid)


CASES = {"constant": constant_case, "rt": rt_case, "curved": curved_case, "mms": mms_case}


@pytest.mark.parametrize("case", sorted(CASES))
def test_three_steps_match_the_allocating_rk4(case):
    basic, eps, src, snap = CASES[case]()
    coeffs = assemble_coefficients(basic)
    work = StageWork(coeffs, eps)
    new, ref = snap, snap
    for _ in range(3):
        before = [a.copy() for a in arrays(new)]
        t_before = new.t
        stepped = step(new, work, src)
        assert new.t == t_before
        for a, b in zip(arrays(new), before):
            assert np.array_equal(a, b)   # the input snapshot is left unchanged
        new, ref = stepped, reference_step(ref, basic, eps, src, coeffs)
        assert new.t == ref.t
        for a, b in zip(arrays(new), arrays(ref)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    assert np.max(np.abs(ref.a_plus)) > 0.0


def _shares_memory(snaps):
    return any(np.shares_memory(a, b)
               for s1, s2 in itertools.combinations(snaps, 2)
               for a in arrays(s1) for b in arrays(s2))


def test_consecutive_steps_share_no_memory():
    basic, eps, src, snap = mms_case()
    coeffs = assemble_coefficients(basic)
    work = StageWork(coeffs, eps)
    s1 = step(snap, work, src)
    s2 = step(s1, work, src)
    s3 = step(s2, StageWork(coeffs, eps), src)    # a workspace of its own
    assert not _shares_memory([snap, s1, s2, s3])


def test_yielded_snapshots_share_no_memory():
    basic, eps, src, snap = constant_case()
    levels = [s for _, s, _ in run(assemble_coefficients(basic), eps, sources=src, initial=snap)]
    assert len(levels) == basic.grid.n_steps + 1
    assert not _shares_memory(levels + [snap])


class TestWorkspaceBelongsToOneRun:
    def test_another_grid_shape_raises(self):
        basic, eps, _, _ = constant_case()
        work = StageWork(assemble_coefficients(basic), eps)
        for shape in ((N1 + 2, N2), (N1, N2 + 2)):
            with pytest.raises(ValueError, match="shape"):
                step(Snapshot.zeros(Grid(*shape, X1, X2)), work, Sources())


class TestForcedTerm:
    """The forced part of a stage is filled once per stage time and source."""

    def test_a_step_fills_each_side_once_per_new_stage_time(self, monkeypatch):
        basic, eps, src, snap = mms_case()
        work = StageWork(assemble_coefficients(basic), eps)
        first = step(snap, work, src)
        fills = []

        def counted(*args, **kwargs):   # one call per side and fill, for div f_h
            fills.append(None)
            return d1_field(*args, **kwargs)

        monkeypatch.setattr(solver, "d1_field", counted)
        step(first, work, src)
        # t + dt/2 (stages 2 and 3) and t + dt (stage 4); stage 1's t is the
        # last step's t + dt
        assert len(fills) == 4

    def test_another_weight_at_the_held_time_and_source_refills_the_term(self, rng):
        basic, eps, _, _ = mms_case()
        grid = basic.grid
        work = StageWork(assemble_coefficients(basic), eps)
        f = rng.standard_normal((6, grid.N1, grid.N2))
        src = Sources(f=lambda t: (f, -f))
        held = work.forced_terms(0.5, 1.0 / 6.0, src).copy()
        got = work.forced_terms(0.5, 1.0 / 3.0, src)
        np.testing.assert_allclose(got, 2.0 * held, rtol=1e-15)

    def test_another_source_at_the_held_time_gets_its_own_term(self):
        basic, eps, src, snap = mms_case()
        coeffs = assemble_coefficients(basic)
        other = Sources(f=lambda t: tuple(0.5 * a for a in src.f(t)), g=src.g)
        work = StageWork(coeffs, eps)
        first = step(snap, work, src)   # holds the terms of src at first.t
        got = step(first, work, other)
        want = step(first, StageWork(coeffs, eps), other)
        assert np.array_equal(got.data, want.data)
        assert not np.array_equal(got.data, step(first, StageWork(coeffs, eps), src).data)


class TestRunSteppedRows:
    """run steps rows 0-5 alone only when nothing can move the companion
    row: no source f and a zero row 6 at the start.  Its levels are compared
    bit for bit with the production step on a seven-row StageWork."""

    @staticmethod
    def _levels_and_reference(basic, eps, src, initial, n=3):
        coeffs = assemble_coefficients(basic)
        levels = [s for _, s, _ in itertools.islice(
            run(coeffs, eps, sources=src, initial=initial), n + 1)]
        ref = initial.copy()
        apply_interface_conditions(ref.U, ref.phi, coeffs, src.g_eval(ref.t))
        work, refs = StageWork(coeffs, eps), [ref]
        for _ in range(n):
            refs.append(step(refs[-1], work, src))
        return levels, refs

    @pytest.mark.parametrize("case", ["constant", "rt"])
    def test_unforced_pulse_keeps_a_zero_companion(self, case):
        basic, eps, src, _ = CASES[case]()
        pulse = divergence_free_pulse(basic.grid, seed=1)
        assert src.f is None and not pulse.sides[:, 6].any()
        levels, refs = self._levels_and_reference(basic, eps, src, pulse)
        for got, want in zip(levels, refs):
            assert not got.sides[:, 6].any()
            assert np.array_equal(got.data, want.data)
        assert np.max(np.abs(levels[-1].U.plus)) > 0.0

    def test_unforced_run_from_a_nonzero_companion_evolves_it(self):
        basic, eps, _, initial = mms_case()
        assert initial.sides[:, 6].any()
        levels, refs = self._levels_and_reference(basic, eps, Sources(), initial)
        for got, want in zip(levels, refs):
            assert np.array_equal(got.data, want.data)
        assert not np.array_equal(levels[-1].sides[:, 6], initial.sides[:, 6])

    def test_forced_run_from_a_zero_companion_evolves_it(self):
        basic, eps, src, initial = mms_case()
        initial.sides[:, 6] = 0.0
        levels, refs = self._levels_and_reference(basic, eps, src, initial)
        for got, want in zip(levels, refs):
            assert np.array_equal(got.data, want.data)
        assert levels[-1].sides[:, 6].any()

    def test_a_forced_step_on_the_u_rows_raises(self):
        basic, eps, src, initial = mms_case()
        work = StageWork(assemble_coefficients(basic), eps, 6)
        with pytest.raises(ValueError, match="seven rows"):
            step(initial, work, src)


THREADED_BLOCK_POINTS = N1 * N2 // 4   # four blocks of five rows


def threaded(monkeypatch, cpus=2):
    """Split the tests' grid into four blocks and tell step of cpus CPUs:
    with more than one it runs side - on its worker thread."""
    monkeypatch.setattr(solver, "_BLOCK_POINTS", THREADED_BLOCK_POINTS)
    monkeypatch.setattr(solver, "CPUS", cpus)


def _drive(case, drive, rng):
    """(basic, eps, sources, initial, rows) of a case run with no drive (a
    zero companion, stepped on rows 0-5), from its nonzero companion, or
    under a random source f."""
    basic, eps, src, snap = CASES[case]()
    if drive == "none":
        snap.sides[:, 6] = 0.0
        return basic, eps, src, snap, 6
    if drive == "forced":
        f = rng.standard_normal((2, 6, N1, N2))
        src = Sources(f=lambda t: (np.sin(1.0 + t) * f[0], np.cos(t) * f[1]))
    return basic, eps, src, snap, ROWS


class TestThreadedStep:
    """On a grid of several blocks step runs side -'s stage kernel and RK4
    passes on its worker thread; a grid of one block runs them inline."""

    @pytest.mark.parametrize("drive", ["none", "companion", "forced"])
    @pytest.mark.parametrize("case", ["constant", "rt"])
    def test_three_steps_match_one_inline_block(self, case, drive, rng, monkeypatch):
        basic, eps, src, snap, rows = _drive(case, drive, rng)
        coeffs = assemble_coefficients(basic)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # the threads trade the interpreter as often as it allows
        try:
            monkeypatch.setattr(solver, "CPUS", 2)
            for points, n_blocks in ((N1 * N2, 1), (THREADED_BLOCK_POINTS, 4)):
                monkeypatch.setattr(solver, "_BLOCK_POINTS", points)
                work = StageWork(coeffs, eps, rows)
                assert len(work.blocks) == n_blocks
                levels = [snap]
                for _ in range(3):
                    levels.append(step(levels[-1], work, src))
                results.append(levels)
        finally:
            sys.setswitchinterval(interval)
        for inline, threaded in zip(*results):
            assert np.array_equal(threaded.data, inline.data)
        assert np.max(np.abs(results[1][-1].U.minus)) > 0.0

    @pytest.mark.parametrize("rows", [6, ROWS])
    def test_the_sides_block_scratch_shares_no_memory(self, rows, monkeypatch):
        threaded(monkeypatch)
        basic, eps, _, _ = constant_case()
        work = StageWork(assemble_coefficients(basic), eps, rows)
        plus, minus = ([a for _, _, deriv, plane in work._block_views[side] for a in (deriv, plane)]
                       for side in (+1, -1))
        assert not any(np.shares_memory(a, b) for a in plus for b in minus)

    @pytest.mark.parametrize("cpus, block_points", [(1, THREADED_BLOCK_POINTS), (2, N1 * N2)])
    def test_sides_stepped_in_turn_share_one_scratch(self, cpus, block_points, monkeypatch):
        monkeypatch.setattr(solver, "_BLOCK_POINTS", block_points)
        monkeypatch.setattr(solver, "CPUS", cpus)
        basic, eps, _, _ = constant_case()
        work = StageWork(assemble_coefficients(basic), eps)
        assert not work.apart and len(work.deriv) == len(work.plane) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_traced_functions_run_on_the_main_thread(self, cpus, monkeypatch):
        # a benchmark tracer keeps one span stack per process: what it wraps
        # must not run on the worker; on one CPU step runs no worker at all
        threaded(monkeypatch, cpus)
        basic, eps, src, snap = mms_case()
        threads = {}

        def recorded(owner, name, key=None):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                label = name if key is None else key(*args)
                threads.setdefault(label, set()).add(threading.current_thread())
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("d1_field", "d2_field", "d2_line", "apply_interface_conditions",
                     "energy_report", "symmetrizer_energy", "divergence_monitor"):
            recorded(solver, name)
        for name in ("f_eval", "g_eval"):
            recorded(Sources, name)
        recorded(StageWork, "interior", key=lambda work, side, *a: f"interior {side:+d}")
        coeffs = assemble_coefficients(basic)
        for _ in monitored(run(coeffs, eps, sources=src, initial=snap), coeffs, 2):
            pass
        main = {threading.main_thread()}
        assert threads.pop("interior -1").isdisjoint(main) == (cpus > 1)
        assert threads == {name: main for name in (
            "d1_field", "d2_field", "d2_line", "apply_interface_conditions", "energy_report",
            "symmetrizer_energy", "divergence_monitor", "f_eval", "g_eval", "interior +1")}

    def test_an_error_in_the_worker_propagates_and_the_next_step_works(self, monkeypatch):
        threaded(monkeypatch)
        basic, eps, src, snap = constant_case()
        work = StageWork(assemble_coefficients(basic), eps)
        want = step(snap, work, src)
        interior = StageWork.interior

        def failing(self, side, *args):
            if side == -1:
                raise RuntimeError("side - failed")
            return interior(self, side, *args)

        monkeypatch.setattr(StageWork, "interior", failing)
        with pytest.raises(RuntimeError, match="side - failed"):
            step(snap, work, src)
        monkeypatch.setattr(StageWork, "interior", interior)
        assert np.array_equal(step(snap, work, src).data, want.data)

    def test_an_error_on_the_main_thread_waits_for_the_worker(self, monkeypatch):
        threaded(monkeypatch)
        basic, eps, src, snap = constant_case()
        work = StageWork(assemble_coefficients(basic), eps)
        interior, finished = StageWork.interior, []

        def slow_minus_failing_plus(self, side, *args):
            if side == +1:
                raise RuntimeError("side + failed")
            time.sleep(0.05)
            interior(self, side, *args)
            finished.append(side)

        monkeypatch.setattr(StageWork, "interior", slow_minus_failing_plus)
        with pytest.raises(RuntimeError, match="side \\+ failed"):
            step(snap, work, src)
        assert finished == [-1]   # no buffer is written after step has raised

    def test_the_worker_keeps_the_callers_errstate(self, monkeypatch):
        threaded(monkeypatch)
        basic, eps, src, snap = constant_case()
        work = StageWork(assemble_coefficients(basic), eps)
        interior, seen = StageWork.interior, {}

        def recording(self, side, *args):
            seen.setdefault(side, []).append((np.geterr(), threading.current_thread()))
            return interior(self, side, *args)

        monkeypatch.setattr(StageWork, "interior", recording)
        with np.errstate(all="raise"):
            step(snap, work, src)
        raised = dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
        assert all(err == raised for err, _ in seen[+1] + seen[-1])
        assert all(thread is not threading.main_thread() for _, thread in seen[-1])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_steps_on_a_worker_of_its_own(self, monkeypatch):
        threaded(monkeypatch)
        basic, eps, src, snap = constant_case()
        work = StageWork(assemble_coefficients(basic), eps)
        want = step(snap, work, src)   # the parent's worker is running
        pid = os.fork()
        if pid == 0:   # the child: SIGALRM ends it if the step waits on a dead worker
            code = 1
            try:
                signal.alarm(30)
                code = 0 if np.array_equal(step(snap, work, src).data, want.data) else 2
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
