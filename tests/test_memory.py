"""What the time-domain runs keep alive: the operator holds no view of its
background, run drops its initial state, a step holds no array of its
source's factors and fills its forced terms without a plane's worth of
allocation, and the 200x200 energy run peaks near its RK4 working set."""

import dataclasses
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from contact_stab.config import parse_config
from contact_stab.grid import Grid
from contact_stab.linearization import constant_basic_state
from contact_stab.scenarios import rt_basic_state, run_energy_test
from contact_stab.solver import (
    Forcing,
    Snapshot,
    Sources,
    StageWork,
    assemble_coefficients,
    build_grid,
    divergence_free_pulse,
    run,
    step,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _arrays(obj, prefix=""):
    """name -> array for every array field of a dataclass, nested ones included."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            out[prefix + f.name] = value
        elif dataclasses.is_dataclass(value):
            out.update(_arrays(value, f"{prefix}{f.name}."))
    return out


@pytest.mark.parametrize("build", [
    lambda grid: constant_basic_state(grid, v2=0.2, H1=1.0, H2=0.3, S_plus=0.2, S_minus=-0.1),
    lambda grid: rt_basic_state(grid, rt_jump=0.5),
], ids=["constant", "rt"])
def test_coefficients_share_no_memory_with_their_background(build):
    basic = build(Grid(24, 16, 6.0, 2.0 * np.pi))
    background = _arrays(basic)
    assert {"u.plus", "d1_u.minus", "d2_u.plus", "geometry.d2_phi_boundary"} <= set(background)
    coefficients = _arrays(assemble_coefficients(basic))
    assert {"v2_hat_wall", "tau1", "plus.At1", "minus.d1phi"} <= set(coefficients)
    shared = [(c, b) for c, a in coefficients.items() for b, held in background.items()
              if np.shares_memory(a, held)]
    assert shared == []


def test_run_drops_initial_once_it_has_yielded_level_zero():
    grid = Grid(20, 16, 4.0, 2.0 * np.pi)
    coeffs = assemble_coefficients(constant_basic_state(grid, v2=0.2, H2=0.3))
    initial = divergence_free_pulse(grid, seed=1)
    held = weakref.ref(initial)
    levels = run(coeffs, 1e-2, initial=initial)
    del initial
    assert held() is not None   # the generator has not started
    n, snap, _ = next(levels)
    assert n == 0 and held() is None
    assert snap.data.any()


def _forced_work(grid_shape=(20, 16)):
    """A seven-row StageWork on a constant background and a Sources whose
    Forcing records weak references to the factors coef returns."""
    grid = build_grid(constant_basic_state(Grid(*grid_shape, 4.0, 2.0 * np.pi), v2=0.2), 0.1,
                      epsilon=1e-2)
    coeffs = assemble_coefficients(constant_basic_state(grid, v2=0.2, H2=0.3))
    shape = np.exp(-grid.mesh()[0])
    returned = []

    def coef(t):
        factors = np.outer([np.cos(t), np.sin(t)], np.ones(6))[None]
        returned.append(weakref.ref(factors))
        return factors

    forcing = Forcing(np.tile(shape, (1, 2, 6, 1, 1)), coef)
    return grid, StageWork(coeffs, 1e-2), Sources(f=forcing), returned


def test_a_step_holds_no_array_that_coef_returned():
    # the forced terms a step fills are all it keeps of a fill's factors, and
    # it builds the row-6 basis of its Forcing once
    grid, work, sources, returned = _forced_work()   # both live on, as in run
    snap = divergence_free_pulse(grid, seed=1)
    bases = []
    for _ in range(3):
        snap = step(snap, work, sources)
        bases.append(work._basis[1])
    assert returned and snap.data.any()
    assert [r for r in returned if r() is not None] == []
    assert all(b is bases[0] for b in bases) and work._basis[0] is sources.f


def test_forced_fills_allocate_less_than_a_plane():
    # a fill contracts into the held terms: 20 of them, after the first has
    # allocated the terms and the basis, take less than one (N1, N2) plane
    grid, work, sources, _ = _forced_work((48, 40))
    work.forced_terms(0.0, 0.5, sources)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for n in range(1, 21):
            work.forced_terms(0.01 * n, 0.5, sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8 * grid.N1 * grid.N2


def test_energy_test_peaks_near_its_rk4_working_set():
    """The traced peak of the 200x200 energy run, in full states.  A step
    holds about 4.5: the last level, the new one, two stage buffers and a
    block's scratch; the monitors add a little.  Holding the background
    through the time loop (+3.4), a second copy of the pulse (+1.0), a
    view that pins the background's u (+0.9) or whole-grid stage scratch
    (+0.8) each takes the peak past 5.5."""
    cfg = parse_config(str(CONFIGS / "energy_test.cfg"), "energy-test",
                       overrides=["run.T_final=0.05"])
    assert (cfg["grid.N1"], cfg["grid.N2"]) == (200, 200)
    state = Snapshot.zeros(Grid(200, 200, 1.0, 1.0)).data.nbytes
    tracemalloc.start()
    try:
        assert run_energy_test(cfg).exit_code == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / state < 5.5
