"""The analytic sources, evaluated from separable tables, against the
full-grid formulas they replace (kept here as the independent reference)."""

import numpy as np
import pytest

from contact_stab import mhd
from contact_stab.grid import Grid
from contact_stab.scenarios import ManufacturedProblem, make_forcing, smooth_ramp
from contact_stab.spectral import ContactPair

TIMES = (0.0, 0.13, 0.4)
GRIDS = ((9, 9), (33, 17))


def problem(epsilon=1e-2):
    def st(S):
        return mhd.PlasmaState(1.0, 0.0, 0.2, 1.0, 0.3, S)

    return ManufacturedProblem(ContactPair(st(0.2), st(-0.1)), epsilon)


def reference_exact(pb, side, t, grid, dt_order=0, d1_order=0, d2_order=0):
    """A e^(-2 x1) cos(w2 x2 + a) cos(wt t + b) on the full mesh."""
    X1g, X2g = grid.mesh()
    A = pb.amps[side][:, None, None]
    al = pb.alph[side][:, None, None]
    be = pb.beta[side][:, None, None]
    w2, wt = pb.omega2, pb.omega_t
    fx1 = (-2.0) ** d1_order * np.exp(-2.0 * X1g)[None]
    fx2 = w2 ** d2_order * np.cos(w2 * X2g[None] + al + 0.5 * np.pi * d2_order)
    ft = wt ** dt_order * np.cos(wt * t + be + 0.5 * np.pi * dt_order)
    return A * fx1 * fx2 * ft


def reference_f(pb, t, grid):
    out = []
    for side in (+1, -1):
        tri = pb.pair.matrices[side]
        B = side * tri.A1 - pb.epsilon * np.eye(6)
        out.append(
            np.einsum("ij,jkl->ikl", tri.A0, reference_exact(pb, side, t, grid, dt_order=1))
            + np.einsum("ij,jkl->ikl", B, reference_exact(pb, side, t, grid, d1_order=1))
            + np.einsum("ij,jkl->ikl", tri.A2, reference_exact(pb, side, t, grid, d2_order=1))
        )
    return tuple(out)


def reference_g(pb, t, grid):
    trp = reference_exact(pb, +1, t, grid)[:, 0, :]
    trm = reference_exact(pb, -1, t, grid)[:, 0, :]
    x2 = grid.x2
    return np.stack([
        trp[0] - trm[0],
        trp[1] - trm[1],
        trp[2] - trm[2],
        trp[4] - trm[4],
        pb.front(t, x2, dt_order=1) + pb.pair.plus.v2 * pb.front(t, x2, d2_order=1) - trp[1],
    ])


def assert_close(new, ref, rtol=1e-13):
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("N1,N2", GRIDS)
class TestManufacturedSources:
    def test_exact_matches_the_full_grid_formula(self, N1, N2):
        grid = Grid(N1, N2, 3.0, 2.0 * np.pi)
        pb = problem()
        for t in TIMES:
            for side in (+1, -1):
                assert_close(pb.exact(side, t, grid), reference_exact(pb, side, t, grid))

    def test_f_matches_the_full_grid_operator(self, N1, N2):
        grid = Grid(N1, N2, 3.0, 2.0 * np.pi)
        for eps in (0.0, 1e-2):
            pb = problem(eps)
            f = pb.sources(grid).f
            for t in TIMES:
                for new, ref in zip(f(t), reference_f(pb, t, grid)):
                    assert_close(new, ref)

    def test_g_matches_the_full_grid_traces(self, N1, N2):
        grid = Grid(N1, N2, 3.0, 2.0 * np.pi)
        pb = problem()
        g = pb.sources(grid).g
        for t in TIMES:
            assert_close(g(t), reference_g(pb, t, grid))


def reference_forcing(grid, seed, amplitude, t_ramp, k2):
    """The forcing evaluated on the full grid at every call."""
    rng = np.random.default_rng(seed)
    X1g, X2g = grid.mesh()
    bump = np.exp(-((X1g - 1.5) / 0.5) ** 2)
    f_amp = {s: amplitude * rng.uniform(0.3, 1.0, size=6) for s in (+1, -1)}
    f_ph = {s: rng.uniform(0, 2 * np.pi, size=6) for s in (+1, -1)}
    f_wt = {s: rng.uniform(0.5, 1.5, size=6) for s in (+1, -1)}
    g_amp = amplitude * rng.uniform(0.1, 0.4, size=5)
    g_ph = rng.uniform(0, 2 * np.pi, size=5)
    g_wt = rng.uniform(0.5, 1.5, size=5)

    def shape_f(side, t):
        A = f_amp[side][:, None, None]
        ph = f_ph[side][:, None, None]
        wt = f_wt[side][:, None, None]
        return A * bump[None] * np.cos(k2 * X2g[None] + ph) * np.cos(wt * t + ph)

    def f(t):
        r = float(smooth_ramp(t, t_ramp))
        return (r * shape_f(+1, t), r * shape_f(-1, t))

    x2 = grid.x2

    def g(t):
        r = float(smooth_ramp(t, t_ramp))
        return r * (
            g_amp[:, None] * np.cos(k2 * x2[None, :] + g_ph[:, None])
            * np.cos(g_wt[:, None] * t + g_ph[:, None])
        )

    return f, g


def test_forcing_matches_the_full_grid_formula():
    # f is the shape S times r cos(wt t + ph) here and r times S cos(wt t + ph) in
    # the reference: the two differ only in the order of the products, by a few
    # ulp; g is the same formula
    grid = Grid(24, 20, 6.0, 2.0 * np.pi)
    sources = make_forcing(grid, seed=11, amplitude=1.0, t_ramp=0.2, k2=2)
    f_ref, g_ref = reference_forcing(grid, 11, 1.0, 0.2, 2)
    for t in (0.05, 0.37, 1.0):
        for new, ref in zip(sources.f(t), f_ref(t)):
            np.testing.assert_allclose(new, ref, rtol=1e-15, atol=0.0)
        assert np.array_equal(sources.g(t), g_ref(t))
