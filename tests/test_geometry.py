import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_stab import geometry
from contact_stab.geometry import (
    AdmissibilityError,
    CHI_SLOPE_BOUND,
    build_lifted_geometry,
    cutoff_chi,
    cutoff_chi_d,
    cutoff_chi_dd,
    normal_jump,
)
from contact_stab.grid import Grid


class TestCutoff:
    def test_plateau_values(self):
        assert cutoff_chi(0.0) == 1.0
        assert cutoff_chi(1.0) == 1.0
        assert cutoff_chi(-0.7) == 1.0
        assert cutoff_chi(4.0) == 0.0
        assert cutoff_chi(6.0) == 0.0
        assert 0.0 < cutoff_chi(2.5) < 1.0

    def test_even_symmetry(self):
        # exactly, as the one lift Psi shared by both sides needs
        x = np.linspace(-5, 5, 301)
        assert np.array_equal(cutoff_chi(x), cutoff_chi(-x))
        assert np.array_equal(cutoff_chi_d(-x), -cutoff_chi_d(x))
        assert np.array_equal(cutoff_chi_dd(-x), cutoff_chi_dd(x))

    def test_slope_bound_strictly_below_half(self):
        x = np.linspace(-4.5, 4.5, 20001)
        m = np.max(np.abs(cutoff_chi_d(x)))
        assert m <= CHI_SLOPE_BOUND + 1e-12
        assert CHI_SLOPE_BOUND < 0.5

    def test_derivative_consistency(self):
        x = np.linspace(-4.5, 4.5, 1201)
        h = 1e-5
        fd = (cutoff_chi(x + h) - cutoff_chi(x - h)) / (2 * h)
        assert np.max(np.abs(fd - cutoff_chi_d(x))) <= 1e-6
        fd2 = (cutoff_chi_d(x + h) - cutoff_chi_d(x - h)) / (2 * h)
        assert np.max(np.abs(fd2 - cutoff_chi_dd(x))) <= 1e-5

    def test_monotone_on_transition(self):
        x = np.linspace(1.0, 4.0, 400)
        assert np.all(np.diff(cutoff_chi(x)) <= 1e-15)


class TestLiftedGeometry:
    def setup_method(self):
        self.grid = Grid(40, 24, 6.0, 2.0 * np.pi)

    def _front(self, amp=0.4):
        return amp * np.cos(self.grid.x2)

    def test_map_slope_bounded_away_from_zero(self):
        geo = build_lifted_geometry(self._front(0.9), self.grid)
        assert np.min(geo.d1_phi(+1)) >= 0.5
        assert np.max(geo.d1_phi(-1)) <= -0.5

    @pytest.mark.parametrize("side", [+1, -1])
    def test_map_slope_is_the_derivative_of_the_map(self, side):
        front = self._front(0.9)
        geo = build_lifted_geometry(front, self.grid)
        x1, h = self.grid.x1[:, None], 1e-5

        def Phi(x):   # Phi_pm = pm x1 + chi(x1) phi
            return side * x + cutoff_chi(x) * front[None, :]

        fd = (Phi(x1 + h) - Phi(x1 - h)) / (2 * h)
        assert np.max(np.abs(fd - geo.d1_phi(side))) <= 1e-6

    # dt_Psi = chi(x1) dt_phi, so with dt_phi = phi it is Psi = chi(x1) phi

    def test_boundary_values(self):
        front = self._front()
        geo = build_lifted_geometry(front, self.grid, dt_phi=front)
        # chi = 1 near the interface: Psi restricted to x1 = 0 is phi itself,
        # and Phi_pm = pm x1 + Psi has the straight map's slope there
        assert np.allclose(geo.dt_psi[0], front)
        assert np.allclose(geo.d1_phi(+1)[0], 1.0)
        assert np.allclose(geo.d1_phi(-1)[0], -1.0)

    def test_support_of_lift(self):
        front = self._front()
        geo = build_lifted_geometry(front, self.grid, dt_phi=front)
        far = self.grid.x1 >= 4.0
        assert np.all(geo.dt_psi[far] == 0.0)
        assert np.all(geo.d1_phi(+1)[far] == 1.0)
        assert np.all(geo.d1_phi(-1)[far] == -1.0)

    def test_inadmissible_front_rejected(self):
        with pytest.raises(AdmissibilityError):
            build_lifted_geometry(self._front(1.0), self.grid)
        build_lifted_geometry(self._front(1.0), self.grid, skip_admissibility=True)

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_lifted_geometry(np.zeros(7), self.grid)

    @given(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_lift_is_linear_in_the_front(self, a1, a2, c1, c2):
        g = Grid(24, 16, 6.0, 2.0 * np.pi)
        pa = a1 * np.cos(g.x2)
        pb = a2 * np.sin(2 * g.x2)
        combo = c1 * pa + c2 * pb
        if np.max(np.abs(combo)) >= 1.0:
            return
        ga, gb, gc = (build_lifted_geometry(p, g, dt_phi=p, skip_admissibility=True)
                      for p in (pa, pb, combo))
        for got, want in ((gc.dt_psi, c1 * ga.dt_psi + c2 * gb.dt_psi),
                          (gc.d1_psi, c1 * ga.d1_psi + c2 * gb.d1_psi)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_time_derivative_propagates_through_cutoff(self):
        front = self._front()
        dt_phi = 0.3 * np.sin(self.grid.x2)
        geo = build_lifted_geometry(front, self.grid, dt_phi=dt_phi)
        assert np.allclose(geo.dt_psi[0], dt_phi)
        assert np.all(geo.dt_psi[self.grid.x1 >= 4.0] == 0.0)


class TestNormalJump:
    def test_sum_convention_on_quadratics(self):
        g = Grid(30, 8, 3.0, 1.0)
        x1 = g.x1[:, None]
        sp, sm = 0.7, -0.2
        fp = 1.0 + sp * x1 + 0.4 * x1 ** 2 + np.zeros((1, g.N2))
        fm = 1.0 + sm * x1 - 0.1 * x1 ** 2 + np.zeros((1, g.N2))
        # the 2nd-order one-sided stencil is exact on quadratics
        got = normal_jump(fp, fm, g.h1)
        assert np.allclose(got, sp + sm, atol=1e-12)

    def test_components(self):
        assert geometry.normal_component(2.0, 3.0, 0.5) == pytest.approx(0.5)
        assert geometry.tangential_component(2.0, 3.0, 0.5) == pytest.approx(4.0)
