import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact_stab import mhd

from conftest import admissible_states


def closed_form_speeds(state, n1, n2):
    """Independent oracle: {vn - cf, vn - cs, vn, vn, vn + cs, vn + cf}."""
    rho = state.rho
    c2 = state.gamma * state.p / rho
    b2 = (state.H1 ** 2 + state.H2 ** 2) / rho
    bn2 = (state.H1 * n1 + state.H2 * n2) ** 2 / rho
    disc = np.sqrt(max((c2 + b2) ** 2 - 4.0 * c2 * bn2, 0.0))
    cf2 = 0.5 * ((c2 + b2) + disc)
    cf = np.sqrt(cf2)
    # stable slow speed via the product identity cf^2 cs^2 = c^2 bn^2
    cs = np.sqrt(c2 * bn2 / cf2)
    vn = state.v1 * n1 + state.v2 * n2
    return np.sort([vn - cf, vn - cs, vn, vn, vn + cs, vn + cf])


class TestEos:
    def test_density_positive_and_monotone_in_p(self):
        assert mhd.eos_density(1.0, 0.0) == pytest.approx(1.0)
        assert mhd.eos_density(2.0, 0.0) > mhd.eos_density(1.0, 0.0)

    def test_density_decreases_with_entropy(self):
        assert mhd.eos_density(1.0, 1.0) < mhd.eos_density(1.0, 0.0)

    def test_nonpositive_pressure_rejected(self):
        with pytest.raises(mhd.InadmissibleStateError):
            mhd.eos_density(0.0, 0.0)
        with pytest.raises(mhd.InadmissibleStateError):
            mhd.eos_density(-1.0, 0.0)


class TestPlasmaState:
    def test_admissibility_flag(self):
        assert mhd.PlasmaState(1.0, 0, 0, 1, 0, 0).is_admissible
        bad = mhd.PlasmaState(1e-13, 0, 0, 1, 0, 0)
        assert not bad.is_admissible
        with pytest.raises(mhd.InadmissibleStateError):
            bad.require_admissible()


class TestCoefficientMatrices:
    @given(admissible_states())
    @settings(max_examples=60)
    def test_exact_symmetry(self, state):
        tri = mhd.assemble_matrices(state)
        for A in (tri.A0, tri.A1, tri.A2):
            assert np.array_equal(A, A.T)

    @given(admissible_states())
    @settings(max_examples=60)
    def test_a0_positive_definite(self, state):
        tri = mhd.assemble_matrices(state)
        assert np.min(np.linalg.eigvalsh(tri.A0)) > 0.0

    def test_gridded_shape(self):
        p = np.ones((4, 5))
        A = mhd.symbol(p, 0.1, 0.0, 1.0, 0.3, np.ones_like(p), (0, 1, 0))
        assert A.shape == (6, 6, 4, 5)
        assert np.allclose(A[0, 1], 1.0)

    @given(admissible_states(), st.floats(0.0, 2.0 * np.pi))
    @example(  # entries whose products are subnormal
        mhd.PlasmaState(p=0.5, v1=8.768593515218235e-184, v2=0.0, H1=0.0,
                        H2=6.78985749624897e-162, S=0.0), 0.0)
    @settings(max_examples=60)
    def test_characteristic_speeds_match_closed_form(self, state, angle):
        n1, n2 = np.cos(angle), np.sin(angle)
        got = mhd.characteristic_speeds(state, n1, n2)
        assert np.max(np.abs(got - closed_form_speeds(state, n1, n2))) <= 1e-10

    def test_characteristic_speeds_requires_unit_normal(self):
        with pytest.raises(ValueError):
            mhd.characteristic_speeds(mhd.PlasmaState(1, 0, 0, 1, 0, 0), 1.0, 1.0)


class TestSymbol:
    @given(admissible_states(), st.tuples(*[st.floats(-2.0, 2.0)] * 3),
           st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_symmetric_and_linear_in_the_direction(self, state, n, Y):
        """symbol(n) and dsymbol(n) are exactly symmetric and equal
        sum_k n_k symbol(e_k) and sum_k n_k dsymbol(e_k), to 1e-13 of the
        largest summand; the tiny floor absorbs subnormal roundoff."""
        U = (state.p, state.v1, state.v2, state.H1, state.H2, state.rho)
        Y = np.array(Y)
        for build in (lambda n: mhd.symbol(*U, n, state.gamma),
                      lambda n: mhd.dsymbol(state.p, state.v1, state.v2, state.rho, Y, n,
                                            state.gamma)):
            got = build(n)
            assert np.array_equal(got, got.T)
            parts = [n_k * build(e_k) for n_k, e_k in zip(n, np.eye(3))]
            scale = max(np.max(np.abs(P)) for P in parts)
            assert np.max(np.abs(got - sum(parts))) <= 1e-13 * scale + np.finfo(float).tiny


class TestMatrixDerivatives:
    @given(admissible_states(), st.integers(0, 5))
    @settings(max_examples=40)
    def test_directional_derivatives_match_finite_differences(self, state, k):
        Y = np.zeros(6)
        Y[k] = 1.0
        h = 1e-6
        u = np.array([state.p, state.v1, state.v2, state.H1, state.H2, state.S])

        def tri_at(vec):
            return mhd.assemble_matrices(mhd.PlasmaState(*vec, gamma=state.gamma))

        tp = tri_at(u + h * Y)
        tm = tri_at(u - h * Y)
        got = [mhd.dsymbol(state.p, state.v1, state.v2, state.rho, Y, n, state.gamma)
               for n in np.eye(3)]
        fd = (
            (tp.A0 - tm.A0) / (2 * h),
            (tp.A1 - tm.A1) / (2 * h),
            (tp.A2 - tm.A2) / (2 * h),
        )
        for G, F in zip(got, fd):
            scale = max(np.max(np.abs(G)), 1.0)
            assert np.max(np.abs(G - F)) <= 2e-4 * scale
