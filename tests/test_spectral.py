import numpy as np
import pytest

from contact_stab import mhd, spectral
from contact_stab.spectral import (
    ContactPair,
    DegeneratePointError,
    LaplaceFourierPoint,
    decaying_modes,
    dispersion_roots,
    lopatinski_determinant,
    neutral_mode_residual,
)


def make_pair(p=1.0, v2=0.3, H1=1.0, H2=0.4, S_plus=0.3, S_minus=-0.2):
    def st(S):
        return mhd.PlasmaState(p, 0.0, v2, H1, H2, S)

    return ContactPair(st(S_plus), st(S_minus))


class TestContactPair:
    def test_entropy_jump_allowed(self):
        make_pair()

    def test_pressure_jump_rejected(self):
        a = mhd.PlasmaState(1.2, 0.0, 0.0, 1.0, 0.0, 0.0)
        b = mhd.PlasmaState(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ContactPair(a, b)

    def test_zero_normal_field_rejected(self):
        a = mhd.PlasmaState(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ContactPair(a, a)

    def test_moving_frame_rejected(self):
        a = mhd.PlasmaState(1.0, 0.5, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ContactPair(a, a)


class TestDispersionRoots:
    def test_modes_satisfy_the_full_system(self, rng):
        pair = make_pair()
        for trial in range(20):
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0))
            w2 = rng.uniform(-2.0, 2.0)
            if abs(w2) < 0.1:
                continue
            pt = LaplaceFourierPoint(s, w2)
            for side in (+1, -1):
                st = pair.side(side)
                tri = mhd.assemble_matrices(st)
                lam, modes = dispersion_roots(pt, st, side)
                for j in range(len(lam)):
                    X = modes[:, j]
                    res = (
                        s * tri.A0 @ X
                        + lam[j] * float(side) * tri.A1 @ X
                        + 1j * w2 * tri.A2 @ X
                    )
                    assert np.max(np.abs(res)) <= 1e-9 * max(np.max(np.abs(X)), 1.0)

    def test_root_count_and_hersh_splitting(self):
        pair = make_pair()
        pt = LaplaceFourierPoint(0.5 + 0.3j, 1.0)
        for side in (+1, -1):
            lam, modes = decaying_modes(pt, pair.side(side), side)
            assert lam.shape == (2,)
            assert np.all(lam.real < 0.0)
            assert modes.shape == (6, 2)

    def test_one_dimensional_limit_gives_acoustic_roots(self):
        # w2 = 0: roots are +-s/c_fast and +-s/c_slow with the normal speeds
        st = mhd.PlasmaState(1.0, 0.0, 0.0, 1.0, 0.4, 0.1)
        speeds = mhd.characteristic_speeds(st, 1.0, 0.0)
        cs, cf = speeds[4], speeds[5]
        s = 0.8 + 0.0j
        lam, _ = dispersion_roots(LaplaceFourierPoint(s, 0.0), st, +1)
        want = np.sort_complex(np.array([-s / cs, -s / cf, s / cf, s / cs]))
        got = np.sort_complex(lam)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_decaying_selection_requires_right_half_plane(self):
        with pytest.raises(ValueError):
            decaying_modes(LaplaceFourierPoint(-0.1 + 0j, 1.0), make_pair().plus, +1)

    def test_degenerate_transport_symbol_flagged(self):
        pair = make_pair(v2=1.0)
        # s = -i w2 v2 makes the eliminated entropy row singular
        with pytest.raises(DegeneratePointError):
            dispersion_roots(LaplaceFourierPoint(-1j, 1.0), pair.plus, +1)


class TestStatePencil:
    """The state-only pencil data is built once per state; checks still run."""

    def test_inadmissible_state_raises_on_every_call(self):
        st = mhd.PlasmaState(-1.0, 0.0, 0.3, 1.0, 0.4, 0.0)
        pt = LaplaceFourierPoint(0.5 + 0.3j, 1.0)
        for _ in range(2):
            with pytest.raises(mhd.InadmissibleStateError):
                dispersion_roots(pt, st, +1)

    def test_zero_normal_field_is_degenerate_not_singular(self):
        st = mhd.PlasmaState(1.0, 0.0, 0.3, 0.0, 0.4, 0.0)
        with pytest.raises(DegeneratePointError):
            dispersion_roots(LaplaceFourierPoint(0.5 + 0.3j, 1.0), st, +1)

    def test_roots_match_the_solved_pencil(self, rng):
        idx = np.ix_(spectral.REDUCED, spectral.REDUCED)
        for trial in range(20):
            st = mhd.PlasmaState(rng.uniform(0.2, 3.0), 0.0, rng.uniform(-1.0, 1.0),
                                 rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0),
                                 rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
            w2 = rng.uniform(-2.0, 2.0)
            tri = mhd.assemble_matrices(st)
            c3 = np.array([0.0, -st.H2, st.H1, 0.0])
            sigma = s + 1j * w2 * st.v2
            M = s * tri.A0[idx] + 1j * w2 * tri.A2[idx] + (w2 ** 2 / sigma) * np.outer(c3, c3)
            for side in (+1, -1):
                want = np.linalg.eigvals(np.linalg.solve(side * tri.A1[idx], -M))
                lam, _ = dispersion_roots(LaplaceFourierPoint(s, w2), st, side)
                assert np.all(np.diff(lam.real) >= 0.0)
                gap = np.abs(want[:, None] - lam[None, :]).min(axis=1)
                assert np.max(gap) <= 1e-10 * np.max(np.abs(want))

    def test_cold_and_warm_cache_agree_bitwise(self):
        pair, pt = make_pair(), LaplaceFourierPoint(0.7 - 0.4j, 1.2)
        spectral._state_pencil.cache_clear()
        cold = lopatinski_determinant(pt, pair)
        warm = lopatinski_determinant(pt, pair)
        assert cold.lopatinski_value == warm.lopatinski_value
        assert cold.conditioning == warm.conditioning


class TestLopatinskiDeterminant:
    def test_nonzero_off_the_neutral_family(self):
        res = lopatinski_determinant(LaplaceFourierPoint(0.5 + 0.3j, 1.0), make_pair())
        assert abs(res.lopatinski_value) > 1e-6
        assert res.conditioning > 0.0

    def test_scale_invariance(self):
        pair = make_pair()
        a = lopatinski_determinant(LaplaceFourierPoint(0.4 + 0.2j, 0.9), pair)
        b = lopatinski_determinant(LaplaceFourierPoint(2.0 * (0.4 + 0.2j), 1.8), pair)
        ra, rb = abs(a.lopatinski_value), abs(b.lopatinski_value)
        assert abs(ra - rb) <= 1e-8 * ra

    def test_conjugate_symmetry(self):
        pair = make_pair()
        a = lopatinski_determinant(LaplaceFourierPoint(0.4 + 0.7j, 1.3), pair)
        b = lopatinski_determinant(LaplaceFourierPoint(0.4 - 0.7j, -1.3), pair)
        assert abs(abs(a.lopatinski_value) - abs(b.lopatinski_value)) <= 1e-10

    def test_neutral_family_degenerates_linearly(self):
        pair = make_pair(v2=0.3)
        w2 = 1.0
        vals = []
        for eta in (0.05, 0.025, 0.0125):
            pt = LaplaceFourierPoint(complex(eta, -w2 * pair.plus.v2), w2)
            vals.append(abs(lopatinski_determinant(pt, pair).lopatinski_value))
        assert vals[0] > vals[1] > vals[2] > 0.0


class TestNeutralMode:
    def test_residual_exactly_zero(self):
        assert neutral_mode_residual(1.0, make_pair()) == 0.0
        assert neutral_mode_residual(2.0, make_pair(v2=0.0)) == 0.0

    def test_residual_zero_for_any_entropy_amplitudes(self):
        assert neutral_mode_residual(1.5, make_pair(), S_bar=(2.3, -0.7), phi_bar=5.0) == 0.0


class TestPointValidation:
    def test_origin_excluded(self):
        with pytest.raises(ValueError):
            LaplaceFourierPoint(0.0 + 0.0j, 0.0)
