import dataclasses

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

    @pytest.mark.parametrize("component", ["p", "v1", "v2", "H1", "H2"])
    def test_jump_of_a_shared_component_rejected(self, component):
        a = mhd.PlasmaState(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        b = dataclasses.replace(a, **{component: getattr(a, component) + 0.2})
        with pytest.raises(ValueError, match="must share p, v, H"):
            ContactPair(a, b)

    def test_zero_normal_field_rejected(self):
        a = mhd.PlasmaState(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ContactPair(a, a)

    def test_moving_frame_rejected(self):
        a = mhd.PlasmaState(1.0, 0.5, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ContactPair(a, a)


# The five data sets of acceptance criterion 07.
CRITERION_07 = [
    dict(p=1.0, v2=0.3, H1=1.0, H2=0.4, S_plus=0.3, S_minus=-0.2),
    dict(p=2.0, v2=0.0, H1=0.7, H2=0.0, S_plus=0.0, S_minus=0.5),
    dict(p=0.5, v2=-0.4, H1=1.5, H2=-0.6, S_plus=-0.3, S_minus=0.1),
    dict(p=1.3, v2=0.8, H1=0.4, H2=0.9, S_plus=0.6, S_minus=0.6),
    dict(p=3.0, v2=0.1, H1=2.0, H2=1.0, S_plus=-1.0, S_minus=0.8),
]


def _reference_roots(point, state, side):
    """One side's pencil solved on its own, as before both sides were
    stacked: its own eig, argsort and all four modes rebuilt."""
    idx = np.ix_(spectral.REDUCED, spectral.REDUCED)
    tri = mhd.assemble_matrices(state)
    inv = np.linalg.inv(tri.A1[idx])
    c3 = np.array([0.0, -state.H2, state.H1, 0.0])
    P0, P2, Pc = inv @ tri.A0[idx], inv @ tri.A2[idx], np.outer(inv @ c3, c3)
    s, w2 = point.s, point.omega2
    sigma = s + 1j * w2 * state.v2
    if abs(sigma) < 1e-14 * max(abs(s), abs(w2), 1.0):
        raise DegeneratePointError("transport symbol s + i w2 v2 vanishes")
    lam, vecs = np.linalg.eig(-side * (s * P0 + 1j * w2 * P2 + (w2 ** 2 / sigma) * Pc))
    if not np.all(np.isfinite(lam)):
        raise DegeneratePointError("reduced pencil produced non-finite roots")
    order = np.argsort(lam.real)
    modes = np.zeros((6, 4), dtype=complex)
    modes[spectral.REDUCED, :] = vecs[:, order]
    modes[3] = -1j * w2 * (-state.H2 * modes[1] + state.H1 * modes[2]) / sigma
    return lam[order], modes


def _reference_determinant(point, pair):
    """(value, conditioning) of the interface determinant, side by side."""
    if point.s.real <= 0.0:
        raise ValueError("decaying-mode selection requires Re s > 0")
    bases = []
    for side in (+1, -1):
        lam, modes = _reference_roots(point, pair.side(side), side)
        dec = lam.real < 0.0
        if int(np.sum(dec)) != 2:
            raise DegeneratePointError("expected 2 decaying roots")
        bases.append(modes[:, dec] / np.linalg.norm(modes[:, dec], axis=0))
    s, w2 = point.s, point.omega2
    Mat = np.zeros((5, 5), dtype=complex)
    Mat[:4, :2] = bases[0][spectral.REDUCED, :]
    Mat[4, :2] = -bases[0][1]
    Mat[:4, 2:4] = -bases[1][spectral.REDUCED, :]
    Mat[4, 4] = s + 1j * w2 * pair.plus.v2
    delta = np.linalg.det(Mat) / np.sqrt(abs(s) ** 2 + w2 ** 2)
    return delta, float(np.linalg.svd(Mat, compute_uv=False)[-1])


def _full_residual(point, state, side, lam, X):
    tri = mhd.assemble_matrices(state)
    res = point.s * tri.A0 @ X + lam * float(side) * tri.A1 @ X + 1j * point.omega2 * tri.A2 @ X
    return np.max(np.abs(res)) / max(np.max(np.abs(X)), 1.0)


class TestDispersionRoots:
    def test_modes_satisfy_the_full_system(self, rng):
        pair = make_pair()
        for trial in range(20):
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0))
            w2 = rng.uniform(-2.0, 2.0)
            if abs(w2) < 0.1:
                continue
            pt = LaplaceFourierPoint(s, w2)
            lam, modes = decaying_modes(pt, pair)
            for k, side in enumerate((+1, -1)):
                st = pair.side(side)
                for j in range(2):
                    assert _full_residual(pt, st, side, lam[k, j], modes[k, :, j]) <= 1e-9
                ref_lam, ref_modes = _reference_roots(pt, st, side)
                for j in range(4):
                    assert _full_residual(pt, st, side, ref_lam[j], ref_modes[:, j]) <= 1e-9

    def test_root_count_and_hersh_splitting(self):
        pt = LaplaceFourierPoint(0.5 + 0.3j, 1.0)
        lam, modes = decaying_modes(pt, make_pair())
        assert lam.shape == (2, 2)
        assert np.all(lam.real < 0.0)
        assert modes.shape == (2, 6, 2)
        assert np.all(modes[:, 5] == 0.0)

    def test_one_dimensional_limit_gives_acoustic_roots(self):
        # w2 = 0: roots are +-s/c_fast and +-s/c_slow with the normal speeds
        st = mhd.PlasmaState(1.0, 0.0, 0.0, 1.0, 0.4, 0.1)
        speeds = mhd.characteristic_speeds(st, 1.0, 0.0)
        cs, cf = speeds[4], speeds[5]
        s = 0.8 + 0.0j
        lam, vecs = dispersion_roots(LaplaceFourierPoint(s, 0.0), ContactPair(st, st))
        assert lam.shape == (2, 4) and vecs.shape == (2, 4, 4)
        want = np.sort_complex(np.array([-s / cs, -s / cf, s / cf, s / cs]))
        for side_roots in lam:
            assert np.max(np.abs(np.sort_complex(side_roots) - want)) <= 1e-9

    def test_decaying_selection_requires_right_half_plane(self):
        with pytest.raises(ValueError):
            decaying_modes(LaplaceFourierPoint(-0.1 + 0j, 1.0), make_pair())

    def test_degenerate_transport_symbol_flagged(self):
        pair = make_pair(v2=1.0)
        # s = -i w2 v2 makes the eliminated entropy row singular
        with pytest.raises(DegeneratePointError):
            dispersion_roots(LaplaceFourierPoint(-1j, 1.0), pair)


class TestStatePencil:
    """The pencil of a pair's two states is built once, stacked; the pair
    checks the states when it is constructed."""

    def test_inadmissible_state_raises_on_every_call(self):
        st = mhd.PlasmaState(-1.0, 0.0, 0.3, 1.0, 0.4, 0.0)
        for _ in range(2):
            with pytest.raises(mhd.InadmissibleStateError):
                ContactPair(st, st)

    def test_zero_normal_field_rejected_by_the_pair(self):
        for H1 in (0.0, 1e-13):
            st = mhd.PlasmaState(1.0, 0.0, 0.3, H1, 0.4, 0.0)
            with pytest.raises(ValueError, match="normal magnetic field"):
                ContactPair(st, st)

    def test_roots_match_the_solved_pencil(self, rng):
        idx = np.ix_(spectral.REDUCED, spectral.REDUCED)
        for trial in range(20):
            p, v2 = rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)
            H1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            H2 = rng.uniform(-1.5, 1.5)
            pair = ContactPair(*(mhd.PlasmaState(p, 0.0, v2, H1, H2, S)
                                 for S in rng.uniform(-1.0, 1.0, 2)))
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
            w2 = rng.uniform(-2.0, 2.0)
            lam, vecs = dispersion_roots(LaplaceFourierPoint(s, w2), pair)
            assert np.all(np.diff(lam.real, axis=1) >= 0.0)
            c3 = np.array([0.0, -H2, H1, 0.0])
            sigma = s + 1j * w2 * v2
            for k, side in enumerate((+1, -1)):
                tri = mhd.assemble_matrices(pair.side(side))
                M = s * tri.A0[idx] + 1j * w2 * tri.A2[idx] + (w2 ** 2 / sigma) * np.outer(c3, c3)
                want = np.linalg.eigvals(np.linalg.solve(side * tri.A1[idx], -M))
                gap = np.abs(want[:, None] - lam[k][None, :]).min(axis=1)
                assert np.max(gap) <= 1e-10 * np.max(np.abs(want))
                res = M @ vecs[k] + side * tri.A1[idx] @ vecs[k] * lam[k]
                assert np.max(np.abs(res)) <= 1e-9 * np.max(np.abs(want))

    def test_cold_and_warm_cache_agree_bitwise(self):
        pt = LaplaceFourierPoint(0.7 - 0.4j, 1.2)
        pair = make_pair()
        assert "_pencil" not in vars(pair)
        cold = lopatinski_determinant(pt, pair)
        assert "_pencil" in vars(pair)
        warm = lopatinski_determinant(pt, pair)
        assert cold.lopatinski_value == warm.lopatinski_value
        assert cold.conditioning == warm.conditioning
        for m in pair._pencil:
            assert not m.flags.writeable

    def test_matrices_are_built_once_read_only(self, monkeypatch):
        pair = make_pair()
        built = []
        assemble = mhd.assemble_matrices
        monkeypatch.setattr(mhd, "assemble_matrices", lambda st: built.append(st) or assemble(st))
        lopatinski_determinant(LaplaceFourierPoint(0.7 - 0.4j, 1.2), pair)
        neutral_mode_residual(1.0, pair)
        assert built == [pair.plus, pair.minus]
        for side in (+1, -1):
            want = assemble(pair.side(side))
            for name in ("A0", "A1", "A2"):
                got = getattr(pair.matrices[side], name)
                assert np.array_equal(got, getattr(want, name)) and not got.flags.writeable


class TestAgainstThePerSideReference:
    """The stacked point against the side-by-side computation it replaces."""

    @staticmethod
    def _pairs():
        for case in CRITERION_07:
            yield make_pair(**case)
        yield make_pair()

    def test_value_and_conditioning_agree(self, rng):
        n = 0
        for pair in self._pairs():
            for _ in range(40):
                pt = LaplaceFourierPoint(complex(rng.uniform(0.01, 2.5), rng.uniform(-3.0, 3.0)),
                                         rng.uniform(-2.5, 2.5))
                got = lopatinski_determinant(pt, pair)
                want, cond = _reference_determinant(pt, pair)
                assert abs(got.lopatinski_value - want) <= 1e-12 * abs(want)
                assert abs(got.conditioning - cond) <= 1e-12 * cond
                n += 1
        assert n >= 200

    def test_degenerate_points_raise_in_both(self):
        pair = make_pair()
        points = [LaplaceFourierPoint(complex(1e-300, xi), w2)
                  for xi in (-3.0, -2.9) for w2 in (0.5, 1.0)]
        points.append(LaplaceFourierPoint(complex(1e-17, -0.3), 1.0))  # sigma ~ 0
        for pt in points:
            with pytest.raises(DegeneratePointError):
                lopatinski_determinant(pt, pair)
            with pytest.raises(DegeneratePointError):
                _reference_determinant(pt, pair)


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


class TestPointValidation:
    def test_origin_excluded(self):
        with pytest.raises(ValueError):
            LaplaceFourierPoint(0.0 + 0.0j, 0.0)
