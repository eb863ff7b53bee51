"""Lorentz norms against closed-form oracles and rearrangement invariances."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugeflow import synth
from gaugeflow.forms import Grid, MatrixForm, l2_norm, sup_norm
from gaugeflow.lorentz import lorentz_norm


def indicator(res, measure):
    """Flat array with a fraction `measure` of ones (exact cell count)."""
    count = round(measure * res * res)
    field = np.zeros(res * res)
    field[:count] = 1.0
    return field.reshape(res, res)


class TestRearrange:
    # The norm sees a field only through its decreasing rearrangement, so
    # moving or flipping samples must not change a single bit.
    def test_permutation_invariance(self, rng):
        arr = rng.standard_normal((16, 16))
        shuffled = rng.permutation(arr.ravel()).reshape(arr.shape)
        for q in (1.0, 2.0, np.inf):
            assert lorentz_norm(shuffled, 3.0, q) == lorentz_norm(arr, 3.0, q)

    def test_sign_invariance(self, rng):
        arr = rng.standard_normal((16, 16))
        for q in (1.0, 2.0, np.inf):
            assert lorentz_norm(-arr, 3.0, q) == lorentz_norm(arr, 3.0, q)

    def test_constant_field(self):
        # A constant c on unit volume has norm (p/q)^(1/q) |c|.
        for p, q in ((2.0, 1.0), (3.0, 2.0)):
            got = lorentz_norm(-2.5 * np.ones((8, 8)), p, q)
            assert got == pytest.approx((p / q) ** (1 / q) * 2.5, rel=1e-12)


class TestLorentzNorm:
    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (3.0, 2.0), (4.0, 2.0)])
    def test_indicator_closed_form(self, p, q):
        a = 1 / 8
        got = lorentz_norm(indicator(64, a), p, q)
        want = (p / q) ** (1 / q) * a ** (1 / p)
        assert got == pytest.approx(want, rel=1e-12)

    def test_indicator_weak_norm(self):
        a = 1 / 4
        got = lorentz_norm(indicator(64, a), 3.0, np.inf)
        assert got == pytest.approx(a ** (1 / 3), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_diagonal_matches_lp(self, p, rng):
        f = synth.random_matrix_form(Grid(2, 16), 1, 2, rng, kmax=3)
        mags = np.sqrt((f.coeffs ** 2).sum(axis=(0, -1, -2)))
        want = (np.sum(mags ** p) * f.grid.cell) ** (1 / p)
        assert lorentz_norm(f, p, p) == pytest.approx(want, rel=1e-12)

    @given(c=st.floats(-8.0, 8.0, allow_nan=False), seed=st.integers(0, 10 ** 6))
    def test_homogeneity(self, c, seed):
        f = synth.random_matrix_form(Grid(2, 8), 1, 2,
                                     np.random.default_rng(seed), kmax=2)
        base = lorentz_norm(f, 3.0, 2.0)
        assert lorentz_norm(f * c, 3.0, 2.0) == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_q_monotone_on_indicators(self, p):
        f = indicator(32, 1 / 4)
        norms = [lorentz_norm(f, p, q) for q in (1.0, 2.0, p, np.inf)]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_quasi_triangle(self, rng):
        g = Grid(2, 16)
        f1 = synth.random_matrix_form(g, 1, 2, rng, kmax=3)
        f2 = synth.random_matrix_form(g, 1, 2, rng, kmax=3)
        for q in (1.0, 2.0):
            lhs = lorentz_norm(f1 + f2, 3.0, q)
            rhs = lorentz_norm(f1, 3.0, q) + lorentz_norm(f2, 3.0, q)
            assert lhs <= 2.0 ** (1.0 / min(1.0, q) + 1.0) * rhs

    def test_refinement_consistency(self):
        # the same continuum field sampled at finer grids: norm differences
        # shrink with at least first order.  A narrow bump off the grid
        # points has energy far above res 16's band, so its norm really moves
        # with res; a band-limited field would compare rounding noise.
        norms = []
        for res in (16, 32, 64):
            x = Grid(2, res).coords()
            f = np.exp(-((x - 0.3) ** 2).sum(axis=0) / (2 * 0.02 ** 2))
            norms.append(lorentz_norm(f, 2.0, 2.0))
        d1, d2 = abs(norms[1] - norms[0]), abs(norms[2] - norms[1])
        assert d1 >= 1e-8
        assert d2 <= 0.75 * d1

    def test_index_guards(self):
        f = indicator(16, 0.5)
        with pytest.raises(ValueError):
            lorentz_norm(f, 1.0, 2.0)
        with pytest.raises(ValueError):
            lorentz_norm(f, 2.0, 0.5)


class TestSupNorm:
    def test_sine_hits_extremum(self):
        g = Grid(2, 16)
        x = g.coords()
        coeffs = np.sin(2 * np.pi * x[0])[None, ..., None, None]
        assert sup_norm(MatrixForm(g, 0, coeffs)) == 1.0

    def test_dominates_l2_on_unit_volume(self, rng):
        f = synth.random_matrix_form(Grid(2, 16), 1, 2, rng, kmax=3)
        assert sup_norm(f) >= l2_norm(f)
