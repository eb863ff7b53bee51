"""Band-limited synthesis: determinism and resolution independence."""

import numpy as np
import pytest

from gaugeflow import forms, gauge, solver, synth
from gaugeflow.forms import Grid, codifferential, exterior_derivative, l2_norm


class TestBandLimitedField:
    def test_deterministic(self):
        g = Grid(2, 16)
        a = synth.band_limited_field(g, np.random.default_rng(3), kmax=3)
        b = synth.band_limited_field(g, np.random.default_rng(3), kmax=3)
        assert np.array_equal(a, b)

    def test_resolution_independent(self):
        # coarse grid points are a subset of the fine ones, values must match
        coarse = synth.band_limited_field(Grid(3, 16), np.random.default_rng(9), kmax=4)
        fine = synth.band_limited_field(Grid(3, 32), np.random.default_rng(9), kmax=4)
        assert np.allclose(fine[::2, ::2, ::2], coarse, atol=1e-12)

    def test_band_is_respected(self):
        g = Grid(2, 32)
        f = synth.band_limited_field(g, np.random.default_rng(1), kmax=3, kmin=2)
        spec = np.fft.fftn(f) / f.size
        k = np.fft.fftfreq(32, 1 / 32)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        band = (np.maximum(np.abs(kx), np.abs(ky)) >= 2) & (np.maximum(np.abs(kx), np.abs(ky)) <= 3)
        assert np.abs(spec[~band]).max() < 1e-12
        assert np.abs(spec[band]).max() > 0.1

    def test_stream_aligned_across_kmin(self):
        # Every mode of the kmax cube is drawn before the band filter, so
        # raising kmin removes the inner shell and leaves every other mode.
        g = Grid(2, 16)
        full = synth.band_limited_field(g, np.random.default_rng(3), kmax=3, kmin=1)
        outer = synth.band_limited_field(g, np.random.default_rng(3), kmax=3, kmin=2)
        spec = np.fft.fftn(full - outer) / full.size
        k = np.fft.fftfreq(16, 1 / 16)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        shell = np.maximum(np.abs(kx), np.abs(ky)) == 1
        assert np.abs(spec[~shell]).max() < 1e-12
        assert np.abs(spec[shell]).max() > 0.1

    def test_zero_mean(self):
        f = synth.band_limited_field(Grid(2, 16), np.random.default_rng(2), kmax=2)
        assert abs(f.mean()) < 1e-13

    def test_guards(self):
        g = Grid(2, 8)
        with pytest.raises(ValueError, match="unresolved"):
            synth.band_limited_field(g, np.random.default_rng(0), kmax=3)
        with pytest.raises(ValueError):
            synth.band_limited_field(g, np.random.default_rng(0), kmax=2, kmin=0)


class TestRandomForms:
    def test_antisymmetric_values(self, rng):
        w = synth.random_matrix_form(Grid(2, 8), 1, 3, rng, kmax=2, antisymmetric=True)
        assert w.antisymmetry_defect() == 0.0

    def test_componentwise_independence(self, rng):
        w = synth.random_matrix_form(Grid(2, 8), 1, 2, rng, kmax=2)
        assert not np.allclose(w.coeffs[0], w.coeffs[1])


class TestSmoothCutoff:
    def test_range_and_support(self):
        g = Grid(2, 32)
        chi = synth.smooth_cutoff(g)
        assert chi.min() >= 0.0 and chi.max() <= 1.0
        assert chi[16, 16] == pytest.approx(1.0)
        # outside the centered box of side 1/2 the bump vanishes
        assert chi[0, 0] == 0.0
        assert np.abs(chi[:8, :]).max() == 0.0

    def test_halfwidth_guard(self):
        with pytest.raises(ValueError):
            synth.smooth_cutoff(Grid(2, 16), halfwidth=0.6)


class TestSyntheticConnection:
    def test_coexact_and_antisymmetric(self, rng):
        g = Grid(3, 16)
        om = synth.synthetic_connection(g, 3, rng, kmax=2, target_norm=1e-2)
        assert om.antisymmetry_defect() < 1e-15
        assert l2_norm(codifferential(om)) < 1e-12
        assert synth.lorentz_norm_of_connection(om) == pytest.approx(1e-2, rel=1e-10)

    def test_exact_fraction_changes_coclosure(self, rng):
        g = Grid(3, 16)
        om = synth.synthetic_connection(g, 2, rng, kmax=2, exact_frac=0.4)
        assert om.antisymmetry_defect() < 1e-14
        assert l2_norm(codifferential(om)) > 1e-3

    def test_box_support(self, rng):
        g = Grid(3, 16)
        om = synth.synthetic_connection(g, 2, rng, kmax=2, support="box")
        assert np.abs(om.coeffs[:, 0, 0, 0]).max() == 0.0
        assert om.antisymmetry_defect() < 1e-14

    def test_guards(self, rng):
        g = Grid(2, 8)
        with pytest.raises(ValueError):
            synth.synthetic_connection(g, 2, rng, kmax=2, exact_frac=1.5)
        with pytest.raises(ValueError):
            synth.synthetic_connection(g, 2, rng, kmax=2, support="disc")


class TestConnection:
    """Connection.of is the one checked conversion of a connection."""

    def test_stages_refuse_a_two_form(self):
        # an antisymmetric 2-form at n = 3 has as many components as a
        # 1-form, so only the degree check stops the stages reading it
        grid = Grid(3, 8)
        omega = synth.synthetic_connection(grid, 3, np.random.default_rng(4), kmax=2,
                                           target_norm=0.05)
        two_form = synth.random_matrix_form(grid, 2, 3, np.random.default_rng(5), kmax=2,
                                            antisymmetric=True)
        eye = np.broadcast_to(np.eye(3), (1,) + grid.shape + (3, 3)).copy()
        pmap = solver.PicardMap.of(gauge.minimize_gauge(omega))
        with pytest.raises(ValueError, match="connection must be a 1-form"):
            gauge.minimize_gauge(two_form)
        with pytest.raises(ValueError, match="connection must be a 1-form"):
            gauge.extract_xi(forms.MatrixForm(grid, 0, eye), two_form)
        with pytest.raises(ValueError, match="connection must be a 1-form"):
            solver.solve_pair(two_form, pmap)
