"""Coulomb gauge minimization and potential extraction."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gaugeflow
from gaugeflow import forms, gauge, synth
from gaugeflow.forms import Grid, MatrixForm


def identity_rotation(grid, m):
    eye = np.broadcast_to(np.eye(m), grid.shape + (m, m)).copy()
    return MatrixForm(grid, 0, eye[None])


def random_skew(rng, shape, m):
    a = rng.normal(size=shape + (m, m))
    return a - np.swapaxes(a, -1, -2)


def pure_gauge_connection(grid, m, amplitude, kmax, seed):
    """Omega = Q^T dQ for a smooth rotation field Q; returns (Q, Omega)."""
    rng = np.random.default_rng(seed)
    s = synth.random_matrix_form(grid, 0, m, rng, kmax=kmax, antisymmetric=True)
    q = gauge.so_exp(amplitude * s.coeffs[0] / np.abs(s.coeffs).max())
    dq = forms.exterior_derivative(MatrixForm(grid, 0, q[None])).coeffs
    raw = np.einsum("...ji,a...jk->a...ik", q, dq)
    omega = MatrixForm(grid, 1, 0.5 * (raw - np.swapaxes(raw, -1, -2)))
    return q, omega


class TestSoExp:
    def test_zero_gives_identity(self):
        s = np.zeros((4, 3, 3))
        assert np.abs(gauge.so_exp(s) - np.eye(3)).max() <= 1e-15

    @given(seed=st.integers(0, 2 ** 16))
    def test_lands_in_rotation_group(self, seed):
        rng = np.random.default_rng(seed)
        s = random_skew(rng, (5,), 3)
        r = gauge.so_exp(s)
        gram = np.einsum("...ji,...jk->...ik", r, r)
        assert np.abs(gram - np.eye(3)).max() <= 1e-13
        assert np.abs(np.linalg.det(r) - 1.0).max() <= 1e-13

    def test_inverse_is_negation(self):
        rng = np.random.default_rng(3)
        s = random_skew(rng, (7,), 4)
        prod = gauge.so_exp(s) @ gauge.so_exp(-s)
        assert np.abs(prod - np.eye(4)).max() <= 1e-13

    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.3, 3.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_matches_eigh(self, m, theta):
        # Rodrigues for m <= 3 against the Hermitian diagonalization of 1j * S,
        # on skew matrices turning by exactly theta.
        s = random_skew(np.random.default_rng(m), (6,), m)
        s *= theta / np.sqrt(0.5 * (s ** 2).sum(axis=(-1, -2)))[:, None, None]
        w, v = np.linalg.eigh(1j * s)
        want = ((v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)).real
        got = gauge.so_exp(s)
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(np.swapaxes(got, -1, -2) @ got - np.eye(m)).max() <= 1e-14


class TestRotationDistance:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_the_polar_factor(self, m):
        # |A - U V^T| from the full SVD, at points near rotations and at
        # generic points, about half of which have negative determinant
        rng = np.random.default_rng(m)
        near = gauge.so_exp(rng.standard_normal((64, m, m)) - rng.standard_normal((64, m, m)))
        near = near + 1e-3 * rng.standard_normal(near.shape)
        pointwise = np.concatenate([near, rng.standard_normal((64, m, m))])
        u, sigma, vh = np.linalg.svd(pointwise)
        want = np.sqrt(((pointwise - u @ vh) ** 2).sum(axis=(-1, -2)))
        negdet = np.linalg.det(pointwise) <= 0
        assert 10 <= negdet.sum() <= 118
        dist, got_negdet, got_sigma = gauge.rotation_distance(pointwise)
        assert np.abs(dist - want).max() <= 1e-12
        assert np.array_equal(got_negdet, negdet)
        assert np.abs(got_sigma - sigma).max() <= 1e-12


    def test_sup_skips_the_points_with_non_positive_determinant(self):
        dist = np.array([[0.1, 5.0], [0.3, 0.2]])
        negdet = np.array([[False, True], [False, False]])
        assert gauge.rotation_distance_sup(dist, negdet) == 0.3
        assert gauge.rotation_distance_sup(dist, np.zeros_like(negdet)) == 5.0
        assert np.isnan(gauge.rotation_distance_sup(dist, np.ones_like(negdet)))


class TestGaugeEnergy:
    """The energy extract_xi reports for a rotation, and GaugePair's refusal
    of a rotation that is not orthogonal."""

    def test_identity_rotation_returns_l2_squared(self, rng):
        grid = Grid(3, 8)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2)
        p = identity_rotation(grid, 3)
        assert gauge.extract_xi(p, omega).diagnostics.energy == pytest.approx(
            forms.l2_norm(omega) ** 2, rel=1e-12)

    def test_zero_connection(self):
        grid = Grid(2, 8)
        omega = MatrixForm.zeros(grid, 1, 2)
        pair = gauge.extract_xi(identity_rotation(grid, 2), omega)
        assert pair.diagnostics.energy == 0.0

    def test_constant_rotation_invariance(self, rng):
        grid = Grid(3, 8)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2)
        r = gauge.so_exp(random_skew(np.random.default_rng(1), (), 3))
        const = MatrixForm(grid, 0, np.broadcast_to(
            r, grid.shape + (3, 3)).copy()[None])
        base = gauge.extract_xi(identity_rotation(grid, 3), omega).diagnostics.energy
        energy = gauge.extract_xi(const, omega).diagnostics.energy
        assert energy == pytest.approx(base, rel=1e-10)

    def test_rejects_non_orthogonal(self, rng):
        grid = Grid(2, 8)
        omega = synth.synthetic_connection(grid, 2, rng, kmax=2)
        bad = MatrixForm(grid, 0, np.full((1,) + grid.shape + (2, 2), 0.5))
        with pytest.raises(ValueError, match="orthogonal"):
            gauge.extract_xi(bad, omega)


def broadcast_gauged_connection(pointwise, omega: MatrixForm) -> np.ndarray:
    """P^T (dP + Omega P) as whole-array products, with the full connection."""
    dp = forms.exterior_derivative(MatrixForm(omega.grid, 0, pointwise[None])).coeffs
    covariant = omega.coeffs @ pointwise
    covariant += dp
    return np.ascontiguousarray(np.swapaxes(pointwise, -1, -2)) @ covariant


def trial_rotation(grid, m, seed):
    """A smooth rotation field away from the identity, as a descent trial is."""
    s = synth.random_matrix_form(grid, 0, m, np.random.default_rng(seed), kmax=2,
                                 antisymmetric=True)
    return gauge.so_exp(0.3 * s.coeffs[0])


class TestGaugedConnection:
    """Omega_P is built one component at a time from so(m) channels."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_broadcast_formula(self, n, m):
        grid = Grid(n, 8)
        omega = synth.synthetic_connection(grid, m, np.random.default_rng(n + m), kmax=2,
                                           exact_frac=0.5, target_norm=0.3)
        pointwise = trial_rotation(grid, m, n * m)
        got = gauge._gauged_connection(pointwise, synth.Connection.of(omega))
        want = broadcast_gauged_connection(pointwise, omega)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_working_set(self, transient_peak):
        # One trial holds dP's array, which becomes the result, and three
        # components' worth (P^T, Omega_c, the covariant term) beside it:
        # about two 1-forms at n = 3 (3.33 with dP, Omega P and the result
        # held whole).
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, np.random.default_rng(3), kmax=2,
                                           exact_frac=0.5, target_norm=0.3)
        pointwise = trial_rotation(grid, 3, 9)
        peak = transient_peak(gauge._gauged_connection, pointwise, synth.Connection.of(omega))
        assert peak <= 2.25 * omega.coeffs.nbytes


class TestMinimize:
    def test_zero_connection_never_moves(self):
        grid = Grid(2, 8)
        pair = gauge.minimize_gauge(MatrixForm.zeros(grid, 1, 2))
        assert np.abs(pair.P.coeffs[0] - np.eye(2)).max() == 0.0
        assert pair.diagnostics.iterations == 0
        assert pair.diagnostics.criticality == 0.0

    def test_coexact_input_is_already_gauged(self, rng):
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2, target_norm=1e-2)
        pair = gauge.minimize_gauge(omega)
        assert np.abs(pair.P.coeffs[0] - np.eye(3)).max() <= 1e-6
        assert pair.diagnostics.iterations == 0

    def test_pure_gauge_field_is_flattened(self):
        # Omega = Q^T dQ is gauge-equivalent to zero; the minimizer must
        # recover P = Q^T up to one constant rotation
        grid = Grid(3, 16)
        q, omega = pure_gauge_connection(grid, 3, 0.3, 1, seed=5)
        pair = gauge.minimize_gauge(omega)
        assert pair.diagnostics.energy <= 1e-12
        qp = np.einsum("...ij,...jk->...ik", q, pair.P.coeffs[0])
        drift = np.abs(qp - qp.mean(axis=(0, 1, 2))).max()
        assert drift <= 1e-6

    def test_equivariance_under_constant_conjugation(self):
        grid = Grid(3, 16)
        rng = np.random.default_rng(12)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2,
                                           exact_frac=0.5, target_norm=0.05)
        pair = gauge.minimize_gauge(omega)
        assert pair.diagnostics.iterations > 0
        gauged = gauge._gauged_connection(pair.P.coeffs[0], synth.Connection.of(omega))

        r = gauge.so_exp(random_skew(np.random.default_rng(8), (), 3))
        # the conjugate's two triangles round apart; a connection is exactly skew
        raw = np.einsum("ji,a...jk,kl->a...il", r, omega.coeffs, r)
        conjugated = MatrixForm(grid, 1, 0.5 * (raw - np.swapaxes(raw, -1, -2)))
        pair_r = gauge.minimize_gauge(conjugated)
        gauged_r = gauge._gauged_connection(pair_r.P.coeffs[0], synth.Connection.of(conjugated))
        expected = np.einsum("ji,a...jk,kl->a...il", r, gauged, r)
        diff = np.sqrt(((gauged_r - expected) ** 2).sum() * grid.cell)
        assert diff <= 1e-6

    def test_each_rotation_gauged_once(self, monkeypatch):
        # One gauged connection for the start and one per trial rotation: the
        # accepted trial's connection is carried, not recomputed.
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, np.random.default_rng(12), kmax=2,
                                           exact_frac=0.5, target_norm=0.05)
        counts = {"gauged": 0, "so_exp": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(gauge, "_gauged_connection",
                            counting("gauged", gauge._gauged_connection))
        monkeypatch.setattr(gauge, "so_exp", counting("so_exp", gauge.so_exp))
        pair = gauge.minimize_gauge(omega)
        assert pair.diagnostics.iterations > 0
        assert counts["gauged"] == 1 + counts["so_exp"]

    def test_gauges_and_checks_the_final_rotation_once(self, monkeypatch):
        # The descent hands its final gauged connection and criticality to
        # the extraction, and the completed pair is the one that checks P.
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, np.random.default_rng(12), kmax=2,
                                           exact_frac=0.5, target_norm=0.05)
        counts = {"gauged": 0, "so_exp": 0, "orthogonality": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name, attr in (("gauged", "_gauged_connection"), ("so_exp", "so_exp"),
                           ("orthogonality", "_orthogonality_defect")):
            monkeypatch.setattr(gauge, attr, counting(name, getattr(gauge, attr)))
        pair = gauge.minimize_gauge(omega)
        assert pair.diagnostics.iterations > 0
        # one per trial rotation, plus the start's connection and the
        # completed pair's check of the final rotation
        assert counts["gauged"] == 1 + counts["so_exp"]
        assert counts["orthogonality"] == 1 + counts["so_exp"]

    def test_equals_extract_xi_of_its_own_rotation(self):
        # Completing the pair from the descent's final state moves no bit
        # against extracting the potential of the returned rotation afresh.
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, np.random.default_rng(12), kmax=2,
                                           exact_frac=0.5, target_norm=0.05)
        pair = gauge.minimize_gauge(omega)
        assert pair.diagnostics.iterations > 0
        separate = gauge.extract_xi(pair.P, omega)
        assert separate.diagnostics.iterations == 0
        assert pair.diagnostics == dataclasses.replace(
            separate.diagnostics, iterations=pair.diagnostics.iterations)
        for field in ("xi", "d_star_xi"):
            assert np.array_equal(getattr(pair, field).upper.view(np.uint64),
                                  getattr(separate, field).upper.view(np.uint64))

    def test_iteration_cap_raises_with_trace(self):
        grid = Grid(3, 16)
        rng = np.random.default_rng(12)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2,
                                           exact_frac=0.5, target_norm=0.05)
        with pytest.raises(gauge.GaugeConvergenceError) as info:
            gauge.minimize_gauge(omega, max_iter=3)
        trace = info.value.trace
        assert len(trace) == 4
        energies = [t[0] for t in trace]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_stall_raises_with_trace(self):
        # At res 8 this non-coexact connection leaves a criticality above tol
        # that no Armijo step can lower: backtracking exhausts tau.
        omega = synth.synthetic_connection(Grid(3, 8), 3, np.random.default_rng(5),
                                           kmax=2, exact_frac=0.5, target_norm=0.3)
        with pytest.raises(gauge.GaugeConvergenceError, match="stalled") as info:
            gauge.minimize_gauge(omega, tol=1e-5)
        trace = info.value.trace
        assert len(trace) > 1
        energies = [t[0] for t in trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert trace[-1][1] > 1e-5

    def test_nan_connection_stalls_at_once(self):
        # A NaN in Omega makes the first step size NaN, which must end the
        # backtracking rather than spin it.  The descent runs in a child
        # process, so a hang fails at the timeout instead of stalling the suite.
        script = """
import numpy as np
from gaugeflow import gauge, synth
from gaugeflow.forms import Grid, MatrixForm
omega = synth.synthetic_connection(Grid(2, 8), 2, np.random.default_rng(1), kmax=2)
coeffs = omega.coeffs.copy()
coeffs[0, 3, 5, 0, 1] = np.nan
try:
    gauge.minimize_gauge(MatrixForm(omega.grid, 1, coeffs), tol=1e-5)
except gauge.GaugeConvergenceError as exc:
    print(exc)
"""
        src = str(Path(gaugeflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("gauge descent stalled")

    def test_plain_descent_agrees_with_preconditioned(self):
        grid = Grid(2, 16)
        rng = np.random.default_rng(2)
        omega = synth.synthetic_connection(grid, 2, rng, kmax=2,
                                           exact_frac=0.5, target_norm=0.05)
        fast = gauge.minimize_gauge(omega)
        slow = gauge.minimize_gauge(omega, preconditioned=False, max_iter=20000)
        skew = synth.Connection.of(omega)
        a = gauge._gauged_connection(fast.P.coeffs[0], skew)
        b = gauge._gauged_connection(slow.P.coeffs[0], skew)
        assert np.sqrt(((a - b) ** 2).sum() * grid.cell) <= 1e-6


class TestExtractXi:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_completion_takes_d_star_xi_once(self, n, monkeypatch):
        # xi is built as channels and d(star xi) is taken once, on xi's
        # expansion; the representation residual reads d*(xi) off it, with
        # no codifferential, and matches the codifferential bit for bit.
        grid = Grid(n, 8)
        omega = synth.Connection.of(synth.synthetic_connection(
            grid, 3, np.random.default_rng(n), kmax=2, exact_frac=0.5, target_norm=0.05))
        P = MatrixForm(grid, 0, trial_rotation(grid, 3, n)[None])
        gauged = gauge._gauged_connection(P.coeffs[0], omega)
        derivative, derived = forms.exterior_derivative, []

        def counted(form):
            derived.append(form.k)
            return derivative(form)

        def refused(form):
            raise AssertionError("the completion took a codifferential")

        with monkeypatch.context() as patch:
            patch.setattr(forms, "exterior_derivative", counted)
            patch.setattr(forms, "codifferential", refused)
            pair = gauge._complete(P, omega, gauged.copy(), 0.0, 0.0, 0)
        assert derived == [1, n - 2]  # xi, then d(star xi)
        assert isinstance(pair.xi, forms.SkewForm) and pair.xi.k == 2
        assert isinstance(pair.d_star_xi, forms.SkewForm)
        xi = pair.xi.expanded()
        want = forms.exterior_derivative(forms.hodge_star(xi)).coeffs
        assert np.array_equal(pair.d_star_xi.expanded().coeffs.view(np.uint64),
                              want.view(np.uint64))
        residual = forms.codifferential(xi) - MatrixForm(grid, 1, gauged)
        assert pair.diagnostics.representation == forms.l2_norm(residual)

    def test_zero_connection(self):
        grid = Grid(2, 8)
        omega = MatrixForm.zeros(grid, 1, 2)
        pair = gauge.extract_xi(identity_rotation(grid, 2), omega)
        assert np.abs(pair.xi.upper).max() == 0.0
        assert pair.diagnostics.representation == 0.0
        assert pair.diagnostics.harmonic == 0.0

    def test_roundtrip_on_coexact_input(self, rng):
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2, target_norm=1e-2)
        pair = gauge.minimize_gauge(omega)
        back = forms.codifferential(pair.xi.expanded())
        assert forms.l2_norm(back - omega) <= 1e-8
        assert pair.diagnostics.representation <= 1e-8

    def test_recovers_exact_potential(self, rng):
        # for xi0 = d(alpha), the coexact source d*(xi0) maps back to xi0
        # itself: the extracted potential is the unique exact representative
        grid = Grid(3, 16)
        alpha = synth.random_matrix_form(grid, 1, 3, rng, kmax=2, antisymmetric=True)
        xi0 = forms.exterior_derivative(alpha)
        omega = forms.codifferential(xi0)
        pair = gauge.extract_xi(identity_rotation(grid, 3), omega)
        assert np.abs(pair.xi.expanded().coeffs - xi0.coeffs).max() <= 1e-9

    def test_constant_part_is_reported_not_represented(self, rng):
        grid = Grid(3, 16)
        omega = synth.synthetic_connection(grid, 3, rng, kmax=2, target_norm=1e-2)
        const = np.array([[0.0, 2e-3, 0.0], [-2e-3, 0.0, 0.0], [0.0, 0.0, 0.0]])
        shifted = omega.coeffs.copy()
        shifted[0] += const
        lifted = MatrixForm(grid, 1, shifted)
        pair = gauge.minimize_gauge(lifted)
        expected = np.sqrt((const ** 2).sum())
        assert pair.diagnostics.harmonic == pytest.approx(expected, rel=1e-10)
        assert pair.diagnostics.representation == pytest.approx(expected, rel=1e-6)
        back = forms.codifferential(pair.xi.expanded())
        assert forms.l2_norm(back - omega) <= 1e-8


def zero_potential(grid: Grid, m: int) -> tuple:
    """xi = 0 and d(star xi) = 0 as so(m) channels."""
    return tuple(forms.SkewForm.skew_part(MatrixForm.zeros(grid, k, m)) for k in (2, grid.n - 1))


class TestGaugePairValidation:
    def test_rejects_non_orthogonal_rotation(self):
        grid = Grid(2, 8)
        bad = MatrixForm(grid, 0, np.full((1,) + grid.shape + (2, 2), 0.5))
        with pytest.raises(ValueError, match="orthogonal"):
            gauge.GaugePair(bad, *zero_potential(grid, 2),
                            gauge.GaugeDiagnostics(0.0, 0.0, 0, 0.0, 0.0))

    @staticmethod
    def pair_with_a_nan_rotation():
        grid = Grid(2, 8)
        eye = identity_rotation(grid, 2).coeffs.copy()
        eye[0, 3, 5, 0, 1] = np.nan
        return gauge.GaugePair(MatrixForm(grid, 0, eye), *zero_potential(grid, 2),
                               gauge.GaugeDiagnostics(0.0, 0.0, 0, 0.0, 0.0))

    def test_rejects_a_nan_rotation(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            self.pair_with_a_nan_rotation()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_determinant_guard_refuses_nan(self, monkeypatch):
        # past the orthogonality check, a NaN determinant is refused too
        monkeypatch.setattr(gauge, "_orthogonality_defect", lambda pointwise: 0.0)
        with pytest.raises(ValueError, match="non-positive determinant"):
            self.pair_with_a_nan_rotation()

    def test_rejects_reflections(self):
        grid = Grid(2, 8)
        flip = np.broadcast_to(np.diag([-1.0, 1.0]), grid.shape + (2, 2)).copy()
        p = MatrixForm(grid, 0, flip[None])
        with pytest.raises(ValueError, match="determinant"):
            gauge.GaugePair(p, *zero_potential(grid, 2),
                            gauge.GaugeDiagnostics(0.0, 0.0, 0, 0.0, 0.0))
