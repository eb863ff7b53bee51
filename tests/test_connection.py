"""Connection assembly from sphere maps and normal frames."""

import numpy as np
import pytest

from gaugeflow import connection, lorentz, maps
from gaugeflow.forms import Grid


def test_constant_map_gives_zero():
    u = maps.constant_map(Grid(3, 8), 3)
    omega = connection.omega_sphere(u)
    assert np.abs(omega.coeffs).max() == 0.0


def test_rejects_off_sphere_map():
    grid = Grid(2, 8)
    free = maps.MapField(grid, np.full(grid.shape + (2,), 0.7), unit_sphere=False)
    with pytest.raises(ValueError, match="unit-sphere"):
        connection.omega_sphere(free)


def test_geodesic_connection_is_constant():
    # u = (cos, sin, 0) with wave e1 gives Omega^0_1 = 2 pi dx0, rest zero
    grid = Grid(3, 16)
    u = maps.geodesic_map(grid, 3, (1, 0, 0))
    omega = connection.omega_sphere(u)
    entry = omega.coeffs[0][..., 0, 1]
    assert np.abs(entry - 2 * np.pi).max() <= 1e-12
    assert np.abs(omega.coeffs[1:]).max() <= 1e-12
    assert np.abs(omega.coeffs[0][..., 0, 2]).max() <= 1e-12
    assert np.abs(omega.coeffs[0][..., 1, 2]).max() <= 1e-12


def test_norm_scales_with_wave_vector():
    grid = Grid(3, 32)
    norms = []
    for scale in (1, 2):
        u = maps.geodesic_map(grid, 3, (scale, 0, 0))
        omega = connection.omega_sphere(u)
        norms.append(lorentz.lorentz_norm(omega, grid.n, 2))
    assert norms[1] / norms[0] == pytest.approx(2.0, abs=1e-6)


def test_antisymmetry_exact():
    base = maps.geodesic_map(Grid(3, 16), 3, (1, 1, 0))
    u = maps.perturbed_map(base, 0.1, seed=4)
    omega = connection.omega_sphere(u)
    assert omega.antisymmetry_defect() == 0.0


def test_tangency_identity():
    # Omega . grad u = |grad u|^2 u for any well-resolved unit-sphere map,
    # harmonic or not; only the tangency sum u . du enters
    base = maps.geodesic_map(Grid(3, 32), 3, (1, 0, 0))
    u = maps.perturbed_map(base, 0.05, seed=9, kmax=1)
    omega = connection.omega_sphere(u)
    contracted = connection.contract_gradient(omega, u)
    du = maps.map_gradient(u).coeffs
    grad2 = (du ** 2).sum(axis=(0, -1))
    assert np.abs(contracted - grad2[..., None] * u.values).max() <= 1e-8


class TestFrameFormula:
    def test_sphere_frame_orthonormal_on_samples(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 3))
        points /= np.linalg.norm(points, axis=-1, keepdims=True)
        nu = connection.sphere_frame().evaluate(points)
        gram = np.einsum("f...l,g...l->...fg", nu, nu)
        assert np.abs(gram - 1.0).max() <= 1e-10  # single normal field

    def test_matches_direct_construction(self, rng):
        base = maps.geodesic_map(Grid(3, 16), 3, (1, 0, 1))
        frame = connection.sphere_frame()
        for seed in range(3):
            u = maps.perturbed_map(base, 0.1, seed=seed)
            direct = connection.omega_sphere(u)
            framed = connection.omega_from_frame(u, frame)
            assert np.abs(framed.coeffs - direct.coeffs).max() <= 1e-10

    def test_constant_map_gives_zero(self):
        u = maps.constant_map(Grid(2, 8), 3)
        framed = connection.omega_from_frame(u, connection.sphere_frame())
        assert np.abs(framed.coeffs).max() == 0.0

    def test_pointwise_growth_bound(self):
        # |Omega| <= sqrt(2) |grad u| pointwise on the sphere (tangency)
        base = maps.geodesic_map(Grid(3, 16), 3, (1, 1, 0))
        u = maps.perturbed_map(base, 0.1, seed=21)
        omega = connection.omega_sphere(u)
        omega_mag = np.sqrt((omega.coeffs ** 2).sum(axis=(0, -1, -2)))
        grad_mag = np.sqrt((maps.map_gradient(u).coeffs ** 2).sum(axis=(0, -1)))
        ratio = omega_mag / grad_mag
        assert ratio.max() <= np.sqrt(2) + 1e-8
        assert ratio.max() >= 1.0

    def test_failure_names_a_point(self):
        grid = Grid(2, 8)
        u = maps.geodesic_map(grid, 2, (1, 0))

        def picky(points):
            points = np.asarray(points, dtype=np.float64)
            if points[..., 0].min() < 0:
                raise FloatingPointError("frame undefined for y0 < 0")
            return points[None]

        frame = connection.NormalFrame(picky, connection.sphere_frame().jacobian)
        with pytest.raises(ValueError, match="grid point"):
            connection.omega_from_frame(u, frame)


class TestResidual:
    def test_geodesic_map_satisfies_equation(self):
        u = maps.geodesic_map(Grid(3, 16), 3, (1, 2, 0))
        omega = connection.omega_sphere(u)
        assert connection.connection_residual(u, omega) <= 1e-8

    def test_constant_map_zero_connection(self):
        grid = Grid(2, 8)
        u = maps.constant_map(grid, 2)
        omega = connection.omega_sphere(u)
        assert connection.connection_residual(u, omega) == 0.0

    def test_matches_tension_for_sphere_connection(self):
        base = maps.geodesic_map(Grid(3, 32), 3, (1, 0, 0))
        noisy = maps.perturbed_map(base, 0.05, seed=13)
        u = maps.heat_flow_relax(noisy, steps=20)
        omega = connection.omega_sphere(u)
        residual = connection.connection_residual(u, omega)
        tension = maps.tension_residual(u)
        assert residual > 0
        assert abs(residual - tension) <= 1e-8

    def test_guards(self):
        u = maps.geodesic_map(Grid(2, 16), 2, (1, 0))
        other = maps.geodesic_map(Grid(2, 8), 2, (1, 0))
        omega = connection.omega_sphere(u)
        with pytest.raises(ValueError, match="grids"):
            connection.connection_residual(other, omega)
        wide = connection.omega_sphere(maps.geodesic_map(Grid(2, 16), 3, (1, 0)))
        with pytest.raises(ValueError, match="matching"):
            connection.connection_residual(u, wide)


class TestExactAntisymmetry:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_both_constructions(self, n):
        # Each builds X - X^T, which needs no projection afterwards.
        base = maps.geodesic_map(Grid(n, 8), 3, (1, 1) + (0,) * (n - 2))
        u = maps.perturbed_map(base, 0.1, seed=n, kmin=1, kmax=2)
        for omega in (connection.omega_sphere(u),
                      connection.omega_from_frame(u, connection.sphere_frame())):
            assert np.abs(omega.coeffs).max() > 0.0
            assert omega.antisymmetry_defect() == 0.0
