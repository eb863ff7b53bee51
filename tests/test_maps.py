"""Sphere-map generators and the semi-implicit heat flow."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugeflow import maps
from gaugeflow.forms import Grid


def test_constant_map_is_unit_and_flat():
    grid = Grid(3, 8)
    u = maps.constant_map(grid, 3)
    assert u.values[..., 0].min() == 1.0
    assert maps.dirichlet_energy(u) == 0.0
    assert maps.tension_residual(u) <= 1e-14


def test_map_field_rejects_off_sphere_values():
    grid = Grid(2, 8)
    values = np.full(grid.shape + (2,), 0.9)
    with pytest.raises(ValueError, match="unit sphere"):
        maps.MapField(grid, values)
    # the same values pass once the constraint is waived
    free = maps.MapField(grid, values, unit_sphere=False)
    assert free.m == 2
    with pytest.raises(ValueError, match="unit-sphere"):
        maps.tension_residual(free)


@pytest.mark.parametrize("excess, fires", [(2e-12, True), (5e-13, False)])
def test_map_field_sphere_check_threshold(excess, fires):
    # |u|^2 - 1 above 1e-12 at a single point is refused
    grid = Grid(2, 8)
    values = maps.constant_map(grid, 3).values.copy()
    values[3, 4] = np.sqrt(1.0 + excess) * np.array([0.6, 0.8, 0.0])
    if fires:
        with pytest.raises(ValueError, match="leaves the unit sphere by 2.0"):
            maps.MapField(grid, values)
    else:
        assert maps.MapField(grid, values).unit_sphere


@pytest.mark.parametrize("norm, fires", [(0.4, True), (0.6, False)])
def test_renormalize_refuses_values_near_zero(norm, fires):
    grid = Grid(2, 8)
    values = maps.constant_map(grid, 3).values.copy()
    values[2, 5] = [0.0, norm, 0.0]
    if fires:
        with pytest.raises(ValueError, match="blow up"):
            maps._renormalize(grid, values)
    else:
        u = maps._renormalize(grid, values)
        assert np.array_equal(u.values[2, 5], [0.0, 1.0, 0.0])


def test_map_field_refuses_a_nan_entry():
    values = maps.constant_map(Grid(2, 8), 3).values.copy()
    values[3, 4, 1] = np.nan
    with pytest.raises(ValueError, match="leaves the unit sphere by nan"):
        maps.MapField(Grid(2, 8), values)


def test_map_field_rejects_bad_shape():
    grid = Grid(2, 8)
    with pytest.raises(ValueError, match="shape"):
        maps.MapField(grid, np.ones((8, 4, 2)))


def test_values_are_frozen():
    u = maps.constant_map(Grid(2, 8), 2)
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 2.0


class TestGeodesicMap:
    def test_exactly_harmonic(self):
        grid = Grid(3, 16)
        u = maps.geodesic_map(grid, 3, (1, 2, 0))
        assert maps.tension_residual(u) <= 1e-8

    def test_energy_closed_form(self):
        # E = (2 pi |kappa|)^2 / 2 for a great-circle map with wave kappa
        grid = Grid(2, 32)
        u = maps.geodesic_map(grid, 2, (2, 1))
        expected = 0.5 * (2 * np.pi) ** 2 * 5.0
        assert maps.dirichlet_energy(u) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("wave, m", [
        ((0, 0), 2),      # zero wave
        ((5, 5), 2),      # unresolved at res=8
        ((1, 0), 1),      # target too small
        ((1, 0, 0), 2),   # wrong dimension
    ])
    def test_rejects_bad_parameters(self, wave, m):
        with pytest.raises(ValueError):
            maps.geodesic_map(Grid(2, 8), m, wave)


class TestPerturbedMap:
    def test_deterministic(self):
        base = maps.geodesic_map(Grid(3, 16), 3, (1, 0, 0))
        a = maps.perturbed_map(base, 0.05, seed=7)
        b = maps.perturbed_map(base, 0.05, seed=7)
        assert np.array_equal(a.values, b.values)
        c = maps.perturbed_map(base, 0.05, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_zero_delta_returns_base(self):
        base = maps.constant_map(Grid(2, 8), 2)
        assert maps.perturbed_map(base, 0.0, seed=1) is base

    def test_displacement_scales_with_delta(self):
        base = maps.geodesic_map(Grid(3, 16), 3, (1, 0, 0))
        for delta in (0.01, 0.1):
            pert = maps.perturbed_map(base, delta, seed=3)
            dist = np.sqrt(((pert.values - base.values) ** 2).sum() * base.grid.cell)
            # tangent projection + renormalization only bite at second order
            assert dist == pytest.approx(delta, rel=0.15)

    @given(delta=st.floats(0.001, 0.2), seed=st.integers(0, 2 ** 16))
    def test_stays_on_sphere(self, delta, seed):
        base = maps.geodesic_map(Grid(2, 16), 3, (1, 1))
        pert = maps.perturbed_map(base, delta, seed=seed)
        assert np.abs((pert.values ** 2).sum(axis=-1) - 1.0).max() <= 1e-12

    def test_rejects_large_delta(self):
        base = maps.constant_map(Grid(2, 8), 2)
        with pytest.raises(ValueError, match="amplitude"):
            maps.perturbed_map(base, 0.3, seed=1)


class TestHeatFlow:
    def test_geodesic_is_fixed_point(self):
        u = maps.geodesic_map(Grid(3, 16), 3, (1, 0, 0))
        relaxed = maps.heat_flow_relax(u, steps=50)
        assert np.abs(relaxed.values - u.values).max() <= 1e-10

    def test_reduces_tension_of_perturbed_map(self):
        base = maps.geodesic_map(Grid(3, 16), 3, (1, 0, 0))
        noisy = maps.perturbed_map(base, 0.05, seed=11)
        before = maps.tension_residual(noisy)
        relaxed = maps.heat_flow_relax(noisy, steps=200)
        after = maps.tension_residual(relaxed)
        assert before > 0
        assert after <= before / 10

    def test_energy_never_increases(self):
        base = maps.geodesic_map(Grid(2, 16), 3, (1, 1))
        noisy = maps.perturbed_map(base, 0.1, seed=5)
        energies = [maps.dirichlet_energy(noisy)]
        u = noisy
        for _ in range(10):
            u = maps.heat_flow_relax(u, steps=5)
            energies.append(maps.dirichlet_energy(u))
        diffs = np.diff(energies)
        assert (diffs <= 1e-12 * np.abs(energies[0])).all()

    def test_constant_map_is_a_fixed_point_bitwise(self):
        u = maps.constant_map(Grid(3, 16), 3)
        assert np.array_equal(maps.heat_flow_relax(u, steps=1).values, u.values)

    def test_rejects_unstable_step(self):
        u = maps.constant_map(Grid(2, 16), 2)
        with pytest.raises(ValueError, match="stability"):
            maps.heat_flow_relax(u, tau=1.0, steps=1)
        with pytest.raises(ValueError, match="stability"):
            maps.heat_flow_relax(u, tau=0.0, steps=1)

    def test_stagnation_raises(self, monkeypatch):
        base = maps.geodesic_map(Grid(2, 8), 2, (1, 0))
        noisy = maps.perturbed_map(base, 0.05, seed=2, kmax=2)
        # make every candidate look worse than the current iterate
        counter = iter(range(1, 1000))
        monkeypatch.setattr(maps, "dirichlet_energy", lambda u: float(next(counter)))
        with pytest.raises(RuntimeError, match="flow stagnated"):
            maps.heat_flow_relax(noisy, steps=3)


class TestFlowPlan:
    @pytest.mark.parametrize("res, steps", [(8, 4), (16, 15), (32, 57), (64, 225)])
    def test_shipped_rungs_keep_their_plan(self, res, steps):
        assert maps.flow_plan(Grid(3, res), 0.0137) == (0.0137 / steps, steps)

    def test_derived_step_never_exceeds_the_guard(self):
        # time = N h^2/4 divided by the guard can round onto N while time / N
        # lies an ulp above the guard; N steps would then overshoot it.
        for res in range(8, 201, 2):
            grid = Grid(2, res)
            guard = maps._stability_guard(grid)
            for count in range(1, 201):
                tau, steps = maps.flow_plan(grid, count * guard)
                assert tau <= guard, (res, count)
                assert steps in (count, count + 1)

    def test_given_steps_are_kept_and_judged_by_the_guard(self):
        u = maps.constant_map(Grid(2, 16), 2)
        tau, steps = maps.flow_plan(u.grid, 1.0, 3)
        assert (tau, steps) == (1.0 / 3, 3)
        with pytest.raises(ValueError, match="stability"):
            maps.heat_flow_relax(u, tau=tau, steps=steps)
