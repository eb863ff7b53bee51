"""Conservation-law residual certificates and refinement-order fits."""

import dataclasses

import numpy as np
import pytest

from gaugeflow import connection, forms, gauge, maps, solver, synth, verify
from gaugeflow.forms import Grid, MatrixForm


def identity_matrix_form(grid: Grid, m: int) -> MatrixForm:
    shape = (1,) + (grid.res,) * grid.n + (m, m)
    return MatrixForm(grid, 0, np.broadcast_to(np.eye(m), shape).copy())


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 16)


@pytest.fixture(scope="module")
def pipeline_reports(grid):
    # Relaxed near-constant maps keep the connection both contractible
    # (no harmonic obstruction) and small (inside the solvable regime).
    def run(steps):
        u = maps.heat_flow_relax(
            maps.perturbed_map(maps.constant_map(grid, 3), 3e-4,
                               seed=42, kmin=4, kmax=4),
            steps=steps)
        omega = connection.omega_sphere(u)
        pair = gauge.minimize_gauge(omega, tol=1e-5)
        A, B, _ = solver.solve_pair(omega, solver.PicardMap.of(pair), tol=1e-8)
        tension = maps.tension_residual(u)
        return tension, verify.judge(verify.conservation_residual(A, B, u), (
            ("tension", tension),
            ("harmonic", pair.diagnostics.harmonic),
            ("representation", pair.diagnostics.representation),
            ("tolerance", 1e-8)))

    return run(15), run(30)


@pytest.fixture(scope="module")
def relaxed_pair(grid):
    u = maps.heat_flow_relax(
        maps.perturbed_map(maps.constant_map(grid, 3), 3e-4, seed=42, kmin=4, kmax=4),
        steps=3)
    omega = connection.omega_sphere(u)
    pmap = solver.PicardMap.of(gauge.minimize_gauge(omega, tol=1e-5))
    A, B, _ = solver.solve_pair(omega, pmap, tol=1e-8)
    return u, A, B


class TestConservationResidual:
    def test_constant_map_zero(self, grid):
        u = maps.constant_map(grid, 3)
        report = verify.conservation_residual(
            identity_matrix_form(grid, 3), MatrixForm.zeros(grid, 2, 3), u)
        assert report.l2 == 0.0 and report.sup == 0.0
        assert report.coordinate_gap == 0.0

    def test_identity_pair_reduces_to_tension(self, grid):
        # With A = id and B = 0 the current is star(du), so the residual is
        # exactly the Laplacian density: id alone conserves nothing.
        u = maps.geodesic_map(grid, 3, (1, 0, 0))
        report = verify.conservation_residual(
            identity_matrix_form(grid, 3), MatrixForm.zeros(grid, 2, 3), u)
        lap = forms.l2_norm(forms.laplacian(u.as_form()))
        assert report.l2 == pytest.approx(lap, rel=1e-12)
        assert report.l2 > 1.0

    def test_a_nan_entry_fails_the_two_path_check(self, relaxed_pair):
        # a NaN in A makes the gap between the two assemblies NaN, which
        # must refuse the measurement rather than pass it on
        u, A, B = relaxed_pair
        coeffs = A.coeffs.copy()
        coeffs[0, 1, 2, 3, 0, 1] = np.nan
        with pytest.raises(RuntimeError, match="paths disagree"):
            verify.conservation_residual(MatrixForm(A.grid, 0, coeffs), B, u)

    def test_degree_and_grid_guards(self, grid):
        u = maps.constant_map(grid, 3)
        eye = identity_matrix_form(grid, 3)
        with pytest.raises(ValueError, match="0-form A and a 2-form B"):
            verify.conservation_residual(eye, MatrixForm.zeros(grid, 1, 3), u)
        other = maps.constant_map(Grid(3, 8), 3)
        with pytest.raises(ValueError, match="different grids"):
            verify.conservation_residual(eye, MatrixForm.zeros(grid, 2, 3), other)
        with pytest.raises(ValueError, match="map dimension"):
            verify.conservation_residual(
                eye, MatrixForm.zeros(grid, 2, 3), maps.constant_map(grid, 2))

    def test_residual_operator_exact_on_closed_currents(self, grid, random_vector_form):
        # The certificate differentiates the current spectrally; anything
        # already exact is annihilated to rounding.
        w = random_vector_form(grid, grid.n - 2, 3, np.random.default_rng(8), 2)
        closed = forms.exterior_derivative(w)
        dust = forms.l2_norm(forms.exterior_derivative(closed))
        assert dust <= 1e-10 * max(1.0, forms.l2_norm(closed))

    def test_judge_sums_the_budget_and_refuses_above_twice_it(self):
        parts = (("tension", 0.5), ("tolerance", 1e-8))
        budget = 0.5 + 1e-8
        at_bound = verify.ResidualReport(l2=2.0 * budget, sup=1.0)
        judged = verify.judge(at_bound, parts)
        assert judged.budget == budget
        assert judged.components == parts
        assert (judged.l2, judged.sup) == (at_bound.l2, at_bound.sup)
        above = dataclasses.replace(at_bound, l2=np.nextafter(2.0 * budget, np.inf))
        with pytest.raises(ValueError, match="exceeds the defect budget"):
            verify.judge(above, parts)

    @pytest.mark.parametrize("l2, parts", [
        (float("nan"), (("tolerance", 1e-8),)),
        (0.0, (("tolerance", float("nan")),)),
    ])
    def test_judge_refuses_a_nan_residual_or_budget(self, l2, parts):
        with pytest.raises(ValueError, match="exceeds the defect budget"):
            verify.judge(verify.ResidualReport(l2=l2, sup=0.0), parts)

    def test_negative_budget_component_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            verify.ResidualReport(l2=0.0, sup=0.0, components=(("bad", -1.0),))

    @pytest.fixture(scope="class")
    def band_limited(self, grid):
        # A generic pair with a unit-size two-form block, on a map whose
        # gradient is band-limited: unlike a solved pair, B is far from 0.
        rng = np.random.default_rng(31)
        A = synth.random_matrix_form(grid, 0, 3, rng, kmax=2)
        B = synth.random_matrix_form(grid, 2, 3, rng, kmax=2)
        u = maps.perturbed_map(maps.geodesic_map(grid, 3, (1, 0, 0)), 0.1,
                               seed=7, kmin=1, kmax=2)
        return A, B, u

    def test_paths_agree_with_a_two_form_block(self, grid, band_limited):
        A, B, u = band_limited
        report = verify.conservation_residual(A, B, u)
        assert report.coordinate_gap <= verify.TWO_PATH_TOL
        without_b = verify.conservation_residual(A, MatrixForm.zeros(grid, 2, 3), u)
        assert abs(report.l2 - without_b.l2) >= 0.1 * report.l2

    @pytest.mark.parametrize("sign", ["current_weight", "COORDINATE_FLUX_SIGN"])
    def test_either_b_sign_alone_breaks_the_agreement(self, band_limited, sign,
                                                      monkeypatch):
        # the current's weight of (star B) ^ du and the coordinate flux's
        # sign of B du each enter one path only
        A, B, u = band_limited
        if sign == "current_weight":
            weight = solver.current_weight
            monkeypatch.setattr(solver, "current_weight", lambda n: -weight(n))
        else:
            monkeypatch.setattr(solver, sign, -solver.COORDINATE_FLUX_SIGN)
        with pytest.raises(RuntimeError, match="paths disagree"):
            verify.conservation_residual(A, B, u)

    def test_reads_the_maps_one_gradient(self, relaxed_pair, monkeypatch):
        # Both paths take du from the map's cached gradient; the only
        # derivatives left are those of the current and of the fluxes.
        u, A, B = relaxed_pair
        u.gradient
        differentiate = forms._differentiate_into
        of_map = []

        def counted(arr, *args):
            of_map.append(np.shares_memory(arr, u.values))
            return differentiate(arr, *args)

        monkeypatch.setattr(forms, "_differentiate_into", counted)
        verify.conservation_residual(A, B, u)
        assert of_map and not any(of_map)

    def test_working_set(self, grid, relaxed_pair, transient_peak):
        # The current's terms and one flux at a time: no dense copy of B and
        # no second gradient of the map (4.45 units with both).
        u, A, B = relaxed_pair
        peak = transient_peak(verify.conservation_residual, A, B, u)
        assert peak <= 2.0 * MatrixForm.zeros(grid, 2, 3).coeffs.nbytes

    def test_heat_flow_pipeline_stays_inside_budget(self, pipeline_reports):
        (tension, solved), _ = pipeline_reports
        assert 0.0 < solved.l2 <= 1.05 * solved.budget
        # At the fixed point the density reduces to A times the tension
        # field, and A is within O(|omega|) of the identity.
        assert solved.l2 == pytest.approx(tension, rel=0.05)
        assert solved.coordinate_gap <= 1e-8

    def test_residual_decreases_with_longer_flow(self, pipeline_reports):
        (t_short, short), (t_long, long) = pipeline_reports
        assert t_long < t_short
        assert long.l2 < short.l2
        assert long.budget < short.budget


class TestSphereDivergenceResidual:
    def test_constant_map_zero(self, grid):
        u = maps.constant_map(grid, 3)
        assert verify.sphere_divergence_residual(connection.omega_sphere(u)).l2 == 0.0

    def test_geodesic_constant_current(self, grid):
        u = maps.geodesic_map(grid, 3, (1, 0, 0))
        report = verify.sphere_divergence_residual(connection.omega_sphere(u))
        assert report.l2 <= 1e-8

    def test_matches_tension_for_resolved_maps(self):
        # div(u^i grad u^j - u^j grad u^i) = (u wedge tension)^{ij} and the
        # tension is orthogonal to u, so the norms agree.
        u = maps.perturbed_map(
            maps.geodesic_map(Grid(3, 32), 3, (1, 0, 0)), 0.05, seed=3, kmax=1)
        report = verify.sphere_divergence_residual(connection.omega_sphere(u))
        assert report.l2 == pytest.approx(maps.tension_residual(u), rel=1e-10)
        assert report.l2 > 1.0

    def test_decays_in_lockstep_with_tension(self):
        u0 = maps.perturbed_map(
            maps.geodesic_map(Grid(3, 32), 3, (1, 0, 0)), 0.05, seed=3, kmax=1)
        u1 = maps.heat_flow_relax(u0, steps=20)
        r0, r1 = (verify.sphere_divergence_residual(connection.omega_sphere(v)).l2
                  for v in (u0, u1))
        t0, t1 = maps.tension_residual(u0), maps.tension_residual(u1)
        assert r1 < 0.6 * r0
        assert r1 / r0 == pytest.approx(t1 / t0, rel=1e-6)


class TestBoundRatios:
    def test_trivial_inputs_flag_undefined_ratio(self, grid):
        table = verify.bound_ratios(
            identity_matrix_form(grid, 3), MatrixForm.zeros(grid, 2, 3),
            MatrixForm.zeros(grid, 1, 3))
        assert table.rotation_distance_sup == 0.0
        assert table.negdet_points == 0
        assert table.da_n1 == 0.0 and table.db_n2 == 0.0
        assert np.isnan(table.ratio)

    def test_constant_rotation_has_zero_distance(self, grid):
        theta = 0.7
        r = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                      [np.sin(theta), np.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        shape = (1,) + (grid.res,) * grid.n + (3, 3)
        A = MatrixForm(grid, 0, np.broadcast_to(r, shape).copy())
        table = verify.bound_ratios(A, MatrixForm.zeros(grid, 2, 3),
                                    MatrixForm.zeros(grid, 1, 3))
        assert table.rotation_distance_sup <= 1e-12
        assert table.da_n1 <= 1e-12

    def test_reflection_points_counted_not_folded(self, grid):
        flip = np.diag([-1.0, 1.0, 1.0])
        shape = (1,) + (grid.res,) * grid.n + (3, 3)
        A = MatrixForm(grid, 0, np.broadcast_to(flip, shape).copy())
        table = verify.bound_ratios(A, MatrixForm.zeros(grid, 2, 3),
                                    MatrixForm.zeros(grid, 1, 3))
        assert table.negdet_points == grid.res ** grid.n
        assert np.isnan(table.rotation_distance_sup)

    def test_sup_skips_only_the_reflection_points(self, grid):
        # Scaled identities (1 + s) I, with a reflection diag(-3, 1, 1) on one
        # slab: the reflections lie farthest from a rotation, but their
        # determinant is negative, so the sup is taken over the rest.
        s = 0.2 * np.sin(2 * np.pi * grid.coords()[1]) ** 2
        coeffs = (1.0 + s)[..., None, None] * np.eye(3)
        coeffs[: grid.res // 4] = np.diag([-3.0, 1.0, 1.0])
        table = verify.bound_ratios(MatrixForm(grid, 0, coeffs[None]),
                                    MatrixForm.zeros(grid, 2, 3),
                                    MatrixForm.zeros(grid, 1, 3))
        assert table.negdet_points == grid.res ** grid.n // 4
        assert table.rotation_distance_sup == pytest.approx(
            np.sqrt(3.0) * s[grid.res // 4:].max(), rel=1e-12)

    def test_matches_solver_diagnostics(self, grid):
        omega = synth.synthetic_connection(
            grid, 3, np.random.default_rng(21), kmax=2, exact_frac=0.3,
            target_norm=1e-2)
        pair = gauge.minimize_gauge(omega)
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        table = verify.bound_ratios(A, B, omega)
        assert table.da_n1 == pytest.approx(report.da_n1, rel=1e-12)
        assert table.db_n2 == pytest.approx(report.db_n2, rel=1e-12)
        assert table.negdet_points == 0
        assert table.ratio > 0.0


class TestConvergenceStudy:
    def test_order_two_fit_is_exact(self):
        fake = lambda res: verify.ResidualReport(l2=(1.0 / res) ** 2, sup=0.0)
        report = verify.convergence_study(fake, [16, 32, 64])
        assert report.order == pytest.approx(2.0, abs=1e-12)
        assert report.ladder == ((16, (1 / 16) ** 2), (32, (1 / 32) ** 2),
                                 (64, (1 / 64) ** 2))

    def test_floor_reported_instead_of_fit(self):
        fake = lambda res: verify.ResidualReport(l2=1e-13, sup=0.0)
        assert verify.convergence_study(fake, [8, 16, 32]).order == "floor"

    def test_ladder_validation(self):
        fake = lambda res: verify.ResidualReport(l2=1.0, sup=0.0)
        with pytest.raises(ValueError, match="at least 3"):
            verify.convergence_study(fake, [16, 32])
        with pytest.raises(ValueError, match="must double"):
            verify.convergence_study(fake, [16, 24, 48])

    def test_geodesic_sphere_ladder_sits_at_floor(self):
        def evaluate(res):
            return verify.sphere_divergence_residual(connection.omega_sphere(
                maps.geodesic_map(Grid(3, res), 3, (1, 0, 0))))

        report = verify.convergence_study(evaluate, [16, 32, 64])
        assert report.order == "floor"
        assert all(l2 <= 1e-9 for _, l2 in report.ladder)
